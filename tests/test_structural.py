import json
import random
import re

import pytest

from tklock import corpus
from tklock.circuit import Dff, parse_bench, validate, write_bench
from tklock.keys import KeySchedule, generate_key_schedule, split_inputs
from tklock.sim import KeyPolicy, Stimulus, simulate
from tklock.structural import (
    LockManifest,
    added_mux_count,
    expected_added_gate_count,
    lock_structural,
    select_lock_targets,
    tree_layers,
    wrongful_sources,
)
from tests.conftest import S27_SCHEDULE, S27_SEED


def test_config_rejects_non_power_of_two(s27):
    for period in (1, 3, 6):
        with pytest.raises(ValueError, match="num_keys must be a power of two >= 2"):
            lock_structural(s27, KeySchedule((0,) * period, 1))


def test_config_rejects_bad_widths(s27):
    # a schedule holds width >= 1; the locker checks the flip-flop count
    with pytest.raises(ValueError, match="key width must be >= 1"):
        KeySchedule((0, 0), 0)
    with pytest.raises(ValueError, match="key width must be >= 1"):
        generate_key_schedule(4, 0, 0)
    schedule = generate_key_schedule(4, 2, 0)
    with pytest.raises(ValueError, match="num_locked_ffs must be >= 1"):
        lock_structural(s27, schedule, num_locked_ffs=0)
    with pytest.raises(ValueError, match="explicit target count does not match num_locked_ffs"):
        lock_structural(s27, schedule, targets=["G5", "G6"])


def test_select_targets_stable_per_seed(s27):
    first = select_lock_targets(s27, 1, seed=3)
    second = select_lock_targets(s27, 1, seed=3)
    assert first == second
    assert first[0].output in {"G5", "G6", "G7"}


def test_select_targets_count_error(s27):
    with pytest.raises(ValueError, match="cannot lock 4 of 3"):
        select_lock_targets(s27, 4, seed=0)


def test_select_targets_explicit(s27):
    targets = select_lock_targets(s27, 1, seed=0, explicit=["G6"])
    assert targets[0].output == "G6"
    with pytest.raises(ValueError, match="unknown lock target"):
        select_lock_targets(s27, 1, seed=0, explicit=["nope"])


def test_wrongful_sources_s27(s27):
    target = next(d for d in s27.dffs if d.output == "G5")
    slots = wrongful_sources(s27, target, 3, seed=11)
    other_d_nets = {d.input for d in s27.dffs if d.output != "G5"}
    assert len(slots) == 3
    assert set(slots) <= other_d_nets
    assert target.input not in slots
    # 3 slots over 2 sources: one must repeat
    assert len(set(slots)) == 2


def test_wrongful_sources_single_dff_falls_back_to_complement():
    n = parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NOT(a)\n")
    slots = wrongful_sources(n, n.dffs[0], 3, seed=0, complement_net="cl_f0_dcompl")
    assert slots == ["cl_f0_dcompl"] * 3


def test_wrongful_sources_two_dffs():
    text = "INPUT(a)\nOUTPUT(q0)\nq0 = DFF(d0)\nq1 = DFF(d1)\nd0 = NOT(a)\nd1 = BUF(q0)\n"
    n = parse_bench(text)
    slots = wrongful_sources(n, n.dffs[0], 3, seed=0)
    assert slots == ["d1", "d1", "d1"]


def test_wrongful_sources_no_dffs():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    with pytest.raises(ValueError, match="no flip-flops"):
        wrongful_sources(n, Dff("q", "d"), 1, seed=0)


def test_lock_s27_shape(s27, s27_locked):
    locked, manifest = s27_locked
    assert manifest.layers == 3
    assert manifest.counter_state_nets == ["cl_cnt0", "cl_cnt1"]
    assert manifest.key_input_nets == ["keyinput0", "keyinput1"]
    assert len(manifest.onehot_time_nets) == 4
    assert added_mux_count(4, 2) == 15
    assert len(locked.dffs) - len(s27.dffs) == 2
    assert len(locked.inputs) - len(s27.inputs) == 2
    assert len(locked.gates) - len(s27.gates) == expected_added_gate_count(4, 2, 1, 0) == 59
    assert locked.outputs == s27.outputs


def test_lock_smallest_config(s27):
    locked, manifest = lock_structural(s27, generate_key_schedule(2, 1, 1), seed=1)
    assert manifest.layers == 2
    assert len(manifest.counter_state_nets) == 1
    assert added_mux_count(2, 1) == 3
    assert len(locked.gates) - len(s27.gates) == expected_added_gate_count(2, 1, 1, 0)
    assert validate(locked) == []


@pytest.mark.parametrize("num_keys", [2, 4, 8, 16])
def test_tree_layers_match_formula(s27, num_keys):
    locked, manifest = lock_structural(s27, generate_key_schedule(num_keys, 2, 3), seed=3)
    assert manifest.layers == tree_layers(num_keys)
    assert manifest.layers == num_keys.bit_length()
    assert validate(locked) == []


def test_lock_rejects_already_locked(s27, s27_locked):
    locked, _ = s27_locked
    with pytest.raises(ValueError, match="reserved lock prefix"):
        lock_structural(locked, generate_key_schedule(2, 1, 0))


def test_lock_rejects_no_dffs():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    with pytest.raises(ValueError, match="no flip-flops"):
        lock_structural(n, generate_key_schedule(2, 1, 0))


def test_original_nets_untouched(s27, s27_locked):
    locked, manifest = s27_locked
    locked_gates = {g.output: g for g in locked.gates}
    for gate in s27.gates:
        assert locked_gates[gate.output] == gate
    locked_dffs = {d.output: d for d in locked.dffs}
    target = manifest.locked_ffs[0].ff_output_net
    for dff in s27.dffs:
        if dff.output == target:
            assert locked_dffs[dff.output].input == manifest.locked_ffs[0].mux_tree_output_net
        else:
            assert locked_dffs[dff.output] == dff


@pytest.mark.parametrize("num_keys", [2, 4, 8, 16])
def test_counter_one_hot_decode(s27, num_keys):
    locked, manifest = lock_structural(s27, generate_key_schedule(num_keys, 1, 5), seed=5)
    cycles = 4 * num_keys
    stim = Stimulus.from_strings(
        ["0000"] * cycles, KeyPolicy.correct(manifest.schedule)
    )
    trace = simulate(locked, stim, watch=tuple(manifest.onehot_time_nets))
    for cycle in range(cycles):
        values = [trace.value(cycle, net) for net in manifest.onehot_time_nets]
        assert values == [1 if j == cycle % num_keys else 0 for j in range(num_keys)]


def test_counter_starts_at_zero_in_x_init(s27_locked):
    locked, manifest = s27_locked
    stim = Stimulus.from_strings(["0000"] * 2, KeyPolicy.correct(manifest.schedule))
    trace = simulate(locked, stim, init="x", watch=tuple(manifest.counter_state_nets))
    assert trace.watched[0] == (0, 0)
    assert trace.watched[1] == (1, 0)


def test_wrong_key_loads_wrongful_source(s27_locked):
    locked, manifest = s27_locked
    record = manifest.locked_ffs[0]
    rng = random.Random(99)
    for t in range(4):
        for value in range(4):
            if value == manifest.schedule.keys[t]:
                continue
            rows = ["".join(str(rng.randint(0, 1)) for _ in range(4)) for _ in range(t + 2)]
            policy = KeyPolicy.tampered(manifest.schedule, {t: value})
            wrongful = record.wrongful_source_nets[(t, value)]
            trace = simulate(
                locked,
                Stimulus.from_strings(rows, policy),
                watch=(wrongful, record.ff_output_net),
            )
            assert trace.value(t + 1, record.ff_output_net) == trace.value(t, wrongful)


def test_manifest_wrongful_map_complete(s27_locked):
    _, manifest = s27_locked
    record = manifest.locked_ffs[0]
    expected_slots = {(t, v) for t in range(4) for v in range(4) if v != manifest.schedule.keys[t]}
    assert set(record.wrongful_source_nets) == expected_slots
    assert record.correct_d_net not in record.wrongful_source_nets.values()


def test_manifest_nets_exist_and_drive_as_described(s27_locked):
    locked, manifest = s27_locked
    drivers = {name: "input" for name in locked.inputs}
    drivers.update((gate.output, gate) for gate in locked.gates)
    drivers.update((dff.output, dff) for dff in locked.dffs)
    for net in manifest.key_input_nets:
        assert drivers[net] == "input"
    for net in manifest.counter_state_nets:
        assert isinstance(drivers[net], Dff)
    for net in manifest.onehot_time_nets:
        assert net in drivers
    for record in manifest.locked_ffs:
        assert drivers[record.ff_output_net].input == record.mux_tree_output_net
        for net in record.wrongful_source_nets.values():
            assert net in drivers


def test_lock_is_deterministic(s27):
    first_locked, first_manifest = lock_structural(s27, S27_SCHEDULE, seed=S27_SEED)
    second_locked, second_manifest = lock_structural(s27, S27_SCHEDULE, seed=S27_SEED)
    assert write_bench(first_locked) == write_bench(second_locked)
    assert first_manifest.to_json() == second_manifest.to_json()


def test_manifest_json_round_trip(s27_locked):
    _, manifest = s27_locked
    again = LockManifest.from_json(manifest.to_json())
    assert again.to_json() == manifest.to_json()
    assert again.schedule == manifest.schedule
    assert again.locked_ffs[0].wrongful_source_nets == manifest.locked_ffs[0].wrongful_source_nets



@pytest.mark.parametrize(
    "edit,field",
    [
        (lambda doc: doc["schedule"].update(width=True), "schedule.width"),
        (lambda doc: doc["schedule"].update(keys=[1, True, 0, 1]), "schedule.keys"),
        (lambda doc: doc.update(layers=False), "layers"),
        (lambda doc: doc["schedule"].update(width=2.0), "schedule.width"),
    ],
    ids=["width-true", "key-true", "layers-false", "width-float"],
)
def test_manifest_json_booleans_are_not_ints(s27_locked, edit, field):
    """JSON true is a Python bool, which is an int: `"width": true` used to pass
    the type check and fail later as "schedule width True does not match"."""
    _, manifest = s27_locked
    doc = json.loads(manifest.to_json())
    edit(doc)
    with pytest.raises(ValueError, match=rf"manifest field '{re.escape(field)}' is missing or not a"):
        LockManifest.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "schedule,detail",
    [
        ({"keys": [1, 5], "width": 2}, "'schedule.keys' is invalid: key value 5 out of range for width 2"),
        ({"keys": [], "width": 2}, "'schedule.keys' is invalid: schedule must hold at least one key"),
        ({"keys": [0], "width": 0}, "'schedule.width' is invalid: key width must be >= 1"),
    ],
    ids=["out-of-range", "empty", "width-zero"],
)
def test_manifest_schedule_errors_name_the_field(s27_locked, schedule, detail):
    """The schedule's own checks name the manifest field, like the type checks."""
    _, manifest = s27_locked
    doc = json.loads(manifest.to_json())
    doc["schedule"] = schedule
    with pytest.raises(ValueError, match=rf"^manifest field {re.escape(detail)}$"):
        LockManifest.from_json(json.dumps(doc))


def test_lock_multiple_ffs(s27):
    locked, manifest = lock_structural(
        s27, generate_key_schedule(4, 2, 2), num_locked_ffs=3, seed=2
    )
    assert len(manifest.locked_ffs) == 3
    assert len(locked.gates) - len(s27.gates) == expected_added_gate_count(4, 2, 3, 0)
    assert validate(locked) == []


def test_lock_single_dff_circuit_uses_complement():
    n = parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NOT(a)\n")
    locked, manifest = lock_structural(n, generate_key_schedule(2, 1, 0), seed=0)
    record = manifest.locked_ffs[0]
    assert set(record.wrongful_source_nets.values()) == {"cl_f0_dcompl"}
    assert len(locked.gates) - len(n.gates) == expected_added_gate_count(2, 1, 1, fallback_ffs=1)
    assert validate(locked) == []


def test_explicit_targets_are_locked(s27):
    _, manifest = lock_structural(s27, generate_key_schedule(2, 1, 0), targets=["G6"])
    assert manifest.locked_ffs[0].ff_output_net == "G6"


def test_locked_output_reparses(s27_locked):
    locked, _ = s27_locked
    again = parse_bench(write_bench(locked), name=locked.name)
    assert validate(again) == []
    nonkey, key = split_inputs(again)
    assert key == ["keyinput0", "keyinput1"]
