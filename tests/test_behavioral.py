import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklock import corpus
from tklock.behavioral import BehManifest, lock_behavioral, wrong_key_cubes
from tklock.fsm import FsmError, parse_kiss2, simulate_fsm, write_kiss2
from tklock.keys import KeySchedule, generate_key_schedule, to_binary


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 8), data=st.data())
def test_wrong_key_cubes_partition_complement(width, data):
    value = data.draw(st.integers(0, 2**width - 1))
    cubes = wrong_key_cubes(value, width)
    assert len(cubes) == width
    covered = []
    for cube in cubes:
        free = cube.count("-")
        for fill in itertools.product("01", repeat=free):
            concrete = list(cube)
            it = iter(fill)
            for i, ch in enumerate(concrete):
                if ch == "-":
                    concrete[i] = next(it)
            covered.append(int("".join(concrete), 2))
    assert sorted(covered) == sorted(set(range(2**width)) - {value})
    assert len(covered) == len(set(covered))


def test_lock_detector_shape(detector):
    locked, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    assert len(locked.states) == 16
    assert locked.input_width == 5
    assert locked.output_width == 1
    assert locked.reset_state == "S0@0"
    assert ".i 5" in write_kiss2(locked)


def test_state_count_law():
    for name in ("toggle", "serial_adder", "handshake"):
        fsm = corpus.load_kiss2(name)
        for num_keys in (2, 3, 5):
            locked, _ = lock_behavioral(fsm, generate_key_schedule(num_keys, 2, 4), seed=4)
            assert len(locked.states) == len(fsm.states) * num_keys


def test_non_power_of_two_keys_allowed():
    fsm = corpus.load_kiss2("toggle")
    locked, manifest = lock_behavioral(fsm, generate_key_schedule(3, 2, 0), seed=0)
    assert manifest.schedule.period == 3
    assert len(locked.states) == 6


def test_single_state_machine_degenerate():
    fsm = corpus.load_kiss2("single")
    locked, manifest = lock_behavioral(fsm, generate_key_schedule(2, 1, 0), seed=0)
    assert len(locked.states) == 2
    # only one state exists, so the wrongful choice must equal the correct one
    assert set(manifest.wrongful_map.values()) == {"S"}


def test_config_rejects_bad_params(detector):
    with pytest.raises(ValueError, match="num_keys must be >= 2"):
        lock_behavioral(detector, KeySchedule((3,), 4))
    with pytest.raises(ValueError, match="need at least 2 key values"):
        generate_key_schedule(1, 4, 0)
    with pytest.raises(ValueError, match="key width must be >= 1"):
        KeySchedule((0, 0), 0)


def test_lock_rejects_nondeterministic_machine():
    from tklock.fsm import Fsm, Transition

    bad = Fsm(
        input_width=1,
        output_width=1,
        reset_state="a",
        transitions=(Transition("-", "a", "a", "0"), Transition("0", "a", "b", "0"),
                     Transition("-", "b", "a", "0")),
    )
    with pytest.raises(FsmError, match="nondeterministic"):
        lock_behavioral(bad, generate_key_schedule(2, 1, 0))


def _locked_inputs(schedule: KeySchedule, bits: str, wrong: dict[int, int] | None = None):
    rows = []
    for step, bit in enumerate(bits):
        value = schedule.key_at(step)
        if wrong and step in wrong:
            value = wrong[step]
        rows.append(to_binary(value, schedule.width) + bit)
    return rows


def test_correct_key_equivalence_exhaustive_depth8(detector):
    locked, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    for length in range(9):
        for bits in itertools.product("01", repeat=length):
            word = "".join(bits)
            orig_out, _ = simulate_fsm(detector, list(word))
            lock_out, _ = simulate_fsm(locked, _locked_inputs(manifest.schedule, word))
            assert orig_out == lock_out, word


def test_single_wrong_key_diverges_at_that_step(detector):
    locked, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    schedule = manifest.schedule
    word = "10011001"
    _, correct_states = simulate_fsm(detector, list(word))
    for step in range(8):
        expected_key = schedule.key_at(step)
        for value in range(16):
            if value == expected_key:
                continue
            rows = _locked_inputs(schedule, word, wrong={step: value})
            _, states = simulate_fsm(locked, rows[: step + 1])
            src = correct_states[step - 1] if step else detector.reset_state
            wrongful = manifest.wrongful_map[(src, step % 4, word[step])]
            assert states[step] == f"{wrongful}@{(step + 1) % 4}"
            assert wrongful != correct_states[step]


def test_wrongful_states_never_equal_correct(detector):
    _, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    next_state = {(t.src, t.inputs): t.dst for t in detector.transitions}
    for (state, _, pattern), wrongful in manifest.wrongful_map.items():
        assert wrongful != next_state[(state, pattern)]


def test_wrong_keys_corrupt_outputs_eventually(detector):
    # state divergence must become observable on some continuation
    locked, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    schedule = manifest.schedule
    diverged = False
    for word in ("".join(bits) for bits in itertools.product("01", repeat=6)):
        orig_out, _ = simulate_fsm(detector, list(word))
        lock_out, _ = simulate_fsm(
            locked, _locked_inputs(schedule, word, wrong={0: (schedule.key_at(0) + 1) % 16})
        )
        if orig_out != lock_out:
            diverged = True
            break
    assert diverged


def test_locked_machine_round_trips(detector):
    locked, _ = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    text = write_kiss2(locked)
    assert parse_kiss2(text) == locked


def test_lock_is_deterministic(detector):
    schedule = generate_key_schedule(4, 4, 11)
    first, first_manifest = lock_behavioral(detector, schedule, seed=11)
    second, second_manifest = lock_behavioral(detector, schedule, seed=11)
    assert write_kiss2(first) == write_kiss2(second)
    assert first_manifest.to_json() == second_manifest.to_json()


def test_manifest_json_round_trip(detector):
    _, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    again = BehManifest.from_json(manifest.to_json())
    assert again.schedule == manifest.schedule
    assert again.state_map == manifest.state_map
    assert again.wrongful_map == manifest.wrongful_map



def _rekey(name, old, new):
    """An edit of a manifest document: rename key `old` of map `name` to `new`."""
    return lambda doc: doc[name].__setitem__(new, doc[name].pop(old))


@pytest.mark.parametrize(
    "edit,detail",
    [
        (lambda doc: doc.clear(), "manifest field 'schedule' is missing or not a dict"),
        (lambda doc: [doc], "manifest is not a JSON object"),
        (lambda doc: doc.__delitem__("state_map"), "field 'state_map' is missing or not a dict of str"),
        (lambda doc: doc["wrongful_map"].update({"S0@0|0": 1}), "'wrongful_map' is missing or not a dict"),
        (lambda doc: doc["schedule"].update(width=True), "manifest field 'schedule.width' is missing"),
        (lambda doc: doc["schedule"].update(keys=[1, 5], width=2),
         "manifest field 'schedule.keys' is invalid: key value 5 out of range for width 2"),
        (lambda doc: doc["schedule"].update(keys=[]),
         "manifest field 'schedule.keys' is invalid: schedule must hold at least one key"),
        (_rekey("state_map", "S0@0", "S0"), "manifest field 'state_map' has a malformed key 'S0'"),
        (_rekey("state_map", "S0@0", "S0@x"), "manifest field 'state_map' has a malformed key 'S0@x'"),
        (_rekey("wrongful_map", "S0@0|0", "S0@0"), "field 'wrongful_map' has a malformed key 'S0@0'"),
        (_rekey("wrongful_map", "S0@0|0", "S0|0"), "field 'wrongful_map' has a malformed key 'S0|0'"),
    ],
    ids=["empty", "json-list", "no-state-map", "wrongful-not-str", "width-true", "key-out-of-range",
         "no-keys", "state-no-time", "state-bad-time", "wrongful-no-pattern", "wrongful-no-time"],
)
def test_manifest_from_json_names_the_bad_field(detector, edit, detail):
    """A malformed document used to raise KeyError, TypeError or a bare
    unpacking ValueError."""
    _, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    doc = json.loads(manifest.to_json())
    doc = edit(doc) or doc
    with pytest.raises(ValueError, match=re.escape(detail)):
        BehManifest.from_json(json.dumps(doc))


def test_explicit_schedule_respected(detector):
    schedule = KeySchedule(keys=(5, 9, 0, 15), width=4)
    _, manifest = lock_behavioral(detector, schedule, seed=0)
    assert manifest.schedule == schedule


def test_dont_care_inputs_survive_locking():
    fsm = corpus.load_kiss2("handshake")
    locked, manifest = lock_behavioral(fsm, generate_key_schedule(2, 2, 1), seed=1)
    word = ["00", "10", "11", "01"]
    orig_out, _ = simulate_fsm(fsm, word)
    rows = [to_binary(manifest.schedule.key_at(i), 2) + word[i] for i in range(len(word))]
    lock_out, _ = simulate_fsm(locked, rows)
    assert orig_out == lock_out
