import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklock import corpus
from tklock.analysis import check_equivalence_random
from tklock.circuit import Dff, Gate, Netlist, parse_bench
from tklock.keys import COUNTER_NET_PREFIX, KEY_INPUT_PREFIX, KeySchedule, generate_key_schedule
from tklock.sim import (
    _MAX_OP_LISTS,
    KeyPolicy,
    PlaneSim,
    Stimulus,
    Trace,
    minterm_planes,
    simulate,
    value_str,
)
from tklock.structural import lock_structural
from tklock.synth import random_netlist
from tests.compile_reference import is_subsequence, reference_ops
from tests.conftest import S27_SCHEDULE, S27_SEED
from tests.kleene_oracle import kleene_eval, simulate_kleene

VALUES = (0, 1, None)


def test_kleene_annihilators():
    assert kleene_eval("AND", [0, None]) == 0
    assert kleene_eval("OR", [None, None]) is None
    assert kleene_eval("XOR", [1, None]) is None
    assert kleene_eval("OR", [1, None]) == 1
    assert kleene_eval("NOT", [None]) is None
    assert kleene_eval("NOT", [0]) == 1


def _brute_kleene(kind, values):
    """Independent oracle: a gate is unknown iff resolving the unknown fanins
    both ways can change its definite two-valued result."""
    base = {"AND": all, "NAND": all, "OR": any, "NOR": any}
    unknown_slots = [i for i, v in enumerate(values) if v is None]
    results = set()
    for fill in itertools.product((0, 1), repeat=len(unknown_slots)):
        concrete = list(values)
        for slot, bit in zip(unknown_slots, fill):
            concrete[slot] = bit
        if kind in base:
            r = int(base[kind](concrete))
        else:  # XOR / XNOR
            r = 0
            for v in concrete:
                r ^= v
        if kind in ("NAND", "NOR", "XNOR"):
            r = 1 - r
        results.add(r)
    return results.pop() if len(results) == 1 else None


@pytest.mark.parametrize("kind", ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"])
def test_kleene_matches_resolution_oracle(kind):
    """Both the scalar oracle and the plane kernel resolve unknowns exactly."""
    for arity in (2, 3):
        names = [f"a{i}" for i in range(arity)]
        gate = parse_bench(
            "".join(f"INPUT({a})\n" for a in names) + f"OUTPUT(y)\ny = {kind}({', '.join(names)})\n"
        )
        for values in itertools.product(VALUES, repeat=arity):
            expected = _brute_kleene(kind, values)
            assert kleene_eval(kind, list(values)) == expected, (kind, values)
            row = "".join(value_str(v) for v in values)
            assert simulate(gate, Stimulus.from_strings([row])).outputs[0][0] == expected, (kind, values)


@pytest.mark.parametrize("lanes", [1, 70])
@pytest.mark.parametrize("arity", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"])
def test_wide_gates_match_kleene_oracle(kind, arity, lanes):
    """A gate with 3-6 fanins compiles to a chain of two-fanin ops. Every
    0/1 fanin tuple goes through the two-valued pass, then every 0/1/x tuple
    through the Kleene pass, `lanes` tuples per step; each lane matches
    :func:`kleene_eval`."""
    names = [f"a{i}" for i in range(arity)]
    gate = parse_bench(
        "".join(f"INPUT({a})\n" for a in names) + f"OUTPUT(y)\ny = {kind}({', '.join(names)})\n"
    )
    sim = PlaneSim(gate, lanes)
    for alphabet, kleene in (((0, 1), False), (VALUES, True)):
        cases = list(itertools.product(alphabet, repeat=arity))
        for start in range(0, len(cases), lanes):
            batch = cases[start : start + lanes]
            sim.step(
                [sum((v == 1) << lane for lane, v in enumerate(vs)) for vs in zip(*batch)],
                None,
                [sum((v is None) << lane for lane, v in enumerate(vs)) for vs in zip(*batch)],
            )
            assert sim._x_stale == (kleene and any(None in values for values in batch))
            for lane, values in enumerate(batch):
                got = _lane_value(sim.output_planes()[0], lane)
                assert got == kleene_eval(kind, values), (values, kleene)


def test_buf_circuit_passthrough():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    trace = simulate(n, Stimulus.from_strings(["1", "0", "1"]))
    assert [row[0] for row in trace.outputs] == [1, 0, 1]


def test_s27_all_x_cycle0_output_unknown(s27):
    trace = simulate(s27, Stimulus.from_strings(["0101"]), init="x")
    assert trace.value(0, "G17") is None
    assert trace.init_mode == "x"


def test_s27_all_zero_is_definite(s27):
    trace = simulate(s27, Stimulus.from_strings(["0101", "1010", "1100"]))
    for row in trace.outputs:
        assert all(v in (0, 1) for v in row)


def test_determinism(s27):
    stim = Stimulus.from_strings(["0101", "1111", "0000"])
    a = simulate(s27, stim)
    b = simulate(s27, stim)
    assert a == b


def test_dff_latches_at_cycle_end():
    n = parse_bench("INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n")
    trace = simulate(n, Stimulus.from_strings(["1", "0", "1"]))
    # cycle 0 shows the zero-init state; inputs appear one cycle later
    assert [row[0] for row in trace.outputs] == [0, 1, 0]


def test_locked_s27_matches_original_under_correct_keys(s27, s27_locked):
    locked, manifest = s27_locked
    rng = random.Random(5)
    rows = ["".join(str(rng.randint(0, 1)) for _ in range(4)) for _ in range(32)]
    orig_trace = simulate(s27, Stimulus.from_strings(rows))
    locked_trace = simulate(
        locked, Stimulus.from_strings(rows, KeyPolicy.correct(manifest.schedule))
    )
    assert orig_trace.outputs == locked_trace.outputs


def test_key_bus_carries_schedule(s27_locked):
    locked, manifest = s27_locked
    rows = ["0000"] * 9
    trace = simulate(locked, Stimulus.from_strings(rows, KeyPolicy.correct(manifest.schedule)))
    names = trace.input_names
    k0, k1 = names.index("keyinput0"), names.index("keyinput1")
    for cycle in range(9):
        value = trace.inputs[cycle][k0] | (trace.inputs[cycle][k1] << 1)
        assert value == manifest.schedule.key_at(cycle)


def test_tampered_policy_overrides_single_cycle(s27_locked):
    locked, manifest = s27_locked
    policy = KeyPolicy.tampered(manifest.schedule, {2: 0})
    assert [policy.key_value_at(c) for c in range(5)] == [1, 3, 0, 0, 1]


def test_policy_rejected_without_key_inputs(s27):
    stim = Stimulus.from_strings(["0000"], KeyPolicy.static(1))
    with pytest.raises(ValueError, match="without key inputs"):
        simulate(s27, stim)


def test_key_inputs_require_policy(s27_locked):
    locked, _ = s27_locked
    with pytest.raises(ValueError, match="key policy is required"):
        simulate(locked, Stimulus.from_strings(["0000"]))


def test_static_key_out_of_range(s27_locked):
    locked, _ = s27_locked
    with pytest.raises(ValueError, match="out of range"):
        simulate(locked, Stimulus.from_strings(["0000"], KeyPolicy.static(4)))


def test_width_mismatch_rejected(s27):
    with pytest.raises(ValueError, match="does not match"):
        simulate(s27, Stimulus.from_strings(["01"]))


def test_override_outside_stimulus_rejected(s27_locked):
    locked, manifest = s27_locked
    stim = Stimulus.from_strings(["0000"], KeyPolicy.tampered(manifest.schedule, {5: 1}))
    with pytest.raises(ValueError, match="outside stimulus"):
        simulate(locked, stim)


def test_trace_csv_layout(s27):
    trace = simulate(s27, Stimulus.from_strings(["0101"]), init="x", watch=("G11",))
    csv = trace.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "cycle,G0,G1,G2,G3,G17,G11"
    assert lines[1].startswith("0,0,1,0,1,x")


def test_value_str():
    assert [value_str(v) for v in (0, 1, None)] == ["0", "1", "x"]


def test_minterm_planes():
    planes = minterm_planes(3)
    for lane in range(8):
        bits = tuple((p >> lane) & 1 for p in planes)
        assert bits == tuple((lane >> i) & 1 for i in range(3))


def _lane_value(plane: tuple[int, int], lane: int) -> int | None:
    h, x = plane
    return None if (x >> lane) & 1 else (h >> lane) & 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 5),
    n_dffs=st.integers(0, 5),
    n_gates=st.integers(1, 30),
    init=st.sampled_from(["zero", "x"]),
    alphabet=st.sampled_from(["01", "01x"]),
    lanes=st.sampled_from([1, 8, 70]),
)
def test_plane_sim_matches_scalar(seed, n_inputs, n_dffs, n_gates, init, alphabet, lanes):
    """The bit-parallel kernel and the scalar Kleene oracle agree lane by lane,
    on known stimuli (the two-valued pass when init is zero) and with
    unknowns on the input planes, over one or several machine words."""
    n = random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    rng = random.Random(seed + 1)
    cycles = 5
    rows_per_lane = [
        ["".join(rng.choice(alphabet) for _ in range(n_inputs)) for _ in range(cycles)]
        for _ in range(lanes)
    ]
    plane = PlaneSim(n, lanes)
    plane.reset(init)
    traces = [
        simulate_kleene(n, Stimulus.from_strings(rows), init=init) for rows in rows_per_lane
    ]

    def bit_plane(cycle, i, char):
        return sum((rows_per_lane[lane][cycle][i] == char) << lane for lane in range(lanes))

    for cycle in range(cycles):
        plane.step(
            [bit_plane(cycle, i, "1") for i in range(n_inputs)],
            None,
            [bit_plane(cycle, i, "x") for i in range(n_inputs)],
        )
        for oi, name in enumerate(n.outputs):
            for lane in range(lanes):
                expected = traces[lane].outputs[cycle][oi]
                assert _lane_value(plane.output_planes()[oi], lane) == expected, (name, cycle, lane)


def test_random_netlists_mix_two_and_wide_fanin_gates():
    """The kernel tests' random netlists hold 1-, 2- and 3-fanin gates, so
    they exercise (a, a) ops and chained ops."""
    arities = set()
    for seed in range(20):
        n = random_netlist(seed, 3, 2, 30, n_outputs=2)
        arities.update(min(len(g.fanins), 3) for g in n.gates)
    assert arities == {1, 2, 3}


@pytest.mark.parametrize("seed", range(6))
def test_unknown_plane_cleared_after_kleene_step(seed):
    """One PlaneSim steps with X, then without, then with X again; every net
    matches the Kleene oracle at every step, so no unknown bit goes stale."""
    n_inputs, lanes = 4, 70
    n = random_netlist(seed, n_inputs, 0, 30, n_outputs=2, name="comb")
    rng = random.Random(seed)
    rows_per_lane = [
        [
            "".join(rng.choice("01x" if cycle in (0, 3) else "01") for _ in range(n_inputs))
            for cycle in range(4)
        ]
        for _ in range(lanes)
    ]
    nets = tuple(g.output for g in n.gates)
    traces = [
        simulate_kleene(n, Stimulus.from_strings(rows), watch=nets) for rows in rows_per_lane
    ]
    plane = PlaneSim(n, lanes)
    plane.reset("zero")
    for cycle in range(4):
        planes = {
            char: [
                sum((rows_per_lane[lane][cycle][i] == char) << lane for lane in range(lanes))
                for i in range(n_inputs)
            ]
            for char in "1x"
        }
        plane.step(planes["1"], None, planes["x"])
        for ni, net in enumerate(nets):
            idx = plane.c.index[net]
            for lane in range(lanes):
                got = _lane_value((plane.h[idx], plane.x[idx]), lane)
                assert got == traces[lane].watched[cycle][ni], (net, cycle, lane)


def test_unknown_bit_wins_over_high_bit(s27):
    """A lane set on both input planes is unknown, whatever its high bit."""
    lanes = 16
    mask = (1 << lanes) - 1
    rng = random.Random(3)
    loose, clean = PlaneSim(s27, lanes), PlaneSim(s27, lanes)
    for _ in range(4):
        unknown = [rng.getrandbits(lanes) for _ in range(4)]
        loose.step([mask] * 4, None, unknown)
        clean.step([mask & ~x for x in unknown], None, unknown)
        assert loose.output_planes() == clean.output_planes()
        assert loose.next_state_planes() == clean.next_state_planes()


@pytest.mark.parametrize("stem,num_keys,key_bits", [("b03_like", 2, 4), ("b14_like", 8, 3)])
def test_two_valued_pass_matches_kleene_pass(stem, num_keys, key_bits):
    """Lanes 0..L-1 carry the same known stimulus in two sims; an X on lane L
    of one sim forces its 3-valued pass, a 0 there keeps the other two-valued.
    The known lanes agree bit for bit and stay known."""
    netlist, manifest = lock_structural(
        corpus.load_bench(stem), generate_key_schedule(num_keys, key_bits, 1), seed=1
    )
    known_lanes = 100
    known = (1 << known_lanes) - 1
    n_inputs = len(netlist.compiled.nonkey_idx)
    with_x, without_x = PlaneSim(netlist, known_lanes + 1), PlaneSim(netlist, known_lanes + 1)
    with_x.reset("zero")
    without_x.reset("zero")
    rng = random.Random(num_keys)
    for cycle in range(6):
        highs = [rng.getrandbits(known_lanes) for _ in range(n_inputs)]
        key = manifest.schedule.key_at(cycle)
        with_x.step(highs, key, [1 << known_lanes] * n_inputs)
        without_x.step(highs, key, [0] * n_inputs)
        assert any(x >> known_lanes for x in with_x.x)
        for got, want in (
            (with_x.output_planes(), without_x.output_planes()),
            (with_x.next_state_planes(), without_x.next_state_planes()),
        ):
            assert [(h & known, x & known) for h, x in got] == [(h & known, x) for h, x in want]
            assert all(x == 0 for _, x in want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 4),
    n_dffs=st.integers(1, 4),
    n_gates=st.integers(1, 25),
    key_bits=st.integers(1, 2),
    num_keys=st.sampled_from([2, 4]),
    init=st.sampled_from(["zero", "x"]),
    data=st.data(),
)
def test_simulate_matches_kleene_oracle(seed, n_inputs, n_dffs, n_gates, key_bits, num_keys, init, data):
    """`simulate` equals the scalar oracle on every recorded net: unknown
    stimulus bits, both init modes, and a locked netlist under a tampered key
    schedule."""
    orig = random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    locked, manifest = lock_structural(
        orig, generate_key_schedule(num_keys, key_bits, seed), seed=seed
    )
    cycles = 6
    rows = [
        "".join(data.draw(st.sampled_from("01x")) for _ in range(n_inputs)) for _ in range(cycles)
    ]
    overrides = data.draw(
        st.dictionaries(st.integers(0, cycles - 1), st.integers(0, 2**key_bits - 1), max_size=3)
    )
    policy = KeyPolicy.tampered(manifest.schedule, overrides)
    for netlist, stimulus in (
        (orig, Stimulus.from_strings(rows)),
        (locked, Stimulus.from_strings(rows, policy)),
    ):
        watch = tuple(d.output for d in netlist.dffs) + tuple(g.output for g in netlist.gates[:5])
        assert simulate(netlist, stimulus, init=init, watch=watch) == simulate_kleene(
            netlist, stimulus, init=init, watch=watch
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_gates=st.integers(1, 25),
    data=st.data(),
)
def test_x_resolution_is_monotonic(seed, n_gates, data):
    """Resolving an unknown input can resolve outputs but never flip them."""
    n_inputs = 3
    n = random_netlist(seed, n_inputs, 2, n_gates, n_outputs=2, name="rand")
    cycles = 4
    rows = [
        [data.draw(st.sampled_from("01x")) for _ in range(n_inputs)] for _ in range(cycles)
    ]
    x_slots = [(c, i) for c in range(cycles) for i in range(n_inputs) if rows[c][i] == "x"]
    base = simulate(n, Stimulus.from_strings(["".join(r) for r in rows]), init="x")
    if not x_slots:
        return
    c, i = data.draw(st.sampled_from(x_slots))
    rows[c][i] = data.draw(st.sampled_from("01"))
    resolved = simulate(n, Stimulus.from_strings(["".join(r) for r in rows]), init="x")
    for cycle in range(cycles):
        for oi in range(len(n.outputs)):
            before = base.outputs[cycle][oi]
            after = resolved.outputs[cycle][oi]
            if before is not None:
                assert after == before


def _keyed(netlist: Netlist, key_bits: int, counters: int) -> Netlist:
    """`netlist` with its first inputs renamed key inputs and its first
    flip-flops renamed counter flip-flops. Control nets then reach every gate
    kind, and the counter planes can differ between lanes or be unknown."""
    names = {f"I{i}": f"{KEY_INPUT_PREFIX}{i}" for i in range(key_bits)}
    names.update((f"Q{i}", f"{COUNTER_NET_PREFIX}{i}") for i in range(counters))

    def rename(net):
        return names.get(net, net)

    return Netlist(
        name=f"{netlist.name}_keyed",
        inputs=tuple(map(rename, netlist.inputs)),
        outputs=tuple(map(rename, netlist.outputs)),
        gates=tuple(
            Gate(rename(g.output), g.kind, tuple(map(rename, g.fanins))) for g in netlist.gates
        ),
        dffs=tuple(Dff(rename(d.output), rename(d.input)) for d in netlist.dffs),
    )


class _FullStepSim(PlaneSim):
    """Steps every op of the eager compile, in its order, on every step,
    through its own Kleene formula over "is 1" and "is 0" planes; with no
    unknown bit that is the two-valued result. It takes only the plane
    layout, `reset`, `load_state` and the plane readers from
    :class:`PlaneSim`."""

    def __init__(self, netlist: Netlist, lanes: int, watch: tuple[str, ...]):
        super().__init__(netlist, lanes, watch)
        self.ops = reference_ops(netlist)

    def step(self, nonkey_h, key_value, nonkey_x=None, latch=True):
        c, h, x, mask = self.c, self.h, self.x, self.mask
        for idx, vh, vx in zip(c.nonkey_idx, nonkey_h, nonkey_x or [0] * len(nonkey_h)):
            h[idx], x[idx] = vh & ~vx & mask, vx & mask
        for bit, idx in enumerate(c.key_idx):
            h[idx], x[idx] = mask * ((key_value >> bit) & 1), 0
        for idx, vh, vx in zip(c.dff_q_idx, self.state_h, self.state_x):
            h[idx], x[idx] = vh, vx
        for family, out, a, b, invert in self.ops:
            a1, b1 = h[a], h[b]
            a0, b0 = mask & ~(h[a] | x[a]), mask & ~(h[b] | x[b])
            if family == 0:  # AND
                one, zero = a1 & b1, a0 | b0
            elif family == 1:  # OR
                one, zero = a1 | b1, a0 & b0
            else:
                one, zero = a1 & b0 | a0 & b1, a1 & b1 | a0 & b0
            if invert:
                one, zero = zero, one
            h[out], x[out] = one, mask & ~(one | zero)
        if latch:
            self.state_h[:] = [h[d] for d in c.dff_d_idx]
            self.state_x[:] = [x[d] for d in c.dff_d_idx]


def _wire(op: tuple) -> bool:
    """Whether `op` is a wire ``(AND, net, source, source, inverted)``."""
    return op[0] == 0 and op[2] == op[3]


def _lists_keep_the_eager_order(netlist: Netlist) -> bool:
    """Each cached list is a fed tail in the order of the eager compile: an
    unpruned tail holds ops of the eager compile, and a wired tail holds
    wires and ops of the compile with rewired fanins, each at its net's
    place. No list holds a free op."""
    reference, compiled = reference_ops(netlist), netlist.compiled
    place = {op[1]: p for p, op in enumerate(reference)}
    free = set(compiled._free)
    for key, ops in compiled.op_lists.items():
        places = [place[op[1]] for op in ops]
        if places != sorted(set(places)) or free.intersection(ops):
            return False
        if len(key) == 1 and not is_subsequence(ops, reference):
            return False
        if not all(_wire(op) or op[0] == reference[place[op[1]]][0] for op in ops):
            return False
    return is_subsequence(compiled._free, reference)


def _root_planes(sim: PlaneSim):
    watched = [(sim.h[i], sim.x[i]) for i in sim.watch_idx]
    return sim.output_planes(), sim.next_state_planes(), watched


# random keyed netlists, each stepped over 1-, 8- and 70-lane planes
_KEYED_RUNS = dict(
    seed=st.integers(0, 10_000),
    form=st.sampled_from(["locked", "renamed", "key-free"]),
    n_inputs=st.integers(2, 4),
    n_dffs=st.integers(1, 3),
    n_gates=st.integers(4, 30),
    num_keys=st.sampled_from([2, 4]),
    key_bits=st.integers(1, 3),
    init=st.sampled_from(["zero", "x"]),
    lanes=st.sampled_from([1, 8, 70]),
    data=st.data(),
)


def _keyed_netlist(seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, data):
    """A random netlist locked by `lock_structural`, one whose inputs and
    flip-flops are renamed key inputs and counters, or a key-free one with
    counters; its schedule (None when key-free); and up to six of its gate
    nets to watch."""
    orig = random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    if form == "key-free":
        netlist, schedule = _keyed(orig, 0, data.draw(st.integers(1, n_dffs))), None
    elif form == "renamed":
        key_bits = min(key_bits, n_inputs - 1)
        netlist = _keyed(orig, key_bits, data.draw(st.integers(0, n_dffs)))
        keys = tuple(data.draw(st.integers(0, 2**key_bits - 1)) for _ in range(num_keys))
        schedule = KeySchedule(keys, key_bits)
    else:
        netlist, manifest = lock_structural(
            orig, generate_key_schedule(num_keys, key_bits, seed), seed=seed
        )
        schedule = manifest.schedule
    gates = [g.output for g in netlist.gates]
    watch = tuple(data.draw(st.lists(st.sampled_from(gates), max_size=6, unique=True)))
    return netlist, schedule, watch


def _draw_key(schedule, cycle, rng, data):
    """The schedule's key at `cycle` or a random wrong one; None with no schedule."""
    if schedule is None:
        return None
    return data.draw(st.sampled_from([schedule.key_at(cycle), rng.randrange(2**schedule.width)]))


@settings(max_examples=60, deadline=None)
@given(**_KEYED_RUNS)
def test_cached_op_lists_match_full_steps(
    seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, init, lanes, data
):
    """Steps over the cached op lists give the output, next-state and watched
    planes of steps over every op, at every cycle. Netlists are random ones
    locked by `lock_structural`, random ones whose inputs and flip-flops are
    renamed key inputs and counters, or key-free ones with counters, stepped
    with key value None. Keys come from the schedule or are random wrong
    values; stimuli hold 0, 1 and x."""
    netlist, schedule, watch = _keyed_netlist(
        seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, data
    )
    pruned, full = PlaneSim(netlist, lanes, watch), _FullStepSim(netlist, lanes, watch)
    pruned.reset(init)
    full.reset(init)
    rng = random.Random(seed)
    n = len(netlist.compiled.nonkey_idx)
    for cycle in range(8):
        key = _draw_key(schedule, cycle, rng, data)
        highs = [rng.getrandbits(lanes) for _ in range(n)]
        unknown = [rng.getrandbits(lanes) & rng.getrandbits(lanes) for _ in range(n)]
        if not data.draw(st.booleans()):
            unknown = [0] * n
        for sim in (pruned, full):
            sim.step(highs, key, unknown)
        assert _root_planes(pruned) == _root_planes(full), cycle
    assert _lists_keep_the_eager_order(netlist)


def test_cached_op_lists_match_full_steps_on_locked_b04():
    """1000 lanes of locked b04 (k4/ki11): the cached op lists keep a few
    hundred of its ~25k gates and match steps over every op, with the
    schedule, a wrong key at cycle 3 and unknown inputs at cycles 0 and 5."""
    netlist, manifest = lock_structural(
        corpus.load_bench("b04_like"), generate_key_schedule(4, 11, 1), seed=1
    )
    lanes = 1000
    watch = tuple(manifest.onehot_time_nets) + (manifest.locked_ffs[0].ff_output_net,)
    pruned, full = PlaneSim(netlist, lanes, watch), _FullStepSim(netlist, lanes, watch)
    pruned.reset("x")
    full.reset("x")
    rng = random.Random(4)
    n = len(netlist.compiled.nonkey_idx)
    for cycle in range(8):
        key = manifest.schedule.key_at(cycle) ^ (cycle == 3)
        highs = [rng.getrandbits(lanes) for _ in range(n)]
        unknown = [rng.getrandbits(lanes) if cycle in (0, 5) else 0 for _ in range(n)]
        for sim in (pruned, full):
            sim.step(highs, key, unknown)
        assert _root_planes(pruned) == _root_planes(full), cycle
    assert all(len(ops) < len(netlist.gates) // 20 for ops in netlist.compiled.op_lists.values())
    assert _lists_keep_the_eager_order(netlist)


def _widened(netlist: Netlist, seed: int) -> Netlist:
    """`netlist` with up to three input fanins added to each gate of two or
    more, so that gates compile to chains of up to five ops."""
    rng = random.Random(seed)
    gates = tuple(
        g._replace(fanins=g.fanins + tuple(rng.choice(netlist.inputs) for _ in range(rng.randrange(4))))
        if len(g.fanins) > 1 else g
        for g in netlist.gates
    )
    return Netlist(netlist.name, netlist.inputs, netlist.outputs, gates, netlist.dffs)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(2, 4),
    n_dffs=st.integers(1, 3),
    n_gates=st.integers(1, 30),
    key_bits=st.integers(0, 2),
    counters=st.integers(0, 2),
    widen=st.booleans(),
)
def test_unpruned_lists_match_the_eager_compile(seed, n_inputs, n_dffs, n_gates, key_bits, counters, widen):
    """The free ops and the unpruned tail rooted at every gate's output hold
    the ops the eager compile built, wide gates' unnamed nets included, each
    part in the eager order, on random netlists with and without key inputs
    and counter flip-flops; with neither the tail is empty."""
    netlist = random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    if widen:
        netlist = _widened(netlist, seed)
    netlist = _keyed(netlist, min(key_bits, n_inputs - 1), min(counters, n_dffs))
    compiled = netlist.compiled
    tail = compiled._select_ops([compiled.index[g.output] for g in netlist.gates])
    reference, free = reference_ops(netlist), compiled._free
    assert sorted(free + tail) == sorted(reference)
    assert is_subsequence(free, reference) and is_subsequence(tail, reference)
    assert compiled.n_nets == 1 + max(max(op[1:4]) for op in free + tail)
    if not compiled.key_idx and not compiled.counter_pos:
        assert tail == []


def _locked_b04():
    orig = corpus.load_bench("b04_like")
    return orig, *lock_structural(orig, generate_key_schedule(4, 11, 1), seed=1)


def test_keyed_runs_build_no_unpruned_list_on_locked_b04():
    """`simulate` from an unknown state under a tampered schedule, and a
    random check under the schedule, step locked b04 (k4/ki11) through
    pruned op lists alone. Steps whose counter lanes differ build one
    unpruned list under two key values, and match steps over every op.
    Every list keeps the eager order; the unpruned list holds the tuples
    the compile kept or built rather than copies, and each wired tail holds
    only wires."""
    orig, locked, manifest = _locked_b04()
    rng = random.Random(2)
    n = len(locked.compiled.nonkey_idx)
    rows = ["".join(rng.choice("01x") for _ in range(n)) for _ in range(12)]
    wrong = {3: manifest.schedule.key_at(3) ^ 1}
    watch = tuple(manifest.onehot_time_nets)
    simulate(locked, Stimulus.from_strings(rows, KeyPolicy.tampered(manifest.schedule, wrong)), "x", watch)
    verdict = check_equivalence_random(
        orig, locked, sequences=64, cycles=16, seed=0, key_policy=KeyPolicy.correct(manifest.schedule)
    )
    assert verdict.equivalent
    compiled = locked.compiled
    assert compiled.op_lists and all(len(key) == 3 for key in compiled.op_lists)
    pruned, full = PlaneSim(locked, 2), _FullStepSim(locked, 2, ())
    for cycle in range(2):
        highs = [rng.getrandbits(2) for _ in range(n)]
        for sim in (pruned, full):
            sim.state_h[compiled.counter_pos[0]] = 0b01
            sim.step(highs, manifest.schedule.key_at(cycle))
        assert _root_planes(pruned) == _root_planes(full), cycle
    assert [key for key in compiled.op_lists if len(key) == 1] == [((),)]
    assert _lists_keep_the_eager_order(locked)
    for key, ops in compiled.op_lists.items():
        if len(key) == 1:
            assert all(op is compiled._fed_ops[op[1]] for op in ops)
        else:
            assert all(map(_wire, ops))


def test_compile_and_a_keyed_step_of_locked_b04_allocate_little():
    """Compiling locked b04 (25,176 gates, 25,274 ops) and one keyed 1-lane
    step allocate less than 1.5 MB at peak; the 25,274 op tuples alone took
    2.1 MB when the compile kept them all."""
    _, locked, manifest = _locked_b04()
    locked._graph  # built by the lock's own check; not part of the compile
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sim = PlaneSim(locked, 1)
        sim.reset("x")
        sim.step([0] * len(sim.c.nonkey_idx), manifest.schedule.key_at(0))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1_500_000, peak
    assert list(sim.c.op_lists) == [((), manifest.schedule.key_at(0), 0)]


def test_netlist_without_key_inputs_keeps_one_op_list_for_every_key_value():
    """The two sides of a comparison step under one key value, which a
    netlist without key inputs ignores: it shares one cached op list."""
    netlist = corpus.load_bench("s27")
    sim = PlaneSim(netlist, 1)
    for kv in (None, 0, 1, 2):
        sim.step([0] * len(sim.c.nonkey_idx), kv)
    assert list(sim.c.op_lists) == [((), None, 0)]


def test_a_tail_derives_from_the_key_value_and_counter_bits_alone():
    """For every key value and counter time of locked s27 (k4/ki2), a compile
    that no simulator has stepped gives the tail that a step under them
    caches on another compile, and so does a compile whose simulator last
    stepped under another key value: a tail never reads a simulator's
    planes."""

    def fresh():  # the same locked netlist, with a compile of its own
        return lock_structural(corpus.load_bench("s27"), S27_SCHEDULE, seed=S27_SEED)[0]

    def stepped(value, time):
        sim = PlaneSim(fresh(), 1)
        state = [0] * len(sim.state_h)
        for bit, p in enumerate(sim.c.counter_pos):
            state[p] = time >> bit & 1
        sim.load_state(tuple(state))
        sim.step([0] * len(sim.c.nonkey_idx), value)
        return sim.c

    tails = set()
    for value, time in itertools.product(range(4), range(4)):
        cached = stepped(value, time).op_lists
        assert list(cached) == [((), value, time)]
        tail = cached[(), value, time]
        assert fresh().compiled.tail((), value, time) == tail
        assert stepped(value ^ 1, time).tail((), value, time) == tail
        tails.add(tuple(tail))
    assert len(tails) > 4  # the tails differ by key value, not by counter time alone


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 4),
    n_dffs=st.integers(1, 3),
    n_gates=st.integers(1, 25),
    key_bits=st.integers(1, 3),
    num_keys=st.sampled_from([2, 4]),
    init=st.sampled_from(["zero", "x"]),
    data=st.data(),
)
def test_simulate_watching_mux_nets_matches_kleene_oracle(
    seed, n_inputs, n_dffs, n_gates, key_bits, num_keys, init, data
):
    """`simulate` records nets inside the lock's mux trees as the scalar
    oracle does, under a tampered schedule, although a step under a known key
    skips the branches that key deselects."""
    locked, manifest = lock_structural(
        random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand"),
        generate_key_schedule(num_keys, key_bits, seed), seed=seed,
    )
    mux_nets = [g.output for g in locked.gates if g.output.startswith("cl_f")]
    watch = tuple(data.draw(st.lists(st.sampled_from(mux_nets), min_size=1, max_size=8, unique=True)))
    cycles = 8
    rows = ["".join(data.draw(st.sampled_from("01x")) for _ in range(n_inputs)) for _ in range(cycles)]
    overrides = data.draw(
        st.dictionaries(st.integers(0, cycles - 1), st.integers(0, 2**key_bits - 1), max_size=3)
    )
    stimulus = Stimulus.from_strings(rows, KeyPolicy.tampered(manifest.schedule, overrides))
    assert simulate(locked, stimulus, init=init, watch=watch) == simulate_kleene(
        locked, stimulus, init=init, watch=watch
    )


def _with_control_readers(netlist: Netlist, data) -> Netlist:
    """`netlist` with gates that read a control net `c` (its first key input,
    else its first counter flip-flop) as outputs: ``kx = XOR(c, a, b)``,
    ``kxn = XNOR(b, c)`` and ``kan = AND(kxn, a)`` over drawn gate nets `a`
    and `b`; and `c` itself as an output."""
    keys = [n for n in netlist.inputs if n.startswith(KEY_INPUT_PREFIX)]
    c = (keys or [d.output for d in netlist.dffs if d.output.startswith(COUNTER_NET_PREFIX)])[0]
    a, b = (data.draw(st.sampled_from([g.output for g in netlist.gates])) for _ in range(2))
    gates = (Gate("kx", "XOR", (c, a, b)), Gate("kxn", "XNOR", (b, c)), Gate("kan", "AND", ("kxn", a)))
    outputs = netlist.outputs + tuple(n for n in ("kx", "kan", c) if n not in netlist.outputs)
    return Netlist(netlist.name, netlist.inputs, outputs, netlist.gates + gates, netlist.dffs)


@settings(max_examples=60, deadline=None)
@given(**_KEYED_RUNS)
def test_wired_event_driven_steps_match_full_steps(
    seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, init, lanes, data
):
    """Steps over wired tails, with the Kleene pass event-driven, give the
    root planes and flip-flop planes of a simulator that steps every op of
    the eager compile by its own formula. The netlists are the locked,
    renamed and key-free forms plus an XOR, an XNOR and an AND that read
    a control net, and that control net as an output; a locked netlist
    also watches a net inside a mux tree. Each cycle draws its key (so tails
    switch), X rows or X-free ones (so Kleene and two-valued steps
    alternate), whether to load a scalar state first (with X counters, an
    unpruned step) and whether to latch."""
    netlist, schedule, watch = _keyed_netlist(
        seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, data
    )
    netlist = _with_control_readers(netlist, data)
    if form == "locked":
        mux = data.draw(st.sampled_from([g.output for g in netlist.gates if g.output.startswith("cl_f")]))
        watch += (mux,) if mux not in watch else ()
    sim, full = PlaneSim(netlist, lanes, watch), _FullStepSim(netlist, lanes, watch)
    for s in (sim, full):
        s.reset(init)
    rng = random.Random(seed)
    n = len(netlist.compiled.nonkey_idx)
    for cycle in range(12):
        key = _draw_key(schedule, cycle, rng, data)
        highs = [rng.getrandbits(lanes) for _ in range(n)]
        unknown = [rng.getrandbits(lanes) & rng.getrandbits(lanes) for _ in range(n)]
        if data.draw(st.booleans()):
            unknown = [0] * n
        state = data.draw(st.none() | st.tuples(*[st.sampled_from(VALUES) for _ in netlist.dffs]))
        latch = data.draw(st.booleans())
        for s in (sim, full):
            if state is not None:
                s.load_state(state)
            s.step(highs, key, unknown, latch)
        assert _root_planes(sim) == _root_planes(full), cycle
        assert (sim.state_h, sim.state_x) == (full.state_h, full.state_x), cycle
    assert _lists_keep_the_eager_order(netlist)


def test_wires_carry_inversions():
    """Under key 0, ``n = XNOR(keyinput0, b)`` is NOT b, so the tail keeps
    that wire for the AND that reads it. Under key 1, ``m = XOR(keyinput0,
    b)`` is NOT b, and ``z = XOR(m, a)`` reads b itself, m's inversion
    taken into the XOR. Each step matches a full step."""
    netlist = parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nOUTPUT(y)\nOUTPUT(z)\n"
        "n = XNOR(keyinput0, b)\ny = AND(n, a)\nm = XOR(keyinput0, b)\nz = XOR(m, a)\n"
    )
    index = netlist.compiled.index
    a, b, n, y, z, key0 = (index[name] for name in ("a", "b", "n", "y", "z", "keyinput0"))
    sim, full = PlaneSim(netlist, 4, ()), _FullStepSim(netlist, 4, ())
    for key in (0, 1, 0):
        for s in (sim, full):
            s.step([0b0011, 0b0101], key, [0b1000, 0])
        assert _root_planes(sim) == _root_planes(full), key
    assert netlist.compiled.op_lists[((), 0, 0)] == [
        (0, n, b, b, True), (0, y, n, a, False), (2, z, b, a, False)
    ]
    assert netlist.compiled.op_lists[((), 1, 0)] == [(0, y, b, a, False), (2, z, b, a, True)]
    assert key0 not in {op[2] for ops in netlist.compiled.op_lists.values() for op in ops}


def test_wired_tails_of_locked_b14_hold_one_wire_per_fed_root():
    """Locked b14 (k8/ki3, 16 locked flip-flops) stepped from an unknown
    state under its schedule, with a wrong key at cycles 3 and 12, watching
    the one-hot time nets. Every cached tail is one wire per fed root and
    nothing else: each locked flip-flop's mux tree output is wired to the net
    the key value and counter time select, and each counter next-state net
    and one-hot time net is wired to a counter flip-flop."""
    schedule = generate_key_schedule(8, 3, 5)
    netlist, manifest = lock_structural(corpus.load_bench("b14_like"), schedule, 16, seed=5)
    watch = tuple(manifest.onehot_time_nets)
    sim = PlaneSim(netlist, 1, watch)
    sim.reset("x")
    rng = random.Random(5)
    for cycle in range(16):
        key = schedule.key_at(cycle) ^ (cycle in (3, 12))
        sim.step([rng.getrandbits(1) for _ in sim.c.nonkey_idx], key)
    index = sim.c.index
    counters = {index[net] for net in manifest.counter_state_nets}
    decode = {index[net] for net in watch} | {index[d.input] for d in netlist.dffs if d.output.startswith("cl_cnt")}
    assert len(sim.c.op_lists) == 10  # eight counter times, two of them also under a wrong key
    for (_, value, time), tail in sim.c.op_lists.items():
        assert all(map(_wire, tail))
        wires = {op[1]: (op[2], op[4]) for op in tail}
        selected = {
            index[ff.mux_tree_output_net]: (
                index[ff.correct_d_net if value == schedule.keys[time] else ff.wrongful_source_nets[time, value]],
                False,
            )
            for ff in manifest.locked_ffs
        }
        assert {net: wires.pop(net) for net in selected} == selected
        assert set(wires) == decode and {src for src, _ in wires.values()} <= counters


def test_mixed_counter_planes_do_not_reuse_an_op_list():
    """A counter flip-flop whose lanes disagree makes the step run the
    unpruned list, which nothing cuts. Here `s` is 0 while the counter is 0, so the cached list for key 1 and
    counter 0 skips `d`; at cycle 2 lane 1's counter is 1, and lane 1 of `y`
    needs `d`."""
    netlist = parse_bench(
        "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ncl_cnt0 = DFF(a)\n"
        "s = AND(keyinput0, cl_cnt0)\nd = XOR(a, keyinput0)\ny = AND(s, d)\n"
    )
    pruned, full = PlaneSim(netlist, 2), _FullStepSim(netlist, 2, ())
    for a in (0b00, 0b10, 0b00):
        for sim in (pruned, full):
            sim.step([a], 1)
        assert _root_planes(pruned) == _root_planes(full)
    assert pruned.output_planes() == [(0b10, 0)]


def test_op_list_cache_drops_the_oldest_list_past_its_cap():
    """70 steps through distinct (key value, counter) pairs keep at most
    `_MAX_OP_LISTS` lists, dropping the oldest first, and a 71st step
    revisits the first, evicted pair. Every step matches a step over every
    op."""
    netlist = parse_bench(
        "INPUT(a)\nINPUT(b)\n" + "".join(f"INPUT(keyinput{i})\n" for i in range(6))
        + "OUTPUT(y)\ncl_cnt0 = DFF(t)\nt = NOT(cl_cnt0)\nq = DFF(y)\n"
        "d = XOR(a, q)\ne = AND(b, cl_cnt0)\n"
        + "".join(f"m{i} = {('AND', 'OR')[i % 2]}(keyinput{i}, {'de'[i % 2]})\n" for i in range(6))
        + "y = XOR(m0, m1, m2, m3, m4, m5)\n"
    )
    pruned, full = PlaneSim(netlist, 4), _FullStepSim(netlist, 4, ())
    rng = random.Random(0)
    expected = []
    for cycle in range(71):
        key = cycle // 2 % 35  # the counter toggles, so each pair is (cycle // 2, cycle % 2)
        entry = ((), key, cycle % 2)
        if cycle == 70:
            assert entry not in pruned.c.op_lists
        if entry not in expected:
            expected = (expected + [entry])[-_MAX_OP_LISTS:]
        highs = [rng.getrandbits(4) for _ in range(2)]
        for sim in (pruned, full):
            sim.step(highs, key)
        assert _root_planes(pruned) == _root_planes(full), cycle
        assert list(pruned.c.op_lists) == expected, cycle
    assert len(expected) == _MAX_OP_LISTS and expected[-1] == ((), 0, 0)


@pytest.mark.parametrize("kind", ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"])
def test_only_a_controlling_value_cuts_the_search(kind):
    """`y = KIND(s, d, ...)` with the control net `s` at 0, then at 1: a
    cached op list skips `d` only where `s` holds the gate's controlling
    value, so every step matches a step over every op. Widths 2-5 put `s`
    first and last in the chain of ops a wide gate compiles to."""
    for width in range(2, 6):
        data = [f"d{i}" for i in range(width - 1)]
        for fanins in (["s", *data], [*data, "s"]):
            netlist = parse_bench(
                "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ns = BUF(keyinput0)\n"
                + "".join(f"{d} = {('XOR', 'XNOR')[i % 2]}(a, keyinput0)\n" for i, d in enumerate(data))
                + f"y = {kind}({', '.join(fanins)})\n"
            )
            pruned, full = PlaneSim(netlist, 2), _FullStepSim(netlist, 2, ())
            for key, a in ((0, 0b01), (0, 0b10), (1, 0b01), (1, 0b10)):
                for sim in (pruned, full):
                    sim.step([a], key)
                assert _root_planes(pruned) == _root_planes(full), (fanins, key, a)


@settings(max_examples=60, deadline=None)
@given(**_KEYED_RUNS)
def test_change_driven_steps_match_fresh_sims(
    seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, init, lanes, data
):
    """Each step gives the output, next-state and watched planes of a fresh
    PlaneSim loaded with the same flip-flop planes, whose first step evaluates
    every listed op. Steps use the schedule's and wrong keys (so op lists
    switch), rows with X then X-free rows (Kleene, two-valued, Kleene again),
    a snapshot of the flip-flop planes restored mid-run as the random
    comparisons do, and repeated unlatched steps from one scalar state as the
    exhaustive sweep does."""
    netlist, schedule, watch = _keyed_netlist(
        seed, form, n_inputs, n_dffs, n_gates, num_keys, key_bits, data
    )
    sim = PlaneSim(netlist, lanes, watch)
    sim.reset(init)
    rng = random.Random(seed)
    n = len(netlist.compiled.nonkey_idx)
    snapshot = None

    def checked_step(highs, key, unknown, latch):
        state = (sim.state_h[:], sim.state_x[:])
        fresh = PlaneSim(netlist, lanes, watch)
        fresh.state_h[:], fresh.state_x[:] = state
        sim.step(highs, key, unknown, latch)
        fresh.step(highs, key, unknown, latch)
        assert _root_planes(sim) == _root_planes(fresh)
        assert (sim.state_h, sim.state_x) == (fresh.state_h, fresh.state_x)

    for cycle in range(12):
        key = _draw_key(schedule, cycle, rng, data)
        highs = [rng.getrandbits(lanes) for _ in range(n)]
        unknown = [rng.getrandbits(lanes) & rng.getrandbits(lanes) for _ in range(n)]
        if cycle % 6 not in (0, 1):  # X rows, then X-free rows, then X rows again
            unknown = [0] * n
        action = data.draw(st.sampled_from(["step", "snapshot", "restore", "expand"]))
        if action == "snapshot":
            snapshot = (sim.state_h[:], sim.state_x[:])
        elif action == "restore" and snapshot is not None:
            sim.state_h[:], sim.state_x[:] = snapshot
        elif action == "expand":
            state = tuple(data.draw(st.sampled_from(VALUES)) for _ in netlist.dffs)
            for _ in range(3):
                sim.load_state(state)
                checked_step([rng.getrandbits(lanes) for _ in range(n)], key, unknown, False)
        checked_step(highs, key, unknown, True)


def test_a_repeated_kleene_step_rewrites_no_free_net():
    """A second Kleene step with the same inputs, key and state evaluates no
    free op: every free net keeps the very int objects of its planes."""
    netlist, manifest = lock_structural(
        corpus.load_bench("b03_like"), generate_key_schedule(2, 4, 3), seed=3
    )
    lanes, rng = 70, random.Random(3)
    sim = PlaneSim(netlist, lanes)
    sim.reset("x")
    n = len(sim.c.nonkey_idx)
    args = (
        [rng.getrandbits(lanes) for _ in range(n)],
        manifest.schedule.key_at(0),
        [rng.getrandbits(lanes) & rng.getrandbits(lanes) for _ in range(n)],
    )
    sim.step(*args, latch=False)
    free = [op[1] for op in sim.c._free]
    before = [(sim.h[i], sim.x[i]) for i in free]
    assert sum(max(h, x) > 256 for h, x in before) > len(free) // 2  # not only small cached ints
    sim.step(*args, latch=False)
    assert all(sim.h[i] is h and sim.x[i] is x for i, (h, x) in zip(free, before))
