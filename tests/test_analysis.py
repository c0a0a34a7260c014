import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklock import analysis, corpus, sim, synth
from tklock.circuit import Dff, Gate, Netlist, parse_bench
from tklock.analysis import (
    BudgetExceededError,
    Counterexample,
    EquivVerdict,
    brute_force_attack,
    check_equivalence_exhaustive,
    check_equivalence_random,
    corruption_rate,
    overhead_report,
    replay_counterexample,
)
from tklock.keys import KeySchedule, generate_key_schedule, split_inputs
from tklock.sim import KeyPolicy, PlaneSim, Stimulus, minterm_planes, simulate
from tklock.structural import lock_structural
from tests.attack_reference import per_candidate_survivors
from tests.conftest import S27_SCHEDULE, S27_SEED
from tests.kleene_oracle import simulate_kleene
from tests.lane_reference import lane_successors


def _enumerate_equivalence(a, b, depth, key_policy, init="zero"):
    """Independent oracle: simulate every input sequence of length `depth`
    one by one with the scalar Kleene oracle and compare full output traces."""
    nonkey, _ = split_inputs(a)
    n = len(nonkey)
    for assignment in itertools.product(range(2**n), repeat=depth):
        rows = tuple(tuple((word >> i) & 1 for i in range(n)) for word in assignment)

        def trace(netlist):
            _, keyed = split_inputs(netlist)
            policy = key_policy if keyed else KeyPolicy()
            stim = Stimulus(inputs=rows, key_policy=policy)
            return simulate_kleene(netlist, stim, init=init).outputs

        if trace(a) != trace(b):
            return False
    return True


def test_exhaustive_self_equivalence_default_budget(s27):
    verdict = check_equivalence_exhaustive(s27, s27, depth=5)
    assert verdict.equivalent
    assert verdict.counterexample is None


def test_exhaustive_matches_sequence_enumeration_oracle(s27, s27_locked):
    locked, manifest = s27_locked
    correct = KeyPolicy.correct(manifest.schedule)
    static1 = KeyPolicy.static(1)
    for policy in (correct, static1):
        fast = check_equivalence_exhaustive(s27, locked, depth=3, key_policy=policy)
        slow = _enumerate_equivalence(s27, locked, 3, policy)
        assert fast.equivalent == slow


def test_exhaustive_matches_oracle_in_x_init(s27, s27_locked):
    locked, manifest = s27_locked
    policy = KeyPolicy.correct(manifest.schedule)
    fast = check_equivalence_exhaustive(s27, locked, depth=2, key_policy=policy, init="x")
    slow = _enumerate_equivalence(s27, locked, 2, policy, init="x")
    assert fast.equivalent == slow is True


def test_locked_equivalent_at_depth6(s27, s27_locked):
    locked, manifest = s27_locked
    verdict = check_equivalence_exhaustive(
        s27, locked, depth=6, key_policy=KeyPolicy.correct(manifest.schedule)
    )
    assert verdict.equivalent


def test_static_key_finds_counterexample_and_replays(s27):
    # a degenerate seed would hide the divergence; walk seeds like the
    # construction contract allows and require the sweep to find one
    for seed in range(S27_SEED, S27_SEED + 3):
        locked, manifest = lock_structural(
            s27,
            S27_SCHEDULE, seed=seed,
        )
        policy = KeyPolicy.static(1)
        verdict = check_equivalence_exhaustive(s27, locked, depth=6, key_policy=policy)
        if verdict.equivalent:
            continue
        cex = verdict.counterexample
        assert len(cex.inputs) == cex.cycle + 1
        assert replay_counterexample(s27, locked, cex, key_policy=policy)
        return
    pytest.fail("no divergence found for any seed; wrongful wiring degenerate")


def test_exhaustive_budget_guard(s27, s27_locked):
    # the depth-6 check expands 24 joint states
    locked, manifest = s27_locked
    with pytest.raises(BudgetExceededError, match="use random mode"):
        check_equivalence_exhaustive(
            s27, locked, depth=6, key_policy=KeyPolicy.correct(manifest.schedule), budget=10
        )


def test_exhaustive_lane_cap_checked_before_allocation():
    """2**21 minterm lanes are refused whatever the work budget."""
    names = [f"I{i}" for i in range(21)]
    wide = parse_bench(
        "".join(f"INPUT({n})\n" for n in names) + f"OUTPUT(y)\ny = AND({', '.join(names)})\n"
    )
    with pytest.raises(BudgetExceededError, match="lane cap"):
        check_equivalence_exhaustive(wide, wide, depth=1, budget=2**40)


def test_interface_mismatch_rejected(s27):
    other = corpus.load_bench("b01_like")
    with pytest.raises(ValueError, match="mismatch"):
        check_equivalence_exhaustive(s27, other, depth=2)


def test_random_identical_netlists(s27):
    verdict = check_equivalence_random(s27, s27, sequences=64, cycles=16, seed=1)
    assert verdict.equivalent


def test_random_locked_correct_keys(s27, s27_locked):
    locked, manifest = s27_locked
    verdict = check_equivalence_random(
        s27, locked, sequences=500, cycles=64, seed=2,
        key_policy=KeyPolicy.correct(manifest.schedule),
    )
    assert verdict.equivalent


def test_random_detects_override_and_replays(s27, s27_locked):
    # seeded regression: with this seed the cycle-3 tamper is observable
    locked, manifest = s27_locked
    policy = KeyPolicy.tampered(manifest.schedule, {3: (manifest.schedule.key_at(3) + 1) % 4})
    verdict = check_equivalence_random(
        s27, locked, sequences=1000, cycles=64, seed=3, key_policy=policy
    )
    assert not verdict.equivalent
    assert verdict.counterexample.cycle >= 3
    assert replay_counterexample(s27, locked, verdict.counterexample, key_policy=policy)


def test_corruption_rate_empty_tamper_is_zero(s27, s27_locked):
    locked, manifest = s27_locked
    rate = corruption_rate(s27, locked, manifest.schedule, {}, 200, 32, seed=4)
    assert rate == 0.0


def test_corruption_rate_wrong_keys_positive(s27, s27_locked):
    locked, manifest = s27_locked
    overrides = {c: (manifest.schedule.key_at(c) + 1) % 4 for c in range(32)}
    rate = corruption_rate(s27, locked, manifest.schedule, overrides, 200, 32, seed=4)
    assert 0.0 < rate <= 1.0


@pytest.mark.parametrize("overrides", [{1: 1, 5: 0}, {c: (S27_SCHEDULE.key_at(c) + 1) % 4 for c in range(12)}])
def test_corruption_rate_matches_per_lane_reference(s27, s27_locked, overrides):
    # redraw the stimulus (cycle-major, one plane per non-key input, lane l is
    # sequence l), simulate each lane on its own and count differing output bits
    locked, manifest = s27_locked
    sequences, cycles, seed = 24, 12, 9
    rng = random.Random(seed)
    n = len(split_inputs(s27)[0])
    planes = [[rng.getrandbits(sequences) for _ in range(n)] for _ in range(cycles)]
    policy = KeyPolicy.tampered(manifest.schedule, overrides)
    differing = 0
    for lane in range(sequences):
        rows = tuple(tuple((p >> lane) & 1 for p in row) for row in planes)
        ta = simulate(s27, Stimulus(rows))
        tb = simulate(locked, Stimulus(rows, policy))
        differing += sum(ta.value(c, o) != tb.value(c, o) for c in range(cycles) for o in s27.outputs)
    assert differing > 0
    rate = corruption_rate(s27, locked, manifest.schedule, overrides, sequences, cycles, seed)
    assert rate == differing / (sequences * cycles * len(s27.outputs))


def test_corruption_rate_checks_keyed_original(s27, s27_locked):
    # the schedule fits the 2-bit locked side but not a 3-bit keyed original
    locked, manifest = s27_locked
    keyed_orig, _ = lock_structural(s27, generate_key_schedule(4, 3, 0), seed=0)
    with pytest.raises(ValueError, match="does not match 3 key inputs"):
        corruption_rate(keyed_orig, locked, manifest.schedule, {}, 8, 4, seed=0)


def test_corruption_rate_without_outputs_rejected(monkeypatch):
    # flip-flops that feed each other make a lockable netlist with no output
    orig = parse_bench(
        "INPUT(a)\nINPUT(b)\nq = DFF(d)\nd = AND(a, r)\ne = OR(b, q)\nr = DFF(e)\n", name="noout"
    )
    locked, manifest = lock_structural(orig, generate_key_schedule(2, 2, 0), seed=0)
    monkeypatch.setattr(sim, "PlaneSim", None)  # refused before any plane is built
    with pytest.raises(ValueError, match="no output to observe"):
        corruption_rate(orig, locked, manifest.schedule, {0: 1}, 8, 4, seed=0)


def test_vacuous_runs_rejected(s27, s27_locked):
    # a wrong static key must not pass by checking nothing
    locked, manifest = s27_locked
    policy = KeyPolicy.static(0)
    with pytest.raises(ValueError, match="depth >= 1"):
        check_equivalence_exhaustive(s27, locked, depth=0, key_policy=policy)
    for sequences, cycles in ((0, 64), (64, 0)):
        with pytest.raises(ValueError, match="sequences >= 1 and cycles >= 1"):
            check_equivalence_random(s27, locked, sequences, cycles, seed=0, key_policy=policy)
        with pytest.raises(ValueError, match="sequences >= 1 and cycles >= 1"):
            corruption_rate(s27, locked, manifest.schedule, {}, sequences, cycles, seed=0)


def test_brute_force_space_and_survivors(s27, s27_locked):
    locked, _ = s27_locked
    result = brute_force_attack(locked, s27, num_keys=4, key_bits=2, depth=8)
    assert result.search_space_size == 256
    assert result.mode == "exhaustive"
    assert (1, 3, 2, 0) in result.survivors
    # seeded regression: this lock admits exactly the generating schedule
    assert result.survivors == [(1, 3, 2, 0)]


def test_brute_force_budget():
    # the random mode counts locked-circuit steps: 85 here, against 16 * 64
    # for one full check per candidate; it refuses before the 86th
    orig = corpus.load_bench("b08_like")
    locked, _ = lock_structural(orig, generate_key_schedule(4, 1, 5), seed=5)
    result = brute_force_attack(locked, orig, num_keys=4, key_bits=1, budget=85)
    assert result.mode == "random"
    assert result.survivors == [(1, 1, 0, 1)]
    with pytest.raises(BudgetExceededError, match=r"^locked-step budget 84 exceeded$"):
        brute_force_attack(locked, orig, num_keys=4, key_bits=1, budget=84)


def test_random_attack_survivors_counted_before_they_are_built(monkeypatch):
    # 80 key values over 64 checked cycles: the first prefix to reach cycle
    # 64 (after 345 locked steps) survives with 2**16 completions, past the
    # budget, so the search refuses before building any completion
    orig = corpus.load_bench("b08_like")
    locked, _ = lock_structural(orig, generate_key_schedule(4, 1, 5), seed=5)
    built = []
    monkeypatch.setattr(analysis, "product", lambda *a, **kw: built.append(a) or iter(()))
    with pytest.raises(BudgetExceededError, match=r"0 \+ 2\^16 surviving candidates exceed budget 1000"):
        brute_force_attack(locked, orig, num_keys=80, key_bits=1, budget=1000)
    assert built == []


def test_static_attack_constant_schedule_survives(s27):
    schedule = KeySchedule(keys=(3, 3, 3, 3), width=2)
    locked, _ = lock_structural(
        s27, schedule, seed=S27_SEED
    )
    result = brute_force_attack(locked, s27, num_keys=1, key_bits=2, depth=8)
    assert result.survivors == [(3,)]
    assert result.search_space_size == 4


def test_static_attack_time_varying_schedule_finds_nothing(s27, s27_locked):
    # seeded regression: no constant key reproduces the 1,3,2,0 schedule
    locked, _ = s27_locked
    result = brute_force_attack(locked, s27, num_keys=1, key_bits=2, depth=8)
    assert result.survivors == []


def test_static_attack_one_bit_space(s27):
    locked, manifest = lock_structural(
        s27,
        KeySchedule((0, 1), 1), seed=1,
    )
    result = brute_force_attack(locked, s27, num_keys=1, key_bits=1, depth=8)
    assert result.search_space_size == 2


@pytest.mark.parametrize("keys", [(1, 3, 2, 0), (3, 3, 3, 3)])
def test_static_attack_matches_static_policy_check(s27, keys):
    # a period-1 candidate (v,) survives exactly when holding v every cycle
    # is equivalent under the static key policy
    locked, _ = lock_structural(
        s27,
        KeySchedule(keys, 2), seed=S27_SEED,
    )
    result = brute_force_attack(locked, s27, num_keys=1, key_bits=2, depth=8)
    expected = [
        (v,)
        for v in range(4)
        if check_equivalence_exhaustive(s27, locked, 8, key_policy=KeyPolicy.static(v)).equivalent
    ]
    assert result.survivors == expected


def test_exhaustive_joint_state_cap(s27, s27_locked):
    locked, manifest = s27_locked
    with pytest.raises(BudgetExceededError, match="reachable-state budget 3"):
        check_equivalence_exhaustive(
            s27, locked, depth=6, key_policy=KeyPolicy.correct(manifest.schedule), budget=3
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brute_force_soundness_generated_schedules(s27, seed):
    schedule = generate_key_schedule(2, 1, seed)
    locked, manifest = lock_structural(
        s27, schedule, seed=seed
    )
    result = brute_force_attack(locked, s27, num_keys=2, key_bits=1, depth=6)
    assert tuple(schedule.keys) in result.survivors


def _candidate_survives(oracle, locked, candidate, key_bits, depth):
    policy = KeyPolicy.correct(KeySchedule(keys=candidate, width=key_bits))
    return check_equivalence_exhaustive(oracle, locked, depth, key_policy=policy).equivalent


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    lock_keys=st.sampled_from([2, 4]),
    num_keys=st.sampled_from([1, 2, 4]),
    key_bits=st.sampled_from([1, 2]),
    depth=st.sampled_from([1, 2, 6]),
)
def test_prefix_search_matches_per_candidate_checks(seed, lock_keys, num_keys, key_bits, depth):
    # the pruned search keeps exactly the candidates, in enumeration order,
    # that one exhaustive check per candidate keeps
    oracle = synth.random_netlist(seed, n_inputs=2, n_dffs=3, n_gates=10, n_outputs=2)
    locked, _ = lock_structural(oracle, generate_key_schedule(lock_keys, key_bits, seed), seed=seed)
    result = brute_force_attack(locked, oracle, num_keys=num_keys, key_bits=key_bits, depth=depth)
    assert result.mode == "exhaustive"
    expected = [
        c
        for c in itertools.product(range(2**key_bits), repeat=num_keys)
        if _candidate_survives(oracle, locked, c, key_bits, depth)
    ]
    assert result.survivors == expected


def test_prefix_search_keyed_oracle_keeps_every_candidate(s27_locked):
    # both sides take the candidate, so no candidate can be told apart
    locked, _ = s27_locked
    result = brute_force_attack(locked, locked, num_keys=2, key_bits=2, depth=6)
    assert result.survivors == list(itertools.product(range(4), repeat=2))


def test_attack_joint_state_cap_spans_the_whole_search(s27, s27_locked):
    # one exhaustive check of any single candidate expands at most 24 joint
    # states here, the whole pruned search 133
    locked, _ = s27_locked
    with pytest.raises(BudgetExceededError, match="reachable-state budget 100"):
        brute_force_attack(locked, s27, num_keys=4, key_bits=2, depth=8, budget=100)


def test_attack_survivors_counted_before_they_are_built(s27, s27_locked, monkeypatch):
    # at depth 1 all four first key values survive, each with 4**7
    # completions: the first batch alone exceeds the budget, so the search
    # refuses before building any completion
    locked, _ = s27_locked
    built = []
    monkeypatch.setattr(analysis, "product", lambda *a, **kw: built.append(a) or iter(()))
    with pytest.raises(BudgetExceededError, match=r"0 \+ 2\^14 surviving candidates exceed budget 1000"):
        brute_force_attack(locked, s27, num_keys=8, key_bits=2, depth=1, budget=1000)
    assert built == []


@pytest.mark.parametrize("init", ["zero", "x"])
def test_expansion_matches_per_lane_reference(s27, s27_locked, init):
    # every joint state reached in four cycles under any key value, expanded
    # by the class partition and lane by lane, gives the same successors
    locked, _ = s27_locked
    sweep = analysis._JointSweep(s27, locked)
    n = len(s27.compiled.nonkey_idx)
    ref_a, ref_b = PlaneSim(s27, 1 << n), PlaneSim(locked, 1 << n)
    planes = minterm_planes(n)
    frontier = {(s27.compiled.initial_state(init), locked.compiled.initial_state(init))}
    unknown_seen = False
    for _ in range(4):
        next_frontier = set()
        for st_a, st_b in sorted(frontier, key=repr):
            for kv in range(4):
                _, successors = sweep.expand(st_a, st_b, kv)
                expected = lane_successors(ref_a, ref_b, st_a, st_b, None, kv, planes)
                assert list(successors.items()) == list(expected.items())
                next_frontier.update(successors)
                unknown_seen |= any(None in a + b for a, b in successors)
        frontier = next_frontier
    assert unknown_seen == (init == "x")


def test_overhead_report_s27(s27, s27_locked):
    locked, manifest = s27_locked
    report = overhead_report(s27, locked, manifest)
    assert report.per_ff_mux_count == 15
    assert report.delta.inputs == 2
    assert report.delta.dffs == 2
    assert report.delta.gates == 59
    assert report.schedule_bits == 8
    assert report.key_inputs == 2
    assert report.layers == 3


def test_overhead_test_run_configs(s27):
    # 4 keys x 3 bits and the smallest config
    locked, manifest = lock_structural(s27, generate_key_schedule(4, 3, 0), seed=0)
    report = overhead_report(s27, locked, manifest)
    assert report.per_ff_mux_count == 4 * 7 + 3 == 31
    locked, manifest = lock_structural(s27, generate_key_schedule(2, 1, 0), seed=0)
    report = overhead_report(s27, locked, manifest)
    assert report.per_ff_mux_count == 2 * 1 + 1 == 3


def test_overhead_added_gates_constant_and_relative_decreasing():
    names = ["s27", "b01_like", "b03_like", "b11_like"]
    deltas = []
    ratios = []
    for name in names:
        orig = corpus.load_bench(name)
        locked, manifest = lock_structural(orig, generate_key_schedule(4, 3, 8), seed=8)
        report = overhead_report(orig, locked, manifest)
        deltas.append(report.delta.gates)
        ratios.append(report.relative_gate_overhead)
    assert len(set(deltas)) == 1
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_relative_overhead_of_gateless_original_is_rejected():
    orig = parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n", name="bare")
    locked, manifest = lock_structural(orig, generate_key_schedule(2, 1, 0), seed=0)
    report = overhead_report(orig, locked, manifest)
    with pytest.raises(ValueError, match="no gates"):
        report.relative_gate_overhead


def test_overhead_report_rejects_an_invalid_netlist(s27, s27_locked):
    """Net membership is read from the net index, which holds every net of a
    netlist free of errors; a netlist with an undriven net is refused."""
    locked, manifest = s27_locked
    extra = Gate("extra", "AND", (s27.inputs[0], "nowhere"))
    broken = Netlist(s27.name, s27.inputs, s27.outputs, s27.gates + (extra,), s27.dffs)
    with pytest.raises(ValueError, match="fails validation"):
        overhead_report(broken, locked, manifest)
    assert overhead_report(s27, locked, manifest).delta.gates == 59


def test_overhead_rejects_mismatched_manifest(s27, s27_locked):
    locked, manifest = s27_locked
    import copy

    broken = copy.deepcopy(manifest)
    ff = broken.locked_ffs[0]
    broken.locked_ffs[0] = ff._replace(mux_tree_output_net=ff.correct_d_net)
    with pytest.raises(ValueError, match="not driven by its mux tree"):
        overhead_report(s27, locked, broken)

    broken = copy.deepcopy(manifest)
    broken.onehot_time_nets[0] = "cl_missing"
    with pytest.raises(ValueError, match="missing from locked netlist"):
        overhead_report(s27, locked, broken)


def _first_ff(manifest, **fields):
    """`manifest` with fields of its first locked flip-flop replaced."""
    ff = manifest.locked_ffs[0]
    return manifest._replace(locked_ffs=[ff._replace(**fields), *manifest.locked_ffs[1:]])


def _wrongful(manifest, net):
    """`manifest` with one wrongful source of its first locked flip-flop set to `net`."""
    sources = dict(manifest.locked_ffs[0].wrongful_source_nets)
    sources[next(iter(sources))] = net
    return _first_ff(manifest, wrongful_source_nets=sources)


def _grown(netlist, gates=(), dffs=(), outputs=()):
    return Netlist(netlist.name, netlist.inputs, netlist.outputs + outputs, netlist.gates + gates,
                   netlist.dffs + dffs)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda s27, locked, m: overhead_report(s27, locked, _first_ff(m, correct_d_net="G0")),
         "manifest correct_d_net mismatch for 'G6'"),
        (lambda s27, locked, m: overhead_report(s27, locked, _wrongful(m, m.locked_ffs[0].correct_d_net)),
         "wrongful map for 'G6' includes the correct net"),
        (lambda s27, locked, m: overhead_report(s27, locked, _wrongful(m, "nowhere")),
         "wrongful source missing from locked netlist for 'G6'"),
        (lambda s27, locked, m: overhead_report(s27, _grown(locked, gates=(Gate("extra", "AND", ("G0", "G1")),)), m),
         "added gate count 60 != closed form 59"),
        (lambda s27, locked, m: overhead_report(s27, _grown(locked, dffs=(Dff("extra", "G0"),)), m),
         "added DFF count 3 != counter width 2"),
        (lambda s27, locked, m: overhead_report(s27, _grown(locked, outputs=("G0",)), m),
         "added I/O counts do not match the manifest"),
        (lambda s27, locked, m: overhead_report(s27, locked, m._replace(layers=m.layers + 1)),
         "manifest layer count does not match num_keys"),
        (lambda s27, locked, m: check_equivalence_exhaustive(s27, _grown(s27, outputs=("G0",)), depth=1),
         "output mismatch"),
        (lambda s27, locked, m: check_equivalence_exhaustive(s27, s27, depth=1, key_policy=KeyPolicy.static(0)),
         "key policy given but neither netlist has key inputs"),
    ],
    ids=["correct-d-net", "wrongful-is-correct", "wrongful-nowhere", "extra-gate", "extra-dff",
         "extra-output", "layers", "pair-outputs", "pair-policy-without-keys"],
)
def test_outside_input_refused(s27, s27_locked, call, message):
    """Each manifest or netlist that does not describe the lock, and each
    pair that cannot be compared, is refused with its reason."""
    locked, manifest = s27_locked
    with pytest.raises(ValueError, match=re.escape(message)):
        call(s27, locked, manifest)


def _rows(*bits: str) -> list[tuple[int, ...]]:
    return [tuple(int(b) for b in row) for row in bits]


@pytest.mark.parametrize(
    "init, expected",
    [
        ("zero", Counterexample(_rows("0010", "0001", "0000"), 2, "G17", 0, 1)),
        ("x", Counterexample(_rows("0000", "0000", "0000"), 2, "G17", None, 1)),
    ],
    ids=["zero", "x"],
)
def test_exhaustive_counterexample_is_pinned(s27, s27_locked, init, expected):
    # the exact inputs: the first lanes, cycle by cycle, that reach the
    # first diverging joint state
    locked, _ = s27_locked
    verdict = check_equivalence_exhaustive(s27, locked, 6, key_policy=KeyPolicy.static(1), init=init)
    assert verdict == EquivVerdict(False, expected, "exhaustive", 6)


def test_random_counterexample_is_pinned():
    # the exact inputs: the lowest diverging lane's stimulus up to the cycle
    orig = corpus.load_bench("b14_like")
    locked, _ = lock_structural(orig, generate_key_schedule(8, 3, 0), num_locked_ffs=16, seed=0)
    verdict = check_equivalence_random(orig, locked, 1000, 64, seed=0, key_policy=KeyPolicy.static(0))
    expected = Counterexample(
        _rows("10111010110010100010001010100010", "01001100110000000010111100100011"), 1, "N1834", 1, 0
    )
    assert verdict == EquivVerdict(False, expected, "random", 64)


def test_x_init_definite_vs_unknown_counts_as_divergence():
    from tklock.circuit import parse_bench

    a = parse_bench("INPUT(i)\nOUTPUT(y)\nq = DFF(i)\ny = BUF(q)\n", name="a")
    b = parse_bench("INPUT(i)\nOUTPUT(y)\nq = DFF(i)\nni = NOT(i)\ny = AND(i, ni)\n", name="b")
    verdict = check_equivalence_exhaustive(a, b, depth=1, init="x")
    assert not verdict.equivalent
    cex = verdict.counterexample
    assert cex.cycle == 0
    assert (cex.left_value, cex.right_value) == (None, 0)
    # in all-zero mode the unknown is gone and divergence needs a 1 input
    verdict = check_equivalence_exhaustive(a, b, depth=2, init="zero")
    assert not verdict.equivalent
    assert verdict.counterexample.cycle == 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    wide=st.booleans(),
    n_gates=st.integers(4, 16),
    lock_keys=st.sampled_from([2, 4]),
    num_keys=st.sampled_from([1, 2, 3]),
    key_bits=st.sampled_from([1, 2]),
)
def test_random_prefix_search_matches_per_candidate_checks(
    seed, wide, n_gates, lock_keys, num_keys, key_bits
):
    """In random mode the prefix search keeps exactly the candidates, in
    enumeration order, that one random check per candidate keeps."""
    # 7 non-key inputs, or 9 oracle flip-flops, force random mode
    n_inputs, n_dffs = (7, 2) if wide else (2, 9)
    oracle = synth.random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2)
    locked, _ = lock_structural(
        oracle, generate_key_schedule(lock_keys, key_bits, seed), num_locked_ffs=2, seed=seed
    )
    result = brute_force_attack(locked, oracle, num_keys=num_keys, key_bits=key_bits, seed=seed)
    assert result.mode == "random"
    assert result.survivors == per_candidate_survivors(locked, oracle, num_keys, key_bits, seed)


def test_random_prefix_search_matches_reference_on_bench_b06_lock():
    # the keysearch benchmark's b06 lock (seed 0): lock seed 1222, attack seed 25965
    orig = corpus.load_bench("b06_like")
    schedule = generate_key_schedule(4, 2, 1222)
    locked, manifest = lock_structural(orig, schedule, num_locked_ffs=2, seed=1222)
    result = brute_force_attack(locked, orig, num_keys=4, key_bits=2, seed=25965)
    assert result.mode == "random"
    assert result.survivors == per_candidate_survivors(locked, orig, 4, 2, seed=25965)
    assert result.survivors == [manifest.schedule.keys]


def test_random_prefix_search_matches_reference_on_b12():
    # b12 k2/ki5: (24, 26) is the schedule; (24, 28) is not refuted by 256x64
    # stimuli. The reference checks every candidate starting with 23, 24 or 25.
    orig = corpus.load_bench("b12_like")
    locked, manifest = lock_structural(orig, generate_key_schedule(2, 5, 0), seed=0)
    result = brute_force_attack(locked, orig, num_keys=2, key_bits=5)
    assert result.mode == "random"
    assert manifest.schedule.keys == (24, 26)
    expected = per_candidate_survivors(locked, orig, 2, 5, first_values=(23, 24, 25))
    assert expected == [(24, 26), (24, 28)]
    assert result.survivors == expected


def test_random_prefix_search_keyed_oracle_matches_reference():
    # the oracle is the same b06 lock under another schedule, so it takes
    # each candidate too; the two differ only where one of them gets its
    # correct key at cycle 1
    def lock(keys):
        return lock_structural(
            corpus.load_bench("b06_like"), KeySchedule(keys, 2), num_locked_ffs=2, seed=4
        )[0]

    oracle, locked = lock((1, 2)), lock((1, 3))
    result = brute_force_attack(locked, oracle, num_keys=2, key_bits=2, seed=3)
    assert result.mode == "random"
    expected = per_candidate_survivors(locked, oracle, 2, 2, seed=3)
    assert 0 < len(expected) < 16
    assert result.survivors == expected


def test_attack_random_mode_on_wide_circuit():
    orig = corpus.load_bench("b08_like")  # 9 non-key inputs forces random mode
    schedule = KeySchedule(keys=(1, 0), width=1)
    locked, _ = lock_structural(
        orig, schedule, seed=5
    )
    result = brute_force_attack(locked, orig, num_keys=2, key_bits=1, seed=6)
    assert result.mode == "random"
    assert (1, 0) in result.survivors


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 3),
    n_dffs=st.integers(1, 3),
    n_gates=st.integers(1, 20),
    num_keys=st.sampled_from([2, 4]),
    key_bits=st.integers(1, 3),
    ffs=st.integers(1, 3),
    init=st.sampled_from(["zero", "x"]),
)
def test_lock_then_verify_with_the_schedule_is_equivalent(
    seed, n_inputs, n_dffs, n_gates, num_keys, key_bits, ffs, init
):
    """A random netlist locked with a random config is equivalent to the
    original under its generating schedule, in exhaustive and random mode."""
    orig = synth.random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    schedule = generate_key_schedule(num_keys, key_bits, seed)
    locked, manifest = lock_structural(orig, schedule, num_locked_ffs=min(ffs, n_dffs), seed=seed)
    policy = KeyPolicy.correct(manifest.schedule)
    assert check_equivalence_exhaustive(orig, locked, depth=4, key_policy=policy, init=init).equivalent
    assert check_equivalence_random(
        orig, locked, sequences=64, cycles=16, seed=seed, key_policy=policy, init=init
    ).equivalent


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 3),
    n_dffs=st.integers(1, 3),
    n_gates=st.integers(1, 20),
    num_keys=st.sampled_from([2, 4]),
    key_bits=st.integers(1, 3),
    init=st.sampled_from(["zero", "x"]),
    data=st.data(),
)
def test_counterexamples_replay_under_tampered_schedules(
    seed, n_inputs, n_dffs, n_gates, num_keys, key_bits, init, data
):
    """Every counterexample either checker reports under a tampered schedule
    replays through the 1-lane `simulate`, in both init modes. The checkers
    step many lanes and the replay one, so two lane counts share the
    netlist's cached op lists."""
    orig = synth.random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    schedule = generate_key_schedule(num_keys, key_bits, seed)
    locked, manifest = lock_structural(orig, schedule, seed=seed)
    cycles = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    overrides = {
        c: (schedule.key_at(c) + data.draw(st.integers(1, 2**key_bits - 1))) % 2**key_bits
        for c in cycles
    }
    policy = KeyPolicy.tampered(schedule, overrides)
    for verdict in (
        check_equivalence_exhaustive(orig, locked, depth=6, key_policy=policy, init=init),
        check_equivalence_random(
            orig, locked, sequences=64, cycles=8, seed=seed, key_policy=policy, init=init
        ),
    ):
        if not verdict.equivalent:
            assert replay_counterexample(orig, locked, verdict.counterexample, policy, init)


def test_readme_python_api_block_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
