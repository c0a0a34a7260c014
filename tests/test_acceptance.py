"""End-to-end acceptance criteria, one test each.

Each test labels itself through the `criterion` fixture; the conftest summary
hook prints one PASS/FAIL line per criterion at the end of the run. Every
tolerance is exact unless stated; wall-clock limits are asserted directly.
"""

import itertools
import random
import time

import pytest

from tklock import corpus
from tklock.analysis import (
    brute_force_attack,
    check_equivalence_exhaustive,
    check_equivalence_random,
    overhead_report,
)
from tklock.behavioral import lock_behavioral
from tklock.circuit import parse_bench, structurally_equal, validate, write_bench
from tklock.fsm import parse_kiss2, simulate_fsm, write_kiss2
from tklock.keys import KeySchedule, generate_key_schedule, to_binary
from tklock.sim import KeyPolicy, Stimulus, simulate
from tklock.structural import added_mux_count, lock_structural
from tests.conftest import S27_SCHEDULE, S27_SEED

pytestmark = pytest.mark.acceptance

# Table-style lock configurations for the ITC'99-class stand-in circuits
SCALE_CONFIGS = {
    "b03_like": (2, 4),
    "b04_like": (4, 11),
    "b08_like": (4, 9),
    "b10_like": (4, 11),
    "b11_like": (2, 7),
    "b12_like": (2, 5),
}

OVERHEAD_CORPUS = [
    "s27",
    "b02_like",
    "b01_like",
    "b06_like",
    "b09_like",
    "b03_like",
    "b08_like",
    "b10_like",
    "b04_like",
    "b11_like",
    "b12_like",
    "b14_like",
]


def test_c1_correct_key_equivalence_s27(criterion, s27, s27_locked):
    criterion("C1 correct-key equivalence, s27 exhaustive depth 6")
    locked, manifest = s27_locked
    started = time.perf_counter()
    verdict = check_equivalence_exhaustive(
        s27,
        locked,
        depth=6,
        key_policy=KeyPolicy.correct(manifest.schedule),
    )
    elapsed = time.perf_counter() - started
    assert verdict.equivalent and verdict.counterexample is None
    assert elapsed < 10.0
    print(f"\nC1: depth-6 exhaustive equivalence PASS in {elapsed:.2f}s")


def test_c2_correct_key_equivalence_at_scale(criterion):
    criterion("C2 correct-key equivalence at scale, 6 circuits, 1000x64")
    started = time.perf_counter()
    for name, (num_keys, key_bits) in SCALE_CONFIGS.items():
        orig = corpus.load_bench(name)
        locked, manifest = lock_structural(
            orig, generate_key_schedule(num_keys, key_bits, 42), seed=42
        )
        verdict = check_equivalence_random(
            orig,
            locked,
            sequences=1000,
            cycles=64,
            seed=9,
            key_policy=KeyPolicy.correct(manifest.schedule),
        )
        assert verdict.equivalent, f"{name}: {verdict.counterexample}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"\nC2: randomized equivalence over {len(SCALE_CONFIGS)} circuits PASS in {elapsed:.2f}s")


def test_c3_wrong_key_semantics(criterion, s27_locked):
    criterion("C3 wrong-key semantics, all 24 cases")
    locked, manifest = s27_locked
    record = manifest.locked_ffs[0]
    rng = random.Random(77)
    checked = 0
    for cycle in range(8):
        t = cycle % 4
        for value in range(4):
            if value == manifest.schedule.keys[t]:
                continue
            rows = ["".join(str(rng.randint(0, 1)) for _ in range(4)) for _ in range(cycle + 2)]
            policy = KeyPolicy.tampered(manifest.schedule, {cycle: value})
            wrongful = record.wrongful_source_nets[(t, value)]
            trace = simulate(
                locked,
                Stimulus.from_strings(rows, policy),
                watch=(wrongful, record.ff_output_net),
            )
            assert trace.value(cycle + 1, record.ff_output_net) == trace.value(cycle, wrongful)
            checked += 1
    assert checked == 24
    print(f"\nC3: locked FF loads its wrongful source in all {checked} cases")


def test_c4_mux_tree_shape(criterion, s27):
    criterion("C4 mux-tree shape for k in {2,4,8,16}")
    for num_keys in (2, 4, 8, 16):
        locked, manifest = lock_structural(
            s27, generate_key_schedule(num_keys, 2, 3), seed=3
        )
        assert manifest.layers == num_keys.bit_length()
        report = overhead_report(s27, locked, manifest)
        assert report.per_ff_mux_count == num_keys * 3 + (num_keys - 1)
        assert report.per_ff_mux_count == added_mux_count(num_keys, 2)
    print("\nC4: layers = log2(k)+1 and mux count = k*(2^ki-1)+(k-1) for k in {2,4,8,16}")


def test_c5_single_key_reduction(criterion, s27, s27_locked):
    criterion("C5 single-key reduction and brute-force soundness")
    started = time.perf_counter()
    constant = KeySchedule(keys=(3, 3, 3, 3), width=2)
    locked_const, _ = lock_structural(
        s27, constant, seed=S27_SEED
    )
    static_const = brute_force_attack(locked_const, s27, num_keys=1, key_bits=2, depth=8)
    assert (3,) in static_const.survivors

    locked, _ = s27_locked
    brute = brute_force_attack(locked, s27, num_keys=4, key_bits=2, depth=8)
    assert (1, 3, 2, 0) in brute.survivors
    static = brute_force_attack(locked, s27, num_keys=1, key_bits=2, depth=8)
    # recorded survivor set; empty for this seed (non-degenerate wrongful wiring)
    assert static.survivors == []
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\nC5: constant schedule -> static key 3 survives; schedule 1,3,2,0 -> "
        f"brute-force survivors {brute.survivors}, static survivors {static.survivors}, "
        f"{elapsed:.2f}s"
    )


def test_c6_behavioral_lock_detector(criterion, detector):
    criterion("C6 behavioral lock of the 1001 detector")
    locked, manifest = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    assert len(locked.states) == 16
    assert locked.input_width == 5
    schedule = manifest.schedule

    def locked_rows(word, wrong=None):
        rows = []
        for step, bit in enumerate(word):
            value = wrong[step] if wrong and step in wrong else schedule.key_at(step)
            rows.append(to_binary(value, 4) + bit)
        return rows

    for length in range(9):
        for bits in itertools.product("01", repeat=length):
            word = "".join(bits)
            orig_out, _ = simulate_fsm(detector, list(word))
            lock_out, _ = simulate_fsm(locked, locked_rows(word))
            assert orig_out == lock_out, word

    word = "10011010"
    _, correct_states = simulate_fsm(detector, list(word))
    for step in range(8):
        for value in range(16):
            if value == schedule.key_at(step):
                continue
            _, states = simulate_fsm(locked, locked_rows(word, wrong={step: value})[: step + 1])
            src = correct_states[step - 1] if step else detector.reset_state
            wrongful = manifest.wrongful_map[(src, step % 4, word[step])]
            assert states[step] == f"{wrongful}@{(step + 1) % 4}"
            assert wrongful != correct_states[step]
    print("\nC6: 16 states, input width 5, exhaustive depth-8 equivalence, per-step divergence")


def test_c7_overhead_scaling(criterion):
    criterion("C7 overhead constant and relative overhead decreasing")
    sizes = []
    deltas = []
    ratios = []
    for name in OVERHEAD_CORPUS:
        orig = corpus.load_bench(name)
        locked, manifest = lock_structural(orig, generate_key_schedule(4, 3, 8), seed=8)
        report = overhead_report(orig, locked, manifest)
        sizes.append(report.original.gates)
        deltas.append(report.delta.gates)
        ratios.append(report.relative_gate_overhead)
    assert len(sizes) >= 8
    assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes
    assert max(sizes) / min(sizes) >= 100
    assert len(set(deltas)) == 1
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    print(
        f"\nC7: added gates constant at {deltas[0]} over {len(sizes)} circuits "
        f"({min(sizes)}..{max(sizes)} gates); relative overhead strictly decreasing"
    )


def test_c8_format_fidelity(criterion, s27, s27_locked, detector):
    criterion("C8 format fidelity and locker-output validity")
    for name in corpus.available_benches():
        first = corpus.load_bench(name)
        text = write_bench(first)
        assert structurally_equal(first, parse_bench(text, name=name))
        assert write_bench(parse_bench(text, name=name)) == text
        assert validate(first) == []
    for name in corpus.available_machines():
        machine = corpus.load_kiss2(name)
        text = write_kiss2(machine)
        assert parse_kiss2(text) == machine

    locked, _ = s27_locked
    assert validate(locked) == []
    lock_checked = 0
    for name in corpus.available_benches():
        orig = corpus.load_bench(name)
        locked_n, _ = lock_structural(orig, generate_key_schedule(4, 2, 3), seed=3)
        assert validate(locked_n) == [], name
        assert structurally_equal(
            locked_n, parse_bench(write_bench(locked_n), name=name)
        )
        lock_checked += 1
    locked_fsm, _ = lock_behavioral(detector, generate_key_schedule(4, 4, 11), seed=11)
    assert parse_kiss2(write_kiss2(locked_fsm)) == locked_fsm
    print(
        f"\nC8: round-trip fixed points for {len(corpus.available_benches())} benches and "
        f"{len(corpus.available_machines())} machines; {lock_checked} locker outputs validate clean"
    )
