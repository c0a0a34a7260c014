"""Sequential equivalence checking, corruption measurement, key-recovery
attack oracles, and overhead reporting.

There is one key search, :func:`brute_force_attack`, over key-value
sequences applied cyclically. A static (single-key) attack is the period-1
case, ``num_keys=1``: every candidate holds one key value every cycle.

Exhaustive equivalence covers every input sequence up to a depth. It is
implemented as a breadth-first sweep of reachable joint states, evaluating
all ``2**n`` input minterms of a cycle at once in bit-parallel planes; the
verdict is identical to enumerating the sequences one by one (the test suite
pins that with an independent brute-force enumerator) but the cost scales
with reachable states instead of with ``(2**n)**depth``. The successors of a
joint state are read off the next-state planes by splitting the minterm
lanes into 0/1/unknown classes, one class per successor.

On small circuits the attack runs the same sweep depth-first over key
prefixes. Whether cycle ``c`` diverges depends only on the key values of
cycles ``0..c``, so a divergence under a prefix prunes every candidate that
extends it, and one memo of expanded joint states serves every candidate.
The survivors are those of one exhaustive check per candidate, in the same
order; the whole search is capped at 200,000 distinct joint states.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from itertools import product

from .circuit import Netlist
from .keys import KeySchedule
from .sim import KeyPolicy, PlaneSim, Stimulus, check_policy, minterm_planes, simulate
from .structural import LockManifest, added_mux_count, expected_added_gate_count


_MAX_MINTERM_INPUTS = 20  # 2**20 minterm lanes: the default sequence budget at depth 1
_MAX_JOINT_STATES = 200_000  # distinct joint states one exhaustive check or attack search may expand
_ATTACK_SEQUENCES = 256  # random-mode attack: stimuli per candidate
_ATTACK_CYCLES = 64  # random-mode attack: cycles per stimulus


class BudgetExceededError(RuntimeError):
    """The requested search is larger than the configured budget."""


@dataclass
class Counterexample:
    """A replayable stimulus: per-cycle non-key input vectors, and where the
    two circuits' outputs first diverged under it."""

    inputs: list[tuple[int, ...]]
    cycle: int
    output: str
    left_value: int | None
    right_value: int | None


@dataclass
class EquivVerdict:
    equivalent: bool
    counterexample: Counterexample | None
    mode: str
    depth: int


@dataclass
class AttackResult:
    """Outcome of a key-space enumeration against an oracle."""

    search_space_size: int
    survivors: list
    elapsed: float
    depth: int
    mode: str


@dataclass(frozen=True)
class CircuitCounts:
    gates: int
    dffs: int
    inputs: int
    outputs: int


@dataclass
class OverheadReport:
    original: CircuitCounts
    locked: CircuitCounts
    delta: CircuitCounts
    per_ff_mux_count: int
    key_inputs: int
    schedule_bits: int
    layers: int

    @property
    def relative_gate_overhead(self) -> float:
        if not self.original.gates:
            raise ValueError("original netlist has no gates; relative gate overhead is undefined")
        return self.delta.gates / self.original.gates


def _pair_policies(a: Netlist, b: Netlist, policy: KeyPolicy) -> tuple[KeyPolicy, KeyPolicy]:
    """Check that `a` and `b` share their non-key inputs and outputs and that
    `policy` fits every side with key inputs; return the policy for each side
    (none for a side without key inputs)."""
    ca, cb = a.compiled, b.compiled
    if ca.nonkey_names != cb.nonkey_names:
        raise ValueError(f"non-key input mismatch: {ca.nonkey_names} vs {cb.nonkey_names}")
    if a.outputs != b.outputs:
        raise ValueError(f"output mismatch: {a.outputs} vs {b.outputs}")
    if not ca.key_idx and not cb.key_idx and policy.kind != "none":
        raise ValueError("key policy given but neither netlist has key inputs")
    for compiled in (ca, cb):
        if compiled.key_idx:
            check_policy(compiled, policy)
    return tuple(policy if compiled.key_idx else KeyPolicy.none() for compiled in (ca, cb))


def _plane_lane(plane: tuple[int, int], lane: int) -> int | None:
    h, x = plane
    if (x >> lane) & 1:
        return None
    return (h >> lane) & 1


def _first_divergence(outs_a, outs_b) -> tuple[int, int, int | None, int | None] | None:
    """(lane, output index, left value, right value) of the first differing
    output plane, at its lowest differing lane; None when all planes agree."""
    for oi, (pa, pb) in enumerate(zip(outs_a, outs_b)):
        diff = (pa[0] ^ pb[0]) | (pa[1] ^ pb[1])
        if diff:
            lane = (diff & -diff).bit_length() - 1
            return lane, oi, _plane_lane(pa, lane), _plane_lane(pb, lane)
    return None


def _random_lockstep(
    a: Netlist,
    b: Netlist,
    policy: KeyPolicy,
    sequences: int,
    cycles: int,
    seed: int,
    init: str,
):
    """Step `a` and `b` side by side for `cycles` cycles over `sequences`
    seeded random stimuli, one stimulus per lane. `policy` drives each side
    that has key inputs.

    Yields ``(cycle, non-key input planes, output planes of a, of b)`` after
    every cycle. Raises ValueError for a mismatched pair or policy, and for
    an empty run, which would decide nothing.
    """
    pa, pb = _pair_policies(a, b, policy)
    if sequences < 1 or cycles < 1:
        raise ValueError(
            f"random run needs sequences >= 1 and cycles >= 1, got {sequences} and {cycles}"
        )
    rng = random.Random(seed)
    n = len(a.compiled.nonkey_idx)
    sa = PlaneSim(a, sequences)
    sb = PlaneSim(b, sequences)
    sa.reset(init)
    sb.reset(init)
    for cycle in range(cycles):
        planes = [rng.getrandbits(sequences) for _ in range(n)]
        sa.step(planes, pa.key_value_at(cycle))
        sb.step(planes, pb.key_value_at(cycle))
        yield cycle, planes, sa.output_planes(), sb.output_planes()


class _JointSweep:
    """Both circuits of a pair over all ``2**n`` input minterms, one lane per
    minterm, with a memo of the joint states already expanded.

    Raises :class:`BudgetExceededError` before allocating any plane when
    there are more than 20 non-key inputs.
    """

    def __init__(self, a: Netlist, b: Netlist):
        n = len(a.compiled.nonkey_idx)
        if n > _MAX_MINTERM_INPUTS:
            raise BudgetExceededError(
                f"2^{n} input minterms exceed the 2^{_MAX_MINTERM_INPUTS}-lane cap; use random mode"
            )
        self.planes = minterm_planes(n)
        self.sa = PlaneSim(a, 1 << n)
        self.sb = PlaneSim(b, 1 << n)
        self.memo: dict = {}

    def expand(self, st_a, st_b, kv_a, kv_b):
        """Evaluate one cycle from the joint state ``(st_a, st_b)`` under the
        key values ``kv_a`` and ``kv_b``, over every input minterm.

        Returns ``(divergence, successors)``: the first output divergence as
        :func:`_first_divergence` reports it (None when the outputs agree),
        and each distinct next joint state mapped to the lowest input lane
        that reaches it, in order of that lane. The lanes are split into
        classes by the 0/1/unknown value of every next-state plane of both
        sides, so each class is one successor. Each distinct
        ``(st_a, st_b, kv_a, kv_b)`` is evaluated once; the
        ``_MAX_JOINT_STATES``-th distinct one is the last allowed.
        """
        key = (st_a, st_b, kv_a, kv_b)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if len(self.memo) >= _MAX_JOINT_STATES:
            raise BudgetExceededError(
                f"reachable-state budget {_MAX_JOINT_STATES} exceeded; use random mode"
            )
        sa, sb = self.sa, self.sb
        sa.load_state(st_a)
        sa.step(self.planes, kv_a, latch=False)
        sb.load_state(st_b)
        sb.step(self.planes, kv_b, latch=False)
        divergence = _first_divergence(sa.output_planes(), sb.output_planes())
        classes = [(sa.mask, ())]
        for h, x in sa.next_state_planes() + sb.next_state_planes():
            split = []
            for lanes, values in classes:
                for part, value in ((lanes & ~(h | x), 0), (lanes & h, 1), (lanes & x, None)):
                    if part:
                        split.append((part, values + (value,)))
            classes = split
        classes.sort(key=lambda c: c[0] & -c[0])
        width_a = len(st_a)
        successors = {
            (values[:width_a], values[width_a:]): (lanes & -lanes).bit_length() - 1
            for lanes, values in classes
        }
        cached = self.memo[key] = (divergence, successors)
        return cached


def check_equivalence_exhaustive(
    a: Netlist,
    b: Netlist,
    depth: int,
    key_policy: KeyPolicy | None = None,
    init: str = "zero",
    sequence_budget: int | None = 2**20,
) -> EquivVerdict:
    """Compare outputs over every input sequence of length <= depth.

    The key policy drives whichever side has key inputs. Unknown values
    compare equal to unknown; definite-vs-unknown counts as divergence.
    Raises :class:`BudgetExceededError` when ``(2**inputs)**depth`` exceeds
    `sequence_budget` (pass None to lift it; the sweep itself is bounded by
    reachable states, at most 200,000 joint states) and, whatever the
    budget, when there are more than 20 non-key inputs.
    """
    if depth < 1:
        raise ValueError(f"exhaustive check needs depth >= 1, got {depth}")
    pa, pb = _pair_policies(a, b, key_policy or KeyPolicy.none())
    ca, cb = a.compiled, b.compiled
    n = len(ca.nonkey_idx)
    if sequence_budget is not None and (2**n) ** depth > sequence_budget:
        raise BudgetExceededError(
            f"(2^{n})^{depth} sequences exceed budget {sequence_budget}; use random mode"
        )
    sweep = _JointSweep(a, b)
    output_names = list(a.outputs)

    # parents[i] = (previous entry, input lane taken); roots use entry -1
    parents: list[tuple[int, int | None]] = [(-1, None)]
    frontier = {(ca.initial_state(init), cb.initial_state(init)): 0}
    for cycle in range(depth):
        kv_a = pa.key_value_at(cycle)
        kv_b = pb.key_value_at(cycle)
        next_frontier: dict = {}
        for (st_a, st_b), parent_idx in frontier.items():
            divergence, successors = sweep.expand(st_a, st_b, kv_a, kv_b)
            if divergence is not None:
                lane, oi, va, vb = divergence
                history = _input_history(parents, parent_idx, n)
                history.append(_lane_vector(lane, n))
                return EquivVerdict(
                    equivalent=False,
                    counterexample=Counterexample(
                        inputs=history,
                        cycle=cycle,
                        output=output_names[oi],
                        left_value=va,
                        right_value=vb,
                    ),
                    mode="exhaustive",
                    depth=depth,
                )
            for child, lane in successors.items():
                if child not in next_frontier:
                    parents.append((parent_idx, lane))
                    next_frontier[child] = len(parents) - 1
        frontier = next_frontier
    return EquivVerdict(equivalent=True, counterexample=None, mode="exhaustive", depth=depth)


def _lane_vector(lane: int, n_inputs: int) -> tuple[int, ...]:
    return tuple((lane >> i) & 1 for i in range(n_inputs))


def _input_history(parents, idx: int, n_inputs: int) -> list[tuple[int, ...]]:
    lanes = []
    while idx >= 0:
        prev, lane = parents[idx]
        if lane is not None:
            lanes.append(lane)
        idx = prev
    lanes.reverse()
    return [_lane_vector(lane, n_inputs) for lane in lanes]


def check_equivalence_random(
    a: Netlist,
    b: Netlist,
    sequences: int,
    cycles: int,
    seed: int,
    key_policy: KeyPolicy | None = None,
    init: str = "zero",
) -> EquivVerdict:
    """Compare outputs over `sequences` seeded random stimuli of `cycles` each."""
    n = len(a.compiled.nonkey_idx)
    history: list[list[int]] = []
    for cycle, planes, outs_a, outs_b in _random_lockstep(
        a, b, key_policy or KeyPolicy.none(), sequences, cycles, seed, init
    ):
        history.append(planes)
        divergence = _first_divergence(outs_a, outs_b)
        if divergence is not None:
            lane, oi, va, vb = divergence
            inputs = [tuple((row[i] >> lane) & 1 for i in range(n)) for row in history]
            return EquivVerdict(
                equivalent=False,
                counterexample=Counterexample(
                    inputs=inputs,
                    cycle=cycle,
                    output=a.outputs[oi],
                    left_value=va,
                    right_value=vb,
                ),
                mode="random",
                depth=cycles,
            )
    return EquivVerdict(equivalent=True, counterexample=None, mode="random", depth=cycles)


def replay_counterexample(
    a: Netlist,
    b: Netlist,
    cex: Counterexample,
    key_policy: KeyPolicy | None = None,
    init: str = "zero",
) -> bool:
    """Re-simulate a counterexample; True when the reported divergence recurs.

    Key overrides at cycles past the counterexample cannot affect it and are
    left out of the replay.
    """

    def run(netlist: Netlist, policy: KeyPolicy):
        stim = Stimulus(cycles=len(cex.inputs), inputs=tuple(cex.inputs), key_policy=policy)
        return simulate(netlist, stim, init=init)

    pa, pb = _pair_policies(a, b, key_policy or KeyPolicy.none())
    pa, pb = (
        replace(p, overrides={c: v for c, v in p.overrides.items() if c < len(cex.inputs)})
        for p in (pa, pb)
    )
    ta, tb = run(a, pa), run(b, pb)
    va = ta.value(cex.cycle, cex.output)
    vb = tb.value(cex.cycle, cex.output)
    return va != vb and (va, vb) == (cex.left_value, cex.right_value)


def corruption_rate(
    orig: Netlist,
    locked: Netlist,
    schedule: KeySchedule,
    overrides: dict[int, int],
    sequences: int,
    cycles: int,
    seed: int,
    init: str = "zero",
) -> float:
    """Fraction of (sequence, cycle, output-bit) observations where the locked
    circuit under a tampered key schedule differs from the original."""
    differing = 0
    for _, _, outs_o, outs_l in _random_lockstep(
        orig, locked, KeyPolicy.tampered(schedule, overrides), sequences, cycles, seed, init
    ):
        for po, pl in zip(outs_o, outs_l):
            differing += ((po[0] ^ pl[0]) | (po[1] ^ pl[1])).bit_count()
    return differing / (sequences * cycles * len(orig.outputs))


def _pick_eq_mode(locked: Netlist, oracle: Netlist) -> str:
    if len(locked.compiled.nonkey_idx) <= 6 and len(oracle.dffs) <= 8:
        return "exhaustive"
    return "random"


def _prefix_search(oracle: Netlist, locked: Netlist, num_keys: int, key_bits: int, depth: int) -> list:
    """Survivors of the exhaustive attack, found depth-first over key prefixes.

    The frontier after a prefix is every joint state the pair can reach in
    ``len(prefix)`` cycles under it. Cycle ``c < num_keys`` tries each key
    value in ascending order; a value under which some frontier state
    diverges prunes every candidate that extends the prefix with it. A
    prefix that reaches `depth` survives with every completion; a full
    candidate keeps sweeping to `depth` with the key ``prefix[c % num_keys]``.
    One memo serves the whole search, so each joint state and key pair is
    evaluated once.
    """
    # every candidate has the same shape, so one probe checks the pair and
    # the key width for all of them and tells whether the oracle takes keys
    probe = KeyPolicy.correct(KeySchedule(keys=(0,) * num_keys, width=key_bits))
    pa, _ = _pair_policies(oracle, locked, probe)
    keyed_oracle = pa.kind != "none"
    sweep = _JointSweep(oracle, locked)
    values = range(2**key_bits)
    survivors: list = []

    def advance(frontier: dict, kv: int) -> dict | None:
        """The next frontier under key value `kv`, or None on a divergence."""
        next_frontier: dict = {}
        for st_a, st_b in frontier:
            divergence, successors = sweep.expand(st_a, st_b, kv if keyed_oracle else None, kv)
            if divergence is not None:
                return None
            next_frontier.update(successors)
        return next_frontier

    def search(prefix: tuple, frontier: dict) -> None:
        if len(prefix) == depth:
            survivors.extend(prefix + tail for tail in product(values, repeat=num_keys - depth))
            return
        if len(prefix) == num_keys:
            for cycle in range(num_keys, depth):
                frontier = advance(frontier, prefix[cycle % num_keys])
                if frontier is None:
                    return
            survivors.append(prefix)
            return
        for kv in values:
            next_frontier = advance(frontier, kv)
            if next_frontier is not None:
                search(prefix + (kv,), next_frontier)

    init = oracle.compiled.initial_state("zero"), locked.compiled.initial_state("zero")
    search((), {init: None})
    return survivors


def brute_force_attack(
    locked: Netlist,
    oracle: Netlist,
    num_keys: int,
    key_bits: int,
    depth: int = 8,
    candidate_budget: int = 2**20,
    seed: int = 0,
) -> AttackResult:
    """Find every length-`num_keys` key sequence the oracle cannot tell apart.

    A candidate survives when the locked circuit, driven with the candidate
    applied cyclically, is bounded-equivalent to the oracle: exhaustively to
    `depth` for small circuits (<= 6 non-key inputs and <= 8 oracle DFFs),
    otherwise over 256 seeded random stimuli of 64 cycles. The generating
    schedule always survives. ``num_keys=1`` is the static attack: each
    candidate holds one key value every cycle, so against a time-varying
    schedule the survivor set is typically empty.

    The exhaustive mode searches key prefixes depth-first instead of
    checking candidates one by one: a divergence at cycle ``c < num_keys``
    depends only on the first ``c + 1`` key values, so it prunes every
    candidate sharing them. The survivors, in enumeration order, are those
    of checking each candidate with :func:`check_equivalence_exhaustive`.
    The whole search shares one memo of joint states and raises
    :class:`BudgetExceededError` when it would expand more than 200,000
    distinct ones. The random mode checks each candidate on its own.
    Raises ValueError when `depth` < 1.
    """
    if depth < 1:
        raise ValueError(f"attack needs depth >= 1, got {depth}")
    space = (2**key_bits) ** num_keys
    if space > candidate_budget:
        raise BudgetExceededError(f"key-sequence space {space} exceeds budget {candidate_budget}")
    mode = _pick_eq_mode(locked, oracle)
    started = time.perf_counter()
    if mode == "exhaustive":
        survivors = _prefix_search(oracle, locked, num_keys, key_bits, depth)
    else:
        survivors = [
            candidate
            for candidate in product(range(2**key_bits), repeat=num_keys)
            if check_equivalence_random(
                oracle,
                locked,
                _ATTACK_SEQUENCES,
                _ATTACK_CYCLES,
                seed,
                key_policy=KeyPolicy.correct(KeySchedule(keys=candidate, width=key_bits)),
            ).equivalent
        ]
    return AttackResult(
        search_space_size=space,
        survivors=survivors,
        elapsed=time.perf_counter() - started,
        depth=depth,
        mode=mode,
    )


def _counts(netlist: Netlist) -> CircuitCounts:
    return CircuitCounts(
        gates=len(netlist.gates),
        dffs=len(netlist.dffs),
        inputs=len(netlist.inputs),
        outputs=len(netlist.outputs),
    )


def overhead_report(orig: Netlist, locked: Netlist, manifest: LockManifest) -> OverheadReport:
    """Exact added-cost report; raises ValueError when the manifest does not
    describe the locked netlist or the deltas break the closed form."""
    locked_nets = locked.net_names()
    orig_nets = orig.net_names()
    for net in (
        manifest.key_input_nets
        + manifest.counter_state_nets
        + manifest.onehot_time_nets
        + [ff.mux_tree_output_net for ff in manifest.locked_ffs]
    ):
        if net not in locked_nets:
            raise ValueError(f"manifest net '{net}' missing from locked netlist")
    locked_dff_inputs = {d.output: d.input for d in locked.dffs}
    orig_dff_inputs = {d.output: d.input for d in orig.dffs}
    fallback_ffs = 0
    for ff in manifest.locked_ffs:
        if locked_dff_inputs.get(ff.ff_output_net) != ff.mux_tree_output_net:
            raise ValueError(f"locked flip-flop '{ff.ff_output_net}' is not driven by its mux tree")
        if orig_dff_inputs.get(ff.ff_output_net) != ff.correct_d_net:
            raise ValueError(f"manifest correct_d_net mismatch for '{ff.ff_output_net}'")
        sources = set(ff.wrongful_source_nets.values())
        if ff.correct_d_net in sources:
            raise ValueError(f"wrongful map for '{ff.ff_output_net}' includes the correct net")
        if any(net not in locked_nets for net in sources):
            raise ValueError(f"wrongful source missing from locked netlist for '{ff.ff_output_net}'")
        if any(net not in orig_nets for net in sources):
            fallback_ffs += 1

    k = manifest.num_keys
    ki = manifest.key_bits
    original = _counts(orig)
    after = _counts(locked)
    delta = CircuitCounts(
        gates=after.gates - original.gates,
        dffs=after.dffs - original.dffs,
        inputs=after.inputs - original.inputs,
        outputs=after.outputs - original.outputs,
    )
    expected_gates = expected_added_gate_count(k, ki, len(manifest.locked_ffs), fallback_ffs)
    expected_width = k.bit_length() - 1
    if delta.gates != expected_gates:
        raise ValueError(f"added gate count {delta.gates} != closed form {expected_gates}")
    if delta.dffs != expected_width:
        raise ValueError(f"added DFF count {delta.dffs} != counter width {expected_width}")
    if delta.inputs != ki or delta.outputs != 0:
        raise ValueError("added I/O counts do not match the lock config")
    if manifest.layers != k.bit_length():
        raise ValueError("manifest layer count does not match num_keys")
    return OverheadReport(
        original=original,
        locked=after,
        delta=delta,
        per_ff_mux_count=added_mux_count(k, ki),
        key_inputs=ki,
        schedule_bits=k * ki,
        layers=manifest.layers,
    )
