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

The random check, the corruption rate and the random-mode attack step one
seeded pair of simulators over one stimulus draw, one stimulus per lane.

Both checks and the attack drive a pair through one frontier contract: the
pair's ``start`` is the frontier at cycle 0, ``advance(frontier, cycle,
kv)`` returns ``(divergence, next_frontier)`` (on a divergence, the second
value is what ``witness`` needs), and ``witness(divergence, that, cycle)``
returns the counterexample's input rows; a side without key inputs ignores
`kv`. A :class:`_JointSweep` frontier maps each reachable joint state to the
input lanes that first reach it; a :class:`_RandomPair` frontier is the keyed
sides' flip-flop planes.

The attack searches key prefixes depth-first: cycle ``c`` diverges or not by
the key values of cycles ``0..c`` alone, so a divergence prunes every
candidate extending the prefix. Each prefix carries its frontier; the joint
sweep keeps one memo for the whole search and the random pair one stimulus
draw, so the survivors are those of one exhaustive or random check per
candidate.

One work budget bounds every search, and each search refuses before it does
the work the budget bounds: distinct joint states in the sweep's memo
(exhaustive check and attack), locked-circuit steps (random attack; the
random check takes no step budget), and survivors.
"""

from __future__ import annotations

import random
import time
from itertools import product
from typing import NamedTuple

from . import structural  # a module import: verify and attack never run it
from .circuit import Netlist
from .keys import KeySchedule
from .sim import KeyPolicy, PlaneSim, Stimulus, check_policy, minterm_planes, simulate


_MAX_MINTERM_INPUTS = 20  # 2**20 minterm lanes, checked before any plane is allocated
_DEFAULT_BUDGET = 200_000  # work budget: joint states or locked steps, and survivors
_ATTACK_SEQUENCES = 256  # random-mode attack: stimuli per candidate
_ATTACK_CYCLES = 64  # random-mode attack: cycles per stimulus


class BudgetExceededError(RuntimeError):
    """The requested search is larger than the configured budget."""


class Counterexample(NamedTuple):
    """A replayable stimulus: per-cycle non-key input vectors, and where the
    two circuits' outputs first diverged under it."""

    inputs: list[tuple[int, ...]]
    cycle: int
    output: str
    left_value: int | None
    right_value: int | None


class EquivVerdict(NamedTuple):
    equivalent: bool
    counterexample: Counterexample | None
    mode: str
    depth: int


class AttackResult(NamedTuple):
    """Outcome of a key-space search against an oracle. `depth` echoes the
    requested depth: a random-mode search checks 64 cycles whatever it is."""

    search_space_size: int
    survivors: list
    elapsed: float
    depth: int
    mode: str


class CircuitCounts(NamedTuple):
    gates: int
    dffs: int
    inputs: int
    outputs: int


class OverheadReport(NamedTuple):
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


def _check_pair(a: Netlist, b: Netlist, policy: KeyPolicy) -> None:
    """Check that `a` and `b` share their non-key inputs and outputs and that
    `policy`, which drives the keyed sides, fits every side with key inputs."""
    ca, cb = a.compiled, b.compiled
    if ca.nonkey_names != cb.nonkey_names:
        raise ValueError(f"non-key input mismatch: {ca.nonkey_names} vs {cb.nonkey_names}")
    if a.outputs != b.outputs:
        raise ValueError(f"output mismatch: {a.outputs} vs {b.outputs}")
    if not ca.key_idx and not cb.key_idx and policy.keys:
        raise ValueError("key policy given but neither netlist has key inputs")
    for compiled in (ca, cb):
        if compiled.key_idx:
            check_policy(compiled, policy)


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


class _RandomPair:
    """Both circuits of a pair, reset to `init`, over `sequences` seeded random
    stimuli of `cycles` cycles, one per lane. Each cycle's stimulus is drawn
    when first stepped, one ``getrandbits(sequences)`` plane per non-key input.
    A key-free side `a` is stepped once per cycle and its outputs kept; a
    frontier holds the keyed sides' flip-flop planes. Raises ValueError for
    an empty run, and :class:`BudgetExceededError` before a step past
    `budget` locked-circuit steps.
    """

    def __init__(
        self, a: Netlist, b: Netlist, sequences: int, cycles: int, seed: int, init: str = "zero",
        budget: float = float("inf"),
    ):
        if sequences < 1 or cycles < 1:
            raise ValueError(
                f"random run needs sequences >= 1 and cycles >= 1, got {sequences} and {cycles}"
            )
        rng = random.Random(seed)
        n = len(a.compiled.nonkey_idx)
        self.draw = ([rng.getrandbits(sequences) for _ in range(n)] for _ in range(cycles))
        self.stimulus: list[list[int]] = []
        self.sa, self.sb = PlaneSim(a, sequences), PlaneSim(b, sequences)
        self.sa.reset(init)
        self.sb.reset(init)
        keyed_a = bool(a.compiled.key_idx)
        self.outs_a = None if keyed_a else []  # a key-free side's outputs, per cycle
        self.keyed = (self.sa, self.sb) if keyed_a else (self.sb,)
        self.start = [(s.state_h[:], s.state_x[:]) for s in self.keyed]
        self.budget, self.steps = budget, 0

    def step(self, cycle: int, kv: int | None):
        """Step `cycle` under the key value `kv`; return the output planes of
        `a` and of `b`."""
        if cycle == len(self.stimulus):  # a cycle is first stepped after the one before it
            self.stimulus.append(next(self.draw))
        planes = self.stimulus[cycle]
        if self.outs_a is None:
            self.sa.step(planes, kv)
        elif cycle == len(self.outs_a):
            self.sa.step(planes, None)
            self.outs_a.append(self.sa.output_planes())
        self.sb.step(planes, kv)
        outs_a = self.sa.output_planes() if self.outs_a is None else self.outs_a[cycle]
        return outs_a, self.sb.output_planes()

    def advance(self, frontier: list, cycle: int, kv: int | None):
        """Step `cycle` from the keyed sides' planes `frontier`; return the
        first output divergence (None when the outputs agree) and the planes
        after the step."""
        if self.steps >= self.budget:
            raise BudgetExceededError(f"locked-step budget {self.budget} exceeded")
        self.steps += 1
        for s, (h, x) in zip(self.keyed, frontier):
            s.state_h[:], s.state_x[:] = h, x
        divergence = _first_divergence(*self.step(cycle, kv))
        return divergence, [(s.state_h[:], s.state_x[:]) for s in self.keyed]

    def witness(self, divergence, _, cycle: int) -> list[tuple[int, ...]]:
        lane = divergence[0]
        return [tuple((p >> lane) & 1 for p in row) for row in self.stimulus[: cycle + 1]]


class _JointSweep:
    """Both circuits of a pair over all ``2**n`` input minterms, one lane per
    minterm, with a memo of the joint states already expanded.

    Raises :class:`BudgetExceededError` before allocating any plane when
    there are more than 20 non-key inputs, and before expanding a distinct
    joint state past `budget` of them.
    """

    def __init__(self, a: Netlist, b: Netlist, budget: int = _DEFAULT_BUDGET, init: str = "zero"):
        self.n = n = len(a.compiled.nonkey_idx)
        if n > _MAX_MINTERM_INPUTS:
            raise BudgetExceededError(
                f"2^{n} input minterms exceed the 2^{_MAX_MINTERM_INPUTS}-lane cap; use random mode"
            )
        self.start = {(a.compiled.initial_state(init), b.compiled.initial_state(init)): ()}
        self.planes = minterm_planes(n)
        self.sa = PlaneSim(a, 1 << n)
        self.sb = PlaneSim(b, 1 << n)
        self.memo: dict = {}
        self.budget = budget

    def expand(self, st_a, st_b, kv):
        """Evaluate one cycle from the joint state ``(st_a, st_b)`` under the
        key value ``kv``, over every input minterm.

        Returns ``(divergence, successors)``: the first output divergence as
        :func:`_first_divergence` reports it (None when the outputs agree),
        and each distinct next joint state mapped to the lowest input lane
        that reaches it, in order of that lane. The lanes are split into
        classes by the 0/1/unknown value of every next-state plane of both
        sides, so each class is one successor. Each distinct
        ``(st_a, st_b, kv)`` is evaluated once, and at most `budget` distinct
        ones are.
        """
        key = (st_a, st_b, kv)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if len(self.memo) >= self.budget:
            raise BudgetExceededError(
                f"reachable-state budget {self.budget} exceeded; use random mode"
            )
        sa, sb = self.sa, self.sb
        sa.load_state(st_a)
        sa.step(self.planes, kv, latch=False)
        sb.load_state(st_b)
        sb.step(self.planes, kv, latch=False)
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

    def advance(self, frontier: dict, cycle: int, kv: int | None):
        """One cycle from every joint state of `frontier`, in its order.

        Returns ``(divergence, lanes)`` for the first state whose outputs
        diverge, as :meth:`expand` reports it, with the input lanes that
        reach that state; otherwise ``(None, children)``, each next joint
        state mapped to the first lanes that reach it, in order of discovery.
        """
        children: dict = {}
        for state, lanes in frontier.items():
            divergence, successors = self.expand(*state, kv)
            if divergence is not None:
                return divergence, lanes
            for child, lane in successors.items():
                if child not in children:
                    children[child] = lanes + (lane,)
        return None, children

    def witness(self, divergence, lanes: tuple, _) -> list[tuple[int, ...]]:
        return [tuple((lane >> i) & 1 for i in range(self.n)) for lane in lanes + (divergence[0],)]


def check_equivalence_exhaustive(
    a: Netlist,
    b: Netlist,
    depth: int,
    key_policy: KeyPolicy | None = None,
    init: str = "zero",
    budget: int = _DEFAULT_BUDGET,
) -> EquivVerdict:
    """Compare outputs over every input sequence of length <= depth.

    The key policy drives whichever side has key inputs. Unknown values
    compare equal to unknown; definite-vs-unknown counts as divergence.
    Raises :class:`BudgetExceededError` when the sweep would expand more
    than `budget` distinct joint states and, whatever the budget, when there
    are more than 20 non-key inputs.
    """
    if depth < 1:
        raise ValueError(f"exhaustive check needs depth >= 1, got {depth}")
    policy = key_policy or KeyPolicy()
    _check_pair(a, b, policy)
    return _check(a, _JointSweep(a, b, budget, init), policy, depth, "exhaustive")


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
    policy = key_policy or KeyPolicy()
    _check_pair(a, b, policy)
    return _check(a, _RandomPair(a, b, sequences, cycles, seed, init), policy, cycles, "random")


def _check(a: Netlist, pair, policy: KeyPolicy, depth: int, mode: str) -> EquivVerdict:
    """Advance `pair` from its start for `depth` cycles under the key policy;
    the verdict, with the first divergence as its counterexample."""
    frontier = pair.start
    for cycle in range(depth):
        divergence, frontier = pair.advance(frontier, cycle, policy.key_value_at(cycle))
        if divergence is not None:
            _, oi, va, vb = divergence
            cex = Counterexample(pair.witness(divergence, frontier, cycle), cycle, a.outputs[oi], va, vb)
            return EquivVerdict(False, cex, mode, depth)
    return EquivVerdict(equivalent=True, counterexample=None, mode=mode, depth=depth)


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
    policy = key_policy or KeyPolicy()
    _check_pair(a, b, policy)
    policy = policy._replace(overrides={c: v for c, v in policy.overrides.items() if c < len(cex.inputs)})
    ta, tb = (
        simulate(n, Stimulus(tuple(cex.inputs), policy if n.compiled.key_idx else KeyPolicy()), init=init)
        for n in (a, b)
    )
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
    circuit under a tampered key schedule differs from the original. Raises
    ValueError, before any simulation is set up, when there is no output."""
    if not orig.outputs:
        raise ValueError(f"netlist '{orig.name}' has no output to observe")
    policy = KeyPolicy.tampered(schedule, overrides)
    _check_pair(orig, locked, policy)
    pair = _RandomPair(orig, locked, sequences, cycles, seed, init)
    differing = 0
    for cycle in range(cycles):
        outs_o, outs_l = pair.step(cycle, policy.key_value_at(cycle))
        for po, pl in zip(outs_o, outs_l):
            differing += ((po[0] ^ pl[0]) | (po[1] ^ pl[1])).bit_count()
    return differing / (sequences * cycles * len(orig.outputs))


def _exceeds(bits: int, budget: int) -> bool:
    """Whether ``2**bits`` exceeds `budget`, decided without building it."""
    return budget < 0 or bits >= budget.bit_length()


def _prefix_search(pair, num_keys: int, key_bits: int, depth: int, budget: int) -> list:
    """Survivors of the attack, found depth-first over key prefixes.

    Cycle ``c < num_keys`` tries each key value in ascending order; a value
    under which the outputs diverge prunes every candidate that extends the
    prefix with it. Cycle ``c >= num_keys`` tries only the cyclic value
    ``prefix[c - num_keys]``. A prefix that reaches `depth` survives: its
    first `num_keys` values, with every completion. `pair` advances each
    prefix's frontier and counts its own budget; the survivor list holds at
    most `budget` entries, and a prefix's completions are counted before
    they are built.
    """
    values = range(2**key_bits)
    rest = max(num_keys - depth, 0)  # key values a prefix of length `depth` leaves open
    tail_bits = key_bits * rest
    survivors: list = []
    # one entry per open prefix: the prefix, its frontier, its untried key
    # values; an entry leaves the stack before its last value is tried, so
    # past `num_keys` the search holds only the frontier it advances
    stack = [((), pair.start, values)]
    while stack:
        prefix, frontier, untried = stack.pop()
        kv = untried[0]
        if len(untried) > 1:
            stack.append((prefix, frontier, untried[1:]))
        divergence, frontier = pair.advance(frontier, len(prefix), kv)
        if divergence is not None:
            continue
        prefix += (kv,)
        cycle = len(prefix)
        if cycle < depth:
            stack.append((prefix, frontier, values if cycle < num_keys else (prefix[cycle - num_keys],)))
            continue
        if _exceeds(tail_bits, budget) or len(survivors) + (1 << tail_bits) > budget:
            raise BudgetExceededError(
                f"{len(survivors)} + 2^{tail_bits} surviving candidates exceed budget {budget}"
            )
        survivors.extend(prefix[:num_keys] + tail for tail in product(values, repeat=rest))
    return survivors


def brute_force_attack(
    locked: Netlist,
    oracle: Netlist,
    num_keys: int,
    key_bits: int,
    depth: int = 8,
    budget: int = _DEFAULT_BUDGET,
    seed: int = 0,
) -> AttackResult:
    """Find every length-`num_keys` key sequence the oracle cannot tell apart.

    A candidate survives when the locked circuit, driven with the candidate
    applied cyclically, is bounded-equivalent to the oracle: exhaustively to
    `depth` for small circuits (<= 6 non-key inputs and <= 8 oracle DFFs),
    otherwise over 256 seeded random stimuli of 64 cycles, whatever `depth`
    is (the result still echoes `depth`). The generating schedule always
    survives. ``num_keys=1`` is the static attack: each candidate holds one
    key value every cycle, so against a time-varying schedule the survivor
    set is typically empty.

    Both modes search key prefixes depth-first instead of checking
    candidates one by one: a divergence at cycle ``c`` depends only on the
    first ``c + 1`` key values, so it prunes every candidate sharing them.
    The survivors, in enumeration order, are those of checking each
    candidate with :func:`check_equivalence_exhaustive` or
    :func:`check_equivalence_random`. Raises :class:`BudgetExceededError`
    before the search would hold more than `budget` survivors, or expand
    more than `budget` distinct joint states (exhaustive) or take more than
    `budget` locked-circuit steps (random). Raises ValueError when
    `num_keys`, `key_bits` or `depth` is < 1.
    """
    if num_keys < 1 or key_bits < 1:
        raise ValueError(f"attack needs num_keys >= 1 and key_bits >= 1, got {num_keys} and {key_bits}")
    if depth < 1:
        raise ValueError(f"attack needs depth >= 1, got {depth}")
    mode = "exhaustive" if len(locked.compiled.nonkey_idx) <= 6 and len(oracle.dffs) <= 8 else "random"
    started = time.perf_counter()
    # every candidate has the same key width, so one probe checks the pair
    # and the width for all of them
    _check_pair(oracle, locked, KeyPolicy.correct(KeySchedule(keys=(0,), width=key_bits)))
    if mode == "exhaustive":
        pair, cycles = _JointSweep(oracle, locked, budget), depth
    else:
        pair = _RandomPair(oracle, locked, _ATTACK_SEQUENCES, _ATTACK_CYCLES, seed, budget=budget)
        cycles = _ATTACK_CYCLES
    survivors = _prefix_search(pair, num_keys, key_bits, cycles, budget)
    return AttackResult(
        search_space_size=(2**key_bits) ** num_keys,
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


def overhead_report(orig: Netlist, locked: Netlist, manifest: structural.LockManifest) -> OverheadReport:
    """Exact added-cost report; raises ValueError when a netlist fails
    validation, the manifest does not describe the locked netlist or the
    deltas break the closed form."""
    locked._require_valid()  # a netlist free of errors drives every net it names,
    orig._require_valid()  # so its net index holds them all
    locked_nets, orig_nets = locked._graph[0], orig._graph[0]
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

    k = manifest.schedule.period
    ki = manifest.schedule.width
    original = _counts(orig)
    after = _counts(locked)
    delta = CircuitCounts(*(x - y for x, y in zip(after, original)))
    expected_gates = structural.expected_added_gate_count(k, ki, len(manifest.locked_ffs), fallback_ffs)
    expected_width = k.bit_length() - 1
    if delta.gates != expected_gates:
        raise ValueError(f"added gate count {delta.gates} != closed form {expected_gates}")
    if delta.dffs != expected_width:
        raise ValueError(f"added DFF count {delta.dffs} != counter width {expected_width}")
    if delta.inputs != ki or delta.outputs != 0:
        raise ValueError("added I/O counts do not match the manifest")
    if manifest.layers != k.bit_length():
        raise ValueError("manifest layer count does not match num_keys")
    return OverheadReport(
        original=original,
        locked=after,
        delta=delta,
        per_ff_mux_count=structural.added_mux_count(k, ki),
        key_inputs=ki,
        schedule_bits=k * ki,
        layers=manifest.layers,
    )
