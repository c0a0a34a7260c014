"""Cycle-accurate 3-valued simulation of sequential netlists.

Values are 0, 1, or None (unknown). One timing model: primary inputs are
sampled at the start of a cycle, all combinational nets are evaluated once in
topological order under strong Kleene logic, and DFFs latch their D nets at
the end of the cycle. Two initial-state modes exist: "zero" (all flip-flops
start at 0) and "x" (flip-flops start unknown). Counter flip-flops added by
the structural locker are recognized by their net prefix and start at 0 in
both modes; the locked circuit's key schedule is anchored to cycle 0.

Key inputs (``keyinput%d``) are driven by a :class:`KeyPolicy` rather than by
the per-cycle stimulus vectors, which cover non-key inputs only.

:class:`PlaneSim` is the only evaluation kernel. Every net holds two integer
bit planes, high and unknown, and bit ``l`` of each plane belongs to run
``l``, so one pass evaluates arbitrarily many runs. Every gate compiles to
two-fanin ops ``(family, out, a, b, invert)`` with ``family`` AND, OR or
XOR: NOT and BUF read ``(a, a)``, and a gate with ``n > 2`` fanins is a chain
of ``n - 1`` ops through unnamed nets. A step whose input and state planes
carry no unknown bit evaluates the high plane alone (two-valued); otherwise
it runs the strong Kleene pass over both planes. :func:`simulate` is the
1-lane case: it checks its inputs, steps a 1-lane :class:`PlaneSim` and
reads the trace back from the planes. The test suite pins the kernel to an
independent gate-at-a-time Kleene oracle.

A step need not evaluate every op. Control nets are the key inputs, the
counter flip-flops and the nets whose ops read only control nets; a net is
fed when a control net reaches it. The flip-flops named by the counter
prefix are counter flip-flops only if the D net of each one is a control
net; else none is. A step evaluates the free ops (those no control net
reaches), then a fed tail: the fed ops that its roots (outputs, next-state
nets and the nets the caller watches) depend on. The compiled netlist
derives each tail from the watched nets, key value (None when key-free) and
counter bits alone, never from a simulator's planes, and caches it for every
:class:`PlaneSim`. Nets left out keep stale planes, so after a step only
inputs, flip-flop outputs, outputs, next-state nets and watched nets are
current.

The counter starts at 0 and its next state reads only control nets, so every
counter plane is uniform and known (a step refuses one that is not), each
control net holds 0 or all ones in every lane, and the tail is wired. One
walk back from the roots derives it, resolving each fed net once the fanins
it needs are resolved, to a source net and an inversion. An op with a
fanin whose source is a key input or a counter flip-flop becomes a wire:
from that source when the fanin fixes the op (AND at 0, OR at 1), else from
its other fanin's source, the inversion carried along (AND at 1, OR at 0,
any XOR). NOT and BUF are wires, and every control net resolves to a key
input or a counter flip-flop. An AND or OR resolves a control fanin first,
and when that fanin fixes the op, its other fanin is not walked. The tail
keeps one wire ``(AND, net, source, source, inverted)`` per wired root and
the ops that no control value decides; the two-valued and the Kleene pass
give a wire the value of the op it replaces. A mux tree is one wire: per
step, the
tails of the xsim bench jobs (locked b14 k8/ki3 with 16 locked flip-flops,
b12 k2/ki5, b04 k4/ki11) hold 27, 3 and 7 ops.

The Kleene pass runs the free ops event-driven (selective trace): a free op
is evaluated only when a fanin's planes changed. Its position is scheduled
when an input or flip-flop it reads changes (every free op on a step after
one that was not a Kleene step) or when an op it reads changes, and the
schedule is walked in order, since readers follow the ops they read. The
tail runs through the same loop, every op scheduled. This is exact: a free
op reads no fed net, so after a Kleene step every free net's planes are its
formula over its fanins' current planes. Per cycle of those jobs, 392 of
b14's 2,745 free ops, 47 of b12's 1,212 and 129 of b04's 678 are evaluated.
The two-valued pass evaluates every free op: almost every op has a changed
fanin there, and the same check made a 1000-lane random verify of locked
b04 about 40% slower.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

from .circuit import Netlist
from .keys import COUNTER_NET_PREFIX, KeySchedule, split_inputs

# Op families. Every op is (family, out, a, b, invert) with net indices a and
# b; a gate kind maps to its (family, invert). NOT and BUF are NAND and AND
# of (a, a). A wider gate chains ops through unnamed nets numbered from
# len(index) up; only its last op inverts.
_AND, _OR, _XOR = range(3)
_KIND_OPS = {
    "AND": (_AND, False), "NAND": (_AND, True), "OR": (_OR, False), "NOR": (_OR, True),
    "XOR": (_XOR, False), "XNOR": (_XOR, True), "BUF": (_AND, False), "NOT": (_AND, True),
}
# Op lists cached per compiled netlist; past the cap the oldest is dropped.
_MAX_OP_LISTS = 64


def _gate_ops(gate, index: dict[str, int], n: int) -> Sequence[tuple]:
    """The ops of `gate`; a wide gate's unnamed nets are numbered from `n`."""
    family, invert = _KIND_OPS[gate.kind]
    fanins = gate.fanins
    if len(fanins) < 3:  # one op, as most gates are
        return ((family, index[gate.output], index[fanins[0]], index[fanins[-1]], invert),)
    a = index[fanins[0]]
    ops = []
    for f in fanins[1:-1]:
        ops.append((family, n, a, index[f], False))
        a, n = n, n + 1
    ops.append((family, index[gate.output], a, index[fanins[-1]], invert))
    return ops


def _known_pass(h, mask: int, *op_lists: list[tuple]) -> None:
    """Two-valued pass over the high planes `h`, `mask` all ones."""
    for ops in op_lists:
        for family, out, a, b, invert in ops:
            if family == _AND:
                v = h[a] & h[b]
            elif family == _OR:
                v = h[a] | h[b]
            else:
                v = h[a] ^ h[b]
            h[out] = v ^ mask if invert else v


class KeyPolicy(NamedTuple):
    """How key inputs are driven: `keys` applied cyclically, so the key at
    cycle ``c`` is ``keys[c % len(keys)]``, with per-cycle `overrides`. The
    empty tuple drives no key input.

    ``correct`` and ``tampered`` take their keys and `width` from a schedule,
    and the netlist must have exactly `width` key inputs. ``static(v)`` holds
    one value every cycle; with no width, it is only range-checked.
    """

    keys: tuple[int, ...] = ()
    width: int | None = None
    overrides: Mapping[int, int] = MappingProxyType({})  # read-only: the default is shared

    @classmethod
    def correct(cls, schedule: KeySchedule) -> "KeyPolicy":
        return cls(schedule.keys, schedule.width)

    @classmethod
    def tampered(cls, schedule: KeySchedule, overrides: dict[int, int]) -> "KeyPolicy":
        return cls(schedule.keys, schedule.width, dict(overrides))

    @classmethod
    def static(cls, value: int) -> "KeyPolicy":
        return cls((value,))

    def key_value_at(self, cycle: int) -> int | None:
        if not self.keys:
            return None
        if cycle in self.overrides:
            return self.overrides[cycle]
        return self.keys[cycle % len(self.keys)]


class Stimulus(NamedTuple):
    """Per-cycle vectors for the non-key inputs plus a key-driving policy."""

    inputs: tuple[tuple[int | None, ...], ...]
    key_policy: KeyPolicy = KeyPolicy()

    @property
    def cycles(self) -> int:
        return len(self.inputs)

    @classmethod
    def from_strings(cls, rows: list[str], key_policy: KeyPolicy | None = None) -> "Stimulus":
        table = {"0": 0, "1": 1, "x": None, "X": None}
        vectors = []
        for row in rows:
            if set(row) - set(table):
                raise ValueError(f"bad stimulus row '{row}'")
            vectors.append(tuple(table[ch] for ch in row))
        return cls(inputs=tuple(vectors), key_policy=key_policy or KeyPolicy())


class Trace(NamedTuple):
    """Per-cycle values of all primary inputs, primary outputs, and watched nets."""

    init_mode: str
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    watch_names: tuple[str, ...]
    inputs: list[tuple[int | None, ...]]
    outputs: list[tuple[int | None, ...]]
    watched: list[tuple[int | None, ...]]

    @property
    def cycles(self) -> int:
        return len(self.outputs)

    def value(self, cycle: int, net: str) -> int | None:
        for names, rows in (
            (self.output_names, self.outputs),
            (self.watch_names, self.watched),
            (self.input_names, self.inputs),
        ):
            if net in names:
                return rows[cycle][names.index(net)]
        raise KeyError(f"net '{net}' not recorded in trace")

    def to_csv(self) -> str:
        header = ["cycle", *self.input_names, *self.output_names, *self.watch_names]
        rows = [",".join(header)]
        cell = {0: "0", 1: "1", None: "x"}.__getitem__
        for c in range(self.cycles):
            cells = [str(c)]
            cells += map(cell, self.inputs[c])
            cells += map(cell, self.outputs[c])
            cells += map(cell, self.watched[c])
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"


class CompiledNetlist:
    """Index-based form of a netlist that :class:`PlaneSim` evaluates.

    Build it through ``Netlist.compiled``, which compiles each netlist once.
    A netlist from ``parse_bench`` is not validated again; any other is
    validated once, and one with an error raises ValueError. It holds the
    counter flip-flops (`counter_pos`: all that the counter prefix names, or
    none); the free ops, which every step runs; the control nets and the
    gate driving each fed net, from which :meth:`tail` derives each fed
    tail under (watched nets, key value, counter bits) alone, never from a
    simulator's planes, and caches it in `op_lists`; and, from the first
    Kleene step, the free ops that read each free op's output, input and
    flip-flop.

    The compile walks the gates in ``Netlist._graph`` order and marks fed and
    control nets and `_driver` gate by gate, building an op only for a free
    gate: a fed gate's ops are built when a tail walks to them. A wide gate
    is marked op by op, so the free ops that start its chain stay in `_free`.
    """

    def __init__(self, netlist: Netlist):
        netlist._require_valid()
        self.index = index = netlist._graph[0]
        self._order = order = netlist._graph[1]
        nonkey, key = split_inputs(netlist)
        self.nonkey_idx = [index[n] for n in nonkey]
        self.key_idx = [index[n] for n in key]
        self.nonkey_names = nonkey
        self.input_idx = [index[n] for n in netlist.inputs]
        self.output_idx = [index[n] for n in netlist.outputs]
        self.dff_q_idx = [index[d.output] for d in netlist.dffs]
        self.dff_d_idx = [index[d.input] for d in netlist.dffs]
        self.dff_forced_zero = [d.output.startswith(COUNTER_NET_PREFIX) for d in netlist.dffs]
        self.n_nets = n_nets = len(index) + sum(len(g.fanins) - 2 for g in order if len(g.fanins) > 2)
        # mark from the key inputs and the counter; if a counter flip-flop's D
        # net is no control net, there is no counter: mark from the key inputs
        for self.counter_pos in ([p for p, forced in enumerate(self.dff_forced_zero) if forced], []):
            # _driver: the position in `order` of the gate driving each fed op
            # net, else -1, in int32 slots; _chains: each wide gate's first unnamed net
            self._control = control = bytearray(n_nets)
            fed = bytearray(n_nets)
            for i in self.key_idx + [self.dff_q_idx[p] for p in self.counter_pos]:
                control[i] = fed[i] = 1
            self._driver = driver = memoryview(bytearray(b"\xff") * (4 * n_nets)).cast("i")
            self._free = free = []  # ops reading no fed net
            self._chains = {}
            n = len(index)
            for p, g in enumerate(order):
                fanins = g.fanins
                if len(fanins) < 3:  # one op, as most gates are: built only if it is free
                    a, b = index[fanins[0]], index[fanins[-1]]
                    if fed[a] or fed[b]:
                        out = index[g.output]
                        fed[out], driver[out], control[out] = 1, p, control[a] & control[b]
                    else:
                        family, invert = _KIND_OPS[g.kind]
                        free.append((family, index[g.output], a, b, invert))
                    continue
                ops = _gate_ops(g, index, n)  # a wide gate: its unnamed nets are numbered from n
                self._chains[p] = n
                n += len(ops) - 1
                for op in ops:  # mark what each op feeds; keep it if free
                    _, out, a, b, _ = op
                    if fed[a] or fed[b]:
                        fed[out], driver[out], control[out] = 1, p, control[a] & control[b]
                    else:
                        free.append(op)
            if all(control[self.dff_d_idx[p]] for p in self.counter_pos):
                break
        # (watched nets, key value, counter bits) -> fed tail; see tail
        self.op_lists: dict[tuple, list] = {}
        self._readers: tuple[list, dict] | None = None  # see _free_readers

    def tail(self, watch: tuple[int, ...], key_value: int | None, counter: int) -> list[tuple]:
        """The cached fed tail of a step that watches the nets `watch`, wired
        under the key value (ignored without key inputs) and the counter bits.

        A miss walks back from the roots (outputs, next-state nets and
        `watch`), resolving each fed net to a wire or an undecided op (see
        the module docstring), then keeps, from the last resolved net in
        topological order, those the roots need."""
        key = (watch, key_value if self.key_idx else None, counter)
        ops = self.op_lists.get(key)
        if ops is not None:
            return ops
        h = {i: key_value >> bit & 1 for bit, i in enumerate(self.key_idx)}
        h.update((self.dff_q_idx[p], counter >> bit & 1) for bit, p in enumerate(self.counter_pos))
        control, driver, chains = self._control, self._driver, self._chains
        order, index = self._order, self.index
        built: dict[int, tuple] = {}  # net -> op, for the gates the walk reaches
        source: dict[int, tuple[int, bool]] = {}  # wired net -> (source net, inverted)
        kept: dict[int, tuple] = {}  # resolved net -> its op in the tail
        roots = self.output_idx + self.dff_d_idx + list(watch)
        stack = [net for net in roots if driver[net] >= 0]  # the walk pushes only fed nets
        while stack:
            net = stack[-1]
            if net in kept:
                stack.pop()
                continue
            p = driver[net]
            if net not in built:
                built.update((op[1], op) for op in _gate_ops(order[p], index, chains.get(p, 0)))
            family, _, a, b, invert = built[net]
            first, other = (b, a) if control[b] > control[a] else (a, b)
            if driver[first] >= 0 and first not in kept:
                stack.append(first)
                continue
            s, i = source.get(first, (first, False))
            # NOT and BUF are wires, as is an op whose first fanin holds its controlling value
            decided = family != _XOR and (a == b or s in h and h[s] ^ i == (family == _OR))
            if not decided and driver[other] >= 0 and other not in kept:
                stack.append(other)
                continue
            stack.pop()
            (sa, ia), (sb, ib) = source.get(a, (a, False)), source.get(b, (b, False))
            if decided:
                source[net] = s, i ^ invert
            elif sa in h or sb in h:
                (s, i), (so, io) = ((sa, ia), (sb, ib)) if sa in h else ((sb, ib), (sa, ia))
                one = bool(h[s]) ^ i  # the decided fanin's value
                if family == _XOR:
                    source[net] = so, io ^ one ^ invert
                elif one == (family == _OR):  # the controlling value
                    source[net] = s, i ^ invert
                else:
                    source[net] = so, io ^ invert
            elif family == _XOR:  # an XOR takes its fanins' inversions into its own
                kept[net] = (family, net, sa, sb, invert ^ ia ^ ib)
            else:  # a decided net that an AND or OR reads inverted keeps its wire
                kept[net] = (family, net, a if ia else sa, b if ib else sb, invert)
            if net in source:
                s, i = source[net]
                kept[net] = (_AND, net, s, s, i)
        # in topological order: by gate, then up a wide gate's chain, unnamed nets first
        named = len(index)
        needed = set(roots)
        ops = []
        for net in sorted(kept, key=lambda n: (driver[n], n < named, n), reverse=True):
            if net in needed:
                ops.append(kept[net])
                needed.update(kept[net][2:4])
        ops.reverse()
        if len(self.op_lists) >= _MAX_OP_LISTS:
            del self.op_lists[next(iter(self.op_lists))]
        self.op_lists[key] = ops
        return ops

    def _free_readers(self) -> tuple[list[tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """The positions in `_free` of the ops that read each free op's
        output (by the op's position) and each input or flip-flop (by net),
        for the nets that have readers; built on the first Kleene step and
        kept."""
        if self._readers is None:
            readers: dict[int, tuple[int, ...]] = {}
            for p, (_, _, a, b, _) in enumerate(self._free):
                readers[a] = readers.get(a, ()) + (p,)
                if b != a:
                    readers[b] = readers.get(b, ()) + (p,)
            seeds = {n: readers[n] for n in self.nonkey_idx + self.dff_q_idx if n in readers}
            self._readers = [readers.get(op[1], ()) for op in self._free], seeds
        return self._readers

    def initial_state(self, init: str) -> tuple[int | None, ...]:
        if init not in ("zero", "x"):
            raise ValueError(f"unknown init mode '{init}'")
        if init == "zero":
            return tuple(0 for _ in self.dff_q_idx)
        return tuple(0 if forced else None for forced in self.dff_forced_zero)


def check_policy(compiled: CompiledNetlist, policy: KeyPolicy) -> None:
    width = len(compiled.key_idx)
    if not policy.keys:
        if width:
            raise ValueError("netlist has key inputs; a key policy is required")
        return
    if not width:
        raise ValueError("key policy given for a netlist without key inputs")
    if policy.width not in (None, width):
        raise ValueError(f"schedule width {policy.width} does not match {width} key inputs")
    for value in policy.keys:
        if not 0 <= value < 2**width:
            raise ValueError(f"static key {value} out of range for {width} key bits")
    for cycle, value in policy.overrides.items():
        if not 0 <= value < 2**width:
            raise ValueError(f"override {value} at cycle {cycle} out of range")


def simulate(
    netlist: Netlist,
    stimulus: Stimulus,
    init: str = "zero",
    watch: tuple[str, ...] = (),
) -> Trace:
    """Simulate one stimulus and record inputs, outputs and watched nets.

    See the module docstring for the model. The run is one lane of a
    :class:`PlaneSim`: unknown stimulus bits go in on the unknown plane.
    """
    compiled = netlist.compiled
    check_policy(compiled, stimulus.key_policy)
    for cycle, row in enumerate(stimulus.inputs):
        if len(row) != len(compiled.nonkey_idx):
            raise ValueError(
                f"stimulus width {len(row)} does not match {len(compiled.nonkey_idx)} non-key inputs"
            )
        for v in row:
            if v not in (0, 1, None):
                raise ValueError(f"stimulus value {v!r} at cycle {cycle} is not 0, 1 or None")
    for cycle in stimulus.key_policy.overrides:
        if not 0 <= cycle < stimulus.cycles:
            raise ValueError(f"override cycle {cycle} outside stimulus")
    for net in watch:
        if net not in compiled.index:
            raise ValueError(f"watched net '{net}' not in netlist '{netlist.name}'")

    sim = PlaneSim(netlist, 1, watch)
    sim.reset(init)
    h, x = sim.h, sim.x

    def read(indices: list[int]) -> tuple[int | None, ...]:
        return tuple(None if x[i] else h[i] for i in indices)

    inputs_log, outputs_log, watch_log = [], [], []
    for cycle, row in enumerate(stimulus.inputs):
        sim.step(
            [1 if v == 1 else 0 for v in row],
            stimulus.key_policy.key_value_at(cycle),
            [1 if v is None else 0 for v in row],
        )
        inputs_log.append(read(compiled.input_idx))
        outputs_log.append(read(compiled.output_idx))
        watch_log.append(read(sim.watch_idx))

    return Trace(
        init_mode=init,
        input_names=tuple(netlist.inputs),
        output_names=tuple(netlist.outputs),
        watch_names=tuple(watch),
        inputs=inputs_log,
        outputs=outputs_log,
        watched=watch_log,
    )


class PlaneSim:
    """Bit-parallel 3-valued simulator over (high, unknown) integer bit planes,
    with every high bit 0 where its unknown bit is 1.

    After a step only the inputs, flip-flop outputs, outputs, next-state nets
    and the `watch` nets are current; other nets may hold stale planes (see
    the module docstring).
    """

    def __init__(self, netlist: Netlist, lanes: int, watch: tuple[str, ...] = ()):
        self.c = netlist.compiled
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self.watch_idx = tuple(self.c.index[n] for n in watch)
        self.h = [0] * self.c.n_nets
        self.x = [0] * self.c.n_nets
        self.state_h = [0] * len(self.c.dff_q_idx)
        self.state_x = [0] * len(self.c.dff_q_idx)
        self._x_stale = False  # the last step was a Kleene step, so x may hold unknown bits

    def reset(self, init: str = "zero") -> None:
        self.load_state(self.c.initial_state(init))

    def load_state(self, state: tuple[int | None, ...]) -> None:
        """Broadcast a scalar per-flip-flop state across all lanes."""
        for i, v in enumerate(state):
            self.state_h[i] = self.mask if v == 1 else 0
            self.state_x[i] = self.mask if v is None else 0

    def step(
        self,
        nonkey_h: list[int],
        key_value: int | None,
        nonkey_x: list[int] | None = None,
        latch: bool = True,
    ) -> None:
        """Evaluate one cycle. With latch=True the flip-flop planes advance.

        When no input or state bit is unknown, only the high plane is
        evaluated and the unknown plane is all zero. A counter flip-flop that
        is unknown or differs between lanes raises ValueError, changing no plane.
        """
        c, h, x, mask = self.c, self.h, self.x, self.mask
        counter = 0
        for bit, p in enumerate(c.counter_pos):
            vh = self.state_h[p]
            if self.state_x[p] or vh and vh != mask:
                name = next(net for net, i in c.index.items() if i == c.dff_q_idx[p])
                raise ValueError(f"counter flip-flop '{name}' is unknown or differs between lanes")
            counter |= (vh & 1) << bit
        unknown = [v & mask for v in nonkey_x] if nonkey_x else [0] * len(nonkey_h)
        seeds = []  # the inputs and flip-flops whose planes change
        for idx, vh, vx in zip(c.nonkey_idx, nonkey_h, unknown):
            vh &= mask & ~vx
            if h[idx] != vh or x[idx] != vx:
                h[idx], x[idx] = vh, vx
                seeds.append(idx)
        for bit, idx in enumerate(c.key_idx):
            h[idx] = mask if (key_value >> bit) & 1 else 0
            x[idx] = 0
        for idx, vh, vx in zip(c.dff_q_idx, self.state_h, self.state_x):
            if h[idx] != vh or x[idx] != vx:
                h[idx], x[idx] = vh, vx
                seeds.append(idx)
        tail = c.tail(self.watch_idx, key_value, counter)
        if any(unknown) or any(self.state_x):
            self._step_kleene(tail, seeds if self._x_stale else None)
            self._x_stale = True
        else:
            if self._x_stale:
                x[:] = [0] * len(x)
                self._x_stale = False
            _known_pass(h, mask, c._free, tail)
        if latch:
            self.state_h[:] = [h[d] for d in c.dff_d_idx]
            self.state_x[:] = [x[d] for d in c.dff_d_idx]

    def _step_kleene(self, tail: list[tuple], seeds: list[int] | None) -> None:
        """Strong Kleene pass over both planes: the free ops that read a net
        whose planes change, starting from the inputs and flip-flops in
        `seeds` (every free op when `seeds` is None), then every op of `tail`.

        Per gate, `u` is the unknown plane and `one` the high plane before
        inversion; the two are disjoint, so only an inverted gate masks `u`.
        """
        h, x, mask, free = self.h, self.x, self.mask, self.c._free
        readers, seed_readers = self.c._free_readers()
        n_free = len(free)
        if seeds is None:
            due = bytearray(b"\1") * (n_free + len(tail))
        else:
            due = bytearray(n_free)
            for net in seeds:
                for p in seed_readers.get(net, ()):
                    due[p] = 1
            due += b"\1" * len(tail)
        pos = due.find(1)
        while pos >= 0:
            if pos < n_free:
                family, out, a, b, invert = free[pos]
                fanout = readers[pos]  # a free op's readers follow it in `_free`
            else:  # no free op reads a fed net
                family, out, a, b, invert = tail[pos - n_free]
                fanout = ()
            if family == _AND:
                one = h[a] & h[b]
                u = ((h[a] | x[a]) & (h[b] | x[b])) ^ one
            elif family == _OR:
                one = h[a] | h[b]
                u = (x[a] | x[b]) & ~one
            else:
                u = x[a] | x[b]
                one = (h[a] ^ h[b]) & ~u
            v = (one ^ mask) & ~u if invert else one
            if h[out] != v or x[out] != u:
                h[out], x[out] = v, u
                for p in fanout:
                    due[p] = 1
            pos = due.find(1, pos + 1)

    def output_planes(self) -> list[tuple[int, int]]:
        return [(self.h[i], self.x[i]) for i in self.c.output_idx]

    def next_state_planes(self) -> list[tuple[int, int]]:
        return [(self.h[d], self.x[d]) for d in self.c.dff_d_idx]


def minterm_planes(n_inputs: int) -> list[int]:
    """Truth-table input patterns: bit l of plane i is bit i of lane index l."""
    lanes = 1 << n_inputs
    planes = []
    for i in range(n_inputs):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        repeat = ((1 << lanes) - 1) // ((1 << period) - 1)
        planes.append(block * repeat)
    return planes
