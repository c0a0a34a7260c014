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
fed when a control net reaches it. A step evaluates the free ops (those no
control net reaches), then a fed tail: the fed ops that its roots (outputs,
next-state nets and the nets the caller watches) depend on. The first step
that needs a tail derives it and caches it on the compiled netlist for
every :class:`PlaneSim` of the netlist: per watched nets, key value (None
when key-free) and counter bits, or per watched nets alone when the counter
lanes differ or are unknown. Nets left out keep stale planes, so after a
step only inputs, flip-flop outputs, outputs, next-state nets and watched
nets are current.

When every counter plane is uniform and known, each control net holds 0 or
all ones in every lane, and the tail is wired. An op with a fanin whose
source is a control net becomes a wire: from that source when the fanin
fixes the op (AND at 0, OR at 1), else from its other fanin's source, the
inversion carried along (AND at 1, OR at 0, any XOR). NOT and BUF are
wires. The tail keeps one wire ``(AND, net, source, source, inverted)`` per
wired root and the ops that no control value decides; both passes give a
wire the value of the op it replaces. A mux tree is one wire: per step, the
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


def value_str(v: int | None) -> str:
    return "x" if v is None else str(v)


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
        cell = {0: "0", 1: "1", None: "x"}.__getitem__  # value_str, one lookup per cell
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
    free ops, which every step runs; the fed tails, derived, wired and
    cached in `op_lists` as steps need them; and, from the first Kleene
    step, the free ops that read each free op's output, input and
    flip-flop (see the module docstring).
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
        self.counter_pos = [p for p, forced in enumerate(self.dff_forced_zero) if forced]
        self.n_nets = n_nets = len(index) + sum(len(g.fanins) - 2 for g in order if len(g.fanins) > 2)
        # _driver: the position in `order` of the gate driving each fed op net,
        # else -1, in int32 slots; _chains: each wide gate's first unnamed net
        self._control = control = bytearray(n_nets)
        fed = bytearray(n_nets)
        for i in self.key_idx + [self.dff_q_idx[p] for p in self.counter_pos]:
            control[i] = fed[i] = 1
        self._driver = driver = memoryview(bytearray(b"\xff") * (4 * n_nets)).cast("i")
        self._free, self._control_ops, self._chains = [], [], {}  # _free: ops reading no fed net
        n = len(index)
        for p, g in enumerate(order):
            ops = _gate_ops(g, index, n)
            if len(ops) > 1:  # a wide gate: its unnamed nets are numbered from n
                self._chains[p] = n
                n += len(ops) - 1
            for op in ops:  # mark what each op feeds; keep it if free or control
                _, out, a, b, _ = op
                if fed[a] or fed[b]:
                    fed[out], driver[out], control[out] = 1, p, control[a] & control[b]
                    if not control[out]:
                        continue
                (self._control_ops if control[out] else self._free).append(op)
        # net -> fed op, for the control ops and the gates an op list keeps
        self._fed_ops: dict[int, tuple] = {op[1]: op for op in self._control_ops}
        # (watched nets, key value, counter bits) or (watched nets,) -> fed tail; see PlaneSim._ops
        self.op_lists: dict[tuple, list] = {}
        self._readers: tuple[list, dict] | None = None  # see _free_readers

    def _select_ops(self, roots: list[int], h: list[int] | None = None, mask: int = 0) -> list[tuple]:
        """The fed tail of one step: in topological order, the fed ops that
        `roots` depend on. Given `h`, which must hold this step's control
        nets, an op with a control fanin at its controlling value (0 for AND,
        `mask` for OR) depends on that fanin alone, and the tail is wired
        (see :meth:`_wired`)."""
        control, driver, chains, built = self._control, self._driver, self._chains, self._fed_ops
        order, index = self._order, self.index
        controlling = (None, None, None) if h is None else (0, mask, None)
        seen = bytearray(self.n_nets)
        kept = []
        stack = list(roots)
        while stack:
            net = stack.pop()
            p = driver[net]
            if p < 0 or seen[net]:
                continue
            seen[net] = 1
            op = built.get(net)
            if op is None:  # built once, so op lists share the tuples
                for op in _gate_ops(order[p], index, chains.get(p, 0)):
                    built.setdefault(op[1], op)
                op = built[net]
            # sorts by gate, then up a wide gate's chain: unnamed nets, by number, first
            kept.append((p, net < len(index), op))
            family, _, a, b, _ = op
            fanins = (a, b)
            value = controlling[family]
            if value is not None:
                for f in fanins:
                    if control[f] and h[f] == value:
                        fanins = (f,)
                        break
            stack.extend(fanins)
        kept.sort()
        ops = [op for _, _, op in kept]
        return ops if h is None else self._wired(ops, roots, h)

    def _wired(self, ops: list[tuple], roots: list[int], h: list[int]) -> list[tuple]:
        """`ops` wired under the control values that `h` holds (see the
        module docstring). A decided net that an undecided AND or OR reads
        inverted keeps its wire too; every control net reduces to a key
        input or a counter flip-flop."""
        control = self._control
        source: dict[int, tuple[int, bool]] = {}  # wired net -> (source net, inverted)
        undecided: dict[int, tuple] = {}
        for family, out, a, b, invert in ops:
            sa, ia = source.get(a, (a, False))
            sb, ib = source.get(b, (b, False))
            if a == b and family != _XOR:
                source[out] = sa, ia ^ invert
            elif control[sa] or control[sb]:
                (s, i), (so, io) = ((sa, ia), (sb, ib)) if control[sa] else ((sb, ib), (sa, ia))
                one = bool(h[s]) ^ i  # the decided fanin's value
                if family == _XOR:
                    source[out] = so, io ^ one ^ invert
                elif one == (family == _OR):  # the controlling value
                    source[out] = s, i ^ invert
                else:
                    source[out] = so, io ^ invert
            elif family == _XOR:  # an XOR takes its fanins' inversions into its own
                undecided[out] = (family, out, sa, sb, invert ^ ia ^ ib)
            else:
                undecided[out] = (family, out, a if ia else sa, b if ib else sb, invert)
        needed = set(roots)
        tail = []
        for op in reversed(ops):
            out = op[1]
            if out not in needed:
                continue
            if out in undecided:
                op = undecided[out]
                needed.update(op[2:4])
            else:
                s, i = source[out]
                op = (_AND, out, s, s, i)
                needed.add(s)
            tail.append(op)
        tail.reverse()
        return tail

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
    for row in stimulus.inputs:
        if len(row) != len(compiled.nonkey_idx):
            raise ValueError(
                f"stimulus width {len(row)} does not match {len(compiled.nonkey_idx)} non-key inputs"
            )
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
        self.roots = self.c.output_idx + self.c.dff_d_idx + list(self.watch_idx)
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
        evaluated and the unknown plane is all zero.
        """
        c, h, x, mask = self.c, self.h, self.x, self.mask
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
        tail = self._ops(key_value)
        if any(unknown) or any(self.state_x):
            self._step_kleene(tail, seeds if self._x_stale else None)
            self._x_stale = True
        else:
            if self._x_stale:
                x[:] = [0] * len(x)
                self._x_stale = False
            self._step_known(c._free, tail)
        if latch:
            self.state_h[:] = [h[d] for d in c.dff_d_idx]
            self.state_x[:] = [x[d] for d in c.dff_d_idx]

    def _ops(self, key_value: int | None) -> list[tuple]:
        """The cached fed tail for this step. When every counter plane is
        uniform and known, it is the wired tail for the watched nets, key
        value (ignored without key inputs) and counter bits; on a miss the
        control nets are evaluated and the tail is derived from them.
        Otherwise it is the unpruned tail for the watched nets."""
        c, mask, h = self.c, self.mask, self.h
        counter = 0
        for bit, p in enumerate(c.counter_pos):
            vh = self.state_h[p]
            if self.state_x[p] or vh and vh != mask:
                key, h = (self.watch_idx,), None  # control nets may differ by lane: no cut
                break
            counter |= (vh & 1) << bit
        else:
            key = (self.watch_idx, key_value if c.key_idx else None, counter)
        ops = c.op_lists.get(key)
        if ops is None:
            if h is not None:
                self._step_known(c._control_ops)
            if len(c.op_lists) >= _MAX_OP_LISTS:
                del c.op_lists[next(iter(c.op_lists))]
            ops = c.op_lists[key] = c._select_ops(self.roots, h, mask)
        return ops

    def _step_known(self, *op_lists: list[tuple]) -> None:
        """Two-valued pass over the high plane."""
        h, mask = self.h, self.mask
        for ops in op_lists:
            for family, out, a, b, invert in ops:
                if family == _AND:
                    v = h[a] & h[b]
                elif family == _OR:
                    v = h[a] | h[b]
                else:
                    v = h[a] ^ h[b]
                h[out] = v ^ mask if invert else v

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
