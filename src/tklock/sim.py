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
control net reaches) and, of the fed ops, only those that its roots
(outputs, next-state nets and the nets the caller watches) depend on. When
every counter plane is uniform and known, each control net holds one known
value in every lane, and the search stops at each AND op with a control
fanin at 0 and each OR op with one at 1, keeping only that fanin: the op's
formula gives its value whatever its other fanin holds, in both passes. XOR
ops never stop it. The first step that needs a list derives it (a pruned
one after evaluating the control nets) and caches it on the compiled
netlist, where every :class:`PlaneSim` of the netlist shares it: per watched
nets, key value (None when key-free) and counter bits, or per watched nets
alone when the counter lanes differ or are unknown. Nets left out keep
stale planes, so after a step only inputs, flip-flop outputs, outputs,
next-state nets and watched nets are current. Compiling keeps only the free
ops, the control ops and the gate driving each fed net; deriving a list
builds the ops of the gates it keeps.

The Kleene pass skips each op with no marked fanin (selective trace). Every
fed net starts a step marked, and every net does after a step that was not
a Kleene step; a step marks each input, flip-flop or op output whose planes
it changes. This is exact: every op list holds every free op and a free op
reads no fed net, so after any step a free op's planes are its formula over
its fanins' current planes, and they stay so while the fanins keep theirs.
From unknown flip-flops most nets stay X: 3-15% of the listed ops of locked
b04, b12 and b14 have a marked fanin per cycle. The two-valued pass does
not skip: almost every op has a changed fanin there, and the same check made
a 1000-lane random verify of locked b04 about 40% slower.
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
        for c in range(self.cycles):
            cells = [str(c)]
            cells += [value_str(v) for v in self.inputs[c]]
            cells += [value_str(v) for v in self.outputs[c]]
            cells += [value_str(v) for v in self.watched[c]]
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"


class CompiledNetlist:
    """Index-based form of a netlist that :class:`PlaneSim` evaluates.

    Build it through ``Netlist.compiled``, which compiles each netlist once.
    A netlist from ``parse_bench`` is not validated again; any other is
    validated once, and one with an error raises ValueError. Op lists are
    derived and cached as steps need them (see the module docstring).
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
        self._fed = fed
        # (watched nets, key value, counter bits) or (watched nets,) -> op list; see PlaneSim._ops
        self.op_lists: dict[tuple, list] = {}

    def _select_ops(self, roots: list[int], h: list[int] | None = None, mask: int = 0) -> list[tuple]:
        """The ops for one step: every free op, then, in topological order,
        the fed ops that `roots` depend on. Given `h`, which must hold this
        step's control nets, an op with a control fanin at its controlling
        value (0 for AND, `mask` for OR) depends on that fanin alone."""
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
        return self._free + [op for _, _, op in kept] if kept else self._free

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
        # nets whose planes may differ from the last step's (module docstring)
        changed = self._changed = bytearray(c._fed) if self._x_stale else bytearray(b"\1") * c.n_nets
        unknown = [v & mask for v in nonkey_x] if nonkey_x else [0] * len(nonkey_h)
        for idx, vh, vx in zip(c.nonkey_idx, nonkey_h, unknown):
            vh &= mask & ~vx
            if h[idx] != vh or x[idx] != vx:
                h[idx], x[idx], changed[idx] = vh, vx, 1
        for bit, idx in enumerate(c.key_idx):
            h[idx] = mask if (key_value >> bit) & 1 else 0
            x[idx] = 0
        for idx, vh, vx in zip(c.dff_q_idx, self.state_h, self.state_x):
            if h[idx] != vh or x[idx] != vx:
                h[idx], x[idx], changed[idx] = vh, vx, 1
        if any(unknown) or any(self.state_x):
            run = self._step_kleene
            self._x_stale = True
        else:
            if self._x_stale:
                x[:] = [0] * len(x)
                self._x_stale = False
            run = self._step_known
        run(self._ops(key_value, run))
        if latch:
            self.state_h[:] = [h[d] for d in c.dff_d_idx]
            self.state_x[:] = [x[d] for d in c.dff_d_idx]

    def _ops(self, key_value: int | None, run) -> list[tuple]:
        """The cached op list for this step. When every counter plane is
        uniform and known, it is the pruned list for the watched nets, key
        value and counter bits; on a miss, `run` evaluates the control nets
        and the list is derived from them. Otherwise it is the unpruned list
        for the watched nets."""
        c, mask, h = self.c, self.mask, self.h
        counter = 0
        for bit, p in enumerate(c.counter_pos):
            vh = self.state_h[p]
            if self.state_x[p] or vh and vh != mask:
                key, h = (self.watch_idx,), None  # control nets may differ by lane: no cut
                break
            counter |= (vh & 1) << bit
        else:
            key = (self.watch_idx, key_value, counter)
        ops = c.op_lists.get(key)
        if ops is None:
            if h is not None:
                run(c._control_ops)
            if len(c.op_lists) >= _MAX_OP_LISTS:
                del c.op_lists[next(iter(c.op_lists))]
            ops = c.op_lists[key] = c._select_ops(self.roots, h, mask)
        return ops

    def _step_known(self, ops: list[tuple]) -> None:
        """Two-valued pass over the high plane."""
        h, mask = self.h, self.mask
        for family, out, a, b, invert in ops:
            if family == _AND:
                v = h[a] & h[b]
            elif family == _OR:
                v = h[a] | h[b]
            else:
                v = h[a] ^ h[b]
            h[out] = v ^ mask if invert else v

    def _step_kleene(self, ops: list[tuple]) -> None:
        """Strong Kleene pass over both planes.

        Per gate, `u` is the unknown plane and `one` the high plane before
        inversion; the two are disjoint, so only an inverted gate masks `u`.
        """
        h, x, mask, changed = self.h, self.x, self.mask, self._changed
        for family, out, a, b, invert in ops:
            if not (changed[a] or changed[b]):
                continue
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
                h[out], x[out], changed[out] = v, u, 1

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
