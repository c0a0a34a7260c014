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
``l``, so one pass evaluates arbitrarily many runs. Gates compile to one op
form, ``(family, out, a, b, invert)``. A step whose input and state planes
carry no unknown bit evaluates the high plane alone (two-valued); otherwise
it runs the strong Kleene pass over both planes. :func:`simulate` is the
1-lane case: it checks its inputs, steps a 1-lane :class:`PlaneSim` and
reads the trace back from the planes. The test suite pins the kernel to an
independent gate-at-a-time Kleene oracle.

A step need not evaluate every op. Control nets are the key inputs, the
counter flip-flops and the gates fed only by control nets. When the key value
is an int and every counter plane is uniform and known, each control net holds
one known value in every lane, fixed by the key value and the counter bits.
The step then evaluates the free ops (those no control net reaches) and, of
the ops a control net reaches, only those that its roots (outputs, next-state
nets and the nets the caller watches) still depend on. The search for them
stops at each AND/NAND gate with a control fanin at 0 and each OR/NOR gate
with one at 1, keeping only that fanin: the gate's formula gives its value
whatever its other fanins hold, in both passes. XOR and BUF gates never stop
it. The first step with a given key value and counter bits evaluates the
control nets, derives the op list from them and caches it on the compiled
netlist, where every :class:`PlaneSim` of the netlist shares it. Nets left
out keep stale planes, so after a step only inputs, flip-flop outputs,
outputs, next-state nets and watched nets are current.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .circuit import Netlist, has_errors, topo_order, validate
from .keys import COUNTER_NET_PREFIX, KeySchedule, split_inputs

# Op families. A gate compiles to (family, out, a, b, invert): 1- and 2-fanin
# gates name their fanins a and b (a == b for NOT/BUF); wider gates keep the
# fanin tuple in a under the n-ary family, whose code is the 2-fanin code plus
# _AND_N. NAND, NOR, XNOR and NOT set invert.
_AND, _OR, _XOR, _BUF, _AND_N, _OR_N, _XOR_N = range(7)
_KIND_OPS = {
    "AND": (_AND, False), "NAND": (_AND, True), "OR": (_OR, False), "NOR": (_OR, True),
    "XOR": (_XOR, False), "XNOR": (_XOR, True), "BUF": (_BUF, False), "NOT": (_BUF, True),
}
# Op lists cached per compiled netlist; past the cap the oldest is dropped.
_MAX_OP_LISTS = 64


@dataclass
class KeyPolicy:
    """How key inputs are driven: none, a schedule, or one static value.

    ``correct`` and ``tampered`` both build the schedule kind; a tampered
    policy is the correct one with per-cycle key overrides.
    """

    kind: str
    schedule: KeySchedule | None = None
    overrides: dict[int, int] = field(default_factory=dict)
    value: int | None = None

    @classmethod
    def none(cls) -> "KeyPolicy":
        return cls(kind="none")

    @classmethod
    def correct(cls, schedule: KeySchedule) -> "KeyPolicy":
        return cls(kind="schedule", schedule=schedule)

    @classmethod
    def tampered(cls, schedule: KeySchedule, overrides: dict[int, int]) -> "KeyPolicy":
        return cls(kind="schedule", schedule=schedule, overrides=dict(overrides))

    @classmethod
    def static(cls, value: int) -> "KeyPolicy":
        return cls(kind="static", value=value)

    def key_value_at(self, cycle: int) -> int | None:
        if self.kind == "none":
            return None
        if self.kind == "static":
            return self.value
        if cycle in self.overrides:
            return self.overrides[cycle]
        return self.schedule.key_at(cycle)


@dataclass
class Stimulus:
    """Per-cycle vectors for the non-key inputs plus a key-driving policy."""

    cycles: int
    inputs: tuple[tuple[int | None, ...], ...]
    key_policy: KeyPolicy = field(default_factory=KeyPolicy.none)

    @classmethod
    def from_strings(cls, rows: list[str], key_policy: KeyPolicy | None = None) -> "Stimulus":
        table = {"0": 0, "1": 1, "x": None, "X": None}
        vectors = []
        for row in rows:
            if set(row) - set(table):
                raise ValueError(f"bad stimulus row '{row}'")
            vectors.append(tuple(table[ch] for ch in row))
        return cls(
            cycles=len(vectors),
            inputs=tuple(vectors),
            key_policy=key_policy or KeyPolicy.none(),
        )


def value_str(v: int | None) -> str:
    return "x" if v is None else str(v)


@dataclass
class Trace:
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

    Build it through ``Netlist.compiled``, which validates and compiles each
    netlist once.
    """

    def __init__(self, netlist: Netlist):
        if has_errors(validate(netlist)):
            raise ValueError(f"netlist '{netlist.name}' fails validation")
        self.index = index = netlist._graph[0]
        self.n_nets = len(index)
        nonkey, key = split_inputs(netlist)
        self.nonkey_idx = [index[n] for n in nonkey]
        self.key_idx = [index[n] for n in key]
        self.nonkey_names = nonkey
        self.input_idx = [index[n] for n in netlist.inputs]
        self.output_idx = [index[n] for n in netlist.outputs]
        self.ops = ops = []
        for g in topo_order(netlist):
            family, invert = _KIND_OPS[g.kind]
            fanins = g.fanins
            if len(fanins) > 2:
                a, b = tuple(map(index.__getitem__, fanins)), None
                family += _AND_N
            else:
                a, b = index[fanins[0]], index[fanins[-1]]
            ops.append((family, index[g.output], a, b, invert))
        self.dff_q_idx = [index[d.output] for d in netlist.dffs]
        self.dff_d_idx = [index[d.input] for d in netlist.dffs]
        self.dff_forced_zero = [d.output.startswith(COUNTER_NET_PREFIX) for d in netlist.dffs]
        self.counter_pos = [p for p, forced in enumerate(self.dff_forced_zero) if forced]
        # (watched nets, key value, counter bits) -> op list; see PlaneSim._ops
        self.op_lists: dict[tuple, list] = {}

    @cached_property
    def _control(self) -> tuple[bytearray, list[int], list[tuple], list[tuple]]:
        """Which nets are control nets, in one pass over ``ops``.

        Control nets are the key inputs, the counter flip-flops and the gates
        fed only by control nets. A net is fed when a control net reaches it.
        Returns the control flags; the op position of the driver of each fed
        gate net (-1 for every other net); the free ops, which read no fed net
        and so depend only on inputs, flip-flop outputs and other free ops;
        and the ops that drive control nets.
        """
        control = bytearray(self.n_nets)
        fed = bytearray(self.n_nets)
        for i in self.key_idx + [self.dff_q_idx[p] for p in self.counter_pos]:
            control[i] = fed[i] = 1
        driver = [-1] * self.n_nets
        free = []
        for p, op in enumerate(self.ops):
            family, out, a, b, _ = op
            if family < _AND_N:
                if fed[a] or fed[b]:
                    fed[out], driver[out], control[out] = 1, p, control[a] & control[b]
                    continue
            elif any(map(fed.__getitem__, a)):
                fed[out], driver[out], control[out] = 1, p, all(map(control.__getitem__, a))
                continue
            free.append(op)
        return control, driver, free, [op for op in self.ops if control[op[1]]]

    def _select_ops(self, h: list[int], mask: int, roots: list[int]) -> list[tuple]:
        """The ops for one step: every free op, then, in topological order,
        the fed ops that `roots` depend on when a gate with a control fanin
        at its controlling value (0 for AND, `mask` for OR) depends on that
        fanin alone. `h` must hold this step's control nets."""
        control, driver, free, _ = self._control
        ops = self.ops
        controlling = (0, mask, None, None, 0, mask, None)
        seen = bytearray(self.n_nets)
        kept = []
        stack = list(roots)
        while stack:
            net = stack.pop()
            p = driver[net]
            if p < 0 or seen[net]:
                continue
            seen[net] = 1
            kept.append(p)
            family, _, a, b, _ = ops[p]
            fanins = a if family >= _AND_N else (a, b)
            value = controlling[family]
            if value is not None:
                for f in fanins:
                    if control[f] and h[f] == value:
                        fanins = (f,)
                        break
            stack.extend(fanins)
        kept.sort()
        return free + [ops[p] for p in kept]

    def initial_state(self, init: str) -> tuple[int | None, ...]:
        if init not in ("zero", "x"):
            raise ValueError(f"unknown init mode '{init}'")
        if init == "zero":
            return tuple(0 for _ in self.dff_q_idx)
        return tuple(0 if forced else None for forced in self.dff_forced_zero)


def check_policy(compiled: CompiledNetlist, policy: KeyPolicy) -> None:
    width = len(compiled.key_idx)
    if policy.kind == "none":
        if width:
            raise ValueError("netlist has key inputs; a key policy is required")
        return
    if not width:
        raise ValueError("key policy given for a netlist without key inputs")
    if policy.kind == "static":
        if not 0 <= policy.value < 2**width:
            raise ValueError(f"static key {policy.value} out of range for {width} key bits")
        return
    if policy.schedule.width != width:
        raise ValueError(
            f"schedule width {policy.schedule.width} does not match {width} key inputs"
        )
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
    if len(stimulus.inputs) != stimulus.cycles:
        raise ValueError("stimulus cycle count does not match input rows")
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
        self._x_stale = False  # x holds unknown bits from a 3-valued step

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
        for idx, vh, vx in zip(c.nonkey_idx, nonkey_h, unknown):
            h[idx] = vh & mask & ~vx
            x[idx] = vx
        for bit, idx in enumerate(c.key_idx):
            h[idx] = mask if (key_value >> bit) & 1 else 0
            x[idx] = 0
        for idx, vh, vx in zip(c.dff_q_idx, self.state_h, self.state_x):
            h[idx] = vh
            x[idx] = vx
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
        """The op list for this step: every op, unless `key_value` is an int
        and every counter plane is uniform and known. Then it is the cached
        list for the watched nets, key value and counter bits; on a miss,
        `run` evaluates the control nets and the list is derived from them."""
        c, mask = self.c, self.mask
        if key_value is None:
            return c.ops
        counter = 0
        for bit, p in enumerate(c.counter_pos):
            vh = self.state_h[p]
            if self.state_x[p] or vh and vh != mask:
                return c.ops
            counter |= (vh & 1) << bit
        key = (self.watch_idx, key_value, counter)
        ops = c.op_lists.get(key)
        if ops is None:
            run(c._control[3])
            if len(c.op_lists) >= _MAX_OP_LISTS:
                del c.op_lists[next(iter(c.op_lists))]
            ops = c.op_lists[key] = c._select_ops(self.h, mask, self.roots)
        return ops

    def _step_known(self, ops: list[tuple]) -> None:
        """Two-valued pass over the high plane."""
        h, mask = self.h, self.mask
        for family, out, a, b, invert in ops:
            if family == _AND:
                v = h[a] & h[b]
            elif family == _OR:
                v = h[a] | h[b]
            elif family == _XOR:
                v = h[a] ^ h[b]
            elif family == _BUF:
                v = h[a]
            elif family == _AND_N:
                v = mask
                for f in a:
                    v &= h[f]
            elif family == _OR_N:
                v = 0
                for f in a:
                    v |= h[f]
            else:
                v = 0
                for f in a:
                    v ^= h[f]
            h[out] = v ^ mask if invert else v

    def _step_kleene(self, ops: list[tuple]) -> None:
        """Strong Kleene pass over both planes.

        Per gate, `u` is the unknown plane and `one` the high plane before
        inversion; the two are disjoint, so only an inverted gate masks `u`.
        """
        h, x, mask = self.h, self.x, self.mask
        for family, out, a, b, invert in ops:
            if family == _AND:
                one = h[a] & h[b]
                u = ((h[a] | x[a]) & (h[b] | x[b])) ^ one
            elif family == _OR:
                one = h[a] | h[b]
                u = (x[a] | x[b]) & ~one
            elif family == _XOR:
                u = x[a] | x[b]
                one = (h[a] ^ h[b]) & ~u
            elif family == _BUF:
                one, u = h[a], x[a]
            elif family == _AND_N:
                one = maybe = mask
                for f in a:
                    one &= h[f]
                    maybe &= h[f] | x[f]
                u = maybe ^ one
            elif family == _OR_N:
                one = u = 0
                for f in a:
                    one |= h[f]
                    u |= x[f]
                u &= ~one
            else:
                one = u = 0
                for f in a:
                    one ^= h[f]
                    u |= x[f]
                one &= ~u
            h[out] = (one ^ mask) & ~u if invert else one
            x[out] = u

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
