"""Gate-level sequential netlist IR with `.bench` reading and writing.

The IR is deliberately small: primary inputs, primary outputs, combinational
gates over a fixed primitive set, and D flip-flops. Nets are identified by
name; every net has exactly one driver (an input, a gate output, or a DFF
output) and the combinational subgraph is acyclic once DFFs are cut.

:func:`parse_bench` is one indexed pass: one full-match pattern per gate or
DFF line, fanin names from one ``findall``, net names interned as read. Only
lines that pattern rejects take the slower checks, which give each error its
message and line number.
``Netlist._graph`` (the net index in compiled order, a FIFO Kahn order over
gate positions, the cycle net) is built once and read by the parse's cycle
check, :func:`validate`, :func:`topo_order` and the compiled form.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sim import CompiledNetlist

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")
UNARY_KINDS = ("NOT", "BUF")


class BenchFormatError(ValueError):
    """Malformed `.bench` text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Gate:
    output: str
    kind: str
    fanins: tuple[str, ...]


@dataclass(frozen=True)
class Dff:
    """D flip-flop: `output` is the present-state Q net, `input` the next-state D net."""

    output: str
    input: str


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`. Severity is `error` or `warning`."""

    severity: str
    kind: str
    net: str
    message: str


@dataclass
class Netlist:
    """A sequential circuit. Treated as immutable after construction."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    dffs: tuple[Dff, ...]

    @cached_property
    def drivers(self) -> dict[str, str | Gate | Dff]:
        """Map net name to its driver: the string "input", a Gate, or a Dff.

        On a malformed netlist with duplicate drivers the last one wins;
        use :func:`validate` to detect that case.
        """
        table: dict[str, str | Gate | Dff] = {}
        for name in self.inputs:
            table[name] = "input"
        for gate in self.gates:
            table[gate.output] = gate
        for dff in self.dffs:
            table[dff.output] = dff
        return table

    @cached_property
    def compiled(self) -> CompiledNetlist:
        """The validated index-based simulation form, built once per netlist.

        Raises ValueError when :func:`validate` reports an error.
        """
        from .sim import CompiledNetlist  # sim imports this module

        return CompiledNetlist(self)

    @cached_property
    def _graph(self) -> tuple[dict[str, int], tuple[Gate, ...], str | None]:
        """The integer gate graph (DFFs cut), built once per netlist.

        Returns the net index in :class:`CompiledNetlist` order (inputs, DFF
        outputs, gate outputs), the gates in the topological order of a FIFO
        Kahn pass over gate positions, and None or, when the graph has a
        combinational cycle, the smallest name among the nets that could not
        be ordered (each on or downstream of a cycle). With duplicate drivers
        the last driver of a net stands for it.
        """
        gates = self.gates
        names = [*self.inputs, *(d.output for d in self.dffs), *(g.output for g in gates)]
        index = dict(zip(names, range(len(names))))
        base = len(names) - len(gates)
        pending = [0] * len(gates)
        readers: list[list[int]] = [[] for _ in gates]
        live = []
        for p, gate in enumerate(gates):
            node = index[gate.output] - base
            live.append(node == p)
            for net in gate.fanins:
                driver = index.get(net, -1) - base
                if driver >= 0:
                    readers[driver].append(node)
                    if node == p:
                        pending[p] += 1
        order = [p for p, n in enumerate(pending) if n == 0 and live[p]]
        for p in order:  # the list is its own FIFO queue
            for reader in readers[p]:
                pending[reader] -= 1
                if pending[reader] == 0:
                    order.append(reader)
        stuck = (gates[p].output for p, n in enumerate(pending) if n > 0 and live[p])
        return index, tuple(map(gates.__getitem__, order)), min(stuck, default=None)

    def net_names(self) -> set[str]:
        names = set(self.inputs) | set(self.outputs)
        names.update(g.output for g in self.gates)
        names.update(n for g in self.gates for n in g.fanins)
        names.update(d.output for d in self.dffs)
        names.update(d.input for d in self.dffs)
        return names


_NAME = r"[^\s(),=#]+"
# `y = KIND(a, b, ...)` with a well-formed, non-empty fanin list
_GATE_RE = re.compile(rf"({_NAME})\s*=\s*([A-Za-z]+)\s*\(\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\)")
_NAME_RE = re.compile(_NAME)
_IO_RE = re.compile(rf"(?P<kw>INPUT|OUTPUT)\s*\((?P<net>{_NAME})\)", re.IGNORECASE)
# any `y = KIND(...)` line; only lines the gate pattern rejects, each an error,
# reach it, so it is compiled on first use rather than at import
_ASSIGN = rf"(?P<lhs>{_NAME})\s*=\s*(?P<kind>[A-Za-z]+)\s*\((?P<args>.*)\)"
# upper-cased kind keyword -> the kind stored on the Gate ("DFF" builds a Dff)
_KINDS = {kind: kind for kind in (*GATE_KINDS, "DFF")} | {"BUFF": "BUF"}
_ONE_FANIN = (*UNARY_KINDS, "DFF")


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse `.bench` text into a validated :class:`Netlist`.

    Accepts `INPUT(x)`, `OUTPUT(y)`, `y = KIND(a, b, ...)` and `q = DFF(d)`
    lines, `#` comments, blank lines, and CRLF or LF endings. Gate kind
    keywords are case-insensitive and `BUFF` is an alias of `BUF`; net names
    are case-sensitive. Forward references are legal. Raises
    :class:`BenchFormatError` with a line number on malformed input.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    dffs: list[Dff] = []
    driver_line: dict[str, int] = {}
    output_line: dict[str, int] = {}
    # every net name read, mapped to one shared string object
    seen: dict[str, str] = {}
    intern = seen.setdefault

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _GATE_RE.fullmatch(line)
        if match is not None:
            lhs, kind_text, args = match.groups()
            fanins = _NAME_RE.findall(args)
        else:
            io_match = _IO_RE.fullmatch(line)
            if io_match:
                net = intern(io_match["net"], io_match["net"])
                if io_match["kw"].upper() == "INPUT":
                    if net in driver_line:
                        raise BenchFormatError(f"duplicate driver for net '{net}'", lineno)
                    driver_line[net] = lineno
                    inputs.append(net)
                else:
                    if net in output_line:
                        raise BenchFormatError(f"duplicate output declaration '{net}'", lineno)
                    output_line[net] = lineno
                    outputs.append(net)
                continue
            assign = re.fullmatch(_ASSIGN, line)
            if assign is None:
                raise BenchFormatError(f"unrecognized line: '{line}'", lineno)
            if assign["args"].strip():
                raise BenchFormatError(f"malformed fanin list: '{line}'", lineno)
            lhs, kind_text, fanins = assign["lhs"], assign["kind"], []
        if lhs in driver_line:
            raise BenchFormatError(f"duplicate driver for net '{lhs}'", lineno)
        driver_line[lhs] = lineno
        lhs = intern(lhs, lhs)
        fanins = tuple(map(intern, fanins, fanins))
        kind = _KINDS.get(kind_text.upper())
        if kind is None:
            raise BenchFormatError(f"unknown gate kind '{kind_text}'", lineno)
        if kind in _ONE_FANIN:
            if len(fanins) != 1:
                raise BenchFormatError(f"{kind} takes exactly one fanin", lineno)
        elif len(fanins) < 2:
            raise BenchFormatError(f"{kind} takes at least two fanins", lineno)
        if kind == "DFF":
            dffs.append(Dff(lhs, fanins[0]))
        else:
            gates.append(Gate(lhs, kind, fanins))

    if len(seen) > len(driver_line):
        # a fanin or an output is undriven: report the first fanin reference
        for lineno, fanins in sorted(
            [(driver_line[g.output], g.fanins) for g in gates]
            + [(driver_line[d.output], (d.input,)) for d in dffs]
        ):
            for net in fanins:
                if net not in driver_line:
                    raise BenchFormatError(f"undefined fanin net '{net}'", lineno)
    for net, lineno in output_line.items():
        if net not in driver_line:
            raise BenchFormatError(f"undefined output net '{net}'", lineno)

    netlist = Netlist(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        gates=tuple(gates),
        dffs=tuple(dffs),
    )
    cyclic = netlist._graph[2]
    if cyclic is not None:
        raise BenchFormatError(
            f"combinational cycle through net '{cyclic}'", driver_line.get(cyclic)
        )
    return netlist


def write_bench(netlist: Netlist) -> str:
    """Emit `.bench` text (LF line endings) that re-parses to the same netlist."""
    lines = [f"# {netlist.name}"]
    lines += [f"INPUT({net})" for net in netlist.inputs]
    lines.append("")
    lines += [f"OUTPUT({net})" for net in netlist.outputs]
    lines.append("")
    lines += [f"{d.output} = DFF({d.input})" for d in netlist.dffs]
    if netlist.dffs:
        lines.append("")
    lines += [f"{g.output} = {g.kind}({', '.join(g.fanins)})" for g in netlist.gates]
    return "\n".join(lines) + "\n"


def validate(netlist: Netlist) -> list[Violation]:
    """Check all structural invariants; violations are data, not exceptions.

    Error-level: duplicate drivers, undriven nets, bad gate arity, duplicate
    output declarations, combinational cycles. Warning-level: driven internal
    nets that are never read and are not declared outputs.
    """
    violations: list[Violation] = []
    index, _, cyclic = netlist._graph  # index holds each driven net once
    count = Counter(netlist.inputs)
    count.update(g.output for g in netlist.gates)
    count.update(d.output for d in netlist.dffs)
    for net in sorted(net for net, n in count.items() if n > 1):
        violations.append(Violation("error", "duplicate-driver", net, f"duplicate driver: {net}"))

    referenced = set(chain.from_iterable(g.fanins for g in netlist.gates))
    referenced.update(d.input for d in netlist.dffs)
    read_or_output = referenced | set(netlist.outputs)
    for net in sorted(read_or_output.difference(index)):
        violations.append(Violation("error", "undriven", net, f"undriven net: {net}"))

    seen_outputs: set[str] = set()
    for net in netlist.outputs:
        if net in seen_outputs:
            violations.append(
                Violation("error", "duplicate-output", net, f"duplicate output declaration: {net}")
            )
        seen_outputs.add(net)

    for gate in netlist.gates:
        arity_ok = len(gate.fanins) == 1 if gate.kind in UNARY_KINDS else len(gate.fanins) >= 2
        if gate.kind not in GATE_KINDS:
            violations.append(
                Violation("error", "unknown-kind", gate.output, f"unknown gate kind: {gate.kind}")
            )
        elif not arity_ok:
            violations.append(
                Violation("error", "arity", gate.output, f"bad fanin count for {gate.kind}: {gate.output}")
            )

    if cyclic is not None:
        violations.append(
            Violation("error", "cycle", cyclic, f"combinational cycle through net: {cyclic}")
        )

    for gate in netlist.gates:
        if gate.output not in read_or_output:
            violations.append(
                Violation("warning", "dangling", gate.output, f"dangling net: {gate.output}")
            )
    for dff in netlist.dffs:
        if dff.output not in read_or_output:
            violations.append(
                Violation("warning", "dangling", dff.output, f"dangling net: {dff.output}")
            )

    return violations


def has_errors(violations: list[Violation]) -> bool:
    return any(v.severity == "error" for v in violations)


def topo_order(netlist: Netlist) -> list[Gate]:
    """Order gates so each appears after every gate driving one of its fanins.

    Primary inputs and DFF outputs are sources. Raises ValueError on a
    combinational cycle; run :func:`validate` first to get a diagnostic.
    """
    _, order, cyclic = netlist._graph
    if cyclic is not None:
        raise ValueError("combinational cycle")
    return list(order)


def structurally_equal(a: Netlist, b: Netlist) -> bool:
    """True when two netlists have the same nets, drivers, and I/O order (names of
    the netlists themselves are ignored)."""
    return (
        a.inputs == b.inputs
        and a.outputs == b.outputs
        and set(a.gates) == set(b.gates)
        and set(a.dffs) == set(b.dffs)
    )
