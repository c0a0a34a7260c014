"""Gate-level sequential netlist IR with `.bench` reading and writing.

The IR is deliberately small: primary inputs, primary outputs, combinational
gates over a fixed primitive set, and D flip-flops. Nets are identified by
name; every net has exactly one driver (an input, a gate output, or a DFF
output) and the combinational subgraph is acyclic once DFFs are cut.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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
    def _kahn(self) -> tuple[tuple[Gate, ...], str | None]:
        """Kahn's algorithm over the gate graph (DFFs cut), run once per netlist.

        Returns the gates in topological order and None or, when the graph
        has a combinational cycle, the gates ordered so far and the smallest
        name among the nets that could not be ordered (each on or downstream
        of a cycle).
        """
        gate_by_output = {g.output: g for g in self.gates}
        pending = {g.output: sum(1 for f in g.fanins if f in gate_by_output) for g in self.gates}
        readers: dict[str, list[str]] = {}
        for gate in self.gates:
            for net in gate.fanins:
                if net in gate_by_output:
                    readers.setdefault(net, []).append(gate.output)
        ready = deque(net for net, n in pending.items() if n == 0)
        order: list[Gate] = []
        while ready:
            net = ready.popleft()
            order.append(gate_by_output[net])
            for reader in readers.get(net, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
        if len(order) == len(pending):
            return tuple(order), None
        return tuple(order), min(net for net, n in pending.items() if n > 0)

    def net_names(self) -> set[str]:
        names = set(self.inputs) | set(self.outputs)
        names.update(g.output for g in self.gates)
        names.update(n for g in self.gates for n in g.fanins)
        names.update(d.output for d in self.dffs)
        names.update(d.input for d in self.dffs)
        return names


_ASSIGN_RE = re.compile(r"^(?P<lhs>[^\s(),=#]+)\s*=\s*(?P<kind>[A-Za-z]+)\s*\((?P<args>.*)\)$")
_IO_RE = re.compile(r"^(?P<kw>INPUT|OUTPUT)\s*\((?P<net>[^\s(),=#]+)\)$", re.IGNORECASE)


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
    # first line referencing each net as a fanin, for error reporting
    ref_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            net = io_match.group("net")
            if io_match.group("kw").upper() == "INPUT":
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
        assign = _ASSIGN_RE.match(line)
        if assign is None:
            raise BenchFormatError(f"unrecognized line: '{line}'", lineno)
        lhs = assign.group("lhs")
        kind = assign.group("kind").upper()
        if kind == "BUFF":
            kind = "BUF"
        args = [a.strip() for a in assign.group("args").split(",")] if assign.group("args").strip() else []
        if any(not a or re.search(r"[\s(),=#]", a) for a in args):
            raise BenchFormatError(f"malformed fanin list: '{line}'", lineno)
        if lhs in driver_line:
            raise BenchFormatError(f"duplicate driver for net '{lhs}'", lineno)
        driver_line[lhs] = lineno
        for a in args:
            ref_line.setdefault(a, lineno)
        if kind == "DFF":
            if len(args) != 1:
                raise BenchFormatError("DFF takes exactly one fanin", lineno)
            dffs.append(Dff(output=lhs, input=args[0]))
        elif kind in UNARY_KINDS:
            if len(args) != 1:
                raise BenchFormatError(f"{kind} takes exactly one fanin", lineno)
            gates.append(Gate(output=lhs, kind=kind, fanins=tuple(args)))
        elif kind in GATE_KINDS:
            if len(args) < 2:
                raise BenchFormatError(f"{kind} takes at least two fanins", lineno)
            gates.append(Gate(output=lhs, kind=kind, fanins=tuple(args)))
        else:
            raise BenchFormatError(f"unknown gate kind '{assign.group('kind')}'", lineno)

    for net, lineno in ref_line.items():
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
    _, cyclic = netlist._kahn
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
    driver_count: dict[str, int] = {}
    for net in netlist.inputs:
        driver_count[net] = driver_count.get(net, 0) + 1
    for gate in netlist.gates:
        driver_count[gate.output] = driver_count.get(gate.output, 0) + 1
    for dff in netlist.dffs:
        driver_count[dff.output] = driver_count.get(dff.output, 0) + 1
    for net, count in sorted(driver_count.items()):
        if count > 1:
            violations.append(
                Violation("error", "duplicate-driver", net, f"duplicate driver: {net}")
            )

    referenced: set[str] = set()
    for gate in netlist.gates:
        referenced.update(gate.fanins)
    referenced.update(d.input for d in netlist.dffs)
    for net in sorted(referenced | set(netlist.outputs)):
        if net not in driver_count:
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

    _, cyclic = netlist._kahn
    if cyclic is not None:
        violations.append(
            Violation("error", "cycle", cyclic, f"combinational cycle through net: {cyclic}")
        )

    read_or_output = referenced | set(netlist.outputs)
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
    order, cyclic = netlist._kahn
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
