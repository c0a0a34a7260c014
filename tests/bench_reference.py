"""Reference `.bench` parser, topological order and validator, kept to check the library's.

This is the line-at-a-time parser that `tklock.circuit.parse_bench` replaced:
two regular expressions per line, one `re.search` per fanin name, and Kahn's
algorithm over net-name dictionaries. It is slow and plain on purpose; the
tests compare the library's single indexed pass against it, message for
message and line for line. `reference_order` is the gate order the library
takes, found by name: the gates as written when each net has one driver and
every fanin's driver comes before its reader, else the Kahn order.
`reference_validate` is the validator as it was before its duplicate-driver
count became conditional, reading the driven nets and the cycle by name
rather than from the library's integer graph.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from itertools import chain

from tklock.circuit import GATE_KINDS, UNARY_KINDS, BenchFormatError, Dff, Gate, Netlist, Violation

_ASSIGN_RE = re.compile(r"^(?P<lhs>[^\s(),=#]+)\s*=\s*(?P<kind>[A-Za-z]+)\s*\((?P<args>.*)\)$")
_IO_RE = re.compile(r"^(?P<kw>INPUT|OUTPUT)\s*\((?P<net>[^\s(),=#]+)\)$", re.IGNORECASE)


def kahn_by_name(netlist: Netlist) -> tuple[list[Gate], str | None]:
    """Kahn's algorithm over the gate graph (DFFs cut), keyed by net name.

    Returns the gates in topological order and None or, on a combinational
    cycle, the gates ordered so far and the smallest name among the nets
    that could not be ordered.
    """
    gate_by_output = {g.output: g for g in netlist.gates}
    pending = {g.output: sum(1 for f in g.fanins if f in gate_by_output) for g in netlist.gates}
    readers: dict[str, list[str]] = {}
    for gate in netlist.gates:
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
        return order, None
    return order, min(net for net, n in pending.items() if n > 0)


def reference_order(netlist: Netlist) -> list[Gate]:
    """The gates in line order when each net has one driver and every fanin
    is an input, a DFF output or the output of an earlier gate; else in the
    order of :func:`kahn_by_name`."""
    drivers = [*netlist.inputs, *(d.output for d in netlist.dffs), *(g.output for g in netlist.gates)]
    if len(set(drivers)) == len(drivers):
        known = set(netlist.inputs) | {d.output for d in netlist.dffs}
        for gate in netlist.gates:
            if not known.issuperset(gate.fanins):
                break
            known.add(gate.output)
        else:
            return list(netlist.gates)
    return kahn_by_name(netlist)[0]


def reference_parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse `.bench` text exactly as `tklock.circuit.parse_bench` is specified to."""
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
    _, cyclic = kahn_by_name(netlist)
    if cyclic is not None:
        raise BenchFormatError(
            f"combinational cycle through net '{cyclic}'", driver_line.get(cyclic)
        )
    return netlist


def reference_validate(netlist: Netlist) -> list[Violation]:
    """The violations `tklock.circuit.validate` is specified to report, in its order."""
    violations: list[Violation] = []
    driven = {*netlist.inputs, *(g.output for g in netlist.gates), *(d.output for d in netlist.dffs)}
    _, cyclic = kahn_by_name(netlist)
    count = Counter(netlist.inputs)
    count.update(g.output for g in netlist.gates)
    count.update(d.output for d in netlist.dffs)
    for net in sorted(net for net, n in count.items() if n > 1):
        violations.append(Violation("error", "duplicate-driver", net, f"duplicate driver: {net}"))

    referenced = set(chain.from_iterable(g.fanins for g in netlist.gates))
    referenced.update(d.input for d in netlist.dffs)
    read_or_output = referenced | set(netlist.outputs)
    for net in sorted(read_or_output.difference(driven)):
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
