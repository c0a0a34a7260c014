"""Reference `.bench` parser and topological order, kept to check the library's.

This is the line-at-a-time parser that `tklock.circuit.parse_bench` replaced:
two regular expressions per line, one `re.search` per fanin name, and Kahn's
algorithm over net-name dictionaries. It is slow and plain on purpose; the
tests compare the library's single indexed pass against it, message for
message and line for line.
"""

from __future__ import annotations

import re
from collections import deque

from tklock.circuit import GATE_KINDS, UNARY_KINDS, BenchFormatError, Dff, Gate, Netlist

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
