"""Gate-level sequential netlist IR with `.bench` reading and writing.

The IR is deliberately small: primary inputs, primary outputs, combinational
gates over a fixed primitive set, and D flip-flops. Nets are identified by
name; every net has exactly one driver (an input, a gate output, or a DFF
output) and the combinational subgraph is acyclic once DFFs are cut.

:func:`parse_bench` reads each line once: one capturing full-match pattern per
gate or DFF line yields the output, the kind and the first two fanins, and only
a gate with three or more fanins reads the rest with ``findall``. One table maps
each driven name to its shared string; a name read before its driver waits in a
small pending table. Each ``Gate`` is built by ``tuple.__new__``. Only lines
that pattern rejects take the slower checks, which give each error its message
and line number; the two errors found after the last line (an undefined fanin,
a cycle) read theirs from the line numbers the pass kept per gate and DFF.
``Netlist._graph`` (the net index in compiled order, a FIFO Kahn order over
gate positions, the cycle net) is built once and read by the parse's cycle
check, :func:`validate` and the compiled form.

Those line checks cover every error-level check of :func:`validate`, so a
netlist from :func:`parse_bench` is marked as free of errors and the compiled
form and the structural locker do not validate it again. A netlist built in
code is validated the first time one of them needs it.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from . import sim  # a module import: sim imports this module, and a parse runs no simulator

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")
UNARY_KINDS = ("NOT", "BUF")


class BenchFormatError(ValueError):
    """Malformed `.bench` text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Gate(NamedTuple):
    output: str
    kind: str
    fanins: tuple[str, ...]


class Dff(NamedTuple):
    """D flip-flop: `output` is the present-state Q net, `input` the next-state D net."""

    output: str
    input: str


class Violation(NamedTuple):
    """One structural defect found by :func:`validate`. Severity is `error` or `warning`."""

    severity: str
    kind: str
    net: str
    message: str


class Netlist:
    """A sequential circuit. Treated as immutable after construction."""

    def __init__(
        self,
        name: str,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        gates: tuple[Gate, ...],
        dffs: tuple[Dff, ...],
    ):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.gates = gates
        self.dffs = dffs
        # True once the netlist is known to have no error-level violation: set by
        # parse_bench, by lock_structural on its checked output and by _require_valid
        self._checked = False

    def __eq__(self, other) -> bool:  # the circuits, not their cached forms or _checked
        return type(other) is Netlist and all(
            getattr(self, f) == getattr(other, f) for f in ("name", "inputs", "outputs", "gates", "dffs")
        )

    @cached_property
    def compiled(self) -> sim.CompiledNetlist:
        """The index-based simulation form, built once per netlist.

        Validates the netlist first unless it is already known to be free of
        errors (see :meth:`_require_valid`); raises ValueError when
        :func:`validate` reports an error.
        """
        return sim.CompiledNetlist(self)

    def _require_valid(self) -> None:
        """Raise ValueError when :func:`validate` reports an error.

        A netlist is validated at most once, and one from :func:`parse_bench`
        never: the parse has already made every error-level check.
        """
        if not self._checked:
            if any(v.severity == "error" for v in validate(self)):
                raise ValueError(f"netlist '{self.name}' fails validation")
            self._checked = True

    @cached_property
    def _graph(self) -> tuple[dict[str, int], tuple[Gate, ...], str | None]:
        """The integer gate graph (DFFs cut), built once per netlist.

        Returns the net index in :class:`CompiledNetlist` order (inputs, DFF
        outputs, gate outputs), the gates in the topological order of a FIFO
        Kahn pass over gate positions, and None or, when the graph has a
        combinational cycle, the smallest name among the nets that could not
        be ordered (each on or downstream of a cycle). With duplicate drivers
        the last driver of a net stands for it.

        Only the index and the order are kept. The pass numbers a gate by
        its index value, so the ints it holds are the index's own, and holds
        per net a pending count, a first reader and a byte that says whether
        the gate there drives its net; further readers go in one dict, as
        most gates of a locked netlist drive a single gate.
        """
        gates = self.gates
        base = len(self.inputs) + len(self.dffs)
        size = base + len(gates)
        drivers = chain(self.inputs, (d.output for d in self.dffs), (g.output for g in gates))
        index = dict(zip(drivers, range(size)))
        pending = [0] * size
        first: list[int | None] = [None] * size
        more: dict[int, list[int]] = {}
        live = bytearray(size)
        for p, gate in enumerate(gates, base):
            node = index[gate.output]
            live[p] = node == p
            for net in gate.fanins:
                driver = index.get(net, -1)
                if driver >= base:
                    if first[driver] is None:
                        first[driver] = node
                    elif driver in more:
                        more[driver].append(node)
                    else:
                        more[driver] = [node]
                    if node == p:
                        pending[p] += 1
        order = [p for p, n in enumerate(pending) if n == 0 and live[p]]
        for p in order:  # the list is its own FIFO queue
            reader = first[p]
            if reader is None:
                continue
            pending[reader] -= 1
            if pending[reader] == 0:
                order.append(reader)
            for reader in more.get(p, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    order.append(reader)
        stuck = (gates[p - base].output for p, n in enumerate(pending) if n > 0 and live[p])
        return index, tuple(gates[p - base] for p in order), min(stuck, default=None)


_NAME = r"[^\s(),=#]+"
# `y = KIND(a, b, ...)` with a well-formed, non-empty fanin list; captures the
# output, the kind, the first fanin, the second (or None) and the text of any
# further fanins ("" after exactly two)
_GATE_RE = re.compile(
    rf"({_NAME})\s*=\s*([A-Za-z]+)\s*\(\s*({_NAME})(?:\s*,\s*({_NAME})((?:\s*,\s*{_NAME})*))?\s*\)"
)
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

    The pass keeps one name table, ``driven``, from each driven name to its
    shared string. A fanin or output read before its driver waits in
    ``pending`` until the line that drives it; each gate's and DFF's line
    number goes in an ``array('i')``. The two errors found after the last
    line (an undefined fanin, a cycle) read their line from those arrays, so
    no text is read again and the name tables are freed before the graph pass.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    dffs: list[Dff] = []
    gate_line, dff_line = array("i"), array("i")
    output_line: dict[str, int] = {}
    driven: dict[str, str] = {}
    pending: dict[str, str] = {}
    get, wait, take = driven.get, pending.setdefault, pending.pop
    new_gate = tuple.__new__  # builds a Gate in C, without NamedTuple's Python-level __new__

    for lineno, raw in enumerate(_lines(text), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        match = _GATE_RE.fullmatch(line)
        if match is not None:
            lhs, kind_text, first, second, rest = match.groups()
        else:
            io_match = _IO_RE.fullmatch(line)
            if io_match:
                net = io_match["net"]
                if io_match["kw"].upper() == "INPUT":
                    if net in driven:
                        raise BenchFormatError(f"duplicate driver for net '{net}'", lineno)
                    net = driven[net] = take(net, net)
                    inputs.append(net)
                else:
                    if net in output_line:
                        raise BenchFormatError(f"duplicate output declaration '{net}'", lineno)
                    output_line[net] = lineno
                    outputs.append(get(net) or wait(net, net))
                continue
            assign = re.fullmatch(_ASSIGN, line)
            if assign is None:
                raise BenchFormatError(f"unrecognized line: '{line}'", lineno)
            if assign["args"].strip():
                raise BenchFormatError(f"malformed fanin list: '{line}'", lineno)
            lhs, kind_text, first, second, rest = assign["lhs"], assign["kind"], None, None, None
        if lhs in driven:
            raise BenchFormatError(f"duplicate driver for net '{lhs}'", lineno)
        lhs = driven[lhs] = take(lhs, lhs)
        kind = _KINDS.get(kind_text) or _KINDS.get(kind_text.upper())
        if kind is None:
            raise BenchFormatError(f"unknown gate kind '{kind_text}'", lineno)
        if kind in _ONE_FANIN:
            if first is None or second is not None:
                raise BenchFormatError(f"{kind} takes exactly one fanin", lineno)
            if kind == "DFF":
                dffs.append(Dff(lhs, get(first) or wait(first, first)))
                dff_line.append(lineno)
                continue
            fanins = (get(first) or wait(first, first),)
        elif second is None:
            raise BenchFormatError(f"{kind} takes at least two fanins", lineno)
        elif rest:
            fanins = (get(first) or wait(first, first), get(second) or wait(second, second),
                      *[get(n) or wait(n, n) for n in _NAME_RE.findall(rest)])
        else:
            fanins = (get(first) or wait(first, first), get(second) or wait(second, second))
        gates.append(new_gate(Gate, (lhs, kind, fanins)))
        gate_line.append(lineno)

    if pending:
        # a fanin or an output is undriven: report the first fanin reference,
        # walking the gates and DFFs in line order
        reads = chain(zip(gate_line, (g.fanins for g in gates)), zip(dff_line, ((d.input,) for d in dffs)))
        for lineno, fanins in sorted(reads):
            for net in fanins:
                if net in pending:
                    raise BenchFormatError(f"undefined fanin net '{net}'", lineno)
        for net, lineno in output_line.items():
            if net in pending:
                raise BenchFormatError(f"undefined output net '{net}'", lineno)

    netlist = Netlist(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        gates=tuple(gates),
        dffs=tuple(dffs),
    )
    # nothing but the netlist and the gate lines outlives the line loop
    del text, driven, pending, get, wait, take, output_line, inputs, outputs, gates, dffs, dff_line
    cyclic = netlist._graph[2]
    if cyclic is not None:
        p = next(p for p, gate in enumerate(netlist.gates) if gate.output == cyclic)
        raise BenchFormatError(f"combinational cycle through net '{cyclic}'", gate_line[p])
    netlist._checked = True
    return netlist


def _lines(text: str):
    """The lines ``text.splitlines()`` returns, split one chunk at a time so
    that no list of every line is built. A chunk ends just after a line feed,
    and a line feed ends any line break that holds one."""
    return chain.from_iterable(map(str.splitlines, _chunks(text)))


def _chunks(text: str, size: int = 1 << 16):
    start = 0
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield text[start:end]
        start = end


def _bench_lines(netlist: Netlist):
    """The lines of the `.bench` text, each with its LF line ending."""
    yield f"# {netlist.name}\n"
    yield from (f"INPUT({net})\n" for net in netlist.inputs)
    yield "\n"
    yield from (f"OUTPUT({net})\n" for net in netlist.outputs)
    yield "\n"
    yield from (f"{d.output} = DFF({d.input})\n" for d in netlist.dffs)
    if netlist.dffs:
        yield "\n"
    yield from (f"{g.output} = {g.kind}({', '.join(g.fanins)})\n" for g in netlist.gates)


def write_bench(netlist: Netlist) -> str:
    """Emit `.bench` text (LF line endings) that re-parses to the same netlist."""
    return "".join(_bench_lines(netlist))


def validate(netlist: Netlist) -> list[Violation]:
    """Check all structural invariants; violations are data, not exceptions.

    Error-level: duplicate drivers, undriven nets, bad gate arity, duplicate
    output declarations, combinational cycles. Warning-level: driven internal
    nets that are never read and are not declared outputs.

    Reads the net index and cycle net of ``Netlist._graph`` and marks the
    nets read or declared outputs in a byte per indexed net; only undriven
    names go in a set. A count of drivers per net is built only when the
    index, which holds each driven net once, is shorter than the list of
    drivers, that is when some net has two.
    """
    violations: list[Violation] = []
    index, _, cyclic = netlist._graph
    n_drivers = len(netlist.inputs) + len(netlist.dffs) + len(netlist.gates)
    if len(index) < n_drivers:
        count = Counter(netlist.inputs)
        count.update(g.output for g in netlist.gates)
        count.update(d.output for d in netlist.dffs)
        for net in sorted(net for net, n in count.items() if n > 1):
            violations.append(Violation("error", "duplicate-driver", net, f"duplicate driver: {net}"))

    read_or_output = bytearray(n_drivers)  # by index value, which can pass len(index) - 1
    undriven = set()
    fanins = chain.from_iterable(g.fanins for g in netlist.gates)
    for net in chain(fanins, (d.input for d in netlist.dffs), netlist.outputs):
        i = index.get(net)
        if i is None:
            undriven.add(net)
        else:
            read_or_output[i] = 1
    for net in sorted(undriven):
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
        if not read_or_output[index[gate.output]]:
            violations.append(
                Violation("warning", "dangling", gate.output, f"dangling net: {gate.output}")
            )
    for dff in netlist.dffs:
        if not read_or_output[index[dff.output]]:
            violations.append(
                Violation("warning", "dangling", dff.output, f"dangling net: {dff.output}")
            )

    return violations


def structurally_equal(a: Netlist, b: Netlist) -> bool:
    """True when two netlists have the same nets, drivers, and I/O order (names of
    the netlists themselves are ignored)."""
    return (
        a.inputs == b.inputs
        and a.outputs == b.outputs
        and set(a.gates) == set(b.gates)
        and set(a.dffs) == set(b.dffs)
    )
