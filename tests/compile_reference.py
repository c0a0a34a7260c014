"""Reference op list, kept to check the compiled form's.

:func:`reference_ops` is the compile as it was when ``CompiledNetlist`` built
and kept every op up front: one pass over the gates in topological order
(here the name-keyed Kahn order of ``tests/bench_reference.py``, which equals
``Netlist._graph``'s), each gate a chain of two-fanin ops, a wide gate's
unnamed nets numbered from ``len(index)`` up in that order. The compiled
form now keeps only the ops a keyed step can run and builds the others as an
op list needs them; the tests compare every op list a step derives against
this one.
"""

from __future__ import annotations

from tklock.circuit import Netlist
from tests.bench_reference import kahn_by_name

_KIND_OPS = {
    "AND": (0, False), "NAND": (0, True), "OR": (1, False), "NOR": (1, True),
    "XOR": (2, False), "XNOR": (2, True), "BUF": (0, False), "NOT": (0, True),
}


def reference_ops(netlist: Netlist) -> list[tuple]:
    """Every op ``(family, out, a, b, invert)`` of `netlist`, in topological order."""
    index = netlist.compiled.index
    ops = []
    n_nets = len(index)
    for g in kahn_by_name(netlist)[0]:
        family, invert = _KIND_OPS[g.kind]
        fanins = g.fanins
        a = index[fanins[0]]
        for f in fanins[1:-1]:
            ops.append((family, n_nets, a, index[f], False))
            a, n_nets = n_nets, n_nets + 1
        ops.append((family, index[g.output], a, index[fanins[-1]], invert))
    return ops


def is_subsequence(ops: list[tuple], reference: list[tuple]) -> bool:
    """Whether `ops` are ops of `reference`, in its order."""
    remaining = iter(reference)
    return all(op in remaining for op in ops)
