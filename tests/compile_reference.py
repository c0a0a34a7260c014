"""Reference op list and wired tail, kept to check the compiled form's.

:func:`reference_ops` is the compile as it was when ``CompiledNetlist`` built
and kept every op up front: one pass over the gates in topological order
(here the name-keyed Kahn order of ``tests/bench_reference.py``, which equals
``Netlist._graph``'s), each gate a chain of two-fanin ops, a wide gate's
unnamed nets numbered from ``len(index)`` up in that order. The compiled
form now keeps only the ops a keyed step can run and builds the others as an
op list needs them; the tests compare every op list a step derives against
this one.

:func:`reference_tail` is the wired tail as ``CompiledNetlist.tail`` derived
it in passes over those ops, before one walk replaced them: one-lane values
for the control nets, a walk back from the roots, a forward pass that gives
each reached net a source and a backward pass that keeps what the roots
need. The tests compare every tail with it.
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


def reference_tail(netlist: Netlist, watch: tuple[int, ...], key_value: int | None, counter: int) -> list[tuple]:
    """The wired tail of a step that watches the nets `watch`, under the key
    value and the counter bits, derived as ``CompiledNetlist.tail`` did in
    passes: mark the fed and control nets over :func:`reference_ops`,
    evaluate the control nets in one lane, walk back from the roots (an op
    with a control fanin at its controlling value depends on that fanin
    alone), sort what the walk reached, give each reached net a source in a
    forward pass, and keep, in a backward pass, what the roots need."""
    compiled = netlist.compiled
    h = {i: key_value >> bit & 1 for bit, i in enumerate(compiled.key_idx)}
    h.update((compiled.dff_q_idx[p], counter >> bit & 1) for bit, p in enumerate(compiled.counter_pos))
    control, fed = set(h), {}  # fed: fed net -> (place in the eager order, op)
    for place, op in enumerate(reference_ops(netlist)):
        family, out, a, b, invert = op
        if a in fed or a in control or b in fed or b in control:
            fed[out] = place, op
            if a in control and b in control:
                control.add(out)
                v = (h[a] & h[b], h[a] | h[b], h[a] ^ h[b])[family]
                h[out] = v ^ invert
    roots = compiled.output_idx + compiled.dff_d_idx + list(watch)
    reached, stack = set(), list(roots)
    while stack:
        net = stack.pop()
        if net not in fed or net in reached:
            continue
        reached.add(net)
        family, _, a, b, _ = fed[net][1]
        fanins = (a, b)
        if family != 2:
            for f in fanins:
                if f in control and h[f] == family:  # AND at 0, OR at 1
                    fanins = (f,)
                    break
        stack.extend(fanins)
    ops = [op for _, op in sorted(fed[net] for net in reached)]
    source: dict[int, tuple[int, bool]] = {}  # wired net -> (source net, inverted)
    undecided: dict[int, tuple] = {}
    for family, out, a, b, invert in ops:
        sa, ia = source.get(a, (a, False))
        sb, ib = source.get(b, (b, False))
        if a == b and family != 2:
            source[out] = sa, ia ^ invert
        elif sa in control or sb in control:
            (s, i), (so, io) = ((sa, ia), (sb, ib)) if sa in control else ((sb, ib), (sa, ia))
            one = bool(h[s]) ^ i  # the decided fanin's value
            if family == 2:
                source[out] = so, io ^ one ^ invert
            elif one == (family == 1):  # the controlling value
                source[out] = s, i ^ invert
            else:
                source[out] = so, io ^ invert
        elif family == 2:
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
            op = (0, out, s, s, i)
            needed.add(s)
        tail.append(op)
    tail.reverse()
    return tail
