"""Independent scalar reference for the 3-valued simulator.

:func:`kleene_eval` evaluates one gate by its kind name under strong Kleene
logic, and :func:`simulate_kleene` steps a netlist one gate at a time over
named nets, in the gate order of ``reference_order`` in
``tests/bench_reference.py``: the line order when each net has one driver
and every fanin's driver comes first, else the name-keyed Kahn order, the
rule ``Netlist._graph`` follows. None of them shares code with
:class:`tklock.sim.PlaneSim` or reads ``Netlist._graph``, so tests that
compare the two check the kernel and its gate order against the semantics,
not against themselves.
"""

from __future__ import annotations

from tklock.circuit import Netlist
from tklock.keys import COUNTER_NET_PREFIX, split_inputs
from tklock.sim import Stimulus, Trace
from tests.bench_reference import reference_order


def kleene_eval(kind: str, values) -> int | None:
    """Evaluate one gate under strong Kleene logic (None is unknown).

    AND with any 0 is 0 and OR with any 1 is 1 regardless of unknowns;
    XOR/XNOR are unknown as soon as one fanin is; NOT None is None.
    """
    if kind == "NOT":
        v = values[0]
        return None if v is None else 1 - v
    if kind == "BUF":
        return values[0]
    if kind in ("AND", "NAND"):
        if any(v == 0 for v in values):
            r = 0
        elif any(v is None for v in values):
            r = None
        else:
            r = 1
        return r if kind == "AND" else (None if r is None else 1 - r)
    if kind in ("OR", "NOR"):
        if any(v == 1 for v in values):
            r = 1
        elif any(v is None for v in values):
            r = None
        else:
            r = 0
        return r if kind == "OR" else (None if r is None else 1 - r)
    if kind in ("XOR", "XNOR"):
        if any(v is None for v in values):
            return None
        parity = 0
        for v in values:
            parity ^= v
        return parity if kind == "XOR" else 1 - parity
    raise ValueError(f"unknown gate kind '{kind}'")


def simulate_kleene(
    netlist: Netlist,
    stimulus: Stimulus,
    init: str = "zero",
    watch: tuple[str, ...] = (),
) -> Trace:
    """Scalar, gate-at-a-time counterpart of :func:`tklock.sim.simulate`.

    Same timing model and trace layout; it does not check its inputs.
    """
    nonkey, key = split_inputs(netlist)
    order = reference_order(netlist)
    state = {
        d.output: 0 if init == "zero" or d.output.startswith(COUNTER_NET_PREFIX) else None
        for d in netlist.dffs
    }
    inputs, outputs, watched = [], [], []
    for cycle, row in enumerate(stimulus.inputs):
        values = dict(zip(nonkey, row))
        key_value = stimulus.key_policy.key_value_at(cycle)
        values.update((name, (key_value >> bit) & 1) for bit, name in enumerate(key))
        values.update(state)
        for gate in order:
            values[gate.output] = kleene_eval(gate.kind, [values[f] for f in gate.fanins])
        inputs.append(tuple(values[n] for n in netlist.inputs))
        outputs.append(tuple(values[n] for n in netlist.outputs))
        watched.append(tuple(values[n] for n in watch))
        state = {d.output: values[d.input] for d in netlist.dffs}
    return Trace(
        init_mode=init,
        input_names=tuple(netlist.inputs),
        output_names=tuple(netlist.outputs),
        watch_names=tuple(watch),
        inputs=inputs,
        outputs=outputs,
        watched=watched,
    )
