"""In-memory spans around the public functions of every ``tklock`` module.

A :class:`Tracer` replaces each public function of a layer module with a
wrapper that records one span per call: name, start, end and the index of the
enclosing span. The wrapper is bound under every name the function was
imported as (``tklock.cli.brute_force_attack`` as well as
``tklock.analysis.brute_force_attack``, ``validate`` in ``sim`` and
``structural`` as well as in ``circuit``), so calls are caught wherever they
come from. A few methods that carry the per-layer metrics are wrapped on their
class. The program's sources are not changed.

Counters are kept at the same boundaries as the spans, from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("circuit", "fsm", "keys", "structural", "behavioral", "sim", "analysis", "cli", "corpus", "synth")

# Called once per gate, value or pattern: a span per call would cost more than
# the work it measures, so their time stays in the caller's self time.
PER_ELEMENT = frozenset(
    {"kleene_eval", "value_str", "pattern_matches", "patterns_overlap", "to_binary", "from_binary"}
)

# Span names the per-layer metrics use, where they differ from module.function.
RENAMES = {
    "analysis.check_equivalence_exhaustive": "analysis.exhaustive",
    "analysis.check_equivalence_random": "analysis.random",
    "analysis.brute_force_attack": "analysis.attack",
    "analysis.static_key_attack": "analysis.attack",
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.planes: dict[int, tuple[int, int]] = {}  # id(PlaneSim) -> (gates, lanes)

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------

    def _parsed(self, args, kwargs, result) -> None:
        self.counts["circuit.parse_bench.gates"] += len(result.gates)

    def _locked(self, args, kwargs, result) -> None:
        before = _arg(args, kwargs, 0, "netlist")
        self.counts["structural.lock_structural.gates_added"] += len(result[0].gates) - len(before.gates)

    def _simulated(self, args, kwargs, result) -> None:
        netlist = _arg(args, kwargs, 0, "netlist")
        cycles = _arg(args, kwargs, 1, "stimulus").cycles
        self.counts["sim.simulate.cycles"] += cycles
        self.counts["sim.simulate.gate_evals"] += cycles * len(netlist.gates)

    def _attacked(self, args, kwargs, result) -> None:
        self.counts["analysis.attack.candidates"] += result.search_space_size
        self.counts["analysis.attack.survivors"] += len(result.survivors)

    def _stepped(self, args, kwargs, result) -> None:
        gates, lanes = self.planes[id(args[0])]
        counts = self.counts
        counts["sim.step.lanes"] += lanes
        counts["sim.step.gate_lane_evals"] += gates * lanes
        latch = kwargs["latch"] if "latch" in kwargs else (args[4] if len(args) > 4 else True)
        if not latch:
            counts["sim.step.unlatched"] += 1

    def _plane_sim_init(self, init):
        planes = self.planes

        @functools.wraps(init)
        def wrapper(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            netlist = _arg(args, kwargs, 0, "netlist")
            planes[id(sim)] = (len(netlist.gates), _arg(args, kwargs, 1, "lanes"))

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        after = {
            "circuit.parse_bench": self._parsed,
            "structural.lock_structural": self._locked,
            "sim.simulate": self._simulated,
            "analysis.attack": self._attacked,
        }
        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tklock.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and attr not in PER_ELEMENT
                    and obj.__module__ == module.__name__
                ):
                    name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    replaced[id(obj)] = (obj, self.wrap(name, obj, after.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module_name != "tklock" and not module_name.startswith("tklock."):
                continue
            for attr, obj in list(vars(module).items()):
                pair = replaced.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])

        sim = sys.modules["tklock.sim"]
        sim.CompiledNetlist.__init__ = self.wrap("sim.compile", sim.CompiledNetlist.__init__)
        sim.PlaneSim.__init__ = self._plane_sim_init(sim.PlaneSim.__init__)
        sim.PlaneSim.step = self.wrap("sim.step", sim.PlaneSim.step, self._stepped)
        sim.Trace.to_csv = self.wrap("sim.trace_csv", sim.Trace.to_csv)

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        """Per-name calls, inclusive and self time; counters; the raw spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        agg: dict[str, list] = {}
        for (name, start, end, _), inner in zip(spans, covered):
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {"agg": agg, "counts": dict(self.counts), "spans": spans}
