"""Time-keyed multi-key logic locking toolkit.

Locks sequential circuits so they only behave correctly when a schedule of
key values is fed to the key inputs in the right order, one value per clock
cycle, synchronized with an on-chip counter. Works on two representations:

* gate-level `.bench` netlists (:mod:`tklock.structural`), and
* KISS2 Mealy machines (:mod:`tklock.behavioral`),

with a cycle-accurate 3-valued simulator (:mod:`tklock.sim`), sequential
equivalence checking and key-recovery attack oracles (:mod:`tklock.analysis`),
and a command-line front end (:mod:`tklock.cli`).
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines; each resolves on first use
_EXPORTS = {
    "behavioral": ("BehManifest", "lock_behavioral"),
    "circuit": ("BenchFormatError", "Dff", "Gate", "Netlist", "Violation", "parse_bench",
                "structurally_equal", "topo_order", "validate", "write_bench"),
    "fsm": ("Fsm", "FsmError", "Kiss2FormatError", "Transition", "parse_kiss2", "simulate_fsm",
            "write_kiss2"),
    "keys": ("KeySchedule", "generate_key_schedule", "schedule_from_text", "schedule_to_text"),
    "sim": ("KeyPolicy", "Stimulus", "Trace", "simulate"),
    "structural": ("LockManifest", "lock_structural", "select_lock_targets", "wrongful_sources"),
    "analysis": ("AttackResult", "BudgetExceededError", "Counterexample", "EquivVerdict",
                 "OverheadReport", "brute_force_attack", "check_equivalence_exhaustive",
                 "check_equivalence_random", "corruption_rate", "overhead_report",
                 "replay_counterexample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# a star import takes the submodules too, as it did when this file imported them
__all__ = [*_MODULE_OF, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
