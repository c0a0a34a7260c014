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

from .behavioral import BehLockConfig, BehManifest, lock_behavioral
from .circuit import (
    BenchFormatError,
    Dff,
    Gate,
    Netlist,
    Violation,
    parse_bench,
    structurally_equal,
    topo_order,
    validate,
    write_bench,
)
from .fsm import Fsm, FsmError, Kiss2FormatError, Transition, parse_kiss2, simulate_fsm, write_kiss2
from .keys import KeySchedule, generate_key_schedule, schedule_from_text, schedule_to_text
from .sim import KeyPolicy, Stimulus, Trace, simulate
from .structural import (
    LockConfig,
    LockManifest,
    lock_structural,
    select_lock_targets,
    wrongful_sources,
)
from .analysis import (
    AttackResult,
    BudgetExceededError,
    Counterexample,
    EquivVerdict,
    OverheadReport,
    brute_force_attack,
    check_equivalence_exhaustive,
    check_equivalence_random,
    corruption_rate,
    overhead_report,
    replay_counterexample,
)

__version__ = "0.1.0"
