"""Command-line front end: lock, simulate, verify, attack, and report.

Every artifact written (locked netlists, manifests, trace CSVs, reports) is
byte-deterministic for a fixed argv and input files. Exit codes: 0 success,
1 analytic failure (validation, equivalence, budget) with a one-line JSON
diagnostic on stderr, 2 usage errors.

A job runs only the modules its subcommand uses. Importing this module puts
every layer in ``sys.modules`` unexecuted (:class:`importlib.util.LazyLoader`):
a layer runs on its first attribute access, so each handler imports what it
calls, while tools that look the layers up after importing the CLI (the span
tracer in ``bench/spans.py``) still find all of them. :func:`main` maps errors
to their kinds without running a layer the job never used.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import random
import sys
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .keys import KeySchedule
    from .sim import KeyPolicy


def _register_lazily(layer: str) -> None:
    name = f"{__package__}.{layer}"
    if name in sys.modules:  # already imported, or registered by an earlier import
        return
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


for _layer in ("circuit", "fsm", "keys", "structural", "behavioral", "sim", "analysis"):
    _register_lazily(_layer)


def _fail(kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return 1


def _load_bench(path: str):
    from .circuit import parse_bench

    text = Path(path).read_text(encoding="utf-8")
    return parse_bench(text, name=Path(path).stem)


def _load_schedule(path: str) -> KeySchedule:
    """A structural lock manifest's schedule; of its other fields, only
    ``key_input_nets`` is read and checked."""
    from .keys import _field, _read_manifest

    doc, schedule = _read_manifest(Path(path).read_text(encoding="utf-8"))
    _field(doc, "key_input_nets", list, str)
    return schedule


def _schedule_from_args(args, num_keys: int | None, key_bits: int | None) -> KeySchedule:
    from .keys import generate_key_schedule, parse_key_list, schedule_from_text

    sources = [s for s in (args.keys, args.keys_file) if s]
    if len(sources) > 1:
        raise ValueError("give at most one of --keys and --keys-file")
    if args.keys:
        schedule = parse_key_list(args.keys)
    elif args.keys_file:
        schedule = schedule_from_text(Path(args.keys_file).read_text(encoding="utf-8"))
    else:
        if num_keys is None or key_bits is None:
            raise ValueError("--k and --ki are required to generate a schedule")
        return generate_key_schedule(num_keys, key_bits, args.seed)
    if num_keys is not None and schedule.period != num_keys:
        raise ValueError(f"schedule has {schedule.period} keys, --k says {num_keys}")
    if key_bits is not None and schedule.width != key_bits:
        raise ValueError(f"schedule width {schedule.width}, --ki says {key_bits}")
    return schedule


def _cmd_lock_str(args) -> int:
    from .circuit import _bench_lines
    from .structural import lock_structural

    netlist = _load_bench(args.infile)
    schedule = _schedule_from_args(args, args.k, args.ki)
    targets = args.targets.split(",") if args.targets else None
    locked, manifest = lock_structural(netlist, schedule, args.ffs, args.seed, targets)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(_bench_lines(locked))  # line by line: no copy of the whole text
    Path(args.manifest).write_text(manifest.to_json(), encoding="utf-8")
    print(f"locked {len(manifest.locked_ffs)} flip-flop(s); wrote {args.out} and {args.manifest}")
    return 0


def _cmd_lock_beh(args) -> int:
    from .behavioral import lock_behavioral
    from .fsm import parse_kiss2, write_kiss2

    fsm = parse_kiss2(Path(args.infile).read_text(encoding="utf-8"))
    schedule = _schedule_from_args(args, args.k, args.ki)
    locked, manifest = lock_behavioral(fsm, schedule, args.seed)
    Path(args.out).write_text(write_kiss2(locked), encoding="utf-8")
    Path(args.manifest).write_text(manifest.to_json(), encoding="utf-8")
    print(f"locked machine: {len(locked.states)} states; wrote {args.out} and {args.manifest}")
    return 0


def _key_value(bits: str, width: int, what: str) -> int:
    from .keys import from_binary

    value = from_binary(bits)
    if len(bits) != width:
        raise ValueError(f"{what} '{bits}' has {len(bits)} bits, the netlist has {width} key inputs")
    return value


def _key_policy_from_args(args, netlist) -> KeyPolicy:
    from .keys import split_inputs
    from .sim import KeyPolicy

    _, key_inputs = split_inputs(netlist)
    schedule = None
    if args.manifest:
        schedule = _load_schedule(args.manifest)
    elif args.keys or args.keys_file:
        schedule = _schedule_from_args(args, None, None)
    overrides = {}
    for item in getattr(args, "override", None) or []:
        cycle, _, bits = item.partition("=")
        if not cycle.strip().isdecimal() or not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"--override '{item}' is not CYCLE=BITS, e.g. 3=01")
        overrides[int(cycle)] = _key_value(bits, len(key_inputs), f"override at cycle {cycle}")
    if overrides and schedule is None:
        raise ValueError("--override needs a schedule from --manifest, --keys or --keys-file")
    if getattr(args, "static_key", None) is not None:
        if schedule is not None:
            raise ValueError("--static-key conflicts with --keys/--manifest")
        return KeyPolicy.static(_key_value(args.static_key, len(key_inputs), "--static-key"))
    if schedule is None:
        if key_inputs:
            raise ValueError("netlist has key inputs; give --manifest, --keys, or --static-key")
        return KeyPolicy()
    return KeyPolicy.tampered(schedule, overrides)


def _cmd_sim(args) -> int:
    from .keys import split_inputs
    from .sim import Stimulus, simulate

    netlist = _load_bench(args.infile)
    policy = _key_policy_from_args(args, netlist)
    non_key, _ = split_inputs(netlist)
    if args.stimulus:
        lines = Path(args.stimulus).read_text(encoding="utf-8").splitlines()
        rows = [row for row in (line.split("#", 1)[0].strip() for line in lines) if row]
    else:
        rng = random.Random(args.random_seed)
        rows = [
            "".join(str(rng.randint(0, 1)) for _ in non_key) for _ in range(args.cycles)
        ]
    if not rows:
        raise ValueError(
            f"stimulus file '{args.stimulus}' has no rows"
            if args.stimulus
            else f"sim needs cycles >= 1, got {args.cycles}"
        )
    stimulus = Stimulus.from_strings(rows, policy)
    watch = tuple(args.watch.split(",")) if args.watch else ()
    trace = simulate(netlist, stimulus, init=args.init, watch=watch)
    csv = trace.to_csv()
    if args.trace:
        Path(args.trace).write_text(csv, encoding="utf-8")
        print(f"wrote {trace.cycles}-cycle trace to {args.trace}")
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_verify(args) -> int:
    from .analysis import _DEFAULT_BUDGET, check_equivalence_exhaustive, check_equivalence_random

    orig = _load_bench(args.orig)
    locked = _load_bench(args.locked)
    policy = _key_policy_from_args(args, locked)
    if args.mode == "exhaustive":
        verdict = check_equivalence_exhaustive(
            orig,
            locked,
            depth=args.depth,
            key_policy=policy,
            init=args.init,
            budget=_DEFAULT_BUDGET if args.budget is None else args.budget,
        )
    else:
        verdict = check_equivalence_random(
            orig,
            locked,
            sequences=args.sequences,
            cycles=args.cycles,
            seed=args.seed,
            key_policy=policy,
            init=args.init,
        )
    doc = {"equivalent": verdict.equivalent, "mode": verdict.mode, "depth": verdict.depth}
    if verdict.counterexample:
        cex = verdict.counterexample
        doc["counterexample"] = {
            "cycle": cex.cycle,
            "output": cex.output,
            "left_value": "x" if cex.left_value is None else cex.left_value,
            "right_value": "x" if cex.right_value is None else cex.right_value,
            "inputs": ["".join(str(b) for b in row) for row in cex.inputs],
        }
    print(json.dumps(doc, indent=2))
    if not verdict.equivalent:
        return _fail("not-equivalent", f"first divergence at cycle {verdict.counterexample.cycle}")
    return 0


def _cmd_attack(args) -> int:
    from .analysis import _DEFAULT_BUDGET, BudgetExceededError, brute_force_attack
    from .keys import KeySchedule

    orig = _load_bench(args.orig)
    locked = _load_bench(args.locked)
    if args.manifest:
        schedule = _load_schedule(args.manifest)
        num_keys, key_bits = schedule.period, schedule.width
    else:
        num_keys, key_bits = args.k, args.ki
    if args.mode == "static":
        num_keys = 1  # a static key is the period-1 schedule
    if not (num_keys and key_bits):
        raise ValueError("give --manifest, or --ki and (for bruteforce) --k")
    limit = sys.get_int_max_str_digits()
    if limit and key_bits * num_keys > limit * math.log2(10):
        raise BudgetExceededError(
            f"key-sequence space 2^{key_bits * num_keys} has too many digits to report (limit {limit})"
        )
    result = brute_force_attack(
        locked,
        orig,
        num_keys=num_keys,
        key_bits=key_bits,
        depth=args.depth,
        budget=_DEFAULT_BUDGET if args.budget is None else args.budget,
        seed=args.seed,
    )
    survivors = [
        ",".join(KeySchedule(keys=s, width=key_bits).binary_strings()) for s in result.survivors
    ]
    doc = {
        "mode": args.mode,
        "search_space_size": result.search_space_size,
        "equivalence": result.mode,
        "depth": result.depth,
        "survivors": survivors,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    survived = f"{len(survivors)} of {result.search_space_size} candidates survive"
    print(f"{survived} ({result.elapsed:.2f}s)", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from .analysis import overhead_report
    from .structural import LockManifest

    orig = _load_bench(args.orig)
    locked = _load_bench(args.locked)
    manifest = LockManifest.from_json(Path(args.manifest).read_text(encoding="utf-8"))
    report = overhead_report(orig, locked, manifest)
    doc = {
        "original": report.original._asdict(),
        "locked": report.locked._asdict(),
        "delta": report.delta._asdict(),
        "per_ff_mux_count": report.per_ff_mux_count,
        "key_inputs": report.key_inputs,
        "schedule_bits": report.schedule_bits,
        "layers": report.layers,
        "relative_gate_overhead": round(report.relative_gate_overhead, 6),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.csv:
        import csv

        header = [
            "circuit", "orig_gates", "locked_gates", "added_gates", "added_dffs",
            "added_inputs", "per_ff_mux_count", "relative_gate_overhead",
        ]
        row = [
            orig.name, report.original.gates, report.locked.gates, report.delta.gates,
            report.delta.dffs, report.delta.inputs, report.per_ff_mux_count,
            round(report.relative_gate_overhead, 6),
        ]
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, row])
    return 0


def _add_schedule_options(parser, with_static: bool = False) -> None:
    parser.add_argument("--keys", help="comma-separated binary key values, MSB first")
    parser.add_argument("--keys-file", help="schedule file, one binary key per line")
    if with_static:
        parser.add_argument("--static-key", help="hold one binary key value every cycle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tklock", description="Time-keyed multi-key logic locking toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lock-str", help="lock a .bench netlist")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True, help="number of key values (power of two)")
    p.add_argument("--ki", type=int, required=True, help="bits per key value")
    p.add_argument("--ffs", type=int, default=1, help="number of flip-flops to lock (ignored with --targets)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--targets", help="comma-separated DFF output nets to lock")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    _add_schedule_options(p)
    p.set_defaults(func=_cmd_lock_str)

    p = sub.add_parser("lock-beh", help="lock a KISS2 state machine")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True, help="number of key values (any >= 2)")
    p.add_argument("--ki", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    _add_schedule_options(p)
    p.set_defaults(func=_cmd_lock_beh)

    p = sub.add_parser("sim", help="simulate a netlist and export a trace CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cycles", type=int, default=16)
    p.add_argument("--stimulus", help="file with one row of non-key input bits per cycle, # comments")
    p.add_argument("--random-seed", type=int, default=0, help="seed for generated stimulus")
    p.add_argument("--manifest", help="drive key inputs with the manifest's schedule")
    p.add_argument("--override", action="append", help="CYCLE=BITS wrong-key injection")
    p.add_argument("--init", choices=("zero", "x"), default="zero")
    p.add_argument("--watch", help="comma-separated internal nets to record")
    p.add_argument("--trace", help="output CSV path (default: stdout)")
    _add_schedule_options(p, with_static=True)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("verify", help="check locked-vs-original equivalence")
    p.add_argument("--orig", required=True)
    p.add_argument("--locked", required=True)
    p.add_argument("--manifest")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument(
        "--budget", type=int,
        help="most distinct joint states the exhaustive check may expand",
    )
    p.add_argument("--sequences", type=int, default=1000)
    p.add_argument("--cycles", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("zero", "x"), default="zero")
    _add_schedule_options(p, with_static=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("attack", help="enumerate key sequences or static keys")
    p.add_argument("--orig", required=True)
    p.add_argument("--locked", required=True)
    p.add_argument("--mode", choices=("bruteforce", "static"), default="bruteforce")
    p.add_argument("--manifest", help="read k and ki from a manifest")
    p.add_argument("--k", type=int, help="number of key values (bruteforce only)")
    p.add_argument("--ki", type=int, help="bits per key value")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument(
        "--budget", type=int,
        help="most survivors, and joint states (exhaustive) or locked-circuit steps (random)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the attack report JSON here")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("report", help="overhead report for a locked netlist")
    p.add_argument("--orig", required=True)
    p.add_argument("--locked", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write the report JSON here (default: stdout)")
    p.add_argument("--csv", help="also write a one-row CSV summary")
    p.set_defaults(func=_cmd_report)

    return parser


def _loaded(*names: str) -> tuple[type, ...]:
    """The named ``module.Class`` errors of the tklock modules this job has
    run. A module that never ran cannot have raised its error, so none is run
    here: a layer still unexecuted keeps LazyLoader's module type, and any
    attribute lookup on it would execute it."""
    classes = []
    for name in names:
        module, _, cls = name.partition(".")
        loaded = sys.modules.get(f"{__package__}.{module}")
        if type(loaded) is ModuleType:
            classes.append(getattr(loaded, cls))
    return tuple(classes)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector paused.

    A job builds a few hundred thousand acyclic tuples and lists and then
    returns: collection passes over them free nothing. The caller's
    collector state is restored on the way out, whatever the outcome.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    # each except clause is evaluated only when an error reaches it
    except _loaded("circuit.BenchFormatError", "fsm.Kiss2FormatError") as exc:
        return _fail("parse-error", str(exc))
    except _loaded("analysis.BudgetExceededError") as exc:
        return _fail("budget-exceeded", str(exc))
    except ValueError as exc:  # FsmError is a ValueError
        return _fail("invalid-input", str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
