"""Command-line front end: lock, simulate, verify, attack, and report.

Every artifact written (locked netlists, manifests, trace CSVs, reports) is
byte-deterministic for a fixed argv and input files. Exit codes: 0 success,
1 analytic failure (validation, equivalence, budget) with a one-line JSON
diagnostic on stderr, 2 usage errors.

The layers are imported as modules, so a job runs only those its subcommand
uses (see :mod:`tklock`), and :func:`main` maps errors to their kinds by name.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import sys
from collections.abc import Iterable
from pathlib import Path

from . import analysis, behavioral, circuit, fsm, keys, sim, structural


def _fail(kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return 1


def _read(path: str) -> str:
    # open, not pathlib: Path("") is ".", a directory the user never named
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(*outputs: tuple[str, Iterable[str]]) -> None:
    """Write each ``(path, chunks)`` in turn. When one fails, every file
    opened here is removed before the error propagates, so a failed job
    leaves no output behind; the error still names the path given."""
    opened = []
    try:
        for path, chunks in outputs:
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.writelines(chunks)  # chunk by chunk: no copy of a whole netlist's text
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _load_bench(path: str):
    return circuit.parse_bench(_read(path), name=Path(path).stem)


def _load_schedule(path: str) -> keys.KeySchedule:
    """A structural lock manifest's schedule; of its other fields, only
    ``key_input_nets`` is read and checked."""
    doc, schedule = keys._read_manifest(_read(path))
    keys._field(doc, "key_input_nets", list, str)
    return schedule


def _schedule_from_args(args, num_keys: int | None, key_bits: int | None) -> keys.KeySchedule:
    if args.keys is not None and args.keys_file is not None:
        raise ValueError("give at most one of --keys and --keys-file")
    if args.keys is not None:
        schedule = keys.parse_key_list(args.keys)
    elif args.keys_file is not None:
        schedule = keys.schedule_from_text(_read(args.keys_file))
    else:
        if num_keys is None or key_bits is None:
            raise ValueError("--k and --ki are required to generate a schedule")
        return keys.generate_key_schedule(num_keys, key_bits, args.seed)
    if num_keys is not None and schedule.period != num_keys:
        raise ValueError(f"schedule has {schedule.period} keys, --k says {num_keys}")
    if key_bits is not None and schedule.width != key_bits:
        raise ValueError(f"schedule width {schedule.width}, --ki says {key_bits}")
    return schedule


def _cmd_lock_str(args) -> int:
    netlist = _load_bench(args.infile)
    schedule = _schedule_from_args(args, args.k, args.ki)
    targets = None if args.targets is None else args.targets.split(",")
    locked, manifest = structural.lock_structural(netlist, schedule, args.ffs, args.seed, targets)
    _write((args.out, circuit._bench_lines(locked)), (args.manifest, [manifest.to_json()]))
    print(f"locked {len(manifest.locked_ffs)} flip-flop(s); wrote {args.out} and {args.manifest}")
    return 0


def _cmd_lock_beh(args) -> int:
    machine = fsm.parse_kiss2(_read(args.infile))
    schedule = _schedule_from_args(args, args.k, args.ki)
    locked, manifest = behavioral.lock_behavioral(machine, schedule, args.seed)
    _write((args.out, [fsm.write_kiss2(locked)]), (args.manifest, [manifest.to_json()]))
    print(f"locked machine: {len(locked.states)} states; wrote {args.out} and {args.manifest}")
    return 0


def _key_value(bits: str, width: int, what: str) -> int:
    value = keys.from_binary(bits)
    if len(bits) != width:
        raise ValueError(f"{what} '{bits}' has {len(bits)} bits, the netlist has {width} key inputs")
    return value


def _key_policy_from_args(args, netlist) -> sim.KeyPolicy:
    _, key_inputs = keys.split_inputs(netlist)
    schedule = None
    given = args.keys is not None or args.keys_file is not None
    if args.manifest is not None:
        if given:
            raise ValueError("--manifest conflicts with --keys/--keys-file")
        schedule = _load_schedule(args.manifest)
    elif given:
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
        return sim.KeyPolicy.static(_key_value(args.static_key, len(key_inputs), "--static-key"))
    if schedule is None:
        if key_inputs:
            raise ValueError("netlist has key inputs; give --manifest, --keys, or --static-key")
        return sim.KeyPolicy()
    return sim.KeyPolicy.tampered(schedule, overrides)


def _refuse_with(args, given: str, **flags: str) -> None:
    """Raise ValueError naming the first of `flags` (attribute -> flag) that
    is set, since `given` makes the command ignore it."""
    for attr, flag in flags.items():
        if getattr(args, attr) is not None:
            raise ValueError(f"{flag} conflicts with {given}")


def _cmd_sim(args) -> int:
    if args.stimulus is not None:
        _refuse_with(args, "--stimulus", cycles="--cycles", random_seed="--random-seed")
    netlist = _load_bench(args.infile)
    policy = _key_policy_from_args(args, netlist)
    non_key, _ = keys.split_inputs(netlist)
    if args.stimulus is not None:
        lines = _read(args.stimulus).splitlines()
        rows = [row for row in (line.split("#", 1)[0].strip() for line in lines) if row]
        if not rows:
            raise ValueError(f"stimulus file '{args.stimulus}' has no rows")
        stimulus = sim.Stimulus.from_strings(rows, policy)
    else:
        cycles = 16 if args.cycles is None else args.cycles
        if cycles < 1:
            raise ValueError(f"sim needs cycles >= 1, got {cycles}")
        draw = random.Random(args.random_seed or 0).randint
        rows = tuple(tuple(draw(0, 1) for _ in non_key) for _ in range(cycles))
        stimulus = sim.Stimulus(rows, policy)
    watch = () if args.watch is None else tuple(args.watch.split(","))
    trace = sim.simulate(netlist, stimulus, init=args.init, watch=watch)
    csv = trace.to_csv()
    if args.trace is not None:
        _write((args.trace, [csv]))
        print(f"wrote {trace.cycles}-cycle trace to {args.trace}")
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_verify(args) -> int:
    if args.mode == "random":
        _refuse_with(args, "--mode random", budget="--budget", depth="--depth")
    else:
        _refuse_with(args, "--mode exhaustive", sequences="--sequences", cycles="--cycles", seed="--seed")
    orig = _load_bench(args.orig)
    locked = _load_bench(args.locked)
    policy = _key_policy_from_args(args, locked)
    if args.mode == "exhaustive":
        verdict = analysis.check_equivalence_exhaustive(
            orig,
            locked,
            depth=6 if args.depth is None else args.depth,
            key_policy=policy,
            init=args.init,
            budget=analysis._DEFAULT_BUDGET if args.budget is None else args.budget,
        )
    else:
        verdict = analysis.check_equivalence_random(
            orig,
            locked,
            sequences=1000 if args.sequences is None else args.sequences,
            cycles=64 if args.cycles is None else args.cycles,
            seed=args.seed or 0,
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
    orig = _load_bench(args.orig)
    locked = _load_bench(args.locked)
    if args.manifest is not None:
        if args.k is not None or args.ki is not None:
            raise ValueError("--manifest conflicts with --k/--ki")
        schedule = _load_schedule(args.manifest)
        num_keys, key_bits = schedule.period, schedule.width
    else:
        num_keys, key_bits = args.k, args.ki
    if args.mode == "static":
        if args.k is not None:
            raise ValueError("--k conflicts with --mode static")
        num_keys = 1  # a static key is the period-1 schedule
    if not (num_keys and key_bits):
        raise ValueError("give --manifest, or --ki and (for bruteforce) --k")
    limit = sys.get_int_max_str_digits()
    if limit and key_bits * num_keys > limit * math.log2(10):
        raise analysis.BudgetExceededError(
            f"key-sequence space 2^{key_bits * num_keys} has too many digits to report (limit {limit})"
        )
    result = analysis.brute_force_attack(
        locked,
        orig,
        num_keys=num_keys,
        key_bits=key_bits,
        depth=args.depth,
        budget=analysis._DEFAULT_BUDGET if args.budget is None else args.budget,
        seed=args.seed,
    )
    survivors = [
        ",".join(keys.KeySchedule(keys=s, width=key_bits).binary_strings()) for s in result.survivors
    ]
    doc = {
        "mode": args.mode,
        "search_space_size": result.search_space_size,
        "equivalence": result.mode,
        "depth": result.depth,
        "survivors": survivors,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:
        _write((args.out, [text]))
    sys.stdout.write(text)
    survived = f"{len(survivors)} of {result.search_space_size} candidates survive"
    print(f"{survived} ({result.elapsed:.2f}s)", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    orig = _load_bench(args.orig)
    locked = _load_bench(args.locked)
    manifest = structural.LockManifest.from_json(_read(args.manifest))
    report = analysis.overhead_report(orig, locked, manifest)
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
    outputs = []
    if args.out is not None:
        outputs.append((args.out, [text]))
    else:
        sys.stdout.write(text)
    if args.csv is not None:
        import csv
        import io

        header = [
            "circuit", "orig_gates", "locked_gates", "added_gates", "added_dffs",
            "added_inputs", "per_ff_mux_count", "relative_gate_overhead",
        ]
        row = [
            orig.name, report.original.gates, report.locked.gates, report.delta.gates,
            report.delta.dffs, report.delta.inputs, report.per_ff_mux_count,
            round(report.relative_gate_overhead, 6),
        ]
        table = io.StringIO()
        csv.writer(table, lineterminator="\n").writerows([header, row])
        outputs.append((args.csv, [table.getvalue()]))
    _write(*outputs)
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
    p.add_argument("--cycles", type=int, help="cycles of generated stimulus (default 16)")
    p.add_argument("--stimulus", help="file with one row of non-key input bits per cycle, # comments")
    p.add_argument("--random-seed", type=int, help="seed for generated stimulus (default 0)")
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
    p.add_argument("--depth", type=int, help="cycles the exhaustive check covers (default 6)")
    p.add_argument(
        "--budget", type=int,
        help="most distinct joint states the exhaustive check may expand",
    )
    p.add_argument("--sequences", type=int, help="random sequences (default 1000)")
    p.add_argument("--cycles", type=int, help="cycles per random sequence (default 64)")
    p.add_argument("--seed", type=int, help="seed for the random sequences (default 0)")
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


# error class (``module.qualname``) -> its kind; found by name, so no layer runs
_ERROR_KINDS = {
    "tklock.circuit.BenchFormatError": "parse-error",
    "tklock.fsm.Kiss2FormatError": "parse-error",
    "tklock.analysis.BudgetExceededError": "budget-exceeded",
    "builtins.ValueError": "invalid-input",  # FsmError is a ValueError
    "builtins.OSError": "io-error",
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector paused.

    A job builds a few hundred thousand acyclic tuples and lists and then
    returns: collection passes over them free nothing. The caller's
    collector state is restored on the way out, whatever the outcome. An
    error of no kind in ``_ERROR_KINDS`` propagates.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except Exception as exc:
        for cls in type(exc).__mro__:  # the most derived class with a kind names it
            kind = _ERROR_KINDS.get(f"{cls.__module__}.{cls.__qualname__}")
            if kind is not None:
                return _fail(kind, str(exc))
        raise
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
