"""Benchmark of the ``tklock`` CLI: end-to-end and per-layer metrics.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload lockflow --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn. Each job is one
``tklock`` subcommand in a fresh process, one at a time: a closed loop with a
single client. The job list repeats until ``--seconds`` have passed; the
first pass always completes. With ``--trace 1`` each job runs twice per pass,
plain and traced (see ``spans.py``), and the per-layer metrics come from the
traced runs. Between jobs, ``reference.py`` is timed to gauge the host's
speed; ``wall_rel`` is the pass time in units of it. Every run writes a
result file under ``.bench_out/results/``.

Compare a parent against a change (files or directories of result files):

    python3 bench/run.py --compare PARENT CHANGE
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from workloads import WORKLOADS, CheckError, Job, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"
DEFAULT_SEED = 0
JOB_TIMEOUT_S = 150
REFERENCE_EVERY_S = 1.0  # time the host reference before a job at most this often

# name -> (unit, better, bound used by --compare when BENCHMARK.json has none,
#          for a throughput the work unit its jobs report)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, None),
    "wall_s": ("s", "lower", 0.25, None),
    "wall_rel": ("ref", "lower", 0.25, None),
    "lock_gates_per_s": ("gates/s", "higher", 0.25, "gates"),
    "verify_seq_cycles_per_s": ("seqcycles/s", "higher", 0.25, "seq_cycles"),
    "attack_candidates_per_s": ("cand/s", "higher", 0.25, "candidates"),
    "sim_cycles_per_s": ("cycles/s", "higher", 0.25, "cycles"),
    "peak_rss_mb": ("MB", "lower", 0.25, None),
    "failed_frac": ("fraction", "lower", 0.0, None),
}

LAYER_SELF = ("circuit", "structural", "fsm", "behavioral", "sim", "analysis", "cli")


def _span_metrics():
    """(name, unit, better, fn(per-layer aggregate) -> value) for --trace 1."""

    def self_s(span):
        return (f"{span}.self_s", "s", "lower", lambda a: a.self_s(span))

    def calls(span):
        return (f"{span}.calls", "count", "lower", lambda a: a.calls(span))

    def count(name, unit="count", better="lower"):
        return (name, unit, better, lambda a: a.count(name))

    def rate(name, counter, span, unit):
        return (name, unit, "higher", lambda a: a.rate(counter, span))

    return [
        self_s("circuit.parse_bench"),
        rate("circuit.parse_bench.gates_per_s", "circuit.parse_bench.gates", "circuit.parse_bench", "gates/s"),
        self_s("circuit.write_bench"),
        calls("circuit.validate"),
        self_s("circuit.validate"),
        calls("circuit.topo_order"),
        self_s("circuit.topo_order"),
        self_s("structural.lock_structural"),
        rate("structural.lock_structural.gates_added_per_s", "structural.lock_structural.gates_added",
             "structural.lock_structural", "gates/s"),
        self_s("fsm.parse_kiss2"),
        self_s("fsm.write_kiss2"),
        self_s("behavioral.lock_behavioral"),
        calls("sim.compile"),
        self_s("sim.compile"),
        calls("sim.step"),
        ("sim.step.lanes_mean", "lanes", "higher",
         lambda a: a.count("sim.step.lanes") / a.calls("sim.step") if a.calls("sim.step") else 0),
        count("sim.step.gate_lane_evals"),
        self_s("sim.step"),
        rate("sim.step.gate_lane_evals_per_s", "sim.step.gate_lane_evals", "sim.step", "evals/s"),
        calls("sim.simulate"),
        count("sim.simulate.gate_evals"),
        self_s("sim.simulate"),
        rate("sim.simulate.gate_evals_per_s", "sim.simulate.gate_evals", "sim.simulate", "evals/s"),
        self_s("sim.trace_csv"),
        calls("analysis.exhaustive"),
        ("analysis.exhaustive.joint_states", "count", "lower", lambda a: a.count("sim.step.unlatched") // 2),
        self_s("analysis.exhaustive"),
        ("analysis.exhaustive.joint_states_per_s", "states/s", "higher",
         lambda a: a.count("sim.step.unlatched") / 2 / a.total_s("analysis.exhaustive")
         if a.total_s("analysis.exhaustive") else 0.0),
        count("analysis.attack.candidates"),
        count("analysis.attack.survivors"),
        self_s("analysis.attack"),
        rate("analysis.attack.candidates_per_s", "analysis.attack.candidates", "analysis.attack", "cand/s"),
        calls("analysis.random"),
        self_s("analysis.random"),
        self_s("analysis.overhead_report"),
        ("cli.import_s", "s", "lower", lambda a: a.import_s),
        *[(f"{layer}.self_s", "s", "lower", (lambda layer: lambda a: a.layer_self(layer))(layer))
          for layer in LAYER_SELF],
        ("trace.wall_s", "s", "lower", lambda a: a.traced_wall_s),
        ("trace.overhead_s", "s", "lower", lambda a: a.traced_wall_s - a.plain_wall_s),
    ]


PER_LAYER = _span_metrics()


# -- running jobs ------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# A job with no CLI arguments only imports tklock.cli: it fills the bytecode
# caches before anything is timed.
WARMUP = Job("warmup", [], lambda outcome: {})


def execute(job: Job, cwd: Path, traced: bool, pass_no: int) -> dict:
    """Run one job in a fresh process and check it; returns the run record."""
    cwd.mkdir(parents=True, exist_ok=True)
    report = cwd / f"{job.id}.timing.json"
    stdout, stderr = cwd / f"{job.id}.stdout", cwd / f"{job.id}.stderr"
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(report), "1" if traced else "0", *job.argv]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.perf_counter()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    record = {
        "job": job.id, "pass": pass_no, "traced": traced,
        "rc": rc, "wall_s": ended - started, "cpu_s": usage.ru_utime + usage.ru_stime,
        "units": {}, "ok": True, "error": None, "artifacts": {},
    }
    try:
        timing = json.loads(report.read_text(encoding="utf-8"))
        record["setup_s"] = timing["ready"] - started
        record["import_s"] = timing["import_s"]
        record["rss_mb"] = timing["peak_rss_kb"] / 1024
        if traced:
            record["agg"], record["counts"] = timing["agg"], timing["counts"]
            record["spans"] = timing["spans"]
    except (OSError, ValueError, KeyError) as exc:
        record.update(ok=False, error=f"no timing report: {exc}")
        return record
    outcome = Outcome(cwd, stdout.read_text(encoding="utf-8"), stderr.read_text(encoding="utf-8"))
    try:
        if rc != job.expect_rc:
            raise CheckError(f"exit code {rc}, expected {job.expect_rc}: {outcome.stderr.strip()[-300:]}")
        record["units"] = job.check(outcome)
        for name in job.artifacts:
            path = cwd / name
            if not path.is_file():
                raise CheckError(f"missing artifact {name}")
            record["artifacts"][name] = _sha256(path)
    except (CheckError, KeyError, TypeError, ValueError, OSError) as exc:
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return record


def _fail(record: dict, message: str) -> None:
    if record["ok"]:
        record.update(ok=False, error=message)


def check_artifacts(workload: str, seed: int, runs: list[dict]) -> None:
    """Artifacts repeat byte for byte across passes, and match the pins at the default seed."""
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {}) if seed == DEFAULT_SEED else None
    first: dict[str, str] = {}
    for record in runs:
        for name, digest in record["artifacts"].items():
            expected = first.setdefault(name, digest)
            if digest != expected:
                _fail(record, f"{name} differs from its first pass")
            if pins is not None and pins.get(name) != digest:
                _fail(record, f"{name} sha256 {digest[:12]} does not match the pinned bytes")


def check_counters(runs: list[dict]) -> dict[str, dict]:
    """Traced counts must repeat exactly for every job; returns them per job."""
    by_job: dict[str, dict] = {}
    for record in runs:
        if not record["traced"] or "counts" not in record:
            continue
        counts = dict(record["counts"])
        counts.update({f"{name}.calls": row[0] for name, row in record["agg"].items()})
        expected = by_job.setdefault(record["job"], counts)
        if counts != expected:
            changed = sorted(k for k in set(counts) | set(expected) if counts.get(k) != expected.get(k))
            _fail(record, f"counters differ between passes: {', '.join(changed[:5])}")
    return by_job


def reference_s() -> float:
    """Time one run of reference.py in a fresh process, as a job is timed."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "reference.py")], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - started


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](SRC / "tklock" / "corpus", seed)
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    load_start = os.getloadavg()
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    runs: list[dict] = []
    references: list[float] = []
    try:
        if not execute(WARMUP, work / "prep", False, -1)["ok"]:
            raise SystemExit(f"tklock.cli does not import: see {work / 'prep' / 'warmup.stderr'}")
        runs += [execute(job, work / "prep", False, -1) for job in workload.prep]
        jobs = workload.timed(work / "prep") if all(r["ok"] for r in runs) else []
        started = time.perf_counter()
        last_reference = -math.inf
        pass_no = 0
        while jobs:
            for job in jobs:
                if pass_no and time.perf_counter() - started >= seconds:
                    break
                if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    references.append(reference_s())
                    last_reference = time.perf_counter()
                runs.append(execute(job, work / f"pass{pass_no}", False, pass_no))
                if trace:
                    runs.append(execute(job, work / f"pass{pass_no}t", True, pass_no))
            else:
                pass_no += 1
                if time.perf_counter() - started < seconds:
                    continue
            break
        measured_s = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "started": started_at,
        "machine": machine_info(load_start), "code_sha256": tree_hash(SRC), "bench_sha256": tree_hash(BENCH),
        "passes": pass_no, "measured_s": measured_s, "counters": check_counters(runs),
    }
    check_artifacts(name, seed, runs)
    timed = [r for r in runs if r["pass"] >= 0 and not r["traced"]]
    result["end_to_end"] = end_to_end(runs, timed, references)
    result["reference_s"] = references
    if trace:
        check_repeat_counts(result, runs)
        result["spans_file"] = str(write_spans(name, seed, runs).relative_to(ROOT))
        aggregate = LayerAggregate(runs)
        result["per_layer"] = {metric: {"value": fn(aggregate), "unit": unit, "better": better}
                               for metric, unit, better, fn in PER_LAYER}
    for r in runs:
        r.pop("spans", None)
    result["runs"] = runs
    result["attempted"] = len(runs)
    result["failed"] = sum(1 for r in runs if not r["ok"])
    result["errors"] = [f"{r['job']} pass {r['pass']}{' traced' if r['traced'] else ''}: {r['error']}"
                        for r in runs if not r["ok"]]
    result["correct"] = not result["errors"] and bool(jobs)
    result["machine"]["loadavg_end"] = os.getloadavg()
    return result


# -- metrics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = (n - 10) * 100 // n
    return pct, sorted(values)[max(0, math.ceil(pct * n / 100) - 1)]


def _per_job_median(records: list[dict]) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for r in records:
        samples.setdefault(r["job"], []).append(r["wall_s"])
    return {job: statistics.median(v) for job, v in samples.items()}


def end_to_end(runs: list[dict], timed: list[dict], references: list[float]) -> dict:
    out: dict[str, dict] = {}
    job_median = _per_job_median(timed)
    per_job_n = [sum(1 for r in timed if r["job"] == j) for j in job_median]
    setup = [r["setup_s"] for r in timed if "setup_s" in r]
    if setup:
        out["setup_s"] = {"value": statistics.median(setup), "tail": tail(setup), "n": len(setup)}
    if job_median:
        out["wall_s"] = {"value": sum(job_median.values()), "n": min(per_job_n),
                         "note": "sum over jobs of each job's median time"}
        if references:
            reference = statistics.median(references)
            out["wall_rel"] = {"value": out["wall_s"]["value"] / reference, "n": len(references),
                               "note": f"wall_s over the median reference.py time, {reference:.4f} s"}
    units: dict[str, dict] = {}
    for r in timed:
        if r["ok"]:
            units.setdefault(r["job"], r["units"])
    for metric, (_, _, _, unit) in END_TO_END.items():
        jobs = [j for j in job_median if unit in units.get(j, {})]
        if unit and jobs:
            work = sum(units[j][unit] for j in jobs)
            busy = sum(job_median[j] for j in jobs)
            out[metric] = {"value": work / busy, "n": min(per_job_n), "work": work, "busy_s": busy}
    if timed:
        out["peak_rss_mb"] = {"value": max(r.get("rss_mb", 0.0) for r in timed)}
    failed = sum(1 for r in runs if not r["ok"])
    out["failed_frac"] = {"value": failed / len(runs) if runs else 1.0}
    for metric, body in out.items():
        body["unit"] = END_TO_END[metric][0]
    return out


class LayerAggregate:
    """Per-layer sums over jobs of each job's median traced figures."""

    def __init__(self, runs: list[dict]):
        traced = [r for r in runs if r["traced"] and r["ok"] and "agg" in r]
        plain = [r for r in runs if not r["traced"] and r["pass"] >= 0]
        by_job: dict[str, list[dict]] = {}
        for r in traced:
            by_job.setdefault(r["job"], []).append(r)
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.ncalls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        for records in by_job.values():
            names = set().union(*(r["agg"] for r in records))
            for name in names:
                rows = [r["agg"].get(name, [0, 0.0, 0.0]) for r in records]
                self.ncalls[name] = self.ncalls.get(name, 0) + rows[0][0]
                self.total[name] = self.total.get(name, 0.0) + statistics.median(row[1] for row in rows)
                self.self_time[name] = self.self_time.get(name, 0.0) + statistics.median(row[2] for row in rows)
            for key, value in records[0]["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
        self.import_s = statistics.median(r["import_s"] for r in plain) if plain else 0.0
        self.traced_wall_s = sum(_per_job_median(traced).values())
        self.plain_wall_s = sum(_per_job_median([r for r in plain if r["job"] in by_job]).values())

    def calls(self, span: str) -> int:
        return self.ncalls.get(span, 0)

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def self_s(self, span: str) -> float:
        return self.self_time.get(span, 0.0)

    def total_s(self, span: str) -> float:
        return self.total.get(span, 0.0)

    def rate(self, counter: str, span: str) -> float:
        busy = self.total_s(span)
        return self.count(counter) / busy if busy else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(v for name, v in self.self_time.items() if name.split(".", 1)[0] == layer)


def check_repeat_counts(result: dict, runs: list[dict]) -> None:
    """Counts must equal those of earlier traced runs of the same code and seed."""
    for path in sorted((OUT / "results").glob(f"{result['workload']}-s{result['seed']}-t1-*.json")):
        try:
            earlier = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if (earlier.get("code_sha256"), earlier.get("bench_sha256")) != (
                result["code_sha256"], result["bench_sha256"]):
            continue
        for job, counts in result["counters"].items():
            before = earlier.get("counters", {}).get(job)
            if before is not None and before != counts:
                for record in runs:
                    if record["job"] == job and record["traced"]:
                        _fail(record, f"counters differ from {path.name}")


def write_spans(workload: str, seed: int, runs: list[dict]) -> Path:
    """All spans of the traced runs, one per line: job, pass, index, name, start, end, parent."""
    path = OUT / "spans" / f"{workload}-s{seed}-{os.getpid()}.tsv.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("job\tpass\tindex\tname\tstart\tend\tparent\n")
        for r in runs:
            for index, (name, start, end, parent) in enumerate(r.get("spans", ())):
                fh.write(f"{r['job']}\t{r['pass']}\t{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    return path


# -- provenance ----------------------------------------------------------------


def tree_hash(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info(load_start) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "loadavg_start": load_start,
    }


# -- output --------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.4e}"


def print_table(result: dict) -> None:
    e2e = result["end_to_end"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  passes {result['passes']}  "
          f"measured {result['measured_s']:.1f} s  attempted {result['attempted']}  failed {result['failed']}")
    for metric, (unit, *_rest) in END_TO_END.items():
        body = e2e.get(metric)
        if body is None:
            print(f"  {metric:<26} {'n/a':>11} {unit:<12} not measured by this workload")
            continue
        extra = []
        if "tail" in body:
            extra.append(f"median; p{body['tail'][0]} {_fmt(body['tail'][1])}" if body["tail"] else "median")
        if "n" in body:
            extra.append(f"n={body['n']}" + {"setup_s": "", "wall_rel": " reference runs"}.get(metric, " per job"))
        if "note" in body:
            extra.append(body["note"])
        print(f"  {metric:<26} {_fmt(body['value']):>11} {unit:<12} {'; '.join(extra)}")
    for metric, body in result.get("per_layer", {}).items():
        print(f"  {metric:<44} {_fmt(body['value']):>11} {body['unit']}")
    for error in result["errors"][:20]:
        print(f"  FAILED {error}")


def gated_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result: dict, trace: bool) -> dict:
    values = {**result["end_to_end"], **result.get("per_layer", {})}
    metrics = {}
    for name, unit in gated_metrics(trace).items():
        body = values.get(name)
        metrics[name] = {"value": body["value"] if body else 0, "unit": unit}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def save(result: dict, out: str | None) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = Path(out) if out else OUT / "results" / (
        f"{result['workload']}-s{result['seed']}-t{result['trace']}-{stamp}-{os.getpid()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


# -- compare -------------------------------------------------------------------


def _load_results(target: str) -> list[dict]:
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, list[float]], change: dict[int, list[float]], better: str,
            bound: float) -> tuple[str, int, int]:
    """Sections 6.5 and 8 of the choosing-metrics guide, for one workload and
    metric. Runs are grouped by seed; pairs are runs of the same seed."""
    sign = 1 if better == "higher" else -1
    pairs = [(p, c) for seed in parent for p, c in zip(parent[seed], change.get(seed, []))]
    parent = [v for values in parent.values() for v in values]
    change = [v for values in change.values() for v in values]
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = _quartiles(parent)
    _, cmed, _ = _quartiles(change)
    spread = pq3 - pq1
    rel_spread = spread / abs(pmed) if pmed else 0.0
    gain = sign * (cmed - pmed)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pairs and len(pairs) >= 10 and won >= 0.9 * len(pairs) and gain > spread:
        return "improved", won, len(pairs)
    if rel_spread > bound and not all_better:
        return "unresolved", won, len(pairs)
    worse_by = -gain / abs(pmed) if pmed else (0.0 if gain >= 0 else math.inf)
    if worse_by > bound:
        return "worse", won, len(pairs)
    return "within bound", won, len(pairs)


def compare(parent_target: str, change_target: str) -> int:
    parent, change = _load_results(parent_target), _load_results(change_target)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def series(results, workload, trace, section, metric) -> dict[int, list[float]]:
        by_seed: dict[int, list[float]] = {}
        for r in sorted(results, key=lambda r: r["started"]):
            if r["workload"] == workload and r["trace"] == trace and metric in r.get(section, {}):
                by_seed.setdefault(r["seed"], []).append(r[section][metric]["value"])
        return by_seed

    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print(f"{'workload':<10} {'metric':<24} {'unit':<12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>8} verdict")
    for workload in workloads:
        for metric, (unit, better, default_bound, _) in END_TO_END.items():
            p = series(parent, workload, 0, "end_to_end", metric)
            c = series(change, workload, 0, "end_to_end", metric)
            if not p or not c:
                continue
            word, won, n = verdict(p, c, better, bounds.get(metric, default_bound))
            cells = []
            for side in (p, c):
                q1, med, q3 = _quartiles([v for values in side.values() for v in values])
                cells.append(f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]")
            print(f"{workload:<10} {metric:<24} {unit:<12} {cells[0]:>30} {cells[1]:>30} {won:>4}/{n:<3} {word}")
    print("\nper-layer medians from the traced runs (change - parent)")
    for workload in workloads:
        for metric, unit, _, _ in PER_LAYER:
            p = series(parent, workload, 1, "per_layer", metric)
            c = series(change, workload, 1, "per_layer", metric)
            p = [v for values in p.values() for v in values]
            c = [v for values in c.values() for v in values]
            if not p or not c or (not any(p) and not any(c)):
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            ratio = f"x{cm / pm:.3f}" if pm else "new"
            print(f"{workload:<10} {metric:<44} {_fmt(pm):>11} -> {_fmt(cm):>11} {unit:<9} "
                  f"{_fmt(cm - pm):>11}  {ratio}")
    return 0


# -- main ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file path (default: .bench_out/results/...)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two sets of result files (files or directories)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("give --workload or --compare")
    if not (SRC / "tklock" / "cli.py").is_file():
        print(f"no tklock sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the negative-control check replays through tklock
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = save(result, args.out if len(names) == 1 else None)
        print_table(result)
        print(f"  result file: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
        results.append(result)
    if len(results) == 1:
        line = result_line(results[0], bool(args.trace))
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": v for r in results
                            for k, v in result_line(r, bool(args.trace))["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
