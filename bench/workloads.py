"""The three workloads: the ``tklock`` CLI jobs each one runs, and the checks
on every job's exit code, verdict and output files.

A job's argv names corpus files by absolute path and its own artifacts by
bare file name; it runs with the pass directory as its working directory, so
the artifacts of one pass sit together. Preparation jobs run once, untimed,
in ``prep/``; timed jobs read their outputs as ``../prep/<file>``.

Every input is drawn from the workload seed: the lock seeds, the ``verify
--seed``, the ``attack --seed`` and the ``sim --random-seed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ITC'99-class lock configurations (stem, k, ki, locked flip-flops).
LOCKFLOW_CONFIGS = (
    ("b03_like", 2, 4, 1),
    ("b04_like", 4, 11, 1),
    ("b08_like", 4, 9, 1),
    ("b10_like", 4, 11, 1),
    ("b11_like", 2, 7, 1),
    ("b12_like", 2, 5, 1),
    ("b14_like", 8, 3, 16),
)
MACHINES = ("detector1001", "handshake", "serial_adder", "single", "toggle")
VERIFY_SEQUENCES, VERIFY_CYCLES = 1000, 64
README_KEYS = "01,11,10,00"  # the s27 lock of the README: k=4, ki=2, seed 7
XSIM_CONFIGS = (  # (stem, k, ki, locked flip-flops, cycles)
    ("b14_like", 8, 3, 16, 256),
    ("b12_like", 2, 5, 1, 512),
    ("b04_like", 4, 11, 1, 64),
)
OVERRIDE_CYCLE = 3
# The s27 k4/ki3 sweep's size depends on which flip-flop is locked, not on the
# schedule: 11,700 joint states with G7 for every schedule tried, 23,978 with
# G5, 18.7k-21k with G6. A seeded choice would halve or double the work
# between seeds, so the target is fixed and the seed draws the schedule.
K4KI3_TARGET = "G7"


class CheckError(Exception):
    """A job's exit code, verdict or output is not what the workload expects."""


@dataclass
class Outcome:
    """What a finished job left behind, as the checks see it."""

    cwd: Path
    stdout: str
    stderr: str

    def text(self, name: str) -> str:
        path = self.cwd / name
        if not path.is_file():
            raise CheckError(f"missing output file {name}")
        return path.read_text(encoding="utf-8")

    def json(self, name: str | None = None):
        try:
            return json.loads(self.stdout if name is None else self.text(name))
        except json.JSONDecodeError as exc:
            raise CheckError(f"bad JSON in {name or 'stdout'}: {exc}") from None


@dataclass
class Job:
    id: str
    argv: list[str]
    check: Callable[[Outcome], dict]  # raises CheckError; returns work units
    artifacts: tuple[str, ...] = ()  # files hashed and compared across passes
    expect_rc: int = 0


@dataclass
class Workload:
    prep: list[Job]
    timed: Callable[[Path], list[Job]]  # built from the prep directory


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _gate_count(bench_text: str) -> int:
    return sum(1 for line in bench_text.splitlines() if " = " in line and "= DFF(" not in line)


def _schedule(manifest: dict) -> str:
    sched = manifest["schedule"]
    return ",".join(format(v, f"0{sched['width']}b") for v in sched["keys"])


# -- checks ---------------------------------------------------------------


def _check_lock_str(stem: str, k: int, ki: int, ffs: int):
    def check(out: Outcome) -> dict:
        manifest = out.json(f"{stem}.manifest.json")
        _require(len(manifest["schedule"]["keys"]) == k, "schedule period differs from --k")
        _require(manifest["schedule"]["width"] == ki, "schedule width differs from --ki")
        _require(len(manifest["locked_ffs"]) == ffs, "locked flip-flop count differs from --ffs")
        return {"gates": _gate_count(out.text(f"{stem}.locked.bench"))}

    return check


def _check_report(stem: str, orig: Path):
    def check(out: Outcome) -> dict:
        doc = out.json(f"{stem}.report.json")
        locked_gates = _gate_count(out.text(f"{stem}.locked.bench"))
        orig_gates = _gate_count(orig.read_text(encoding="utf-8"))
        _require(doc["locked"]["gates"] == locked_gates, "report locked gate count is wrong")
        _require(doc["delta"]["gates"] == locked_gates - orig_gates, "report gate delta is wrong")
        rows = out.text(f"{stem}.report.csv").splitlines()
        _require(len(rows) == 2 and rows[1].startswith(f"{stem},"), "report CSV is malformed")
        return {}

    return check


def _check_equivalent(mode: str, depth: int, units: dict):
    def check(out: Outcome) -> dict:
        doc = out.json()
        _require(doc.get("equivalent") is True, "correct key schedule not reported equivalent")
        _require(doc.get("mode") == mode and doc.get("depth") == depth, "verdict mode or depth is wrong")
        return units

    return check


def _check_lock_beh(stem: str, k: int, ki: int):
    def check(out: Outcome) -> dict:
        manifest = out.json(f"{stem}.manifest.json")
        _require(len(manifest["schedule"]["keys"]) == k, "schedule period differs from --k")
        _require(manifest["schedule"]["width"] == ki, "schedule width differs from --ki")
        _require(out.text(f"{stem}.locked.kiss2").startswith(".i "), "locked KISS2 is malformed")
        return {}

    return check


def _check_negative(orig: Path, locked_name: str, static_key: str):
    """A wrong static key must be caught, and its counterexample must replay."""

    def check(out: Outcome) -> dict:
        doc = out.json()
        _require(doc.get("equivalent") is False, "wrong static key reported equivalent")
        _require('"not-equivalent"' in out.stderr, "no not-equivalent diagnostic on stderr")
        from tklock.analysis import Counterexample, replay_counterexample
        from tklock.circuit import parse_bench
        from tklock.sim import KeyPolicy

        cex = doc["counterexample"]

        def value(v):
            return None if v == "x" else int(v)

        counterexample = Counterexample(
            inputs=[tuple(int(b) for b in row) for row in cex["inputs"]],
            cycle=cex["cycle"],
            output=cex["output"],
            left_value=value(cex["left_value"]),
            right_value=value(cex["right_value"]),
        )
        a = parse_bench(orig.read_text(encoding="utf-8"), name=orig.stem)
        b = parse_bench(out.text(locked_name), name="locked")
        policy = KeyPolicy.static(int(static_key, 2))
        _require(replay_counterexample(a, b, counterexample, policy), "counterexample does not replay")
        return {}

    return check


def _check_attack(report: str, space: int, manifest: Path | None, static_empty: bool = False):
    def check(out: Outcome) -> dict:
        doc = out.json(report)
        _require(out.text(report) == out.stdout, "attack stdout differs from --out file")
        _require(doc["search_space_size"] == space, f"search space {doc['search_space_size']} != {space}")
        if static_empty:
            _require(doc["survivors"] == [], "static attack found a key")
        if manifest is not None:
            truth = _schedule(json.loads(manifest.read_text(encoding="utf-8")))
            _require(truth in doc["survivors"], f"generating schedule {truth} not among survivors")
        return {"candidates": space}

    return check


def _check_sim(name: str, cycles: int, watch: list[str]):
    def check(out: Outcome) -> dict:
        rows = out.text(name).splitlines()
        _require(len(rows) == cycles + 1, f"trace has {len(rows) - 1} rows, expected {cycles}")
        header = rows[0].split(",")
        _require(header[0] == "cycle" and header[-len(watch):] == watch, "trace header is wrong")
        _require(all(len(r.split(",")) == len(header) for r in rows), "ragged trace row")
        _require(any("x" in r.split(",") for r in rows[1:]), "3-valued trace holds no unknown")
        return {"cycles": cycles}

    return check


# -- workloads ------------------------------------------------------------


def _lock_str_job(corpus: Path, stem: str, k: int, ki: int, ffs: int, seed: int, name: str | None = None,
                  keys: str | None = None, targets: str | None = None) -> Job:
    name = name or stem
    argv = ["lock-str", "--in", str(corpus / f"{stem}.bench"), "--k", str(k), "--ki", str(ki),
            "--ffs", str(ffs), "--seed", str(seed), "--out", f"{name}.locked.bench",
            "--manifest", f"{name}.manifest.json"]
    if keys:
        argv += ["--keys", keys]
    if targets:
        argv += ["--targets", targets]
    return Job(f"lock-str.{name}", argv, _check_lock_str(name, k, ki, ffs),
               (f"{name}.locked.bench", f"{name}.manifest.json"))


def lockflow(corpus: Path, seed: int) -> Workload:
    rng = random.Random(f"lockflow/{seed}")
    jobs: list[Job] = []
    for stem, k, ki, ffs in LOCKFLOW_CONFIGS:
        orig = corpus / f"{stem}.bench"
        jobs.append(_lock_str_job(corpus, stem, k, ki, ffs, rng.randrange(1 << 16)))
        jobs.append(Job(
            f"report.{stem}",
            ["report", "--orig", str(orig), "--locked", f"{stem}.locked.bench",
             "--manifest", f"{stem}.manifest.json", "--out", f"{stem}.report.json", "--csv", f"{stem}.report.csv"],
            _check_report(stem, orig), (f"{stem}.report.json", f"{stem}.report.csv"),
        ))
        jobs.append(Job(
            f"verify.{stem}",
            ["verify", "--orig", str(orig), "--locked", f"{stem}.locked.bench", "--manifest", f"{stem}.manifest.json",
             "--mode", "random", "--sequences", str(VERIFY_SEQUENCES), "--cycles", str(VERIFY_CYCLES),
             "--seed", str(rng.randrange(1 << 16))],
            _check_equivalent("random", VERIFY_CYCLES, {"seq_cycles": VERIFY_SEQUENCES * VERIFY_CYCLES}),
            (f"verify.{stem}.stdout",),
        ))
    for machine in MACHINES:
        jobs.append(Job(
            f"lock-beh.{machine}",
            ["lock-beh", "--in", str(corpus / f"{machine}.kiss2"), "--k", "4", "--ki", "2",
             "--seed", str(rng.randrange(1 << 16)), "--out", f"{machine}.locked.kiss2",
             "--manifest", f"{machine}.manifest.json"],
            _check_lock_beh(machine, 4, 2), (f"{machine}.locked.kiss2", f"{machine}.manifest.json"),
        ))
    b14 = corpus / "b14_like.bench"
    jobs.append(Job(
        "negative.b14_like",
        ["verify", "--orig", str(b14), "--locked", "b14_like.locked.bench", "--static-key", "000",
         "--mode", "random", "--sequences", str(VERIFY_SEQUENCES), "--cycles", str(VERIFY_CYCLES),
         "--seed", str(rng.randrange(1 << 16))],
        _check_negative(b14, "b14_like.locked.bench", "000"), ("negative.b14_like.stdout",), expect_rc=1,
    ))
    return Workload([], lambda prep_dir: jobs)


def keysearch(corpus: Path, seed: int) -> Workload:
    rng = random.Random(f"keysearch/{seed}")
    s27 = corpus / "s27.bench"
    b06 = corpus / "b06_like.bench"
    prep = [
        _lock_str_job(corpus, "s27", 4, 2, 1, 7, keys=README_KEYS),
        _lock_str_job(corpus, "s27", 4, 3, 1, rng.randrange(1 << 16), name="s27_k4ki3", targets=K4KI3_TARGET),
        _lock_str_job(corpus, "b06_like", 4, 2, 2, rng.randrange(1 << 16)),
    ]
    attack_seed = str(rng.randrange(1 << 16))

    def timed(prep_dir: Path) -> list[Job]:
        def attack(name: str, orig: Path, mode: str, space: int, static_empty: bool = False) -> Job:
            report = f"attack.{mode}.{name}.json"
            manifest = None if mode == "static" else prep_dir / f"{name}.manifest.json"
            return Job(
                f"attack.{mode}.{name}",
                ["attack", "--orig", str(orig), "--locked", f"../prep/{name}.locked.bench",
                 "--manifest", f"../prep/{name}.manifest.json", "--mode", mode, "--seed", attack_seed,
                 "--out", report],
                _check_attack(report, space, manifest, static_empty), (report,),
            )

        return [
            Job(
                "verify.exhaustive.s27",
                ["verify", "--orig", str(s27), "--locked", "../prep/s27.locked.bench",
                 "--manifest", "../prep/s27.manifest.json", "--mode", "exhaustive", "--depth", "6",
                 "--budget", str(2**24)],
                _check_equivalent("exhaustive", 6, {}), ("verify.exhaustive.s27.stdout",),
            ),
            attack("s27", s27, "bruteforce", 256),
            attack("s27", s27, "static", 4, static_empty=True),
            attack("s27_k4ki3", s27, "bruteforce", 4096),
            attack("b06_like", b06, "bruteforce", 256),
        ]

    return Workload(prep, timed)


def xsim(corpus: Path, seed: int) -> Workload:
    rng = random.Random(f"xsim/{seed}")
    prep = [
        _lock_str_job(corpus, stem, k, ki, ffs, rng.randrange(1 << 16))
        for stem, k, ki, ffs, _ in XSIM_CONFIGS
    ]
    sim_seeds = [rng.randrange(1 << 16) for _ in XSIM_CONFIGS]

    def timed(prep_dir: Path) -> list[Job]:
        jobs = []
        for (stem, k, ki, _, cycles), sim_seed in zip(XSIM_CONFIGS, sim_seeds):
            manifest = json.loads((prep_dir / f"{stem}.manifest.json").read_text(encoding="utf-8"))
            keys = manifest["schedule"]["keys"]
            wrong = format(keys[OVERRIDE_CYCLE % k] ^ 1, f"0{ki}b")
            watch = manifest["onehot_time_nets"] + [ff["ff_output_net"] for ff in manifest["locked_ffs"][:4]]
            trace = f"{stem}.trace.csv"
            jobs.append(Job(
                f"sim.{stem}",
                ["sim", "--in", f"../prep/{stem}.locked.bench", "--manifest", f"../prep/{stem}.manifest.json",
                 "--cycles", str(cycles), "--random-seed", str(sim_seed), "--init", "x",
                 "--override", f"{OVERRIDE_CYCLE}={wrong}", "--watch", ",".join(watch), "--trace", trace],
                _check_sim(trace, cycles, watch), (trace,),
            ))
        return jobs

    return Workload(prep, timed)


WORKLOADS = {"lockflow": lockflow, "keysearch": keysearch, "xsim": xsim}
