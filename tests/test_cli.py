import csv
import gc
import io
import json
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tklock import circuit, corpus
from tklock.circuit import write_bench
from tklock.cli import main
from tklock.fsm import FsmError
from tklock.keys import generate_key_schedule
from tklock.structural import lock_structural


@pytest.fixture()
def s27_path(tmp_path):
    path = tmp_path / "s27.bench"
    path.write_text(corpus.read_text("s27.bench"), encoding="utf-8")
    return path


def _lock(tmp_path, s27_path, extra=()):
    out = tmp_path / "s27_locked.bench"
    manifest = tmp_path / "s27.manifest"
    code = main(
        [
            "lock-str",
            "--in", str(s27_path),
            "--k", "4",
            "--ki", "2",
            "--keys", "01,11,10,00",
            "--ffs", "1",
            "--seed", "7",
            "--out", str(out),
            "--manifest", str(manifest),
            *extra,
        ]
    )
    assert code == 0
    return out, manifest


def test_lock_str_writes_artifacts(tmp_path, s27_path):
    out, manifest = _lock(tmp_path, s27_path)
    assert out.exists() and manifest.exists()
    doc = json.loads(manifest.read_text())
    assert doc["schedule"] == {"keys": [1, 3, 2, 0], "width": 2}
    assert doc["layers"] == 3


def test_lock_str_writes_the_write_bench_text(tmp_path, s27_path):
    """The locked file, written line by line, holds the bytes of
    `write_bench` on the locked netlist."""
    from tklock.keys import parse_key_list

    out, _ = _lock(tmp_path, s27_path)
    s27 = circuit.parse_bench(s27_path.read_text(), name="s27")
    locked, _ = lock_structural(s27, parse_key_list("01,11,10,00"), seed=7)
    assert out.read_bytes() == write_bench(locked).encode("utf-8")


def test_lock_str_byte_deterministic(tmp_path, s27_path):
    out, manifest = _lock(tmp_path, s27_path)
    first = (out.read_bytes(), manifest.read_bytes())
    out, manifest = _lock(tmp_path, s27_path)
    assert (out.read_bytes(), manifest.read_bytes()) == first


def test_lock_str_keys_file_writes_what_keys_writes(tmp_path, s27_path):
    keys_file = tmp_path / "keys.txt"
    keys_file.write_text("01\n11\n10\n00\n", encoding="utf-8")
    out, manifest = _lock(tmp_path, s27_path)
    by_keys = (out.read_bytes(), manifest.read_bytes())
    argv = ["lock-str", "--in", str(s27_path), "--k", "4", "--ki", "2", "--ffs", "1", "--seed", "7",
            "--out", str(out), "--manifest", str(manifest), "--keys-file", str(keys_file)]
    assert main(argv) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == by_keys


def test_schedule_flags_drive_keys_as_the_manifest_does(tmp_path, s27_path, capsys):
    """verify --keys and sim --keys-file, without --manifest, print the
    verdict and the trace that the manifest's schedule gives."""
    out, manifest = _lock(tmp_path, s27_path)
    keys_file = tmp_path / "keys.txt"
    keys_file.write_text("01\n11\n10\n00\n", encoding="utf-8")
    verify = ["verify", "--orig", str(s27_path), "--locked", str(out)]
    sim = ["sim", "--in", str(out), "--cycles", "8"]
    for run, schedule in ((verify, ["--keys", "01,11,10,00"]), (sim, ["--keys-file", str(keys_file)])):
        capsys.readouterr()
        assert main([*run, "--manifest", str(manifest)]) == 0
        by_manifest = capsys.readouterr().out
        assert main([*run, *schedule]) == 0
        assert capsys.readouterr().out == by_manifest


def test_lock_str_targets_set_the_count(tmp_path, s27_path):
    """--targets locks the named flip-flops without --ffs, with the bytes
    --ffs 2 gives."""
    written = []
    for ffs in ((), ("--ffs", "2")):
        out, manifest = tmp_path / f"o{len(written)}.bench", tmp_path / f"m{len(written)}.json"
        argv = ["lock-str", "--in", str(s27_path), "--k", "4", "--ki", "2", "--targets", "G5,G6",
                "--out", str(out), "--manifest", str(manifest), *ffs]
        assert main(argv) == 0
        written.append((out.read_bytes(), manifest.read_bytes()))
    doc = json.loads(written[0][1])
    assert [ff["ff_output_net"] for ff in doc["locked_ffs"]] == ["G5", "G6"]
    assert written[0] == written[1]


def test_verify_exhaustive_passes(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(
        [
            "verify",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--manifest", str(manifest),
            "--mode", "exhaustive",
            "--depth", "6",
            "--budget", str(2**24),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is True


def test_verify_wrong_static_key_fails_with_diagnostics(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(
        [
            "verify",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--static-key", "01",
            "--mode", "exhaustive",
            "--depth", "6",
            "--budget", str(2**24),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["equivalent"] is False
    assert "counterexample" in doc
    diag = json.loads(captured.err)
    assert diag["error"] == "not-equivalent"


@pytest.mark.parametrize(
    "run",
    [
        ["--mode", "random", "--sequences", "0"],
        ["--mode", "random", "--cycles", "0"],
        ["--mode", "exhaustive", "--depth", "0"],
    ],
)
def test_verify_vacuous_run_rejected(tmp_path, s27_path, capsys, run):
    # 00 is a wrong static key for the locked s27; an empty run would pass it
    out, _ = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(
        ["verify", "--orig", str(s27_path), "--locked", str(out), "--static-key", "00", *run]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-input"


def test_verify_budget_exceeded(tmp_path, s27_path, capsys):
    # the depth-6 sweep expands 24 joint states
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(
        [
            "verify",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--manifest", str(manifest),
            "--mode", "exhaustive",
            "--depth", "6",
            "--budget", "10",
        ]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "budget-exceeded"


def test_verify_readme_flow_needs_no_budget(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(
        [
            "verify",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--manifest", str(manifest),
            "--mode", "exhaustive",
            "--depth", "6",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] is True


def test_attack_bruteforce_recovers_schedule(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    report = tmp_path / "attack.json"
    code = main(
        [
            "attack",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--manifest", str(manifest),
            "--mode", "bruteforce",
            "--out", str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["search_space_size"] == 256
    assert "01,11,10,00" in doc["survivors"]
    assert "elapsed" not in doc


def test_attack_static_empty_survivors(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(
        [
            "attack",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--manifest", str(manifest),
            "--mode", "static",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["survivors"] == []


def test_attack_static_needs_only_key_width(tmp_path, s27_path, capsys):
    out, _ = _lock(tmp_path, s27_path)
    capsys.readouterr()
    argv = ["attack", "--orig", str(s27_path), "--locked", str(out), "--ki", "2"]
    assert main([*argv, "--mode", "static"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["search_space_size"] == 4
    assert doc["survivors"] == []
    # a schedule search still needs the number of key values
    assert main([*argv, "--mode", "bruteforce"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


def _attack_k2_ki1_lock(tmp_path, stem, *args) -> int:
    """Run `attack` against a k=2/ki=1 lock of `stem` with `args` appended."""
    orig = tmp_path / f"{stem}.bench"
    orig.write_text(corpus.read_text(f"{stem}.bench"), encoding="utf-8")
    locked, _ = lock_structural(corpus.load_bench(stem), generate_key_schedule(2, 1, 5), seed=5)
    locked_path = tmp_path / f"{stem}.locked.bench"
    locked_path.write_text(write_bench(locked), encoding="utf-8")
    return main(["attack", "--orig", str(orig), "--locked", str(locked_path), *args])


def test_attack_b14_k8_ki3_runs_under_the_default_budget(tmp_path, capsys):
    # 2^24 candidates; the prefix search takes a few hundred locked steps
    orig = tmp_path / "b14_like.bench"
    orig.write_text(corpus.read_text("b14_like.bench"), encoding="utf-8")
    locked, manifest = tmp_path / "b14.locked.bench", tmp_path / "b14.manifest.json"
    lock = ["lock-str", "--in", str(orig), "--k", "8", "--ki", "3", "--ffs", "16", "--seed", "5"]
    assert main([*lock, "--out", str(locked), "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    argv = ["attack", "--orig", str(orig), "--locked", str(locked), "--manifest", str(manifest)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    schedule = json.loads(manifest.read_text())["schedule"]
    assert doc["equivalence"] == "random"
    assert doc["search_space_size"] == 2**24
    assert doc["survivors"] == [",".join(format(v, "03b") for v in schedule["keys"])]


@pytest.mark.parametrize("stem", ["s27", "b08_like"])
def test_attack_depth_below_one_rejected(tmp_path, capsys, stem):
    # s27 is attacked exhaustively, b08_like (9 non-key inputs) at random
    code = _attack_k2_ki1_lock(tmp_path, stem, "--k", "2", "--ki", "1", "--depth", "0")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-input"


@pytest.mark.parametrize("k,ki,name", [("2", "-1", "key_bits"), ("-2", "1", "num_keys")])
@pytest.mark.parametrize("stem", ["s27", "b08_like"])
def test_attack_key_shape_below_one_rejected(tmp_path, capsys, stem, k, ki, name):
    code = _attack_k2_ki1_lock(tmp_path, stem, "--k", k, "--ki", ki)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "invalid-input" and name in diag["detail"]


def test_report_outputs_counts(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    csv_path = tmp_path / "overhead.csv"
    code = main(
        [
            "report",
            "--orig", str(s27_path),
            "--locked", str(out),
            "--manifest", str(manifest),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"]["gates"] == 59
    assert doc["per_ff_mux_count"] == 15
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("circuit,orig_gates")
    assert rows[1].startswith("s27,10,69,59")


def test_report_out_writes_what_stdout_prints(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    argv = ["report", "--orig", str(s27_path), "--locked", str(out), "--manifest", str(manifest)]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    report = tmp_path / "report.json"
    assert main([*argv, "--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert report.read_text(encoding="utf-8") == printed


def test_report_csv_quotes_the_circuit_name(tmp_path, s27_path, capsys):
    # the circuit name is the file stem, which may hold a comma
    orig = tmp_path / "my,s27.bench"
    s27_path.rename(orig)
    out, manifest = _lock(tmp_path, orig)
    csv_path = tmp_path / "overhead.csv"
    argv = ["report", "--orig", str(orig), "--locked", str(out), "--manifest", str(manifest)]
    assert main([*argv, "--csv", str(csv_path)]) == 0
    text = csv_path.read_text(encoding="utf-8")
    assert text.splitlines()[1].startswith('"my,s27",10,69,59,')
    header, row = csv.reader(io.StringIO(text))
    assert len(row) == len(header) == 8
    assert row[0] == "my,s27"


def test_sim_trace_csv(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "sim",
            "--in", str(out),
            "--cycles", "8",
            "--manifest", str(manifest),
            "--random-seed", "5",
            "--trace", str(trace),
        ]
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("cycle,G0,G1,G2,G3,keyinput0,keyinput1,G17")
    assert len(lines) == 9


def test_sim_random_stimulus_is_the_seeded_draw(tmp_path, s27_path, capsys):
    """`--random-seed` traces the rows `random.Random(seed)` draws bit by bit."""
    out, manifest = _lock(tmp_path, s27_path)
    draw = random.Random(5).randint
    stim = tmp_path / "stim.txt"
    stim.write_text("".join("".join(str(draw(0, 1)) for _ in range(4)) + "\n" for _ in range(8)),
                    encoding="utf-8")
    run = ["sim", "--in", str(out), "--manifest", str(manifest)]
    random_trace, file_trace = tmp_path / "random.csv", tmp_path / "file.csv"
    assert main([*run, "--cycles", "8", "--random-seed", "5", "--trace", str(random_trace)]) == 0
    assert main([*run, "--stimulus", str(stim), "--trace", str(file_trace)]) == 0
    assert random_trace.read_bytes() == file_trace.read_bytes()


def test_sim_stimulus_file_and_override(tmp_path, s27_path, capsys):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    stim = tmp_path / "stim.txt"
    stim.write_text("0101\n1010\n1111\n0000\n", encoding="utf-8")
    code = main(
        [
            "sim",
            "--in", str(out),
            "--stimulus", str(stim),
            "--manifest", str(manifest),
            "--override", "1=00",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    # keyinput columns at cycle 1 show the override value 00
    header = lines[0].split(",")
    row1 = lines[1 + 1].split(",")
    assert row1[header.index("keyinput0")] == "0"
    assert row1[header.index("keyinput1")] == "0"


def test_sim_stimulus_comments_ignored(tmp_path, s27_path, capsys):
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("0101\n1010\n", encoding="utf-8")
    commented.write_text("# rows\n  # indented note\n0101  # trailing note\n\t1010\n", encoding="utf-8")
    traces = []
    for stim in (plain, commented):
        assert main(["sim", "--in", str(s27_path), "--stimulus", str(stim)]) == 0
        traces.append(capsys.readouterr().out)
    assert traces[1] == traces[0]
    assert len(traces[0].splitlines()) == 3


@pytest.mark.parametrize(
    "run",
    [["--cycles", "0"], ["--cycles", "-3"], ["--stimulus", ""], ["--stimulus", "# none\n"]],
    ids=["cycles-0", "cycles-negative", "empty-file", "comment-only-file"],
)
def test_sim_empty_run_rejected(tmp_path, s27_path, capsys, run):
    if run[0] == "--stimulus":
        stim = tmp_path / "stim.txt"
        stim.write_text(run[1], encoding="utf-8")
        run = ["--stimulus", str(stim)]
    code = main(["sim", "--in", str(s27_path), *run])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-input"


@pytest.mark.parametrize(
    "keying",
    [["--static-key", "01", "--override", "3=00"], ["--override", "3=00"]],
)
def test_sim_override_without_schedule_rejected(tmp_path, s27_path, capsys, keying):
    out, _ = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(["sim", "--in", str(out), "--cycles", "4", *keying])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "invalid-input"
    assert "--override" in diag["detail"]


@pytest.mark.parametrize("item", ["x=01", "3", "3=", "3=0x"])
def test_sim_malformed_override_names_the_flag(tmp_path, s27_path, capsys, item):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(["sim", "--in", str(out), "--cycles", "4", "--manifest", str(manifest), "--override", item])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "invalid-input"
    assert diag["detail"].startswith(f"--override '{item}' is not CYCLE=BITS")


def test_sim_unknown_watch_net_rejected(s27_path, capsys):
    code = main(["sim", "--in", str(s27_path), "--cycles", "2", "--watch", "G10,nope"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "invalid-input"
    assert "'nope'" in diag["detail"]


def test_report_gateless_original_rejected(tmp_path, capsys):
    orig = tmp_path / "bare.bench"
    orig.write_text("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n", encoding="utf-8")
    locked, manifest = tmp_path / "bare_locked.bench", tmp_path / "bare.manifest"
    lock = ["lock-str", "--in", str(orig), "--k", "2", "--ki", "1"]
    assert main([*lock, "--out", str(locked), "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    code = main(["report", "--orig", str(orig), "--locked", str(locked), "--manifest", str(manifest)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-input"


def test_sim_x_init_shows_unknowns(tmp_path, s27_path, capsys):
    stim = tmp_path / "stim.txt"
    stim.write_text("0101\n", encoding="utf-8")
    code = main(["sim", "--in", str(s27_path), "--stimulus", str(stim), "--init", "x"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "0,0,1,0,1,x"


def test_lock_beh_round_trip(tmp_path, capsys):
    src = tmp_path / "detector.kiss2"
    src.write_text(corpus.read_text("detector1001.kiss2"), encoding="utf-8")
    out = tmp_path / "detector_locked.kiss2"
    manifest = tmp_path / "detector.manifest"
    code = main(
        [
            "lock-beh",
            "--in", str(src),
            "--k", "4",
            "--ki", "4",
            "--seed", "11",
            "--out", str(out),
            "--manifest", str(manifest),
        ]
    )
    assert code == 0
    from tklock.fsm import parse_kiss2

    locked = parse_kiss2(out.read_text())
    assert len(locked.states) == 16
    assert locked.input_width == 5


def test_lock_beh_writes_what_the_library_writes(tmp_path):
    """The locked KISS2 file and manifest hold the bytes of `write_kiss2` and
    `to_json` for the library lock with the same k, ki and seed."""
    from tklock.behavioral import lock_behavioral
    from tklock.fsm import parse_kiss2, write_kiss2

    text = corpus.read_text("detector1001.kiss2")
    src = tmp_path / "detector.kiss2"
    src.write_text(text, encoding="utf-8")
    out, manifest = tmp_path / "locked.kiss2", tmp_path / "locked.manifest"
    argv = ["lock-beh", "--in", str(src), "--k", "3", "--ki", "2", "--seed", "5",
            "--out", str(out), "--manifest", str(manifest)]
    assert main(argv) == 0
    locked, lock_manifest = lock_behavioral(parse_kiss2(text), generate_key_schedule(3, 2, 5), 5)
    assert out.read_bytes() == write_kiss2(locked).encode("utf-8")
    assert manifest.read_bytes() == lock_manifest.to_json().encode("utf-8")


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, zz)\n", encoding="utf-8")
    code = main(
        [
            "lock-str",
            "--in", str(bad),
            "--k", "2", "--ki", "1",
            "--out", str(tmp_path / "o.bench"),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse-error"
    assert "undefined fanin" in diag["detail"]


def test_kiss2_bad_header_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.kiss2"
    bad.write_text(".i x\n.o 1\n- s s 0\n", encoding="utf-8")
    code = main(
        [
            "lock-beh",
            "--in", str(bad),
            "--k", "2", "--ki", "1",
            "--out", str(tmp_path / "o.kiss2"),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse-error"
    assert diag["detail"].startswith("line 1:")


def _raise_fsm_error(fsm):
    raise FsmError("nondeterministic transitions from 's': patterns '0' and '-' overlap")


_S27 = corpus.read_text("s27.bench")
_DETECTOR = corpus.read_text("detector1001.kiss2")
_LOCK_STR = ["lock-str", "--in", "{bench}", "--k", "2", "--ki", "1", "--out", "{tmp}/o.bench",
             "--manifest", "{tmp}/m.json"]
_LOCK_BEH = ["lock-beh", "--in", "{kiss2}", "--k", "2", "--ki", "1", "--out", "{tmp}/o.kiss2",
             "--manifest", "{tmp}/m.json"]


_MANIFEST_RUN = ["--orig", "{bench}", "--locked", "{bench}", "--manifest", "{tmp}/m.json"]
# s27 locked k2/ki1, for the rows whose job must run before it fails
_LOCKED_S27, _LOCKED_S27_MANIFEST = lock_structural(circuit.parse_bench(_S27), generate_key_schedule(2, 1, 0))
_LOCKED_RUN = ["--orig", "{bench}", "--locked", "{locked}", "--manifest", "{manifest}"]
_NO_FILE = "No such file or directory: ''"


_ERROR_KINDS = pytest.mark.parametrize(
    "argv,bench,kiss2,patch,kind,detail",
    [
        (_LOCK_STR, "INPUT(a)\nOUTPUT(y)\ny = AND(a, zz)\n", None, None,
         "parse-error", "line 3: undefined fanin net 'zz'"),
        (_LOCK_BEH, None, ".i 1\n.o 1\n.s 2\n0 s s 1\n1 s s 0\n", None,
         "parse-error", "line 3: .s declares 2 states, found 1"),
        (["verify", "--orig", "{bench}", "--locked", "{bench}", "--budget", "1"], _S27, None, None,
         "budget-exceeded", "reachable-state budget 1 exceeded"),
        (["lock-str", "--in", "{bench}", "--k", "3", "--ki", "1", "--out", "{tmp}/o.bench",
          "--manifest", "{tmp}/m.json"], _S27, None, None,
         "invalid-input", "num_keys must be a power of two"),
        # the parser turns every FsmError into a parse error, so a stand-in raises one from the locker
        (_LOCK_BEH, None, _DETECTOR, ("tklock.behavioral.check_fsm", _raise_fsm_error),
         "invalid-input", "nondeterministic transitions from 's'"),
        (_LOCK_STR, None, None, None, "io-error", "No such file or directory"),
        # a --keys schedule must have --k values of --ki bits
        ([*_LOCK_STR, "--keys", "0,1,0,1"], _S27, None, None,
         "invalid-input", "schedule has 4 keys, --k says 2"),
        ([*_LOCK_STR, "--keys", "00,01"], _S27, None, None,
         "invalid-input", "schedule width 2, --ki says 1"),
        (["sim", "--in", "{bench}", "--static-key", "00"],
         "INPUT(a)\nINPUT(keyinput0)\nINPUT(keyinput2)\nOUTPUT(a)\n", None, None,
         "invalid-input", "key inputs ['keyinput0', 'keyinput2'] are not keyinput0..keyinput1"),
        # a manifest and a second schedule source: neither may silently win
        (["verify", *_MANIFEST_RUN, "--keys", "00,00,00,00"], _S27, None, None,
         "invalid-input", "--manifest conflicts with --keys/--keys-file"),
        (["verify", *_MANIFEST_RUN, "--keys-file", "{tmp}/keys.txt"], _S27, None, None,
         "invalid-input", "--manifest conflicts with --keys/--keys-file"),
        (["sim", "--in", "{bench}", "--manifest", "{tmp}/m.json", "--keys", "00"], _S27, None, None,
         "invalid-input", "--manifest conflicts with --keys/--keys-file"),
        (["attack", *_MANIFEST_RUN, "--k", "2", "--ki", "1"], _S27, None, None,
         "invalid-input", "--manifest conflicts with --k/--ki"),
        (["attack", *_MANIFEST_RUN, "--mode", "static", "--ki", "2"], _S27, None, None,
         "invalid-input", "--manifest conflicts with --k/--ki"),
        # a static key is one value: --k would be dropped without a word
        (["attack", "--orig", "{bench}", "--locked", "{bench}", "--mode", "static", "--k", "7", "--ki", "2"],
         _S27, None, None, "invalid-input", "--k conflicts with --mode static"),
        # the random check takes no budget: it would be dropped without a word
        (["verify", "--orig", "{bench}", "--locked", "{bench}", "--mode", "random", "--budget", "1"],
         _S27, None, None, "invalid-input", "--budget conflicts with --mode random"),
        # an empty flag value is a value, not a missing flag
        ([*_LOCK_STR, "--keys", ""], _S27, None, None, "invalid-input", "empty key schedule"),
        # an empty item would drop a key from the period
        ([*_LOCK_STR, "--keys", "01,,10"], _S27, None, None, "invalid-input", "key 2 of '01,,10' is empty"),
        (["sim", "--in", "{locked}", "--keys", "0,1,"], _S27, None, None,
         "invalid-input", "key 3 of '0,1,' is empty"),
        ([*_LOCK_STR, "--targets", ""], _S27, None, None, "invalid-input", "unknown lock target ''"),
        (["attack", "--orig", "{bench}", "--locked", "{bench}", "--manifest", "", "--k", "4", "--ki", "2"],
         _S27, None, None, "invalid-input", "--manifest conflicts with --k/--ki"),
        # an empty path names no file, not the current directory
        (["sim", "--in", "{bench}", "--stimulus", ""], _S27, None, None, "io-error", _NO_FILE),
        (["sim", "--in", "{bench}", "--trace", ""], _S27, None, None, "io-error", _NO_FILE),
        (["report", *_LOCKED_RUN, "--out", ""], _S27, None, None, "io-error", _NO_FILE),
        (["attack", *_LOCKED_RUN, "--out", ""], _S27, None, None, "io-error", _NO_FILE),
        (["lock-str", "--in", "{bench}", "--k", "2", "--ki", "1", "--out", "{tmp}/o.bench", "--manifest", ""],
         _S27, None, None, "io-error", _NO_FILE),
        (["lock-beh", "--in", "", "--k", "2", "--ki", "1", "--out", "{tmp}/o.kiss2", "--manifest", "{tmp}/m.json"],
         None, None, None, "io-error", _NO_FILE),
        (["sim", "--in", "{bench}", "--keys", "0,1", "--static-key", "0"], _S27, None, None,
         "invalid-input", "--static-key conflicts with --keys/--manifest"),
        (["sim", "--in", "{locked}"], None, None, None,
         "invalid-input", "netlist has key inputs; give --manifest, --keys, or --static-key"),
    ],
    ids=["bench-parse-error", "kiss2-parse-error", "budget-exceeded", "value-error", "fsm-error",
         "missing-in-file", "schedule-period", "schedule-width", "key-input-gap",
         "verify-manifest-keys", "verify-manifest-keys-file", "sim-manifest-keys",
         "attack-manifest-k-ki", "attack-manifest-ki", "attack-static-k", "verify-random-budget",
         "lock-str-empty-keys", "lock-str-empty-key-item", "sim-trailing-empty-key",
         "lock-str-empty-targets", "attack-empty-manifest-k",
         "sim-empty-stimulus", "sim-empty-trace", "report-empty-out", "attack-empty-out",
         "lock-str-empty-manifest", "lock-beh-empty-in", "static-key-and-keys", "key-inputs-without-keys"],
)


def _run_error_case(tmp_path, monkeypatch, argv, bench, kiss2, patch) -> int:
    paths = {"tmp": str(tmp_path)}
    files = (("bench", bench), ("kiss2", kiss2), ("locked", write_bench(_LOCKED_S27)),
             ("manifest", _LOCKED_S27_MANIFEST.to_json()))
    for suffix, text in files:
        path = tmp_path / f"in.{suffix}"
        if text is not None:  # else the file is missing
            path.write_text(text, encoding="utf-8")
        paths[suffix] = str(path)
    if patch is not None:
        monkeypatch.setattr(*patch)
    return main([arg.format(**paths) for arg in argv])


@_ERROR_KINDS
def test_error_kinds(tmp_path, capsys, monkeypatch, argv, bench, kiss2, patch, kind, detail):
    """Each typed failure exits 1 with its kind and message as one JSON line on stderr."""
    code = _run_error_case(tmp_path, monkeypatch, argv, bench, kiss2, patch)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == kind
    assert detail in doc["detail"]


@pytest.fixture()
def collector():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_job_pauses_the_collector_and_restores_it(tmp_path, s27_path, monkeypatch, collector, enabled):
    parse_bench = circuit.parse_bench
    during = []

    def parse_and_look(*args, **kwargs):
        during.append(gc.isenabled())
        return parse_bench(*args, **kwargs)

    monkeypatch.setattr(circuit, "parse_bench", parse_and_look)
    (gc.enable if enabled else gc.disable)()
    _lock(tmp_path, s27_path)
    assert during == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@_ERROR_KINDS
def test_failed_job_restores_the_collector(tmp_path, capsys, monkeypatch, collector, enabled, argv,
                                          bench, kiss2, patch, kind, detail):
    (gc.enable if enabled else gc.disable)()
    assert _run_error_case(tmp_path, monkeypatch, argv, bench, kiss2, patch) == 1
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_error_of_no_kind_propagates_and_restores_the_collector(tmp_path, s27_path, monkeypatch,
                                                                collector, enabled):
    """An error main has no kind for (here the locker's own output check) is not mapped."""
    def fail(*args, **kwargs):
        raise RuntimeError("locked netlist failed its own check")

    monkeypatch.setattr("tklock.structural.lock_structural", fail)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="failed its own check"):
        _lock(tmp_path, s27_path)
    assert gc.isenabled() is enabled


def test_paused_job_leaves_no_cyclic_garbage_that_grows_with_the_netlist(tmp_path, collector):
    """What a job leaves for the collector does not depend on the netlist:
    an s27 job and a locked b04_like job (25,176 gates) leave the same."""
    (tmp_path / "b04_like.bench").write_text(corpus.read_text("b04_like.bench"), encoding="utf-8")
    (tmp_path / "s27.bench").write_text(_S27, encoding="utf-8")
    shapes = {"s27": ("4", "2"), "b04_like": ("4", "11")}

    def job(command: str, stem: str) -> list[str]:
        orig, locked, manifest = (str(tmp_path / f"{stem}{s}") for s in (".bench", ".l.bench", ".json"))
        if command == "lock-str":
            k, ki = shapes[stem]
            return [command, "--in", orig, "--k", k, "--ki", ki, "--out", locked, "--manifest", manifest]
        return [command, "--orig", orig, "--locked", locked, "--manifest", manifest,
                "--out", str(tmp_path / "report.json")]

    gc.enable()
    for command in ("lock-str", "report"):
        assert main(job(command, "s27")) == 0  # runs the layers the command uses
        left = []
        for stem in ("s27", "b04_like"):
            gc.collect()
            assert main(job(command, stem)) == 0
            left.append(gc.collect())
        assert left[0] == left[1], command


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lock-str", "--in", "x.bench"])
    assert exc.value.code == 2


def test_conflicting_schedule_sources_rejected(tmp_path, s27_path, capsys):
    code = main(
        [
            "lock-str",
            "--in", str(s27_path),
            "--k", "4", "--ki", "2",
            "--keys", "01,11,10,00",
            "--keys-file", str(s27_path),
            "--out", str(tmp_path / "o.bench"),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


def _missing_key_inputs(doc):
    del doc["key_input_nets"]
    return doc


def _string_key_values(doc):
    doc["schedule"]["keys"] = ["01", "11", "10", "00"]
    return doc


@pytest.mark.parametrize(
    "shape,field",
    [
        (_missing_key_inputs, "key_input_nets"),
        (_string_key_values, "schedule.keys"),
        (lambda doc: [doc], "JSON object"),
    ],
    ids=["missing-key-input-nets", "string-key-values", "json-list"],
)
@pytest.mark.parametrize("command", ["verify", "sim", "attack", "report"])
def test_malformed_manifest_is_invalid_input(tmp_path, s27_path, capsys, shape, field, command):
    """A malformed manifest gives the one-line invalid-input diagnostic and
    exit 1, naming the field, from every command that reads one."""
    out, manifest = _lock(tmp_path, s27_path)
    manifest.write_text(json.dumps(shape(json.loads(manifest.read_text()))), encoding="utf-8")
    capsys.readouterr()
    locked = ["--locked", str(out)] if command != "sim" else ["--in", str(out)]
    orig = ["--orig", str(s27_path)] if command != "sim" else []
    code = main([command, *orig, *locked, "--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "invalid-input" and field in doc["detail"]


@pytest.mark.parametrize(
    "k,detail",
    [
        # the survivors of the README prefix reach depth 8 with 4**12 completions
        ("20", "0 + 2^24 surviving candidates exceed budget 200000"),
        # 2^16000 has 4,817 digits, past what the report can print
        ("8000", "key-sequence space 2^16000 has too many digits"),
        ("100000000", "key-sequence space 2^200000000 has too many digits"),
    ],
    ids=["survivors", "report-digits", "huge"],
)
def test_attack_budgets_checked_by_exponent(tmp_path, s27_path, capsys, k, detail):
    out, _ = _lock(tmp_path, s27_path)
    capsys.readouterr()
    code = main(["attack", "--orig", str(s27_path), "--locked", str(out), "--k", k, "--ki", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "budget-exceeded"
    assert detail in diag["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", "--cycles", "4", "--manifest", "{manifest}", "--override", "2=0000"],
        ["sim", "--cycles", "4", "--manifest", "{manifest}", "--override", "2=1"],
        ["sim", "--cycles", "4", "--static-key", "010"],
        ["verify", "--orig", "{orig}", "--static-key", "0000"],
        ["verify", "--orig", "{orig}", "--static-key", "1"],
    ],
    ids=["sim-override-wide", "sim-override-narrow", "sim-static", "verify-static-wide", "verify-static-narrow"],
)
def test_key_strings_must_match_key_width(tmp_path, s27_path, capsys, argv):
    out, manifest = _lock(tmp_path, s27_path)
    capsys.readouterr()
    argv = [arg.format(manifest=manifest, orig=s27_path) for arg in argv]
    target = "--in" if argv[0] == "sim" else "--locked"
    code = main([*argv, target, str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["error"] == "invalid-input"
    assert "the netlist has 2 key inputs" in diag["detail"]


def _readme_cli_commands() -> list[list[str]]:
    """Each `tklock` command of the README's ```sh blocks, as argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL):
        for command in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(command, comments=True)
            if argv and argv[0] == "tklock":
                commands.append(argv[1:])
    return commands


def test_readme_cli_examples_run(tmp_path, s27_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert [argv[0] for argv in commands] == ["lock-str", "verify", "attack", "attack", "sim", "report"]
    survivors = []
    for argv in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "attack":
            survivors.append(json.loads(out)["survivors"])
    assert survivors == [["01,11,10,00"], []]


_LOCKED = ["--locked", "s27_locked.bench", "--manifest", "s27.manifest"]
# each job's arguments, run in the directory `_lock` writes to
_JOBS = {
    "lock-str": ["--in", "s27.bench", "--k", "4", "--ki", "2", "--out", "o.bench", "--manifest", "o.json"],
    "lock-beh": ["--in", "d.kiss2", "--k", "4", "--ki", "2", "--out", "o.kiss2", "--manifest", "o.json"],
    "sim": ["--in", "s27_locked.bench", "--manifest", "s27.manifest", "--cycles", "8"],
    "verify": ["--orig", "s27.bench", *_LOCKED],
    "report": ["--orig", "s27.bench", *_LOCKED],
    "attack": ["--orig", "s27.bench", *_LOCKED],
}


@pytest.mark.parametrize("command", list(_JOBS))
def test_job_loads_no_dataclass_machinery(tmp_path, s27_path, command):
    """Records cost nothing to define: `dataclasses` imports `inspect` (and
    with it `dis` and `tokenize`) and execs the methods of every class, a
    start-up cost each job would pay. `-S` keeps site hooks out of the count."""
    _lock(tmp_path, s27_path)
    (tmp_path / "d.kiss2").write_text(corpus.read_text("detector1001.kiss2"), encoding="utf-8")
    src = Path(corpus.__file__).resolve().parent.parent
    argv = [command, *_JOBS[command]]
    code = (f"import sys\nsys.path.insert(0, {str(src)!r})\nfrom tklock.cli import main\n"
            f"assert main({argv!r}) == 0\nprint(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
