import json
from pathlib import Path

import pytest

from tklock import corpus
from tklock.circuit import write_bench
from tklock.cli import main
from tklock.structural import LockConfig, lock_structural


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


def test_lock_str_byte_deterministic(tmp_path, s27_path):
    out, manifest = _lock(tmp_path, s27_path)
    first = (out.read_bytes(), manifest.read_bytes())
    out, manifest = _lock(tmp_path, s27_path)
    assert (out.read_bytes(), manifest.read_bytes()) == first


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
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "budget-exceeded"


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


@pytest.mark.parametrize("stem", ["s27", "b08_like"])
def test_attack_depth_below_one_rejected(tmp_path, capsys, stem):
    # s27 is attacked exhaustively, b08_like (9 non-key inputs) at random
    orig = tmp_path / f"{stem}.bench"
    orig.write_text(corpus.read_text(f"{stem}.bench"), encoding="utf-8")
    locked, _ = lock_structural(corpus.load_bench(stem), LockConfig(num_keys=2, key_bits=1, seed=5))
    locked_path = tmp_path / f"{stem}.locked.bench"
    locked_path.write_text(write_bench(locked), encoding="utf-8")
    code = main(
        [
            "attack",
            "--orig", str(orig),
            "--locked", str(locked_path),
            "--k", "2",
            "--ki", "1",
            "--depth", "0",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-input"


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
