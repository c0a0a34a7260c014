"""What importing the package and running one CLI job loads, and the public names."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tklock
from tklock import corpus
from tklock.cli import main

SRC = Path(tklock.__file__).resolve().parent.parent

# the package's exports, as its eager __init__ imported them from each submodule
EXPORTS = {
    "behavioral": ["BehManifest", "lock_behavioral"],
    "circuit": ["BenchFormatError", "Dff", "Gate", "Netlist", "Violation", "parse_bench",
                "structurally_equal", "validate", "write_bench"],
    "fsm": ["Fsm", "FsmError", "Kiss2FormatError", "Transition", "parse_kiss2", "simulate_fsm",
            "write_kiss2"],
    "keys": ["KeySchedule", "generate_key_schedule", "schedule_from_text", "schedule_to_text"],
    "sim": ["KeyPolicy", "Stimulus", "Trace", "simulate"],
    "structural": ["LockManifest", "lock_structural", "select_lock_targets", "wrongful_sources"],
    "analysis": ["AttackResult", "BudgetExceededError", "Counterexample", "EquivVerdict",
                 "OverheadReport", "brute_force_attack", "check_equivalence_exhaustive",
                 "check_equivalence_random", "corruption_rate", "overhead_report",
                 "replay_counterexample"],
}
# a star import took every public name the package held: the exports and the submodules
PUBLIC = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)


def _fresh(script: str, cwd: Path):
    """Run `script` in a fresh interpreter; returns the JSON value it prints last."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{script}"
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


# the tklock modules that have run; a layer the CLI registered but never used
# keeps LazyLoader's module type until its first attribute lookup
LOADED = ("import types\nprint(json.dumps(sorted(m for m, v in sys.modules.items()"
          " if m.startswith('tklock') and type(v) is types.ModuleType)))")
LAYERS = ["analysis", "behavioral", "circuit", "fsm", "keys", "sim", "structural"]


def test_cli_import_loads_no_layer(tmp_path):
    loaded = _fresh(f"import json\nimport tklock.cli\n{LOADED}", tmp_path)
    assert loaded == ["tklock", "tklock.cli"]


def test_package_import_registers_every_layer_and_runs_none(tmp_path):
    """The package, not the CLI, puts each layer in sys.modules unexecuted."""
    script = ("import json\nimport tklock\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tklock.'))))\n"
              f"{LOADED}")
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{script}"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, check=True)
    registered, loaded = (json.loads(line) for line in done.stdout.splitlines())
    assert registered == [f"tklock.{layer}" for layer in LAYERS]
    assert loaded == ["tklock"]


def test_cli_import_registers_every_layer(tmp_path):
    """Each layer is in sys.modules after the CLI import and runs when first looked up."""
    script = ("import json\nimport tklock.cli\n"
              "registered = sorted(m for m in sys.modules if m.startswith('tklock.'))\n"
              "assert callable(sys.modules['tklock.sim'].simulate)\n"
              f"print(json.dumps(registered))\n{LOADED}")
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{script}"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, check=True)
    registered, loaded = (json.loads(line) for line in done.stdout.splitlines())
    assert registered == sorted([f"tklock.{layer}" for layer in LAYERS] + ["tklock.cli"])
    assert {"tklock.sim", "tklock.circuit", "tklock.keys"} <= set(loaded)
    assert "tklock.analysis" not in loaded


def test_traced_bench_child_wraps_every_layer(tmp_path):
    """bench/child.py installs its span tracer right after importing tklock.cli:
    the layers' functions must be there to wrap."""
    (tmp_path / "in.bench").write_text(corpus.read_text("s27.bench"), encoding="utf-8")
    argv = ["lock-str", "--in", "in.bench", "--k", "4", "--ki", "2", "--out", "o.bench",
            "--manifest", "m.json"]
    child = SRC.parent / "bench" / "child.py"
    subprocess.run([sys.executable, str(child), str(SRC), "report.json", "1", *argv],
                   cwd=tmp_path, capture_output=True, text=True, check=True)
    calls = {name: row[0] for name, row in
             json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["agg"].items()}
    assert calls["circuit.parse_bench"] == calls["structural.lock_structural"] == 1
    # the parse checked the input; the locker validates only its output
    assert calls["circuit.validate"] == 1


@pytest.mark.parametrize(
    "argv,code,runs,absent",
    [
        (["lock-beh", "--in", "in.kiss2", "--k", "4", "--ki", "2", "--out", "o.kiss2",
          "--manifest", "m.json"], 0, "tklock.behavioral", {"tklock.circuit", "tklock.sim"}),
        (["lock-str", "--in", "in.bench", "--k", "4", "--ki", "2", "--out", "o.bench",
          "--manifest", "m.json"], 0, "tklock.structural", {"tklock.sim", "tklock.analysis"}),
        # mapping the error to its kind runs no layer the job did not use
        (["lock-beh", "--in", "bad.kiss2", "--k", "4", "--ki", "2", "--out", "o.kiss2",
          "--manifest", "m.json"], 1, "tklock.fsm", {"tklock.circuit", "tklock.analysis"}),
        # only `report` needs the locker's closed forms
        (["verify", "--orig", "in.bench", "--locked", "locked.bench", "--manifest", "m.json",
          "--depth", "2"], 0, "tklock.analysis", {"tklock.structural"}),
        (["attack", "--orig", "in.bench", "--locked", "locked.bench", "--manifest", "m.json",
          "--depth", "2"], 0, "tklock.analysis", {"tklock.structural"}),
        # the simulator alone: no checker, locker or state machine
        (["sim", "--in", "locked.bench", "--manifest", "m.json", "--cycles", "4"], 0, "tklock.sim",
         {"tklock.analysis", "tklock.structural", "tklock.fsm", "tklock.behavioral"}),
        (["report", "--orig", "in.bench", "--locked", "locked.bench", "--manifest", "m.json"], 0,
         "tklock.structural", {"tklock.fsm", "tklock.behavioral"}),
    ],
    ids=["lock-beh", "lock-str", "lock-beh-parse-error", "verify", "attack", "sim", "report"],
)
def test_cli_job_loads_only_what_it_runs(tmp_path, argv, code, runs, absent):
    (tmp_path / "in.kiss2").write_text(corpus.read_text("detector1001.kiss2"), encoding="utf-8")
    (tmp_path / "bad.kiss2").write_text(".i 1\n.o 1\n.s 2\n0 s s 1\n", encoding="utf-8")
    (tmp_path / "in.bench").write_text(corpus.read_text("s27.bench"), encoding="utf-8")
    assert main(["lock-str", "--in", str(tmp_path / "in.bench"), "--k", "2", "--ki", "1",
                 "--out", str(tmp_path / "locked.bench"), "--manifest", str(tmp_path / "m.json")]) == 0
    script = f"import json\nfrom tklock.cli import main\nassert main({argv!r}) == {code}\n{LOADED}"
    loaded = set(_fresh(script, tmp_path))
    assert runs in loaded
    assert loaded & absent == set()


def test_exports_are_the_submodule_objects():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"tklock.{module}")
        assert getattr(tklock, module) is submodule
        for name in names:
            assert getattr(tklock, name) is getattr(submodule, name), name
    assert tklock.__version__ == "0.1.0"


def test_dir_and_star_import_list_the_public_names(tmp_path):
    script = (
        "import json\nimport tklock\n"
        "listed = [n for n in dir(tklock) if not n.startswith('_')]\n"
        "star = {}\nexec('from tklock import *', star)\n"
        "print(json.dumps([listed, sorted(n for n in star if n != '__builtins__')]))"
    )
    listed, star = _fresh(script, tmp_path)
    assert set(listed) == set(star) == PUBLIC
    assert len(listed) == len(PUBLIC) == 48


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tklock.no_such_name
    assert not hasattr(tklock, "lock")


def test_readme_corpus_import(tmp_path):
    gates = _fresh("import json\nfrom tklock import corpus\n"
                   "print(json.dumps(len(corpus.load_bench('s27').gates)))", tmp_path)
    assert gates == len(corpus.load_bench("s27").gates)
