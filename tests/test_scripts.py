"""The runnable scripts under scripts/ finish without error on small inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hypergt
from hypergt.harness import ALGORITHMS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("args", [
    ["worked_example.py"],
    ["bound_sweep.py", "--trials", "20", "--cs", "0.3"],
    ["preplanned_demo.py", "--trials", "5"],
    ["scale_probe.py", "--n", "60", "--trials", "3"],
], ids=lambda args: args[0])
def test_script_runs(args):
    run_script(args)


def run_script(args):
    src = str(Path(hypergt.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(SCRIPTS / args[0]), *args[1:]],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_preplanned_demo_prints_the_schedule_check_and_both_recovery_lines():
    lines = run_script(["preplanned_demo.py", "--trials", "5"]).splitlines()
    assert lines[0] == "schedule identical across targets on the shared prefix: True"
    assert [line.split(":")[0] for line in lines[1:]] == ["noiseless", "noisy (delta=0.05)"]
    assert all(" recovered, mean physical tests " in line for line in lines[1:])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scale_probe_prints_the_mean_tests_per_trial(algorithm):
    fields = dict(item.split("=") for item in run_script(
        ["scale_probe.py", "--n", "60", "--trials", "3", "--algorithm", algorithm]).split())
    assert list(fields) == ["n", "|E|", "trials", "wrong", "build_s", "ms_per_trial",
                            "ms_per_trial_q1", "ms_per_trial_q3", "tests_per_trial",
                            "peak_rss_mb"]
    assert fields["trials"] == "15"  # five rounds of three
    assert float(fields["ms_per_trial_q1"]) <= float(fields["ms_per_trial"]) \
        <= float(fields["ms_per_trial_q3"])
    assert float(fields["tests_per_trial"]) > 0.0


def git_history() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=SCRIPTS.parent,
                              capture_output=True).returncode == 0
    except FileNotFoundError:  # no git installed
        return False


@pytest.mark.skipif(not git_history(), reason="scripts/ab.py archives a git revision, and this "
                                              "checkout has no git history")
def test_ab_prints_a_paired_ratio_row_for_each_comparison():
    lines = run_script(["ab.py", "--parent", "HEAD", "--workload", "dense12", "--rounds", "3"])
    head, *rows = lines.splitlines()
    assert head == "workload=dense12 rounds=3 parent=HEAD batch_trials=100"
    rows = [dict(item.split("=") for item in line.split()) for line in rows]
    assert [(r["row"], r["a"], r["b"]) for r in rows] == [
        ("batch", "parent", "change"), ("batch_aa", "change", "copy"),
        ("setup", "parent", "change"), ("setup_aa", "change", "copy")]
    fields = ["row", "a", "b", "ratio", "ci_lo", "ci_hi", "won", "a_ms", "b_ms"]
    for r, control in zip(rows, rows[1:] + [None]):
        holds_one = float(r["ci_lo"]) <= 1.0 <= float(r["ci_hi"])
        if r["row"].endswith("_aa"):
            assert list(r) == fields
        else:
            # resolved: this row's interval excludes 1 and its A/A control's holds it.
            assert list(r) == fields + ["resolved"]
            control_holds_one = float(control["ci_lo"]) <= 1.0 <= float(control["ci_hi"])
            assert r["resolved"] == ("yes" if not holds_one and control_holds_one else "no")
        assert 0.0 < float(r["ci_lo"]) <= float(r["ratio"]) <= float(r["ci_hi"])
        assert r["won"] in ("0/3", "1/3", "2/3", "3/3")
        assert float(r["a_ms"]) > 0.0 and float(r["b_ms"]) > 0.0


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_ab_names_hypergt_modules_loaded_from_outside_a_sides_copy(tmp_path, absolute):
    """A side whose model.py imports `hypergt.errors` absolutely runs the
    working tree's module, not its own; `ab.strays` names every such module
    and nothing when the copy imports only relatively."""
    side = tmp_path / "hypergt_parent"
    shutil.copytree(Path(hypergt.__file__).parent, side, ignore=shutil.ignore_patterns("__pycache__"))
    if absolute:
        model = side / "model.py"
        model.write_text(model.read_text().replace("from .errors import", "from hypergt.errors import", 1))
    src = str(Path(hypergt.__file__).resolve().parents[1])
    code = ("import sys, pathlib, ab, hypergt_parent\n"
            "for line in ab.strays(pathlib.Path(sys.argv[1])): print(line)")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SCRIPTS), src, str(tmp_path)])),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = [line.split()[0] for line in done.stdout.splitlines()]
    if absolute:
        assert "hypergt.errors" in names
        assert all(name == "hypergt" or name.startswith("hypergt.") for name in names)
    else:
        assert names == []
