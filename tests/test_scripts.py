"""The runnable scripts under scripts/ finish without error on small inputs."""

import os
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
