#!/usr/bin/env python3
"""Time the working tree against a git revision, interleaved in one process.

    python3 scripts/ab.py --parent HEAD --workload dense12 --rounds 40

`git archive REV src/hypergt` is unpacked into a temporary directory and
imported as a second package, `hypergt_parent`, beside `hypergt_change`, a
copy of the working tree; a third copy, `hypergt_copy`, gives an A/A control.
The package must use only relative imports: the script stops with exit
status 1 if any side loads hypergt code from outside its own copy, as an
absolute `from hypergt...` import would.

Each side is a `benchmark/run.py` `Bench` on the workload of
`benchmark/workloads.py` and its default seed, with the model built once and
one untimed batch. Every round then times, for each side in an order that
cycles through all six orders, one set-up (`build_model` plus a one-trial
experiment, as one set-up of the benchmark's `setup_s`) and the benchmark's
batch of that round (`Bench.batch`: `run_experiment`, `write_csv` and
`summarize`, timed and checked as the benchmark does). The three sides must
build equal models, pass the benchmark's checks and give equal per-trial
(tests, correct, error) on every set-up and batch; the script stops with exit
status 1 where they do not.

It prints one line per comparison: `row` (batch or setup, `_aa` for the
control), `a` and `b` (the sides), `ratio` (the median over rounds of b's
seconds over a's, so below 1 means b is faster) with the bootstrap 95%
interval `ci_lo`..`ci_hi`, `won` (rounds where b was faster) and the median
milliseconds `a_ms` and `b_ms`. An A/A interval that holds 1 shows the rounds
see the same machine.

Use it to resolve a change of a few percent, which subprocess runs of
`benchmark/run.py` taken minutes apart cannot. Peak memory stays with
`benchmark/run.py`: every side shares one process.
"""

import argparse
import importlib
import io
import itertools
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))
import run  # noqa: E402  (benchmark/run.py: Bench times and checks a batch as the benchmark does)
import workloads  # noqa: E402

BOOTSTRAP = 2000
SIDES = ("parent", "change", "copy")


def copy_tree(into: Path, name: str) -> None:
    """The working tree's package as `name` under `into`."""
    shutil.copytree(ROOT / "src" / "hypergt", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))


def archive(rev: str, into: Path, name: str) -> None:
    """The package at git revision `rev` as `name` under `into`."""
    raw = subprocess.run(["git", "archive", "--format=tar", rev, "src/hypergt"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = into / name / Path(member.name).relative_to("src/hypergt")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())


def strays(into: Path) -> list[str]:
    """Loaded hypergt modules whose file lies outside their own package
    directory under `into`, each as 'module (file)'."""
    found = []
    for name, module in list(sys.modules.items()):
        top = name.partition(".")[0]
        if top.startswith("hypergt"):
            file = getattr(module, "__file__", None)
            if file is None or not Path(file).resolve().is_relative_to((into / top).resolve()):
                found.append(f"{name} ({file})")
    return found


def setup(bench: run.Bench) -> tuple[float, list]:
    """One set-up as the benchmark times it: build_model plus a one-trial experiment."""
    config = bench.config(run.WARMUP_SEED, 1)
    t0 = time.perf_counter()
    graph, dist = bench.hg.build_model(config.model)
    results = bench.hg.harness.run_experiment(config, graph, dist)
    seconds = time.perf_counter() - t0
    bench.check(results, 1)
    return seconds, outcomes(results)


def outcomes(results) -> list:
    return [(r.tests, r.correct, r.error) for r in results]


def row(name: str, a: str, b: str, a_s: list[float], b_s: list[float]) -> str:
    ratios = np.array(b_s) / np.array(a_s)
    draws = np.random.default_rng(0).integers(0, len(ratios), (BOOTSTRAP, len(ratios)))
    lo, hi = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
    won = int((ratios < 1.0).sum())
    return (f"row={name} a={a} b={b} ratio={np.median(ratios):.4f} ci_lo={lo:.4f} ci_hi={hi:.4f} "
            f"won={won}/{len(ratios)} a_ms={statistics.median(a_s) * 1e3:.3f} "
            f"b_ms={statistics.median(b_s) * 1e3:.3f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    w = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive(args.parent, tmp, "hypergt_parent")
        copy_tree(tmp, "hypergt_change")
        copy_tree(tmp, "hypergt_copy")
        sys.path.insert(0, str(tmp))
        benches = {}
        for name in SIDES:
            bench = run.Bench(importlib.import_module(f"hypergt_{name}"), w, workloads.DEFAULT_SEED)
            bench.csv_path = tmp / f"{name}.csv"
            bench.graph, bench.dist = bench.hg.build_model(bench.config(run.WARMUP_SEED, 1).model)
            benches[name] = bench
        found = strays(tmp)
        if found:
            print(f"ab: hypergt code loaded from outside its side's copy: {', '.join(found)}",
                  file=sys.stderr)
            return 1
        first = benches["parent"]
        for name, bench in benches.items():
            if bench.graph.edge_masks != first.graph.edge_masks or not np.array_equal(
                    bench.dist.probs, first.dist.probs):
                print(f"ab: {name} builds a different {w.name} model than parent", file=sys.stderr)
                return 1
            bench.batch(0)  # warm-up
        setup_s = {name: [] for name in SIDES}
        batch_s = {name: [] for name in SIDES}
        orders = list(itertools.permutations(SIDES))
        for r in range(args.rounds):
            seen_setup, seen_batch = {}, {}
            for name in orders[r % len(orders)]:
                seconds, seen_setup[name] = setup(benches[name])
                setup_s[name].append(seconds)
                seconds, results = benches[name].batch(r)
                seen_batch[name] = outcomes(results)
                batch_s[name].append(seconds)
            for seen, what in ((seen_setup, "set-up"), (seen_batch, "batch")):
                if len({repr(v) for v in seen.values()}) != 1:
                    print(f"ab: round {r}: the sides' {what} trials differ", file=sys.stderr)
                    return 1
        for name, bench in benches.items():
            if bench.problems:
                print(f"ab: {name}: {bench.problems[0]}", file=sys.stderr)
                return 1
    print(f"workload={w.name} rounds={args.rounds} parent={args.parent} batch_trials={w.batch_trials}")
    print(row("batch", "parent", "change", batch_s["parent"], batch_s["change"]))
    print(row("batch_aa", "change", "copy", batch_s["change"], batch_s["copy"]))
    print(row("setup", "parent", "change", setup_s["parent"], setup_s["change"]))
    print(row("setup_aa", "change", "copy", setup_s["change"], setup_s["copy"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
