"""hypergt benchmark: run a workload through the public API, check every
trial, and print each metric by name with its unit.

    python3 benchmark/run.py --workload dense12 --seed 0 --seconds 15 --trace 0
    python3 benchmark/run.py --seconds 15      # all workloads, one process each

A timed batch does what `hypergt run` does once its model is loaded:
`run_experiment`, `write_csv` and `summarize`. Batches run back to back, in
one process, until they have taken --seconds. --trace 0 prints the end-to-end
metrics; --trace 1 reruns the same batches with spans around hypergt's layers
and prints the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every check passed, 1 when a correctness check failed,
2 when the hypergt sources are missing from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ENGINE_SPANS, SpanStats, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-ups are spread over the run, so their median sees the same machine
# as the batches; cheap ones repeat within a slot.
SETUP_SLOTS = 6
SETUP_SLOT_SECONDS = 0.1
SPLIT_SCAN_SECONDS = 0.5
# Every set-up runs the same warm-up trial, so setup_s does not depend on
# which target the seed draws; no batch uses this experiment seed.
WARMUP_SEED = 0
HARNESS_SPANS = ("harness.run_experiment", "harness.write_csv", "harness.summarize")


def sources_present() -> bool:
    return (SRC / "hypergt" / "__init__.py").is_file()


def import_hypergt():
    sys.path.insert(0, str(SRC))
    import hypergt
    if Path(hypergt.__file__).resolve().parent != (SRC / "hypergt").resolve():
        raise ImportError(f"hypergt was imported from {hypergt.__file__}, not from {SRC}")
    return hypergt


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(np), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "hypergt").glob("*.py")))


def batch_seed(seed: int, batch: int) -> int:
    """Distinct for every (seed, batch) while a run makes fewer than 100 000 batches."""
    return seed * 100_000 + batch + 1


def result_row(r) -> tuple:
    return (r.trial, r.seed, r.target, r.tests, r.stage1, r.stage2, r.informative,
            r.correct, r.halted, r.error)


def node_mask(nodes) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


class Bench:
    """One workload on one seed: set-up, timed batches and their checks."""

    def __init__(self, hg, workload: Workload, seed: int) -> None:
        self.hg = hg
        self.w = workload
        self.seed = seed
        self.csv_path = OUT / f"{workload.name}-seed{seed}.csv"
        self.graph = self.dist = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def config(self, seed: int, trials: int):
        spec = self.hg.ModelSpec(self.w.model["family"], dict(self.w.model["params"]))
        return self.hg.harness.ExperimentConfig(model=spec, trials=trials, seed=seed,
                                                output=str(self.csv_path), **self.w.engine)

    def setup(self, tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
        """Model spec to first completed trial, repeated for SETUP_SLOT_SECONDS
        and at least once; returns the set-up and build_model times in seconds.
        Later batches use the last model built."""
        setup_s, build_s = [], []
        stop = time.perf_counter() + SETUP_SLOT_SECONDS
        while not setup_s or time.perf_counter() < stop:
            self.graph = self.dist = None  # free the last model before building the next
            config = self.config(WARMUP_SEED, 1)
            t0 = time.perf_counter()
            with tracer.span("builders.build_model") if tracer else contextlib.nullcontext():
                self.graph, self.dist = self.hg.build_model(config.model)
            t1 = time.perf_counter()
            results = self.hg.harness.run_experiment(config, self.graph, self.dist)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            build_s.append(t1 - t0)
            self.check(results, 1)
        return setup_s, build_s

    def batch(self, index: int, tracer: Tracer | None = None) -> tuple[float, list]:
        def span(name):
            return tracer.span(name) if tracer else contextlib.nullcontext()

        config = self.config(batch_seed(self.seed, index), self.w.batch_trials)
        t0 = time.perf_counter()
        with span("harness.run_experiment"):
            results = self.hg.harness.run_experiment(config, self.graph, self.dist)
        with span("harness.write_csv"):
            self.hg.harness.write_csv(results, config.output)
        with span("harness.summarize"):
            summary = self.hg.harness.summarize(results)
        seconds = time.perf_counter() - t0
        self.check(results, config.trials)
        self.check_summary(results, summary)
        self.check_csv(results, config.output)
        return seconds, results

    # -- checks ------------------------------------------------------------

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def check(self, results, trials: int) -> None:
        self.attempted += len(results)
        if [r.trial for r in results] != list(range(trials)):
            self.problem(f"expected trials 0..{trials - 1}, got {len(results)} records")
        for r in results:
            wrong = self.w.zero_error and (not r.correct or r.halted)
            if r.error is not None or wrong:
                self.failed += 1
                self.problem(f"trial {r.trial} seed {r.seed} failed: "
                             f"error={r.error} correct={r.correct} halted={r.halted}")

    def check_summary(self, results, summary) -> None:
        expected = (len(results), sum(not r.correct for r in results),
                    sum(r.halted for r in results), sum(r.tests for r in results))
        got = (summary.count, summary.wrong, summary.halts, summary.tests.total)
        if got != expected:
            self.problem(f"summarize gave (count, wrong, halts, tests) {got}, "
                         f"the records give {expected}")

    def check_csv(self, results, path: str) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        keys = ("trial", "seed", "target", "tests", "correct", "halted")
        got = [tuple(row.get(k) for k in keys) for row in rows]
        expected = [(str(r.trial), str(r.seed), str(r.target), str(r.tests),
                     str(int(r.correct)), str(int(r.halted))) for r in results]
        if got != expected:
            self.problem(f"{path} does not hold the batch's records")

    def check_returns(self, returns, results) -> None:
        """Recompute each trial's correct flag from what sample_truth and the
        engine returned, as seen through the traced names."""
        verdicts = []
        truth = None
        for name, value in returns:
            if name == "harness.sample_truth":
                truth = value
                verdicts.append(None)
            elif verdicts:
                nodes = value.result_nodes
                verdicts[-1] = (not value.halted and nodes is not None
                                and node_mask(nodes) == truth.mask)
        if len(verdicts) != len(results):
            self.problem(f"traced {len(verdicts)} sample_truth calls for {len(results)} trials")
            return
        for r, verdict in zip(results, verdicts):
            if r.error is None and verdict != r.correct:
                self.problem(f"trial {r.trial} seed {r.seed}: correct={r.correct}, "
                             f"but the returned set {'matches' if verdict else 'differs from'} "
                             f"the sampled target")

    # -- runs --------------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        """Batches until they have taken `seconds`; SETUP_SLOTS set-up slots,
        one before the first batch and then one every seconds / SETUP_SLOTS
        of batch time."""
        setup_s, times, quality = [], [], []
        slots = 0
        index = 0
        while index < self.w.min_batches or sum(times) < seconds:
            if slots < SETUP_SLOTS and sum(times) >= slots * seconds / SETUP_SLOTS:
                setup_s += self.setup()[0]
                slots += 1
            dt, results = self.batch(index)
            times.append(dt)
            if index < self.w.min_batches:
                quality.extend(results)
            index += 1
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "trials_per_s": (index * self.w.batch_trials / sum(times), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "tests_per_trial": (statistics.fmean(r.tests for r in quality), "tests"),
            "recovery_rate": (sum(r.correct for r in quality) / len(quality), "share"),
        }

    def split_scan_ms(self) -> float:
        """Median time of one stage-1 scan of the prior."""
        post = self.hg.prior_posterior(self.graph, self.dist)
        c = self.config(0, 1).c
        times = []
        stop = time.perf_counter() + SPLIT_SCAN_SECONDS
        while len(times) < 5 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            self.hg.find_split_set(post, c)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    def layers(self, tracer: Tracer) -> dict:
        """The first min_batches batches, each run untraced and then traced."""
        build_s = [t for _ in range(SETUP_SLOTS) for t in self.setup(tracer)[1]]
        keep = ("harness.sample_truth",) + ENGINE_SPANS
        untraced_s = traced_s = 0.0
        traced = []
        for index in range(self.w.min_batches):
            dt, plain = self.batch(index)
            tracer.install(keep)
            try:
                dt_traced, results = self.batch(index, tracer)
            finally:
                tracer.uninstall()
            untraced_s += dt
            traced_s += dt_traced
            if [result_row(r) for r in plain] != [result_row(r) for r in results]:
                self.problem(f"batch {index}: the traced run's records differ from the untraced run's")
            if not tracer.missing.intersection(keep):
                self.check_returns(tracer.returns, results)
            tracer.returns.clear()
            traced.extend(results)
        scan_api = all(hasattr(self.hg, name) for name in ("prior_posterior", "find_split_set"))
        split_ms = self.split_scan_ms() if scan_api else None
        return layer_metrics(tracer, traced, untraced_s, traced_s, split_ms,
                             statistics.median(build_s) * 1e3)


def trial_ms(spans: list[list]) -> list[float]:
    """Trial durations inside traced run_experiment calls: from one
    sample_truth start to the next, the last one ending with the call."""
    starts: dict[int, list[int]] = {}
    for name, start, _, parent in spans:
        if name == "harness.sample_truth" and parent >= 0 and spans[parent][0] == "harness.run_experiment":
            starts.setdefault(parent, []).append(start)
    durations = []
    for parent, ts in starts.items():
        ends = ts[1:] + [spans[parent][2]]
        durations += [(e - s) / 1e6 for s, e in zip(ts, ends)]
    return durations


def layer_metrics(tracer: Tracer, results: list, untraced_s: float, traced_s: float,
                  split_ms: float | None, build_ms: float) -> dict:
    stats = SpanStats(tracer.spans)
    wall_ns = sum(stats.total_ns.get(name, 0) for name in HARNESS_SPANS)
    trials = len(results)
    tests = sum(r.tests for r in results)
    durations = trial_ms(tracer.spans)

    def calls(name):
        return stats.calls.get(name, 0) / trials

    def share(name):
        return stats.total_ns.get(name, 0) / wall_ns

    def self_share(*names):
        return sum(stats.self_ns.get(name, 0) for name in names) / wall_ns

    # name: (span it needs or None, value, unit)
    table = {
        "model.condition_on_test_calls": ("model.condition_on_test", calls("model.condition_on_test"), "calls/trial"),
        "model.condition_on_test_us": ("model.condition_on_test", stats.mean_us("model.condition_on_test"), "us"),
        "model.condition_on_test_share": ("model.condition_on_test", share("model.condition_on_test"), "share"),
        "model.validate_model_calls": ("model.validate_model", calls("model.validate_model"), "calls/trial"),
        "model.validate_model_share": ("model.validate_model", share("model.validate_model"), "share"),
        "model.node_marginals_us": ("model.node_marginals", stats.mean_us("model.node_marginals"), "us"),
        "model.certain_edge_us": ("model.certain_edge", stats.mean_us("model.certain_edge"), "us"),
        "adaptive.run_ms": ("adaptive.run", stats.mean_us("adaptive.run") / 1e3, "ms"),
        "adaptive.self_share": ("adaptive.run", self_share("adaptive.run"), "share"),
        "adaptive.find_split_set_ms": (None, split_ms, "ms"),
        "adaptive.informative_share": (None, sum(r.informative for r in results) / tests, "share"),
        "builders.build_model_ms": (None, build_ms, "ms"),
        "snagt.run_ms": ("snagt.run", stats.mean_us("snagt.run") / 1e3, "ms"),
        "snagt.self_share": ("snagt.run", self_share("snagt.run"), "share"),
        "snagt.random_test_set_us": ("snagt.random_test_set", stats.mean_us("snagt.random_test_set"), "us"),
        "transcript.add_us": ("transcript.add", stats.mean_us("transcript.add"), "us"),
        "transcript.add_share": ("transcript.add", share("transcript.add"), "share"),
        "noisy.bayes_update_noisy_calls": ("noisy.bayes_update_noisy", calls("noisy.bayes_update_noisy"), "calls/trial"),
        "noisy.bayes_update_noisy_us": ("noisy.bayes_update_noisy", stats.mean_us("noisy.bayes_update_noisy"), "us"),
        "noisy.bayes_update_noisy_share": ("noisy.bayes_update_noisy", share("noisy.bayes_update_noisy"), "share"),
        "noisy.self_share": ("noisy.run", self_share("noisy.run"), "share"),
        "harness.trial_ms_p50": ("harness.sample_truth", statistics.median(durations) if durations else None, "ms"),
        "harness.trial_ms_p90": ("harness.sample_truth", statistics.quantiles(durations, n=10)[-1] if len(durations) > 1 else None, "ms"),
        "harness.sample_truth_us": ("harness.sample_truth", stats.mean_us("harness.sample_truth"), "us"),
        "harness.write_csv_ms": (None, stats.mean_us("harness.write_csv") / 1e3, "ms"),
        "harness.self_share": (None, self_share(*HARNESS_SPANS), "share"),
        "trace.overhead_share": (None, traced_s / untraced_s - 1.0, "share"),
        "repo.src_lines": (None, src_lines(), "lines"),
    }
    return {name: (None if needs in tracer.missing else value, unit)
            for name, (needs, value, unit) in table.items()}


def report(name: str, seed: int, trace: int, env: dict, metrics: dict, bench: Bench) -> int:
    correct = not bench.problems and bench.failed == 0
    print(f"workload {name}  seed {seed}  trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<34} absent" if value is None else f"  {metric:<34} {value:>12.6g} {unit}")
    print(f"trials attempted {bench.attempted}, failed {bench.failed}, "
          f"correct {str(correct).lower()}")
    for text in bench.problems[:20]:
        print(f"CHECK FAILED: {text}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items() if v is not None},
    }))
    return 0 if correct else 1


def run_one(args) -> int:
    hg = import_hypergt()
    env = environment()
    OUT.mkdir(exist_ok=True)
    bench = Bench(hg, WORKLOADS[args.workload], args.seed)
    if not args.trace:
        return report(args.workload, args.seed, 0, env, bench.end_to_end(args.seconds), bench)
    tracer = Tracer()
    metrics = bench.layers(tracer)
    status = report(args.workload, args.seed, 1, env, metrics, bench)
    doc = {"workload": args.workload, "seed": args.seed, "env": env,
           "metrics": {m: v for m, (v, _) in metrics.items()}, **tracer.to_json()}
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc))
    return status


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and peak RSS are its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
        status = max(status, proc.returncode)
    print(json.dumps(totals))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not sources_present():
        print(f"hypergt sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
