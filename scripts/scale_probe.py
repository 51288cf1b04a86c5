#!/usr/bin/env python3
"""Time an engine on a large sparse model and report its peak memory.

    python3 scripts/scale_probe.py --n 2000 --trials 5
    python3 scripts/scale_probe.py --n 5000 --trials 5 --algorithm snagt

The model is random_regular(n, 3, count=10n): 10n distinct 3-node edges of
uniform mass. The script builds it, runs `--trials` seeded trials of
`--algorithm` (any name in `harness.ALGORITHMS`) through `run_experiment`, and
prints the build time, the mean milliseconds per trial, the mean tests per
trial and the process's peak resident set size (`ru_maxrss`). The tests per
trial show a change of behaviour at an n far beyond the golden grid next to
the timing. Run one n per process: the peak is the process's own.

Each algorithm runs with the settings in SETTINGS: `truncated` with an eps,
the preplanned engines at u = 4, and the noisy engines at delta = 0.05, the
adaptive one with a budget of 10n physical tests. The `oracle` searches its
policy once per model, within the timed span, so its model keeps only
MAX_EDGES edges. The exit status is 1 when a trial of an engine that promises
exact recovery (base, regular, snagt, oracle) missed its target.
"""

import argparse
import resource
import sys
import time

from hypergt import ExperimentConfig, ModelSpec, build_model, run_experiment
from hypergt.harness import ALGORITHMS
from hypergt.oracle import MAX_EDGES

# The settings each algorithm runs with besides the model; the rest keep their
# defaults, and noisy_adaptive adds a budget of 10n physical tests.
SETTINGS = {"truncated": {"eps": 0.1}, "snagt": {"u": 4}, "noisy_adaptive": {"delta": 0.05},
            "noisy_snagt": {"u": 4, "delta": 0.05}}
TOLERATES_ERROR = ("truncated", "noisy_adaptive", "noisy_snagt")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--algorithm", choices=ALGORITHMS, default="base")
    args = ap.parse_args()

    count = MAX_EDGES if args.algorithm == "oracle" else 10 * args.n
    spec = ModelSpec("random_regular", {"n": args.n, "d": 3, "count": count, "seed": args.seed})
    t0 = time.perf_counter()
    graph, dist = build_model(spec)
    t1 = time.perf_counter()
    settings = SETTINGS.get(args.algorithm, {})
    if args.algorithm == "noisy_adaptive":
        settings = {**settings, "max_tests": 10 * args.n}
    config = ExperimentConfig(model=spec, algorithm=args.algorithm, trials=args.trials,
                              seed=args.seed, **settings)
    results = run_experiment(config, graph, dist)
    t2 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    wrong = sum(not r.correct for r in results)
    tests = sum(r.tests for r in results) / len(results)
    print(f"n={graph.n} |E|={len(graph)} trials={len(results)} wrong={wrong} "
          f"build_s={t1 - t0:.2f} ms_per_trial={(t2 - t1) * 1e3 / len(results):.1f} "
          f"tests_per_trial={tests:.2f} peak_rss_mb={peak_mb:.1f}")
    return 1 if wrong and args.algorithm not in TOLERATES_ERROR else 0


if __name__ == "__main__":
    sys.exit(main())
