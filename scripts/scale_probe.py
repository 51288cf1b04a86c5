#!/usr/bin/env python3
"""Time an engine on a large sparse model and report its peak memory.

    python3 scripts/scale_probe.py --n 2000 --trials 5
    python3 scripts/scale_probe.py --n 5000 --trials 5 --algorithm snagt

The model is random_regular(n, 3, count=10n): 10n distinct 3-node edges of
uniform mass. The script builds it, runs `--trials` seeded trials of
`--algorithm` (the adaptive `base` engine, or the preplanned `snagt` engine at
u = 4) through `run_experiment`, checks that every trial recovered its target,
and prints the build time, the mean milliseconds per trial, the mean tests per
trial and the process's peak resident set size (`ru_maxrss`). The tests per
trial show a change of behaviour at an n far beyond the golden grid next to
the timing. Run one n per process: the peak is the process's own.
"""

import argparse
import resource
import sys
import time

from hypergt import ExperimentConfig, ModelSpec, build_model, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--algorithm", choices=("base", "snagt"), default="base")
    args = ap.parse_args()

    spec = ModelSpec("random_regular", {"n": args.n, "d": 3, "count": 10 * args.n,
                                        "seed": args.seed})
    t0 = time.perf_counter()
    graph, dist = build_model(spec)
    t1 = time.perf_counter()
    config = ExperimentConfig(model=spec, algorithm=args.algorithm, trials=args.trials,
                              seed=args.seed, u=4 if args.algorithm == "snagt" else None)
    results = run_experiment(config, graph, dist)
    t2 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    wrong = sum(not r.correct for r in results)
    tests = sum(r.tests for r in results) / len(results)
    print(f"n={graph.n} |E|={len(graph)} trials={len(results)} wrong={wrong} "
          f"build_s={t1 - t0:.2f} ms_per_trial={(t2 - t1) * 1e3 / len(results):.1f} "
          f"tests_per_trial={tests:.2f} peak_rss_mb={peak_mb:.1f}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
