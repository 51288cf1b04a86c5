#!/usr/bin/env python3
"""Show the defining property of the preplanned engine: the test schedule
depends only on (n, u, seed), never on outcomes, and recovery still holds
under symmetric noise once tests are repeated."""

import argparse

from hypergt import (
    ExperimentConfig,
    ModelSpec,
    SnagtConfig,
    build_model,
    noiseless_oracle,
    run_experiment,
    run_snagt,
    summarize,
)
from hypergt.model import GroundTruth


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--edges", type=int, default=30)
    ap.add_argument("--u", type=int, default=3)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--delta", type=float, default=0.05)
    args = ap.parse_args()

    spec = ModelSpec("random_regular", {"n": args.n, "d": args.u,
                                        "count": args.edges, "seed": 7})
    graph, dist = build_model(spec)

    schedules = []
    for target in (0, args.edges // 2, args.edges - 1):
        truth = GroundTruth(target, graph.edge_masks[target])
        tr = run_snagt(graph, dist, noiseless_oracle(truth), SnagtConfig(u=args.u, seed=99))
        schedules.append([r.query for r in tr.records])
    k = min(len(s) for s in schedules)
    same = all(s[:k] == schedules[0][:k] for s in schedules)
    print(f"schedule identical across targets on the shared prefix: {same}")

    for algorithm, delta, label in (("snagt", 0.0, "noiseless"),
                                    ("noisy_snagt", args.delta, f"noisy (delta={args.delta})")):
        config = ExperimentConfig(spec, algorithm, trials=args.trials, u=args.u, delta=delta)
        s = summarize(run_experiment(config, graph, dist))
        print(f"{label}: {s.count - s.wrong}/{s.count} recovered, "
              f"mean physical tests {s.tests.mean:.1f}")


if __name__ == "__main__":
    main()
