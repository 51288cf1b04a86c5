#!/usr/bin/env python3
"""Show the defining property of the preplanned engine: the test schedule
depends only on (n, u, seed), never on outcomes, and recovery still holds
under symmetric noise once tests are repeated."""

import argparse

import numpy as np

from hypergt import (
    ModelSpec,
    NoiseChannel,
    SnagtConfig,
    build_model,
    noiseless_oracle,
    noisy_oracle,
    run_noisy_snagt,
    run_snagt,
    sample_truth,
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

    ok = 0
    tests = []
    for trial in range(args.trials):
        rng = np.random.default_rng(1000 + trial)
        truth = sample_truth(graph, dist, rng)
        tr = run_snagt(graph, dist, noiseless_oracle(truth), SnagtConfig(u=args.u, seed=trial))
        ok += (not tr.halted) and tr.returned_mask() == truth.mask
        tests.append(tr.total)
    print(f"noiseless: {ok}/{args.trials} recovered, mean tests {np.mean(tests):.1f}")

    channel = NoiseChannel(args.delta)
    ok = 0
    physical = []
    for trial in range(args.trials):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(trial,))
        r_target, r_noise = (np.random.default_rng(s) for s in ss.spawn(2))
        truth = sample_truth(graph, dist, r_target)
        tr = run_noisy_snagt(graph, dist, noisy_oracle(truth, channel, r_noise),
                             SnagtConfig(u=args.u, seed=trial), channel)
        ok += (not tr.halted) and tr.returned_mask() == truth.mask
        physical.append(tr.total)
    print(f"noisy (delta={args.delta}): {ok}/{args.trials} recovered, "
          f"mean physical tests {np.mean(physical):.0f}")


if __name__ == "__main__":
    main()
