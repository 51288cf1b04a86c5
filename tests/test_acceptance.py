"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Statistical checks use fixed seeds and three-standard-error slack;
exact checks use exact equality.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    majority_error_probability,
    nonadaptive_min_error,
    oracle_for,
    random_model,
    sample_edge_faulty,
    sample_sbim,
    truth_for,
)
from hypergt.adaptive import AdaptiveConfig, run_adaptive
from hypergt.builders import (
    ModelSpec,
    build_cosize,
    build_islands,
    build_nested,
    build_partial_regular,
    build_sbim,
)
from hypergt.harness import ExperimentConfig, check_bounds, resolve_model, run_experiment, summarize
from hypergt.model import (
    EdgeDistribution,
    Hypergraph,
    condition_on_test,
    edge_entropy,
    expected_infections,
    noiseless_oracle,
    prior_posterior,
    sample_truth,
)
from hypergt.noisy import NoiseChannel, noisy_oracle, run_noisy_adaptive
from hypergt.oracle import direct_posterior, optimal_expected_tests
from hypergt.snagt import SnagtConfig, run_snagt


def report(num: int, ok: bool, detail: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s): {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def fig1_model():
    return (Hypergraph(5, [[0, 1, 2], [0, 4], [3, 4]]),
            EdgeDistribution([0.3, 0.2, 0.5]))


def test_criterion_01_worked_example_expected_tests():
    t0 = time.time()
    graph, dist = fig1_model()
    cfg = AdaptiveConfig(c=0.1)
    exact = sum(p * run_adaptive(graph, dist, oracle_for(graph, i), cfg).total
                for i, p in enumerate(dist.probs))
    correct = all(
        run_adaptive(graph, dist, oracle_for(graph, i), cfg).result_edge == i
        for i in range(3)
    )
    rng = np.random.default_rng(101)
    tally = 0
    for _ in range(3000):
        truth = sample_truth(graph, dist, rng)
        tally += run_adaptive(graph, dist, noiseless_oracle(truth), cfg).total
    mc_mean = tally / 3000
    ok = exact == 1.5 and correct and abs(mc_mean - 1.5) <= 0.05
    report(1, ok, f"five-node example: exact E[tests]={exact}, MC mean={mc_mean:.4f}",
           t0, budget=1.0)


def test_criterion_02_cosize_linear_cost_and_entropy_gap():
    t0 = time.time()
    ok = True
    for n in (8, 16):
        g, d = build_cosize(n)
        for i in range(n):
            tr = run_adaptive(g, d, oracle_for(g, i), AdaptiveConfig(c=0.2))
            ok &= tr.total == n and tr.result_edge == i
    g8, d8 = build_cosize(8)
    value, _ = optimal_expected_tests(g8, d8)
    entropy = edge_entropy(d8)
    ok &= abs(value - (8 - 1) * (8 + 2) / (2 * 8)) < 1e-9  # 4.375
    ok &= value > entropy + 1.0  # strict gap above log2(8) = 3
    report(2, ok, f"co-size family: n tests at n=8,16; optimum {value} vs H(X) {entropy}",
           t0, budget=10.0)


def test_criterion_03_single_window_family_d_plus_2():
    t0 = time.time()
    d_param = 4
    g, d = build_partial_regular(10, d_param)
    ok = True
    for i in range(d_param + 1):
        tr = run_adaptive(g, d, oracle_for(g, i), AdaptiveConfig(c=0.2))
        ok &= tr.total == d_param + 2 and tr.result_edge == i
    report(3, ok, f"one-window family at d={d_param}: every target takes d+2 = {d_param + 2} tests",
           t0, budget=1.0)


def test_criterion_04_chain_optimality_and_nonadaptive_floor():
    t0 = time.time()
    g, d = build_nested(8)
    value, _ = optimal_expected_tests(g, d)
    ok = abs(value - 3.0) < 1e-9 and abs(value - edge_entropy(d)) < 1e-9
    floor_ok = True
    for n in range(4, 11):
        for budget in range(n):
            err = nonadaptive_min_error(n, budget)
            floor_ok &= err >= (n - 1 - budget) / (2 * n) - 1e-12
    report(4, ok and floor_ok,
           f"chain optimum {value} = H(X); preplanned single-probe error floor holds for n <= 10",
           t0, budget=60.0)


def test_criterion_05_posterior_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(55)
    worst = 0.0
    for case in range(1000):
        graph, dist = random_model(rng, max_n=8, max_edges=12)
        delta = (0.0, 0.1, 0.3)[case % 3]
        target = int(rng.choice(len(dist.probs), p=dist.probs))
        oracle = oracle_for(graph, target)
        post = prior_posterior(graph, dist)
        transcript = []
        for _ in range(int(rng.integers(1, 7))):
            t = int(rng.integers(0, 2 ** graph.n))
            r = oracle(t) if delta == 0.0 else bool(rng.integers(2))
            transcript.append((t, r))
            if delta == 0.0:
                post = condition_on_test(post, t, r)
            else:
                from hypergt.noisy import bayes_update_noisy

                post = bayes_update_noisy(post, t, r, delta)
        direct = direct_posterior(graph, dist, transcript, delta=delta)
        worst = max(worst, float(np.max(np.abs(post.q - direct.q))))
    report(5, worst <= 1e-9,
           f"sequential vs one-pass posterior on 1000 cases: max gap {worst:.2e}",
           t0, budget=30.0)


def test_criterion_06_bound_conformance_suite():
    t0 = time.time()
    rng = np.random.default_rng(66)
    p12 = [round(float(x), 3) for x in rng.uniform(0.05, 0.45, size=12)]
    suite = [
        ("independent", ModelSpec("independent", {"p": p12})),
        ("islands", ModelSpec("islands", {"k": 6, "m": 2, "p": 0.5})),
        ("community", ModelSpec("community", {"sizes": [4, 4, 4], "q": 0.3,
                                              "p": [0.6, 0.5, 0.4]})),
        ("big_graph", ModelSpec("big_graph", {"n": 4})),
        ("random_regular", ModelSpec("random_regular", {"n": 30, "d": 3,
                                                        "count": 40, "seed": 6})),
    ]
    ok = True
    details = []
    for name, spec in suite:
        cfg = ExperimentConfig(model=spec, algorithm="base", trials=2000, seed=606, c=1 / 3)
        graph, dist = resolve_model(cfg)
        res = run_experiment(cfg, graph, dist)
        failures = [r for r in res if r.error]
        rep = check_bounds(graph, dist, res, cfg)
        s = summarize(res)
        model_ok = not failures and s.wrong == 0 and rep.all_passed
        ok &= model_ok
        details.append(f"{name}:{'ok' if model_ok else 'FAIL'}(mean {s.tests.mean:.2f})")
    report(6, ok, "exactness + stage budgets on " + ", ".join(details), t0, budget=300.0)


def test_criterion_07_error_tolerant_mode():
    t0 = time.time()
    g, d = build_islands(6, 2, 0.5)
    eps, c = 0.1, 1 / 3
    cfg = ExperimentConfig(model=ModelSpec("islands", {"k": 6, "m": 2, "p": 0.5}),
                           algorithm="truncated", trials=10_000, seed=77, c=c, eps=eps)
    res = run_experiment(cfg, g, d)
    s = summarize(res)
    entropy = edge_entropy(d)
    mu = expected_infections(prior_posterior(g, d))
    bound = 2 * entropy / math.log2(1 / (1 - c)) + 2 * mu / eps
    ok = s.error_rate <= eps and s.tests.mean <= bound
    report(7, ok,
           f"error-tolerant mode: error rate {s.error_rate:.4f} <= {eps}, "
           f"mean tests {s.tests.mean:.2f} <= {bound:.2f}", t0, budget=120.0)


def test_criterion_08_preplanned_engine():
    t0 = time.time()
    spec = ModelSpec("random_regular", {"n": 60, "d": 3, "count": 30, "seed": 7})
    cfg = ExperimentConfig(model=spec, algorithm="snagt", trials=500, seed=88, u=3)
    graph, dist = resolve_model(cfg)
    res = run_experiment(cfg, graph, dist)
    s = summarize(res)
    recovery = 1.0 - s.error_rate

    schedules = []
    for target in (0, 11, 29):
        tr = run_snagt(graph, dist, oracle_for(graph, target), SnagtConfig(u=3, seed=4242))
        schedules.append([r["query"] for r in tr.records])
    k = min(len(q) for q in schedules)
    same_design = schedules[0][:k] == schedules[1][:k] == schedules[2][:k]

    scale = 3 * (edge_entropy(dist) + math.log2(60))
    ok = recovery >= 0.95 and same_design
    report(8, ok,
           f"preplanned engine: recovery {recovery:.3f}, target-independent schedule, "
           f"mean tests {s.tests.mean:.1f} = {s.tests.mean / scale:.2f} x u(H+log2 n)",
           t0, budget=120.0)


def test_criterion_09_noisy_adaptive():
    t0 = time.time()
    g, d = build_islands(6, 2, 0.5)
    delta = 0.1
    channel = NoiseChannel(delta)
    ok_runs = 0
    positivity = True
    trials = 500
    for trial in range(trials):
        ss = np.random.SeedSequence(entropy=909, spawn_key=(trial,))
        r_target, r_noise = (np.random.default_rng(s) for s in ss.spawn(2))
        truth = sample_truth(g, d, r_target)
        tr = run_noisy_adaptive(g, d, noisy_oracle(truth, channel, r_noise),
                                AdaptiveConfig(c=1 / 3), channel, u=12,
                                max_physical_tests=2000)
        ok_runs += (not tr.halted) and tr.result_mask == truth.mask
        # running exact-Bayes replay: the target's mass never hits zero
        weights = d.probs.copy()
        for rec in tr.records:
            t_mask = 0
            for v in rec["query"]:
                t_mask |= 1 << v
            hits = np.array([bool(m & t_mask) for m in g.edge_masks])
            like = np.where(hits == rec["outcome"], 1 - delta, delta)
            weights = weights * like
            weights = weights / weights.sum()
            positivity &= weights[truth.target] > 0.0
    recovery = ok_runs / trials

    # majority verdicts against the exact flip tail
    ell, sims = 3, 30_000
    oracle = noisy_oracle(truth_for(g, 1), channel, np.random.default_rng(9090))
    negative_query = 0  # empty set never intersects the target
    for v in range(g.n):
        if not (g.edge_masks[1] >> v) & 1:
            negative_query = 1 << v
            break
    wrong = 0
    for _ in range(sims):  # ties count as positive, as in both noisy engines
        votes = sum(oracle(negative_query) for _ in range(ell))
        wrong += 2 * votes >= ell
    expect = majority_error_probability(ell, delta)
    stderr = math.sqrt(expect * (1 - expect) / sims)
    tail_ok = abs(wrong / sims - expect) <= 3 * stderr

    ok = recovery >= 0.9 and positivity and tail_ok
    report(9, ok,
           f"noisy adaptive: recovery {recovery:.3f}, target mass positive throughout, "
           f"majority error {wrong / sims:.4f} vs exact tail {expect:.4f}",
           t0, budget=180.0)


def test_criterion_10_generative_cross_validation():
    t0 = time.time()
    draws = 100_000

    contact = [(0, 1), (1, 2)]
    from hypergt.builders import build_edge_faulty

    g1, d1 = build_edge_faulty(3, contact, r=0.6, p=0.4)
    rng = np.random.default_rng(1010)
    counts: dict[int, int] = {}
    for _ in range(draws):
        m = sample_edge_faulty(3, contact, 0.6, 0.4, rng)
        counts[m] = counts.get(m, 0) + 1
    enum1 = {g1.edge_masks[i]: float(d1.probs[i]) for i in range(len(g1))}
    tv1 = 0.5 * sum(abs(enum1.get(m, 0.0) - counts.get(m, 0) / draws)
                    for m in set(enum1) | set(counts))

    g2, d2 = build_sbim(2, 2, seed_prob=0.3, q1=0.5, q2=0.1)
    counts = {}
    for _ in range(draws):
        m = sample_sbim(2, 2, 0.3, 0.5, 0.1, rng)
        counts[m] = counts.get(m, 0) + 1
    enum2 = {g2.edge_masks[i]: float(d2.probs[i]) for i in range(len(g2))}
    tv2 = 0.5 * sum(abs(enum2.get(m, 0.0) - counts.get(m, 0) / draws)
                    for m in set(enum2) | set(counts))

    ok = tv1 <= 0.01 and tv2 <= 0.01
    report(10, ok,
           f"generative enumerations vs {draws} samples: TV {tv1:.4f} (contact graph), "
           f"{tv2:.4f} (seeded blocks)", t0, budget=60.0)
