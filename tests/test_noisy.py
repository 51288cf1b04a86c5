import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_for, random_model, truth_for
from hypergt.adaptive import AdaptiveConfig, run_adaptive
from hypergt.builders import build_islands, build_random_regular
from hypergt.model import (
    EdgeDistribution,
    Hypergraph,
    condition_on_test,
    noiseless_oracle,
    prior_posterior,
    sample_truth,
)
from hypergt.noisy import (
    NoiseChannel,
    admissible_threshold,
    bayes_update_noisy,
    majority_error_probability,
    majority_test,
    noisy_oracle,
    repetitions,
    run_noisy_adaptive,
    run_noisy_snagt,
)
from hypergt.oracle import direct_posterior
from hypergt.sets import mask_of
from hypergt.snagt import SnagtConfig, run_snagt


class TestChannelAndOracle:
    def test_delta_domain(self):
        with pytest.raises(ValueError):
            NoiseChannel(0.5)
        with pytest.raises(ValueError):
            NoiseChannel(-0.01)
        NoiseChannel(0.0)

    def test_zero_noise_matches_noiseless(self, fig1):
        graph, _ = fig1
        truth = truth_for(graph, 0)
        noisy = noisy_oracle(truth, NoiseChannel(0.0), np.random.default_rng(0))
        clean = noiseless_oracle(truth)
        for t in range(1, 32):
            assert noisy(t) == clean(t)

    def test_flip_frequency(self, fig1):
        graph, _ = fig1
        truth = truth_for(graph, 0)  # edge {0,1,2}
        oracle = noisy_oracle(truth, NoiseChannel(0.1), np.random.default_rng(1))
        calls = 100_000
        positives = sum(oracle(0b00001) for _ in range(calls))
        assert abs(positives / calls - 0.9) < 0.01

    def test_near_half_noise_is_uninformative(self, fig1):
        graph, _ = fig1
        truth = truth_for(graph, 0)
        oracle = noisy_oracle(truth, NoiseChannel(0.5 - 1e-6), np.random.default_rng(2))
        calls = 100_000
        positives = sum(oracle(0b00001) for _ in range(calls))
        assert abs(positives / calls - 0.5) < 0.01


class TestBayesUpdate:
    def test_zero_delta_collapses_to_conditioning(self, fig1):
        post = prior_posterior(*fig1)
        a = bayes_update_noisy(post, [1, 3], True, 0.0)
        b = condition_on_test(post, [1, 3], True)
        assert np.array_equal(a.q, b.q)  # bitwise, same arithmetic path

    def test_fig1_hand_bayes(self, fig1):
        post = prior_posterior(*fig1)
        noisy = bayes_update_noisy(post, [1, 3], True, 0.1)
        assert np.allclose(noisy.q, [27 / 74, 2 / 74, 45 / 74], atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.1, 0.2, 0.3]))
    def test_positivity_and_direct_equivalence(self, seed, delta):
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng)
        post = prior_posterior(graph, dist)
        transcript = []
        for _ in range(int(rng.integers(1, 7))):
            t = int(rng.integers(0, 2 ** graph.n))
            r = bool(rng.integers(2))  # arbitrary outcomes: noise admits any
            transcript.append((t, r))
            post = bayes_update_noisy(post, t, r, delta)
            assert np.all(post.q[dist.probs > 0] > 0.0)
        direct = direct_posterior(graph, dist, transcript, delta=delta)
        assert np.allclose(post.q, direct.q, atol=1e-9)


class TestMajority:
    def test_no_noise_any_ell(self, fig1):
        graph, _ = fig1
        oracle = noiseless_oracle(truth_for(graph, 0))
        for ell in (1, 2, 5):
            assert majority_test(oracle, 0b00001, ell) is True
            assert majority_test(oracle, 0b01000, ell) is False

    def test_single_repeat_is_single_query(self):
        calls = []
        oracle = lambda t: calls.append(t) or True
        assert majority_test(oracle, 7, 1) is True
        assert calls == [7]

    def test_even_ties_resolve_positive(self):
        outcomes = iter([True, False])
        assert majority_test(lambda t: next(outcomes), 1, 2) is True

    def test_exact_tail_value(self):
        # 25 repetitions at 10% flip rate: error needs 13 or more flips
        tail = majority_error_probability(25, 0.1)
        brute = sum(math.comb(25, k) * 0.1 ** k * 0.9 ** (25 - k) for k in range(13, 26))
        assert tail == pytest.approx(brute, rel=1e-12)
        assert tail == pytest.approx(1.6208e-7, rel=1e-3)

    def test_simulated_error_matches_tail(self, fig1):
        graph, _ = fig1
        truth = truth_for(graph, 0)
        delta, ell, sims = 0.3, 5, 20_000
        oracle = noisy_oracle(truth, NoiseChannel(delta), np.random.default_rng(3))
        wrong = sum(majority_test(oracle, 0b01000, ell) for _ in range(sims))  # truly negative
        expect = majority_error_probability(ell, delta)
        stderr = math.sqrt(expect * (1 - expect) / sims)
        assert abs(wrong / sims - expect) <= 3 * stderr


class TestNoisyAdaptive:
    def test_zero_delta_unit_schedule_collapses_to_base(self, fig1):
        graph, dist = fig1
        for i in range(3):
            base = run_adaptive(graph, dist, oracle_for(graph, i), AdaptiveConfig(c=0.1))
            noisy = run_noisy_adaptive(graph, dist, oracle_for(graph, i),
                                       AdaptiveConfig(c=0.1), NoiseChannel(0.0),
                                       alpha=0.0, max_physical_tests=1000)
            assert [(r.query, r.outcome) for r in noisy.records] == \
                   [(r.query, r.outcome) for r in base.records]
            assert noisy.returned_mask() == base.returned_mask()

    @pytest.mark.parametrize("config", [
        AdaptiveConfig(variant="regular"),
        AdaptiveConfig(variant="truncated", f2=3),
    ], ids=["regular", "truncated"])
    def test_only_the_base_variant_runs_under_noise(self, fig1, config):
        graph, dist = fig1
        with pytest.raises(ValueError, match="variant"):
            run_noisy_adaptive(graph, dist, oracle_for(graph, 0), config, NoiseChannel(0.1),
                               max_physical_tests=100)

    def test_target_posterior_stays_positive(self):
        g, d = build_islands(4, 2, 0.5)
        ss = np.random.SeedSequence(5)
        r_t, r_n = (np.random.default_rng(s) for s in ss.spawn(2))
        truth = sample_truth(g, d, r_t)
        channel = NoiseChannel(0.1)
        tr = run_noisy_adaptive(g, d, noisy_oracle(truth, channel, r_n),
                                AdaptiveConfig(c=1 / 3), channel, u=8,
                                max_physical_tests=2000)
        prefix = []
        for rec in tr.records:
            prefix.append((mask_of(rec.query), rec.outcome))
            post = direct_posterior(g, d, prefix, delta=0.1)
            assert post.q[truth.target] > 0.0

    def test_recovery_on_islands(self):
        g, d = build_islands(6, 2, 0.5)
        channel = NoiseChannel(0.1)
        ok = 0
        trials = 80
        for trial in range(trials):
            ss = np.random.SeedSequence(trial)
            r_t, r_n = (np.random.default_rng(s) for s in ss.spawn(2))
            truth = sample_truth(g, d, r_t)
            tr = run_noisy_adaptive(g, d, noisy_oracle(truth, channel, r_n),
                                    AdaptiveConfig(c=1 / 3), channel, u=12,
                                    max_physical_tests=2000)
            ok += (not tr.halted) and tr.returned_mask() == truth.mask
        assert ok / trials >= 0.9

    def test_default_cap_is_n_and_halts(self):
        g, d = build_islands(6, 2, 0.5)
        channel = NoiseChannel(0.1)
        ss = np.random.SeedSequence(0)
        r_t, r_n = (np.random.default_rng(s) for s in ss.spawn(2))
        truth = sample_truth(g, d, r_t)
        tr = run_noisy_adaptive(g, d, noisy_oracle(truth, channel, r_n),
                                AdaptiveConfig(c=1 / 3), channel, u=12)
        assert tr.total <= g.n
        assert tr.halted  # 12 physical tests cannot cover the repetitions

    def test_warns_below_admissible_c(self, fig1):
        graph, dist = fig1
        channel = NoiseChannel(0.2)
        assert admissible_threshold(0.2) > 0.2
        truth = truth_for(graph, 0)
        with pytest.warns(UserWarning):
            run_noisy_adaptive(graph, dist, noisy_oracle(truth, channel, np.random.default_rng(0)),
                               AdaptiveConfig(c=0.2), channel, max_physical_tests=200)

    def test_repetition_groups_annotated(self):
        g, d = build_islands(4, 2, 0.5)
        channel = NoiseChannel(0.1)
        ss = np.random.SeedSequence(9)
        r_t, r_n = (np.random.default_rng(s) for s in ss.spawn(2))
        truth = sample_truth(g, d, r_t)
        tr = run_noisy_adaptive(g, d, noisy_oracle(truth, channel, r_n),
                                AdaptiveConfig(c=1 / 3), channel, u=8,
                                max_physical_tests=2000)
        assert all(r.rep_group is not None for r in tr.records)
        groups = {}
        for r in tr.records:
            groups.setdefault(r.rep_group, set()).add(r.query)
        assert all(len(qs) == 1 for qs in groups.values())  # one set per group


class TestNoisySnagt:
    def test_zero_delta_behaves_like_snagt(self):
        g, d = build_random_regular(30, 3, count=12, seed=2)
        clean = run_snagt(g, d, oracle_for(g, 3), SnagtConfig(u=3, seed=4))
        noisy = run_noisy_snagt(g, d, oracle_for(g, 3), SnagtConfig(u=3, seed=4),
                                NoiseChannel(0.0), alpha=0.0)
        assert [(r.query, r.outcome) for r in noisy.records] == \
               [(r.query, r.outcome) for r in clean.records]
        assert noisy.result_edge == clean.result_edge

    def test_schedule_unchanged_by_noise_draws(self):
        g, d = build_random_regular(30, 3, count=12, seed=2)
        channel = NoiseChannel(0.05)
        runs = []
        for noise_seed in (1, 2):
            truth = truth_for(g, 5)
            oracle = noisy_oracle(truth, channel, np.random.default_rng(noise_seed))
            tr = run_noisy_snagt(g, d, oracle, SnagtConfig(u=3, seed=11), channel)
            # logical schedule: first query of each repetition group
            seen = {}
            for r in tr.records:
                seen.setdefault(r.rep_group, r.query)
            runs.append(list(seen.values()))
        k = min(len(runs[0]), len(runs[1]))
        assert runs[0][:k] == runs[1][:k]

    def test_recovery_under_noise(self):
        g, d = build_random_regular(40, 3, count=20, seed=3)
        channel = NoiseChannel(0.05)
        ok = 0
        trials = 40
        for trial in range(trials):
            ss = np.random.SeedSequence(100 + trial)
            r_t, r_n = (np.random.default_rng(s) for s in ss.spawn(2))
            truth = sample_truth(g, d, r_t)
            tr = run_noisy_snagt(g, d, noisy_oracle(truth, channel, r_n),
                                 SnagtConfig(u=3, seed=trial), channel)
            ok += (not tr.halted) and tr.returned_mask() == truth.mask
        assert ok / trials >= 0.9


class TestSchedule:
    def test_formulas(self):
        assert repetitions(2.0, 12, 0.1) == math.ceil(2 * math.log2(12) / 0.64) == 12
        assert repetitions(2.0, math.log2(12) * 12, 0.1) == \
            math.ceil(2 * math.log2(math.log2(12) * 12) / 0.64) == 17
        assert repetitions(1.5, 4 * 500, 0.05) == math.ceil(1.5 * math.log2(2000) / 0.81) == 21

    def test_minimum_one(self):
        assert repetitions(1e-9, 4, 0.0) == 1
        assert repetitions(0.0, 1000, 0.3) == 1
        assert repetitions(2.0, 1, 0.2) == 1  # log2(1) = 0

    @pytest.mark.parametrize("delta", [0.05, 0.2])
    def test_every_repetition_group_holds_the_rule(self, delta):
        """Every repeated site of both noisy engines issues exactly
        repetitions(...) physical tests, unless the cap cuts its group short."""
        channel = NoiseChannel(delta)
        g, d = build_islands(4, 2, 0.5)
        u = 8
        want = {"residual": repetitions(2.0, g.n, delta),
                "individual": repetitions(2.0, max(2.0, math.log2(g.n) * u), delta),
                "split": 1}
        seen = set()
        for seed, cap in [(s, 2000) for s in range(6)] + [(0, 40), (1, 25)]:
            r_t, r_n = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
            truth = sample_truth(g, d, r_t)
            tr = run_noisy_adaptive(g, d, noisy_oracle(truth, channel, r_n),
                                    AdaptiveConfig(c=0.45), channel, u=u,
                                    max_physical_tests=cap)
            groups = {}
            for r in tr.records:
                groups.setdefault(r.rep_group, []).append(r.stage)
            last = max(groups)
            for group, stages in groups.items():
                assert len(set(stages)) == 1
                seen.add(stages[0])
                if tr.halted and group == last:
                    assert len(stages) <= want[stages[0]]
                else:
                    assert len(stages) == want[stages[0]]
        assert seen == {"split", "residual", "individual"}

        g, d = build_random_regular(40, 3, count=20, seed=3)
        config = SnagtConfig(u=3, seed=1)
        tr = run_noisy_snagt(g, d, noisy_oracle(truth_for(g, 4), channel, np.random.default_rng(2)),
                             config, channel)
        groups = {}
        for r in tr.records:
            groups.setdefault(r.rep_group, []).append(r.query)
        assert len(groups) > 1
        assert all(len(qs) == repetitions(2.0, config.u * g.n, delta) for qs in groups.values())
