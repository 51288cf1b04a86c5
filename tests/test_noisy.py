import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceRepeated,
    majority_error_probability,
    oracle_for,
    random_model,
    reference_noisy_adaptive,
    truth_for,
)
from hypergt.adaptive import AdaptiveConfig, run_adaptive
from hypergt.builders import build_independent, build_islands, build_random_regular
from hypergt.errors import ModelError, SchemaError, ZeroSurvivorMass
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
    _Repeated,
    admissible_threshold,
    bayes_update_noisy,
    noisy_oracle,
    repetitions,
    run_noisy_adaptive,
    run_noisy_snagt,
)
from hypergt.oracle import direct_posterior
from hypergt.sets import mask_of
from hypergt.snagt import SnagtConfig, run_snagt
from hypergt.transcript import INDIVIDUAL, RESIDUAL, SPLIT


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
        a = bayes_update_noisy(post, mask_of([1, 3]), True, 0.0)
        b = condition_on_test(post, mask_of([1, 3]), True)
        assert np.array_equal(a.q, b.q)  # bitwise, same arithmetic path

    def test_delta_of_one_half_is_refused(self, fig1):
        with pytest.raises(SchemaError, match=re.escape("delta=0.5 outside [0, 1/2)")):
            bayes_update_noisy(prior_posterior(*fig1), mask_of([1, 3]), True, 0.5)

    def test_fig1_hand_bayes(self, fig1):
        post = prior_posterior(*fig1)
        noisy = bayes_update_noisy(post, mask_of([1, 3]), True, 0.1)
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
    """Both noisy engines take the majority of a repetition group, and an even
    split counts as positive."""

    @pytest.mark.parametrize("answers,positives", [
        ([True, False, True, False], (0, 1)),
        ([False, True, False, True], (0, 1)),
        ([False, False, True, True], (1,)),
    ], ids=["true-first", "false-first", "control"])
    def test_even_split_counts_positive_in_noisy_adaptive(self, answers, positives):
        # independent p = (0.9, 0.9): the residual is both nodes, so the empty
        # complement costs nothing and stage 2 asks node 0, then node 1, twice
        # each (ceil(1 * log2(2) / 0.8^2) = 2).
        graph, dist = build_independent([0.9, 0.9])
        script = iter(answers)
        tr = run_noisy_adaptive(graph, dist, lambda t: next(script), AdaptiveConfig(),
                                NoiseChannel(0.1), alpha=1.0, max_physical_tests=100)
        assert [(r.query_mask, r.outcome, r.stage) for r in tr.records] == [
            (1 << v, a, INDIVIDUAL) for v, a in zip((0, 0, 1, 1), answers)]
        assert tr.result_nodes == positives

    @pytest.mark.parametrize("ties,edge", [(True, 0), (False, 1)],
                             ids=["split-groups", "control"])
    def test_even_split_counts_positive_in_noisy_snagt(self, ties, edge):
        # Edges {0, 1} and {} with equal mass; every test is asked twice
        # (ceil(0.25 * log2(16) / 0.8^2) = 2). The oracle answers a test that
        # meets {0, 1} with True then False (or False twice for the control),
        # and every other test with False twice. Only if a split is positive
        # does {} die and {0, 1} survive.
        graph = Hypergraph(8, [[0, 1], []])
        calls = []

        def split(t_mask):
            calls.append(t_mask)
            return ties and bool(t_mask & 0b11) and len(calls) % 2 == 1

        tr = run_noisy_snagt(graph, EdgeDistribution([0.5, 0.5]), split,
                             SnagtConfig(u=2, stop_coeff=1.0, seed=0), NoiseChannel(0.1),
                             alpha=0.25)
        assert calls[0::2] == calls[1::2] and any(t & 0b11 for t in calls)
        assert not tr.halted and tr.result_edge == edge

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
        wrong = 0
        for _ in range(sims):
            votes = sum(oracle(0b01000) for _ in range(ell))  # truly negative
            wrong += 2 * votes >= ell
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
            assert noisy.result_mask == base.result_mask

    @pytest.mark.parametrize("config", [
        AdaptiveConfig(variant="regular"),
        AdaptiveConfig(variant="truncated", f2=3),
    ], ids=["regular", "truncated"])
    def test_only_the_base_variant_runs_under_noise(self, fig1, config):
        graph, dist = fig1
        with pytest.raises(ModelError, match="noisy runs support only variant='base'"):
            run_noisy_adaptive(graph, dist, oracle_for(graph, 0), config, NoiseChannel(0.1),
                               max_physical_tests=100)

    @pytest.mark.parametrize("settings,message", [
        ({"u": 0}, "u=0 must be >= 1"),
        ({"max_physical_tests": 0}, "physical-test budget 0 must be >= 1"),
        ({"alpha": -1}, "alpha=-1 must be finite and >= 0"),
        # Of the wrong type, a string raised a bare TypeError mid-run, and a
        # boolean alpha and a fractional u were run with.
        ({"alpha": "2"}, "run_noisy_adaptive: 'alpha' must be float, not '2'"),
        ({"alpha": True}, "run_noisy_adaptive: 'alpha' must be float, not True"),
        ({"u": "3"}, "run_noisy_adaptive: 'u' must be int | None, not '3'"),
        ({"u": 2.5}, "run_noisy_adaptive: 'u' must be int | None, not 2.5"),
        ({"max_physical_tests": "9"},
         "run_noisy_adaptive: 'max_physical_tests' must be int | None, not '9'"),
    ], ids=["u", "budget", "alpha", "str-alpha", "bool-alpha", "str-u", "float-u", "str-budget"])
    def test_direct_calls_refuse_bad_settings_with_a_model_error(self, fig1, settings, message):
        graph, dist = fig1
        with pytest.raises(SchemaError, match=re.escape(message)):
            run_noisy_adaptive(graph, dist, oracle_for(graph, 0), AdaptiveConfig(),
                               NoiseChannel(0.1), **settings)

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
            ok += (not tr.halted) and tr.result_mask == truth.mask
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


class TestMismatchCounts:
    """The noisy adaptive observer keeps the prior and each edge's count of
    contradicting outcomes; its posterior is the prior times r^count."""

    @pytest.mark.parametrize("seed", range(5))
    def test_an_edge_lost_to_underflow_comes_back(self, seed):
        # 400 noisy random queries on islands(4, 2, 0.5) leave one edge so
        # far behind that its q underflows to 0; 400 queries answered as that
        # edge would answer bring it back, in the engine's observer and in
        # the one-pass reference alike.
        g, d = build_islands(4, 2, 0.5)
        channel = NoiseChannel(0.05)
        r_t, r_n, r_q = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        truth = sample_truth(g, d, r_t)
        obs = _Repeated(noisy_oracle(truth, channel, r_n), prior_posterior(g, d), channel.delta,
                        {SPLIT: 1}, cap=10_000)
        for t in r_q.integers(1, 2 ** g.n, size=400).tolist():
            obs.ask(t, SPLIT)
        lost = np.flatnonzero(obs.post.q == 0.0)
        assert lost.size
        edge = int(lost[0])
        obs.oracle = oracle_for(g, edge)
        for t in r_q.integers(1, 2 ** g.n, size=400).tolist():
            obs.ask(t, SPLIT)
        assert obs.post.q[edge] > 0.0
        transcript = [(r.query_mask, r.outcome) for r in obs.tr.records]
        direct = direct_posterior(g, d, transcript, delta=channel.delta)
        assert direct.q[edge] > 0.0
        assert np.allclose(direct.q, obs.post.q, rtol=1e-12, atol=0.0)
        assert obs.mismatches.max() <= obs.tr.total  # a count, never a lost edge

    @pytest.mark.parametrize("seed", range(150))
    def test_matches_the_per_test_reference(self, seed):
        # Random groups on a random model, some of whose edges have zero
        # prior, against one `bayes_update_noisy` step per physical test.
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng, max_n=7, max_edges=16)
        probs = dist.probs * (rng.random(len(dist)) < 0.8)
        probs[int(rng.integers(len(dist)))] = 1.0
        dist = EdgeDistribution(probs / probs.sum())
        delta = float(rng.choice([0.0, 0.01, 0.05, 0.2, 0.45]))
        if delta == 0.0:  # noiseless: the outcomes of one edge of positive prior
            target = int(rng.choice(np.flatnonzero(dist.probs)))
            answer = oracle_for(graph, target)
        else:
            answers = iter((rng.random(10_000) < rng.random()).tolist())
            answer = lambda t: next(answers)
        calls = []

        def scripted(t_mask):
            calls.append(answer(t_mask))
            return calls[-1]

        ells = {SPLIT: 1, RESIDUAL: int(rng.integers(1, 8)), INDIVIDUAL: int(rng.integers(1, 8))}
        cap = int(rng.integers(1, 80))
        obs = _Repeated(scripted, prior_posterior(graph, dist), delta, ells, cap)
        replay = iter(calls)
        ref = ReferenceRepeated(lambda t: next(replay), prior_posterior(graph, dist), delta, ells, cap)
        for _ in range(40):
            t = int(rng.integers(0, 2 ** graph.n))
            stage = str(rng.choice([SPLIT, RESIDUAL, INDIVIDUAL]))
            verdict = obs.ask(t, stage)
            assert ref.ask(t, stage) == verdict
            if np.all(ref.post.q[dist.probs > 0.0] > 0.0):
                assert np.max(np.abs(obs.post.q - ref.post.q)) <= 1e-12
            if verdict is None:
                break
        assert obs.tr.to_json() == ref.tr.to_json()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cap", [5, 13, 25, 33])
    def test_a_budget_cut_group_keeps_the_reference_transcript(self, seed, cap):
        g, d = build_islands(4, 2, 0.5)
        channel = NoiseChannel(0.05)
        docs = []
        for run, noise in ((run_noisy_adaptive, channel), (reference_noisy_adaptive, channel.delta)):
            r_t, r_n = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
            truth = sample_truth(g, d, r_t)
            tr = run(g, d, noisy_oracle(truth, channel, r_n), AdaptiveConfig(c=0.45), noise, u=8,
                     max_physical_tests=cap)
            docs.append(tr.to_json())
        records = docs[0]["records"]
        last = [r for r in records if r["rep_group"] == records[-1]["rep_group"]]
        ell = {RESIDUAL: repetitions(2.0, g.n, channel.delta),
               INDIVIDUAL: repetitions(2.0, max(2.0, math.log2(g.n) * 8), channel.delta)}
        assert docs[0]["halted"] and len(last) < ell[last[-1]["stage"]]
        assert docs[0] == docs[1]

    def test_zero_delta_contradiction_still_raises(self):
        # At delta = 0 node 0 is asked twice (ceil(2 log2 2) = 2); True then
        # False contradicts every edge.
        graph, dist = build_independent([0.9, 0.9])
        answers = iter([True, False])
        with pytest.raises(ZeroSurvivorMass, match="inconsistent with every surviving edge"):
            run_noisy_adaptive(graph, dist, lambda t: next(answers), AdaptiveConfig(),
                               NoiseChannel(0.0), max_physical_tests=100)
        with pytest.raises(ZeroSurvivorMass):
            direct_posterior(graph, dist, [(0b01, True), (0b01, False)])


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

    def test_a_string_alpha_is_refused(self, fig1):
        graph, dist = fig1
        with pytest.raises(SchemaError, match=re.escape(
                "run_noisy_snagt: 'alpha' must be float, not '2'")):
            run_noisy_snagt(graph, dist, oracle_for(graph, 0), SnagtConfig(4), NoiseChannel(0.1),
                            alpha="2")

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
            ok += (not tr.halted) and tr.result_mask == truth.mask
        assert ok / trials >= 0.9


class TestZeroNodes:
    """log2 n has no value at n = 0: each noisy engine refuses such a model
    with a message naming the quantity it cannot compute."""

    def test_noisy_snagt_refuses_it_as_snagt_does(self):
        g, d = Hypergraph(0, [[]]), EdgeDistribution([1.0])
        with pytest.raises(SchemaError, match=r"survival threshold .* is undefined at n=0"):
            run_noisy_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=2), NoiseChannel(0.1))

    def test_noisy_adaptive_refuses_it(self):
        g, d = Hypergraph(0, [[]]), EdgeDistribution([1.0])
        with pytest.raises(ValueError, match=re.escape("needs x >= 1 (x is n, u log2 n or u n), got x=0")):
            run_noisy_adaptive(g, d, oracle_for(g, 0), AdaptiveConfig(), NoiseChannel(0.1))


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

    @pytest.mark.parametrize("alpha,message", [
        (-1.0, "alpha=-1.0 must be finite and >= 0"),
        (math.nan, "alpha=nan must be finite and >= 0"),
        (math.inf, "alpha=inf must be finite and >= 0"),
        (1e308, "alpha=1e+308 overflows the repetition count"),
    ], ids=["negative", "nan", "infinite", "overflowing"])
    def test_alpha_outside_its_range_is_refused(self, alpha, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            repetitions(alpha, 4, 0.4)

    @pytest.mark.parametrize("args,message", [
        ((2.0, "5", 0.1), "repetitions: 'x' must be float, not '5'"),
        ((True, 5, 0.1), "repetitions: 'alpha' must be float, not True"),
        ((2.0, 5, None), "repetitions: 'delta' must be float, not None"),
    ], ids=["str-x", "bool-alpha", "none-delta"])
    def test_arguments_of_the_wrong_type_are_refused(self, args, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            repetitions(*args)

    @pytest.mark.parametrize("x", [0, 0.5, -4, math.nan])
    def test_x_below_one_is_refused(self, x):
        with pytest.raises(ValueError, match=re.escape(f"got x={x}")):
            repetitions(2.0, x, 0.1)

    @pytest.mark.parametrize("u,cap,message", [
        (-3, None, "u=-3 must be >= 1"),
        (0, None, "u=0 must be >= 1"),
        (None, 0, "physical-test budget 0 must be >= 1"),
        (None, -1, "physical-test budget -1 must be >= 1"),
    ], ids=["negative-u", "zero-u", "zero-budget", "negative-budget"])
    def test_noisy_adaptive_refuses_a_bound_or_budget_below_one(self, fig1, u, cap, message):
        graph, dist = fig1
        with pytest.raises(ValueError, match=re.escape(message)):
            run_noisy_adaptive(graph, dist, oracle_for(graph, 0), AdaptiveConfig(),
                               NoiseChannel(0.1), u=u, max_physical_tests=cap)

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
