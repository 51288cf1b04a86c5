import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nonadaptive_min_error, oracle_for, random_model
from hypergt.adaptive import AdaptiveConfig, run_adaptive
from hypergt.builders import build_cosize, build_nested
from hypergt.errors import SchemaError, TooLarge, ZeroSurvivorMass
from hypergt.model import EdgeDistribution, Hypergraph, edge_entropy, prior_posterior
from hypergt.oracle import direct_posterior, optimal_expected_tests, run_policy


class TestOptimalPolicy:
    def test_fig1_value(self, fig1):
        value, _ = optimal_expected_tests(*fig1)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_nested8_matches_entropy(self):
        g, d = build_nested(8)
        value, _ = optimal_expected_tests(g, d)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert value == pytest.approx(edge_entropy(d), abs=1e-9)

    def test_cosize8_sequential_probing_value(self):
        g, d = build_cosize(8)
        value, _ = optimal_expected_tests(g, d)
        assert value == pytest.approx(35 / 8, abs=1e-12)
        assert value > edge_entropy(d)

    def test_policy_consistency(self, fig1):
        """Walking the tree per target, weighted by the prior, reproduces the
        value, and every walk ends at the right leaf."""
        graph, dist = fig1
        value, policy = optimal_expected_tests(graph, dist)
        acc = 0.0
        for i, p in enumerate(dist.probs):
            tr = run_policy(graph, policy, oracle_for(graph, i))
            tests, edge = tr.total, tr.result_edge
            assert edge == i
            acc += p * tests
        assert acc == pytest.approx(value, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_value_at_least_entropy(self, seed):
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng, max_n=4, max_edges=6)
        value, _ = optimal_expected_tests(graph, dist)
        assert value >= edge_entropy(dist) - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_value_never_exceeds_greedy(self, seed):
        """Optimality dominance: the exact optimum is at most the two-stage
        engine's exact expected test count."""
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng, max_n=4, max_edges=6)
        value, _ = optimal_expected_tests(graph, dist)
        greedy = sum(
            p * run_adaptive(graph, dist, oracle_for(graph, i), AdaptiveConfig(c=0.3)).total
            for i, p in enumerate(dist.probs)
        )
        assert value <= greedy + 1e-9

    def test_too_large_guards(self):
        g = Hypergraph(15, [[v] for v in range(15)])
        with pytest.raises(TooLarge, match="15 supported edges > 14"):
            optimal_expected_tests(g, EdgeDistribution(np.full(15, 1 / 15)))

    @pytest.mark.parametrize("n", [13, 14])
    def test_cosize_past_twelve_nodes_matches_closed_form(self, n):
        """Only singleton tests inform on cosize(n); probing them in turn
        costs (n-1)(n+2)/(2n) tests in expectation."""
        value, _ = optimal_expected_tests(*build_cosize(n))
        assert value == pytest.approx((n - 1) * (n + 2) / (2 * n), abs=1e-12)

    def test_nodes_outside_every_edge_leave_the_value_unchanged(self):
        g, d = build_cosize(12)
        value, _ = optimal_expected_tests(g, d)
        wider, _ = optimal_expected_tests(Hypergraph(13, g.edge_masks), d)
        assert wider == pytest.approx(value, abs=1e-12)

    def test_policy_text_render(self, fig1):
        _, policy = optimal_expected_tests(*fig1)
        text = policy.to_text()
        assert "test" in text and "return edge" in text


class TestDirectPosterior:
    def test_empty_transcript_is_prior(self, fig1):
        graph, dist = fig1
        post = direct_posterior(graph, dist, [])
        assert np.array_equal(post.q, dist.probs)

    def test_fig1_noiseless(self, fig1):
        graph, dist = fig1
        post = direct_posterior(graph, dist, [(0b01010, True)])
        assert np.allclose(post.q, [0.375, 0.0, 0.625], atol=1e-12)

    def test_fig1_noisy(self, fig1):
        graph, dist = fig1
        post = direct_posterior(graph, dist, [(0b01010, True)], delta=0.1)
        assert np.allclose(post.q, [27 / 74, 2 / 74, 45 / 74], atol=1e-12)

    @pytest.mark.parametrize("delta", [-0.5, 0.5, 0.7, math.nan])
    def test_delta_outside_the_channel_range_raises(self, fig1, delta):
        with pytest.raises(SchemaError, match=r"outside \[0, 1/2\)"):
            direct_posterior(*fig1, [(0b01010, True)], delta=delta)

    def test_inconsistent_raises(self, fig1):
        graph, dist = fig1
        with pytest.raises(ZeroSurvivorMass):
            direct_posterior(graph, dist, [(0b00001, True), (0b00001, False)])


class TestNonadaptiveChecker:
    def test_full_probe_set_has_zero_error(self):
        assert nonadaptive_min_error(4, 3) == 0.0

    def test_single_probe(self):
        assert nonadaptive_min_error(4, 1) == pytest.approx(0.25, abs=1e-12)

    def test_no_probes(self):
        assert nonadaptive_min_error(4, 0) == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_lower_bound_holds_exhaustively(self, n):
        for budget in range(n):
            err = nonadaptive_min_error(n, budget)
            assert err >= (n - 1 - budget) / (2 * n) - 1e-12

    def test_too_large(self):
        with pytest.raises(TooLarge):
            nonadaptive_min_error(13, 1)

    def test_budget_domain(self):
        with pytest.raises(ValueError):
            nonadaptive_min_error(4, 4)
