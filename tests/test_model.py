import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_set, node_marginal, oracle_for, random_model, set_weight, truth_for
from hypergt.errors import (
    DuplicateEdge,
    ModelError,
    NegativeProbability,
    NodeOutOfRange,
    NotNormalized,
    SchemaError,
    ZeroSurvivorMass,
)
from hypergt.model import (
    NODE_CAP,
    EdgeDistribution,
    Hypergraph,
    condition_on_test,
    edge_entropy,
    expected_infections,
    load_model,
    node_marginals,
    prior_posterior,
    sample_truth,
    save_model,
    validate_model,
)
from hypergt.oracle import direct_posterior
from hypergt.sets import mask_of


class TestValidation:
    def test_fig1_is_valid(self, fig1):
        validate_model(*fig1)

    def test_not_normalized(self):
        g = Hypergraph(3, [[0], [1], [2]])
        with pytest.raises(NotNormalized):
            validate_model(g, EdgeDistribution([0.5, 0.5, 0.5]))

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRange):
            g = Hypergraph(3, [[0], [3]])
            validate_model(g, EdgeDistribution([0.5, 0.5]))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            g = Hypergraph(3, [[0, 1], [1, 0]])
            validate_model(g, EdgeDistribution([0.5, 0.5]))

    def test_negative_probability(self):
        g = Hypergraph(2, [[0], [1]])
        with pytest.raises(NegativeProbability):
            validate_model(g, EdgeDistribution([1.5, -0.5]))

    def test_length_mismatch(self):
        g = Hypergraph(2, [[0], [1]])
        with pytest.raises(ModelError):
            validate_model(g, EdgeDistribution([1.0]))

    def test_zero_mass_edges_are_accepted(self):
        g = Hypergraph(2, [[0], [1]])
        validate_model(g, EdgeDistribution([1.0, 0.0]))

    @pytest.mark.parametrize("probs", [
        [math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0], [1.0, math.inf],
    ])
    def test_non_finite_probability(self, probs):
        g = Hypergraph(2, [[0], [1]])
        with pytest.raises(NotNormalized):
            validate_model(g, EdgeDistribution(probs))

    def test_negative_infinity_is_negative(self):
        g = Hypergraph(2, [[0], [1]])
        with pytest.raises(NegativeProbability):
            validate_model(g, EdgeDistribution([-math.inf, 1.0]))

    def test_negative_node_count(self):
        with pytest.raises(NodeOutOfRange):
            Hypergraph(-3, [])

    def test_first_offender_is_named(self):
        # Edge 1 duplicates edge 0 before edge 2 leaves the node range.
        with pytest.raises(DuplicateEdge, match="edge 1 "):
            g = Hypergraph(3, [[0], [0], [5]])
            validate_model(g, EdgeDistribution([0.25, 0.25, 0.5]))
        with pytest.raises(NodeOutOfRange, match="edge 1 "):
            g = Hypergraph(3, [[0], [7], [0]])
            validate_model(g, EdgeDistribution([0.25, 0.25, 0.5]))
        with pytest.raises(NodeOutOfRange, match="edge 1 "):
            g = Hypergraph(3, [[0], -1])
            validate_model(g, EdgeDistribution([0.5, 0.5]))
        # The same, with every edge a mask.
        with pytest.raises(DuplicateEdge, match="edge 1 "):
            Hypergraph(3, [0b1, 0b1, 1 << 5])
        with pytest.raises(NodeOutOfRange, match="edge 1 "):
            Hypergraph(3, [0b1, 1 << 7, 0b1])
        with pytest.raises(NodeOutOfRange, match="edge 1 "):
            Hypergraph(3, [0b1, -1])

    def test_numpy_node_indices(self):
        g = Hypergraph(70, [np.array([65]), [np.int64(3)]])
        assert g.edge_masks == (1 << 65, 1 << 3)
        assert all(type(m) is int for m in g.edge_masks)
        with pytest.raises(NodeOutOfRange, match="edge 0 "):
            Hypergraph(70, [[np.int64(-1)]])
        # A numpy integer is a node, not a mask: as a whole edge it is refused.
        with pytest.raises(SchemaError, match=re.escape(
                f"edge 1 is not a list of integer node indices: {np.int64(3)!r}")):
            Hypergraph(70, [0b1, np.int64(3)])

    @pytest.mark.parametrize("node", [2 ** 63, 10 ** 30], ids=["two-to-the-63", "ten-to-the-30"])
    def test_a_huge_node_index_is_out_of_range_before_any_shift(self, node):
        # 1 << node would raise MemoryError or OverflowError, or fill gigabytes.
        with pytest.raises(NodeOutOfRange, match="edge 1 uses a node index outside 0..2"):
            Hypergraph(3, [[0], [1, node]])

    def test_a_boolean_node_count_is_refused(self):
        with pytest.raises(SchemaError, match="node count True is not an integer"):
            Hypergraph(True, [[0]])

    @pytest.mark.parametrize("edges", [[[True, 2]], [True], [0b1, 0b10, True]],
                             ids=["node", "edge", "edge-after-masks"])
    def test_a_boolean_node_or_edge_is_refused_as_the_model_file_loader_does(self, edges):
        message = f"edge {len(edges) - 1} is not a list of integer node indices: {edges[-1]!r}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            Hypergraph(3, edges)

    def test_probs_are_read_only(self, fig1):
        _, dist = fig1
        with pytest.raises(ValueError, match="read-only"):
            dist.probs[0] = 0.9
        with pytest.raises(ValueError, match="read-only"):
            dist.probs /= 2.0

    def test_equality_is_a_bool(self, fig1):
        graph, dist = fig1
        assert isinstance(EdgeDistribution([0.5, 0.5]) == EdgeDistribution([0.5, 0.5]), bool)
        assert isinstance(prior_posterior(graph, dist) == prior_posterior(graph, dist), bool)
        assert dist == dist

    def test_callers_array_stays_writable(self):
        probs = np.array([0.25, 0.75])
        dist = EdgeDistribution(probs)
        probs[0] = 0.5
        assert probs.flags.writeable
        assert dist.probs.tolist() == [0.25, 0.75]


class TestEdgeSet:
    def test_fig1_subset(self, fig1):
        graph, _ = fig1
        assert edge_set(graph, [0, 1, 2, 4]) == (0, 1)

    def test_whole_vertex_set(self, fig1):
        graph, _ = fig1
        assert edge_set(graph, range(5)) == (0, 1, 2)

    def test_empty_set(self, fig1):
        graph, _ = fig1
        assert edge_set(graph, []) == ()

    def test_empty_edge_belongs_to_every_set(self):
        g = Hypergraph(3, [[], [0, 1]])
        assert edge_set(g, []) == (0,)
        assert edge_set(g, [2]) == (0,)


class TestWeightsAndMarginals:
    def test_fig1_weight(self, fig1):
        post = prior_posterior(*fig1)
        assert set_weight(post, [0, 1, 2, 4]) == pytest.approx(0.5, abs=1e-12)

    def test_full_set_weight_is_one(self, fig1):
        post = prior_posterior(*fig1)
        assert set_weight(post, range(5)) == pytest.approx(1.0, abs=1e-12)

    def test_weight_complement_of_v5(self, fig1):
        post = prior_posterior(*fig1)
        assert set_weight(post, [0, 1, 2, 3]) == pytest.approx(0.3, abs=1e-12)

    def test_fig1_marginals(self, fig1):
        post = prior_posterior(*fig1)
        assert node_marginal(post, 4) == pytest.approx(0.7, abs=1e-12)
        assert [round(x, 10) for x in node_marginals(post)] == [0.5, 0.3, 0.3, 0.5, 0.7]

    def test_isolated_node_marginal_is_zero(self):
        g = Hypergraph(3, [[0], [1]])
        post = prior_posterior(g, EdgeDistribution([0.4, 0.6]))
        assert node_marginal(post, 2) == 0.0

    def test_marginal_after_positive_test(self, fig1):
        post = condition_on_test(prior_posterior(*fig1), mask_of([1, 3]), True)
        assert node_marginal(post, 3) == pytest.approx(0.625, abs=1e-12)


class TestExpectedInfections:
    def test_fig1(self, fig1):
        assert expected_infections(prior_posterior(*fig1)) == pytest.approx(2.3, abs=1e-12)

    def test_point_mass(self):
        g = Hypergraph(5, [[0, 2, 4], [1]])
        post = prior_posterior(g, EdgeDistribution([1.0, 0.0]))
        assert expected_infections(post) == 3.0

    def test_nested_n4(self):
        from hypergt.builders import build_nested

        g, d = build_nested(4)
        assert expected_infections(prior_posterior(g, d)) == pytest.approx(2.5, abs=1e-12)


def _skewed_with_zeros(k, seed):
    rng = np.random.default_rng(seed)
    weights = rng.pareto(1.0, k) * (rng.random(k) < 0.6)
    weights[0] = 0.0
    return weights / weights.sum()


class TestSampleTruth:
    @pytest.mark.parametrize("probs", [
        [0.3, 0.2, 0.5],
        [1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.25, 0.0, 0.75, 0.0],
        [1.0 / 7.0] * 7,
        _skewed_with_zeros(300, 1),
        _skewed_with_zeros(5000, 2),
    ], ids=["fig1", "one", "last-only", "zeros-between", "sevenths", "skewed300", "skewed5000"])
    def test_draws_match_generator_choice(self, probs):
        dist = EdgeDistribution(probs)
        graph = Hypergraph(max(1, (len(probs) - 1).bit_length()), range(len(probs)))
        assert not dist.cdf.flags.writeable
        for seed in range(1500):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            truth = sample_truth(graph, dist, rng)
            assert truth.target == int(ref.choice(len(probs), p=dist.probs / dist.probs.sum()))
            assert truth.mask == graph.edge_masks[truth.target]
            assert dist.probs[truth.target] > 0.0
            assert rng.random() == ref.random()  # the draw consumed the same stream


class TestEntropy:
    def test_uniform_eight(self):
        assert edge_entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass(self):
        assert edge_entropy(np.array([1.0, 0.0])) == 0.0

    def test_fig1(self, fig1):
        assert edge_entropy(fig1[1]) == pytest.approx(1.48548, abs=1e-5)

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=8), st.randoms())
    def test_permutation_invariant_and_below_uniform(self, weights, pyrandom):
        p = np.array(weights, float)
        p /= p.sum()
        shuffled = list(p)
        pyrandom.shuffle(shuffled)
        assert edge_entropy(np.array(shuffled)) == pytest.approx(edge_entropy(p), abs=1e-9)
        assert edge_entropy(p) <= math.log2(len(p)) + 1e-12

    def test_maximal_exactly_at_uniform(self):
        assert edge_entropy(np.full(6, 1 / 6)) == pytest.approx(math.log2(6), abs=1e-12)
        assert edge_entropy(np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])) < math.log2(6)


class TestConditioning:
    def test_fig1_positive(self, fig1):
        post = condition_on_test(prior_posterior(*fig1), mask_of([1, 3]), True)
        assert np.allclose(post.q, [0.375, 0.0, 0.625], atol=1e-12)
        assert post.q[1] == 0.0

    def test_fig1_negative_single_node(self, fig1):
        post = condition_on_test(prior_posterior(*fig1), mask_of([0]), False)
        assert np.allclose(post.q, [0.0, 0.0, 1.0], atol=0)

    def test_fig1_positive_v5(self, fig1):
        post = condition_on_test(prior_posterior(*fig1), mask_of([4]), True)
        assert np.allclose(post.q, [0.0, 2 / 7, 5 / 7], atol=1e-12)

    def test_inconsistent_observation_raises(self, fig1):
        post = condition_on_test(prior_posterior(*fig1), mask_of([0]), False)
        with pytest.raises(ZeroSurvivorMass):
            condition_on_test(post, mask_of([0]), True)

    def test_empty_edge_always_negative(self):
        g = Hypergraph(2, [[], [0, 1]])
        post = prior_posterior(g, EdgeDistribution([0.5, 0.5]))
        post = condition_on_test(post, mask_of([0, 1]), False)
        assert post.q[0] == 1.0


class TestPosteriorProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000))
    def test_weight_complement_identity(self, seed):
        """w(V minus v) + q_v = 1 for every node, any posterior."""
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng)
        post = prior_posterior(graph, dist)
        truth = truth_for(graph, int(rng.choice(len(dist.probs), p=dist.probs)))
        oracle = oracle_for(graph, truth.target)
        for _ in range(int(rng.integers(0, 4))):
            t = int(rng.integers(1, 2 ** graph.n))
            post = condition_on_test(post, t, oracle(t))
        full = (1 << graph.n) - 1
        for v in range(graph.n):
            lhs = set_weight(post, full & ~(1 << v))
            assert lhs == pytest.approx(1.0 - node_marginal(post, v), abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000))
    def test_truth_survives_and_mass_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng)
        target = int(rng.choice(len(dist.probs), p=dist.probs))
        oracle = oracle_for(graph, target)
        post = prior_posterior(graph, dist)
        for _ in range(5):
            t = int(rng.integers(0, 2 ** graph.n))
            post = condition_on_test(post, t, oracle(t))
            assert post.q[target] > 0.0
            assert post.q.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sequential_equals_direct(self, seed):
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng)
        target = int(rng.choice(len(dist.probs), p=dist.probs))
        oracle = oracle_for(graph, target)
        post = prior_posterior(graph, dist)
        transcript = []
        for _ in range(int(rng.integers(1, 6))):
            t = int(rng.integers(0, 2 ** graph.n))
            r = oracle(t)
            transcript.append((t, r))
            post = condition_on_test(post, t, r)
        direct = direct_posterior(graph, dist, transcript)
        assert np.allclose(post.q, direct.q, atol=1e-9)


class TestModelFile:
    def test_round_trip_is_value_exact(self, tmp_path, fig1):
        graph, dist = fig1
        odd = EdgeDistribution(np.array([1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7]))
        path = tmp_path / "model.json"
        save_model(str(path), graph, odd)
        g2, d2 = load_model(str(path))
        assert g2.n == graph.n
        assert g2.edge_masks == graph.edge_masks
        assert all(a == b for a, b in zip(d2.probs, odd.probs))  # bitwise equal

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": [[0], [1]], "probs": [0.9, 0.9]}')
        with pytest.raises(NotNormalized):
            load_model(str(path))

    @pytest.mark.parametrize("text,error,message", [
        # Classes and messages callers already see for these faults.
        ('{"n": 3, "edges": [[0], [3]], "probs": [0.5, 0.5]}', NodeOutOfRange,
         "edge 1 uses a node index outside 0..2"),
        ('{"n": 3, "edges": [[0, 1], [1, 0]], "probs": [0.5, 0.5]}', DuplicateEdge,
         "edge 1 duplicates an earlier edge"),
        ('{"n": 2, "edges": [[0], [1]], "probs": [1.5, -0.5]}', NegativeProbability,
         "edge probabilities must be >= 0"),
        ('{"n": 2, "edges": [[0], [1]], "probs": [0.5, 0.25]}', NotNormalized,
         "edge probabilities sum to 0.75"),
        ('{"n": 2, "edges": [[0], [1]], "probs": [1.0]}', ModelError,
         "1 probabilities for 2 edges"),
        # Malformed values: a ModelError subclass, not a bare ValueError,
        # TypeError or a silent truncation.
        ('{"n": 3, "edges": [[0], [-1]], "probs": [0.5, 0.5]}', NodeOutOfRange, "edge 1 "),
        ('{"n": 3, "edges": [[0], [0.5]], "probs": [0.5, 0.5]}', SchemaError, "edge 1 "),
        ('{"n": 3, "edges": [["a"]], "probs": [1.0]}', SchemaError, "edge 0 "),
        ('{"n": 3, "edges": 5, "probs": [1.0]}', SchemaError, "edges must be a list"),
        ('{"n": 3, "edges": [[0]], "probs": ["x"]}', SchemaError, "probabilities"),
        ('{"n": 3.7, "edges": [[0]], "probs": [1.0]}', SchemaError, "node count 3.7"),
    ], ids=["out-of-range", "duplicate", "negative-mass", "unnormalised", "count-mismatch",
            "negative-node", "float-node", "string-node", "edges-not-a-list", "string-mass",
            "float-n"])
    def test_load_rejects_a_bad_value(self, tmp_path, text, error, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(error, match=re.escape(message)) as info:
            load_model(str(path))
        assert type(info.value) is error

    @pytest.mark.parametrize("text,message", [
        ('{"n": 3, "edges": [5], "probs": [1.0]}',
         "edge 0 is not a list of integer node indices: 5"),
        ('{"n": 3, "edges": [true, [1]], "probs": [0.5, 0.5]}',
         "edge 0 is not a list of integer node indices: True"),
        ('{"n": 3, "edges": [[0], [true]], "probs": [0.5, 0.5]}',
         "edge 1 is not a list of integer node indices: [True]"),
        ('{"n": true, "edges": [[0]], "probs": [1.0]}', "node count True is not an integer"),
    ], ids=["bitmask-edge", "boolean-edge", "boolean-node", "boolean-n"])
    def test_load_takes_only_lists_of_integer_nodes_and_an_integer_n(self, tmp_path, text,
                                                                      message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_model(str(path))

    def test_load_refuses_a_node_count_above_the_cap_before_packing(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"n": 100000000, "edges": [[0]], "probs": [1.0]}')
        start = time.perf_counter()
        message = f"node count 100000000 outside 0..{NODE_CAP}"
        with pytest.raises(NodeOutOfRange, match=re.escape(message)):
            load_model(str(path))
        assert time.perf_counter() - start < 0.5
        assert Hypergraph(NODE_CAP, [[NODE_CAP - 1]]).words.shape == (NODE_CAP // 64, 1)

    @pytest.mark.parametrize("text,key", [
        ('{"n": 3, "probs": [1.0]}', "'edges'"),
        ('{"edges": [[0]], "probs": [1.0]}', "'n'"),
        ('[3, [[0]], [1.0]]', "JSON object"),
    ])
    def test_load_names_the_missing_key(self, tmp_path, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=key):
            load_model(str(path))

    def test_load_names_the_file_and_position_of_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n "edges": [[0]\n')
        with pytest.raises(SchemaError, match=re.escape(f"model file {path} is not valid JSON")
                           + ".*line 3 column 1"):
            load_model(str(path))
