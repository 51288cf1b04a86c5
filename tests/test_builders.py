import math
import re
import time
from itertools import combinations

import numpy as np
import pytest

from hypergt.builders import (
    SUPPORT_CAP,
    ModelSpec,
    build_big_graph,
    build_community,
    build_cosize,
    build_edge_faulty,
    build_entropy_gap,
    build_independent,
    build_islands,
    build_model,
    build_nested,
    build_partial_regular,
    build_random_regular,
    build_sbim,
    sample_edge_faulty,
    sample_sbim,
)
from hypergt.errors import (
    EmptySupport,
    ModelError,
    ProbabilityOutOfRange,
    SchemaError,
    SupportTooLarge,
)
from hypergt.model import validate_model
from hypergt.sets import mask_of, nodes_of

ALL_SPECS = [
    ModelSpec("independent", {"p": [0.2, 0.5, 0.8]}),
    ModelSpec("islands", {"k": 3, "m": 2, "p": 0.4}),
    ModelSpec("nested", {"n": 6}),
    ModelSpec("cosize", {"n": 5}),
    ModelSpec("partial_regular", {"n": 8, "d": 3}),
    ModelSpec("big_graph", {"n": 3}),
    ModelSpec("entropy_gap", {"n": 9, "m": 6, "d": 3, "seed": 2}),
    ModelSpec("random_regular", {"n": 12, "d": 3, "r": 0.05, "seed": 3}),
    ModelSpec("community", {"sizes": [2, 3], "q": 0.3, "p": [0.7, 0.5]}),
    ModelSpec("sbim", {"m": 2, "k": 2, "seed_prob": 0.3, "q1": 0.5, "q2": 0.1}),
    ModelSpec("edge_faulty", {"n": 3, "contact_edges": [(0, 1), (1, 2)], "r": 0.6, "p": 0.4}),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_every_builder_output_validates(spec):
    graph, dist = build_model(spec)
    validate_model(graph, dist)
    assert np.all(dist.probs > 0)


class TestClosedForm:
    def test_independent_two_fair_nodes(self):
        g, d = build_independent([0.5, 0.5])
        assert len(g) == 4
        assert np.allclose(d.probs, 0.25)

    def test_independent_empty_set_mass(self):
        g, d = build_independent([0.1, 0.2, 0.3])
        i = g.edge_masks.index(0)
        assert d.probs[i] == pytest.approx(0.504, abs=1e-12)

    def test_certain_node_drops_impossible_sets(self):
        g, d = build_independent([1.0, 0.5])
        assert len(g) == 2  # node 0 is always infected
        assert all(m & 1 for m in g.edge_masks)

    def test_community_single_certain_member(self):
        g, d = build_community([1], q=0.5, p=[1.0])
        masses = {g.edge_masks[i]: d.probs[i] for i in range(len(g))}
        assert masses == {0: 0.5, 1: 0.5}

    def test_community_mass_formula(self):
        q, p = 0.3, [0.6, 0.4]
        g, d = build_community([2, 1], q=q, p=p)
        masses = {g.edge_masks[i]: float(d.probs[i]) for i in range(len(g))}
        # S = {node 0} hits family 0 once; family 1 stays clear
        want = q * p[0] * (1 - p[0]) * (1 - q + q * (1 - p[1]))
        assert masses[0b001] == pytest.approx(want, abs=1e-12)


class TestStructured:
    def test_cosize_matches_four_node_figure(self):
        g, d = build_cosize(4)
        assert len(g) == 4
        assert all(m.bit_count() == 3 for m in g.edge_masks)
        assert np.allclose(d.probs, 0.25)

    def test_nested_prefix_chain(self):
        g, d = build_nested(4)
        assert [nodes_of(m) for m in g.edge_masks] == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
        assert np.allclose(d.probs, 0.25)

    def test_big_graph_counts_and_mass_split(self):
        g, d = build_big_graph(4)
        assert g.n == 16
        assert len(g) == 20
        small = [i for i in range(20) if g.edge_masks[i].bit_count() == 3]
        large = [i for i in range(20) if g.edge_masks[i].bit_count() == 12]
        assert len(small) == 16 and len(large) == 4
        assert d.probs[small].sum() == pytest.approx(0.5, abs=1e-12)
        assert d.probs[large].sum() == pytest.approx(0.5, abs=1e-12)

    def test_islands_all_or_none_per_island(self):
        k, m = 3, 2
        g, _ = build_islands(k, m, 0.4)
        for mask in g.edge_masks:
            for j in range(k):
                island = mask_of(range(j * m, (j + 1) * m))
                assert mask & island in (0, island)

    def test_partial_regular_support(self):
        g, d = build_partial_regular(8, 3)
        assert len(g) == 4
        assert all(m.bit_count() == 3 and m < 16 for m in g.edge_masks)
        assert np.allclose(d.probs, 0.25)

    def test_entropy_gap_reaches_target_count(self):
        g, d = build_entropy_gap(9, 6, 3, seed=0)
        assert 6 <= len(g) <= 6 + 3
        assert all(m.bit_count() == 3 for m in g.edge_masks)
        assert np.allclose(d.probs, 1 / len(g))

    def test_random_regular_seeded_and_uniform(self):
        a = build_random_regular(12, 3, r=0.1, seed=5)
        b = build_random_regular(12, 3, r=0.1, seed=5)
        assert a[0].edge_masks == b[0].edge_masks
        assert np.allclose(a[1].probs, 1 / len(a[0]))

    def test_random_regular_exact_count(self):
        g, d = build_random_regular(30, 3, count=30, seed=1)
        assert len(g) == 30
        assert all(m.bit_count() == 3 for m in g.edge_masks)

    def test_random_regular_expected_count(self):
        n, d, r = 10, 3, 0.08
        total = math.comb(n, d)
        counts = [len(build_random_regular(n, d, r=r, seed=s)[0]) for s in range(300)]
        mean, expect = np.mean(counts), r * total
        stderr = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - expect) <= 3 * stderr

    def test_random_regular_empty_draw(self):
        with pytest.raises(EmptySupport):
            build_random_regular(8, 3, r=1e-9, seed=0)


class TestGenerative:
    def test_edge_faulty_single_contact_edge(self):
        r, p = 0.35, 0.6
        g, d = build_edge_faulty(2, [(0, 1)], r, p)
        masses = {g.edge_masks[i]: float(d.probs[i]) for i in range(len(g))}
        assert masses[0b11] == pytest.approx(r * p + (1 - r) * p * p, abs=1e-12)
        assert masses[0b01] == pytest.approx((1 - r) * p * (1 - p), abs=1e-12)
        assert masses[0b10] == pytest.approx((1 - r) * p * (1 - p), abs=1e-12)
        assert masses[0b00] == pytest.approx(r * (1 - p) + (1 - r) * (1 - p) ** 2, abs=1e-12)

    def test_edge_faulty_kept_graph_infects_whole_component(self):
        g, d = build_edge_faulty(3, [(0, 1), (1, 2)], r=1.0, p=0.3)
        masses = {g.edge_masks[i]: float(d.probs[i]) for i in range(len(g))}
        assert masses == {0b111: pytest.approx(0.3), 0b000: pytest.approx(0.7)}

    def test_sbim_lone_node_is_seed_or_nothing(self):
        g, d = build_sbim(1, 1, seed_prob=0.3, q1=0.9, q2=0.9)
        masses = {g.edge_masks[i]: float(d.probs[i]) for i in range(len(g))}
        assert masses == {0b1: pytest.approx(0.3), 0b0: pytest.approx(0.7)}

    @pytest.mark.parametrize("family,params,sampler", [
        ("edge_faulty", {"n": 3, "contact_edges": [(0, 1), (1, 2)], "r": 0.6, "p": 0.4},
         lambda rng: sample_edge_faulty(3, [(0, 1), (1, 2)], 0.6, 0.4, rng)),
        ("sbim", {"m": 2, "k": 2, "seed_prob": 0.3, "q1": 0.5, "q2": 0.1},
         lambda rng: sample_sbim(2, 2, 0.3, 0.5, 0.1, rng)),
    ])
    def test_monte_carlo_matches_enumeration(self, family, params, sampler):
        graph, dist = build_model(ModelSpec(family, params))
        rng = np.random.default_rng(11)
        draws = 20_000
        counts = {}
        for _ in range(draws):
            m = sampler(rng)
            counts[m] = counts.get(m, 0) + 1
        enumerated = {graph.edge_masks[i]: float(dist.probs[i]) for i in range(len(graph))}
        tv = 0.5 * sum(abs(enumerated.get(m, 0.0) - counts.get(m, 0) / draws)
                       for m in set(enumerated) | set(counts))
        assert tv <= 0.02


class TestGuards:
    def test_support_cap(self):
        with pytest.raises(SupportTooLarge):
            build_independent([0.5] * 21)

    def test_sbim_size_cap(self):
        with pytest.raises(SupportTooLarge):
            build_sbim(4, 4, 0.1, 0.5, 0.1)

    def test_unknown_family(self):
        with pytest.raises(ModelError):
            build_model(ModelSpec("mystery", {}))

    def test_random_regular_needs_one_mode(self):
        with pytest.raises(ModelError):
            build_random_regular(8, 3, r=0.5, count=3)

    @pytest.mark.parametrize("params,message", [
        ({"n": 5, "bogus": 1}, "nested params has unknown key 'bogus'"),
        ({}, "nested params lacks key 'n'"),
        ([5], "nested params must be a JSON object"),
    ], ids=["unknown-key", "missing-key", "not-an-object"])
    def test_spec_params_match_the_builder(self, params, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            build_model(ModelSpec("nested", params))

    @pytest.mark.parametrize("family,params,message", [
        ("nested", {"n": "5"}, "nested params: 'n' must be int, not '5'"),
        ("cosize", {"n": 2.5}, "cosize params: 'n' must be int, not 2.5"),
        ("islands", {"k": 2, "m": 1, "p": "ab"},
         "islands params: 'p' must be float | Sequence[float], not 'ab'"),
        ("community", {"sizes": 3, "q": 0.3, "p": [0.5]},
         "community params: 'sizes' must be Sequence[int], not 3"),
    ], ids=["string-int", "float-int", "string-probability", "scalar-sizes"])
    def test_spec_param_types_match_the_builder(self, family, params, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            build_model(ModelSpec(family, params))

    def test_islands_refuse_a_large_support_before_enumerating(self):
        t0 = time.perf_counter()
        with pytest.raises(SupportTooLarge, match=re.escape(f"2097152 edges exceed cap {SUPPORT_CAP}")):
            build_islands(21, 1, 0.5)
        assert time.perf_counter() - t0 < 0.5

    def test_edge_faulty_refuses_a_large_support_before_enumerating(self):
        # No contact edges: 21 singleton components, so 2^21 infected sets.
        t0 = time.perf_counter()
        with pytest.raises(SupportTooLarge, match=re.escape("at least 2097152 edges exceed cap")):
            build_edge_faulty(21, [], 0.5, 0.5)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("spec,error,message", [
        (ModelSpec("nested", {"n": 0}), EmptySupport, "no edge carries positive probability"),
        (ModelSpec("independent", {"p": [0.5] * 21}), SupportTooLarge, "2^21 subsets exceed cap"),
        # An infinite island probability lies outside [0, 1].
        (ModelSpec("islands", {"k": 2, "m": 1, "p": [math.inf, 0.5]}), ProbabilityOutOfRange,
         "probability p[0]=inf outside [0, 1]"),
    ])
    def test_build_model_errors_are_unchanged(self, spec, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build_model(spec)

    # (family, valid params, probability parameter, its label in the error)
    PROBABILITIES = [
        ("independent", {"p": [0.5, 0.25]}, "p", "p[1]"),
        ("islands", {"k": 2, "m": 1, "p": 0.5}, "p", "p"),
        ("islands", {"k": 2, "m": 1, "p": [0.5, 0.25]}, "p", "p[1]"),
        ("community", {"sizes": [1, 2], "q": 0.3, "p": [0.5, 0.25]}, "q", "q"),
        ("community", {"sizes": [1, 2], "q": 0.3, "p": [0.5, 0.25]}, "p", "p[1]"),
        ("random_regular", {"n": 6, "d": 2, "r": 0.5, "seed": 0}, "r", "r"),
        ("sbim", {"m": 1, "k": 2, "seed_prob": 0.2, "q1": 0.5, "q2": 0.1}, "seed_prob", "seed_prob"),
        ("sbim", {"m": 1, "k": 2, "seed_prob": 0.2, "q1": 0.5, "q2": 0.1}, "q1", "q1"),
        ("sbim", {"m": 1, "k": 2, "seed_prob": 0.2, "q1": 0.5, "q2": 0.1}, "q2", "q2"),
        ("edge_faulty", {"n": 3, "contact_edges": [[0, 1]], "r": 0.5, "p": 0.3}, "r", "r"),
        ("edge_faulty", {"n": 3, "contact_edges": [[0, 1]], "r": 0.5, "p": 0.3}, "p", "p"),
    ]

    @pytest.mark.parametrize("value", [-0.2, 1.5, math.nan, math.inf])
    @pytest.mark.parametrize("family,params,key,label", PROBABILITIES,
                             ids=[f"{f}-{label}" for f, _, _, label in PROBABILITIES])
    def test_probabilities_outside_the_unit_interval_are_refused(self, family, params, key,
                                                                 label, value):
        build_model(ModelSpec(family, params))  # the unaltered params build
        bad = dict(params)
        bad[key] = [*params[key][:-1], value] if isinstance(params[key], list) else value
        with pytest.raises(ProbabilityOutOfRange,
                           match=re.escape(f"probability {label}={value!r} outside [0, 1]")):
            build_model(ModelSpec(family, bad))
