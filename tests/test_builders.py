import math
import re
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import reference_sbim, sample_edge_faulty, sample_sbim
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
)
from hypergt.errors import (
    EmptySupport,
    ModelError,
    NodeOutOfRange,
    ProbabilityOutOfRange,
    SchemaError,
    SupportTooLarge,
)
from hypergt.model import NODE_CAP, validate_model
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


def masses_of(graph, dist):
    return {graph.edge_masks[i]: float(dist.probs[i]) for i in range(len(graph))}


def assert_support_is(graph, dist, want):
    """The model's edges are exactly the sets of positive closed-form mass,
    each with that mass."""
    want = {s: w for s, w in want.items() if w > 0.0}
    got = masses_of(graph, dist)
    assert set(got) == set(want)
    for s, w in want.items():
        assert got[s] == pytest.approx(w, rel=1e-12, abs=1e-15)


def contact_components(n, kept):
    """Node masks of the connected components of the graph ({0..n-1}, kept)."""
    comps = [1 << v for v in range(n)]
    for a, b in kept:
        ca = next(c for c in comps if c >> a & 1)
        cb = next(c for c in comps if c >> b & 1)
        if ca != cb:
            comps = [c for c in comps if c not in (ca, cb)] + [ca | cb]
    return comps


class TestBoundaryProbabilities:
    """Models mixing probabilities 0 and 1 with interior ones, against the
    closed form of every subset's mass."""

    @pytest.mark.parametrize("p", [
        [0.0, 0.3, 1.0, 0.5],
        [1.0, 1.0, 0.2, 0.0, 0.0, 0.7, 1.0, 0.4, 0.0, 0.9],
        [0.0, 0.0, 0.0],
        [1.0, 1.0],
    ])
    def test_independent(self, p):
        g, d = build_independent(p)
        want = {s: math.prod(pv if s >> v & 1 else 1.0 - pv for v, pv in enumerate(p))
                for s in range(2 ** len(p))}
        assert_support_is(g, d, want)

    @pytest.mark.parametrize("k,m,p", [
        (4, 2, [0.0, 0.6, 1.0, 0.25]),
        (3, 3, [1.0, 0.5, 0.0]),
        (5, 2, 1.0),
        (3, 0, [0.5, 1.0, 0.3]),
    ])
    def test_islands(self, k, m, p):
        g, d = build_islands(k, m, p)
        ps = [p] * k if np.isscalar(p) else p
        want: dict[int, float] = {}
        for hit in range(2 ** k):
            s = mask_of(v for j in range(k) if hit >> j & 1 for v in range(j * m, (j + 1) * m))
            w = math.prod(pj if hit >> j & 1 else 1.0 - pj for j, pj in enumerate(ps))
            want[s] = want.get(s, 0.0) + w
        assert_support_is(g, d, want)

    @pytest.mark.parametrize("sizes,q,p", [
        ([2, 3, 1], 0.4, [0.0, 0.5, 1.0]),
        ([3, 2], 1.0, [0.3, 1.0]),
        ([2, 2, 2], 0.0, [0.5, 0.5, 0.5]),
        ([4, 3, 3], 0.7, [1.0, 0.0, 0.6]),
    ])
    def test_community(self, sizes, q, p):
        g, d = build_community(sizes, q=q, p=p)
        n = sum(sizes)
        starts = [sum(sizes[:j]) for j in range(len(sizes))]

        def family_mass(j, hit):
            if hit == 0:
                return 1.0 - q + q * (1.0 - p[j]) ** sizes[j]
            return q * p[j] ** hit * (1.0 - p[j]) ** (sizes[j] - hit)

        want = {s: math.prod(family_mass(j, (s >> starts[j] & (1 << sizes[j]) - 1).bit_count())
                             for j in range(len(sizes)))
                for s in range(2 ** n)}
        assert_support_is(g, d, want)

    @pytest.mark.parametrize("r", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_edge_faulty(self, r, p):
        n, contact = 5, [(0, 1), (1, 2), (3, 4)]
        g, d = build_edge_faulty(n, contact, r, p)
        want: dict[int, float] = {}
        for kept_bits in range(2 ** len(contact)):
            kept = [e for i, e in enumerate(contact) if kept_bits >> i & 1]
            w_graph = r ** len(kept) * (1.0 - r) ** (len(contact) - len(kept))
            comps = contact_components(n, kept)
            for hit in range(2 ** len(comps)):
                s = mask_of(v for j, c in enumerate(comps) if hit >> j & 1 for v in nodes_of(c))
                w = math.prod(p if hit >> j & 1 else 1.0 - p for j in range(len(comps)))
                want[s] = want.get(s, 0.0) + w_graph * w
        assert_support_is(g, d, want)


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

    # Every (m, k) of at most 6 nodes, n = 0 included, at probabilities 0, an
    # interior value and 1, then two larger models at the golden probabilities.
    SBIM_CASES = [(m, k, seed_prob, q1, q2)
                  for m in range(7) for k in range(7) if m * k <= 6
                  for seed_prob in (0.0, 0.3, 1.0) for q1 in (0.0, 0.6, 1.0) for q2 in (0.0, 0.15, 1.0)
                  ] + [(3, 3, 0.2, 0.6, 0.15), (2, 5, 0.2, 0.6, 0.15)]

    def test_sbim_matches_the_per_infected_set_loop(self):
        # One block product per seed set multiplies each term's factors in
        # another order than the loop did, so masses move in their last bits.
        for case in self.SBIM_CASES:
            graph, dist = build_sbim(*case)
            ref_graph, ref_dist = reference_sbim(*case)
            assert graph.n == ref_graph.n and graph.edge_masks == ref_graph.edge_masks, case
            assert np.abs(dist.probs - ref_dist.probs).max() <= 1e-15, case

    def test_sbim_on_twelve_nodes_builds_fast(self):
        # The per-infected-set loop took 7.0 s on a 2-vCPU Xeon VM, this one 0.4 s.
        t0 = time.perf_counter()
        graph, dist = build_sbim(3, 4, 0.2, 0.6, 0.15)
        validate_model(graph, dist)
        assert len(graph) == 4096 and time.perf_counter() - t0 < 2.0

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

    def test_edge_faulty_skips_zero_weight_contact_graphs(self):
        # r = 1: only the graph keeping (0, 1) has weight, with 21 components.
        # The zero-weight graph without it has 22, and is never enumerated.
        t0 = time.perf_counter()
        with pytest.raises(SupportTooLarge, match=re.escape("at least 2097152 edges exceed cap")):
            build_edge_faulty(22, [(0, 1)], r=1, p=0.5)
        assert time.perf_counter() - t0 < 0.5

    def test_certain_nodes_do_not_count_against_the_cap(self):
        g, d = build_independent([0.0] * 21 + [0.5])
        assert masses_of(g, d) == {0: 0.5, 1 << 21: 0.5}

    def test_an_uninfected_community_does_not_count_against_the_cap(self):
        g, d = build_community([3] * 9, q=0.0, p=[0.5] * 9)
        assert masses_of(g, d) == {0: 1.0}

    @pytest.mark.parametrize("families", [3, 30])
    def test_community_refuses_a_large_support_before_listing_it(self, families):
        # Each family alone fits the cap; the second one already breaks it,
        # and the families after it are never made.
        t0 = time.perf_counter()
        with pytest.raises(SupportTooLarge, match=re.escape(f"edges exceed cap {SUPPORT_CAP}")):
            build_community([20] * families, q=0.5, p=[0.5] * families)
        assert time.perf_counter() - t0 < 0.5

    def test_certain_families_are_not_scanned(self):
        # Only each family's full subset has mass: one edge on 2000 nodes.
        t0 = time.perf_counter()
        g, d = build_community([20] * 100, q=1.0, p=[1.0] * 100)
        assert masses_of(g, d) == {(1 << 2000) - 1: 1.0}
        assert time.perf_counter() - t0 < 0.5

    def test_empty_islands_give_the_empty_edge_whatever_p(self):
        g, d = build_islands(2, 0, [0.5, 0.0])
        assert g.n == 0 and masses_of(g, d) == {0: 1.0}

    def test_random_regular_refuses_a_large_count_before_sampling(self):
        t0 = time.perf_counter()
        with pytest.raises(SupportTooLarge, match=re.escape(f"1048577 edges exceed cap {SUPPORT_CAP}")):
            build_random_regular(100, 4, count=2 ** 20 + 1, seed=0)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("build,args,nodes", [
        (build_cosize, (NODE_CAP + 1,), NODE_CAP + 1),
        (build_nested, (NODE_CAP + 1,), NODE_CAP + 1),
        (build_big_graph, (257,), 257 * 257),
        (build_islands, (1, 10 ** 6, 0.5), 10 ** 6),
        (build_cosize, (-1,), -1),
        (build_edge_faulty, (80000, [], 0.5, 1.0), 80000),
        (build_community, ([1] * 80000, 1.0, [1.0] * 80000), 80000),
        (build_random_regular, (70000, 3, None, 30000), 70000),
        (build_entropy_gap, (70000, 30000, 2), 70000),
        (build_partial_regular, (NODE_CAP + 1, 3000), NODE_CAP + 1),
    ], ids=["cosize", "nested", "big_graph", "islands", "negative", "edge_faulty", "community",
            "random_regular", "entropy_gap", "partial_regular"])
    def test_a_node_count_past_the_cap_is_refused_before_any_mask(self, build, args, nodes):
        # Each would build masks of more than NODE_CAP bits first: cosize at
        # n = 16000 took 2.5 s, and islands(1, 10^6) 6 s. Sampled, the
        # random_regular and entropy_gap cases took 1.0-1.3 s and about
        # 250 MB, and partial_regular 2.0 s.
        t0 = time.perf_counter()
        with pytest.raises(NodeOutOfRange, match=re.escape(f"node count {nodes} outside 0..{NODE_CAP}")):
            build(*args)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("m", [100, 10 ** 6])
    def test_entropy_gap_refuses_an_unreachable_edge_count_before_sampling(self, m):
        # 6 nodes have C(6, 2) = 15 size-2 subsets. Sampling until the attempt
        # limit took 3.2 s to refuse m = 100, and m = 10^6 ran past 20 s.
        t0 = time.perf_counter()
        with pytest.raises(ModelError, match=re.escape(f"m={m} exceeds the 15 size-d subsets of 6 nodes")):
            build_entropy_gap(6, m, 2)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("family,params,key", [
        ("community", {"sizes": [2, -1], "q": 0.5, "p": [0.5, 0.5]}, "sizes"),
        ("random_regular", {"n": 6, "d": -1, "count": 3}, "d"),
        ("random_regular", {"n": -5, "d": 2, "count": 3}, "n"),
        ("random_regular", {"n": 6, "d": 2, "count": 3, "seed": -1}, "seed"),
        ("entropy_gap", {"n": 6, "m": 3, "d": 2, "seed": -1}, "seed"),
        ("sbim", {"m": -1, "k": -2, "seed_prob": 0.2, "q1": 0.5, "q2": 0.1}, "m"),
        ("edge_faulty", {"n": 3, "contact_edges": [[0, 1], [0, -1]], "r": 0.5, "p": 0.5},
         "contact_edges"),
    ], ids=["list", "d", "n", "seed", "entropy-gap-seed", "sbim", "pair"])
    def test_negative_integers_are_refused_naming_the_key(self, family, params, key):
        # Before, these died with a traceback or built a wrong model: sbim a
        # 2-node one, edge_faulty with contact edge [0, 2].
        with pytest.raises(SchemaError, match=re.escape(
                f"{family} params: {key!r} must hold no negative integer, not {params[key]!r}")):
            ModelSpec(family, params)

    def test_sbim_refuses_negative_sizes(self):
        with pytest.raises(ModelError, match=re.escape("need m, k >= 0, got m=-1, k=-2")):
            build_sbim(-1, -2, 0.2, 0.5, 0.1)

    @pytest.mark.parametrize("build,args,kwargs,message", [
        (build_community, ([3, -1], 0.5, [0.5, 0.5]), {}, "need family sizes >= 0, got -1"),
        (build_community, ([-1], 0.5, [0.5]), {}, "need family sizes >= 0, got -1"),
        (build_random_regular, (6, -1), {"count": 3}, "need n, d >= 0, got n=6, d=-1"),
        (build_random_regular, (-5, 2), {"r": 0.5}, "need n, d >= 0, got n=-5, d=2"),
        (build_entropy_gap, (6, 3, -1), {}, "need n >= d+1 and d >= 0, got n=6, d=-1"),
    ], ids=["community", "community-negative-total", "random-regular-d", "random-regular-n",
            "entropy-gap-d"])
    def test_direct_calls_refuse_negative_sizes(self, build, args, kwargs, message):
        t0 = time.perf_counter()
        with pytest.raises(ModelError, match=re.escape(message)):
            build(*args, **kwargs)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("build,args,kwargs,message", [
        (build_edge_faulty, (22, [(v, v + 1) for v in range(21)], 0.5, 0.5), {},
         "at most 20 contact edges are enumerable"),
        (build_random_regular, (1000, 3), {"r": 0.1},
         "C(1000,3) subsets is too many to enumerate"),
        (build_community, ([21], 0.5, [0.5]), {},
         f"2^21 subsets of one family exceed cap {SUPPORT_CAP}"),
    ], ids=["edge-faulty-contacts", "random-regular-subsets", "community-family"])
    def test_an_enumeration_past_its_cap_is_refused_up_front(self, build, args, kwargs, message):
        t0 = time.perf_counter()
        with pytest.raises(SupportTooLarge, match=re.escape(message)):
            build(*args, **kwargs)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("edge", [(0, 5), (0, -1), (3, 1)])
    def test_edge_faulty_refuses_a_contact_endpoint_outside_the_nodes(self, edge):
        with pytest.raises(NodeOutOfRange, match=re.escape(
                f"contact edge {list(edge)} has a node outside 0..2")):
            build_edge_faulty(3, [(0, 1), edge], 0.5, 0.5)

    @pytest.mark.parametrize("spec,error,message", [
        (ModelSpec("nested", {"n": 0}), EmptySupport, "no edge carries positive probability"),
        (ModelSpec("independent", {"p": [0.5] * 21}), SupportTooLarge, "at least 2097152 edges exceed cap"),
        # An infinite island probability lies outside [0, 1].
        (ModelSpec("islands", {"k": 2, "m": 1, "p": [math.inf, 0.5]}), ProbabilityOutOfRange,
         "probability p[0]=inf outside [0, 1]"),
        # A negative integer where a builder annotates float is a probability.
        (ModelSpec("islands", {"k": 2, "m": 1, "p": -1}), ProbabilityOutOfRange,
         "probability p=-1.0 outside [0, 1]"),
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
