"""The packed edge store and the vectorised set operations, checked against
the per-edge and bit-by-bit loops they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergt.model import Hypergraph, edge_outcomes
from hypergt.sets import mask_from_flags, mask_of, nodes_of

NODE_COUNTS = (1, 63, 64, 65, 130)


def reference_edge_outcomes(graph, t_mask):
    return np.array([bool(m & t_mask) for m in graph.edge_masks], dtype=bool)


def reference_nodes_of(mask):
    nodes = []
    v = 0
    while mask:
        if mask & 1:
            nodes.append(v)
        mask >>= 1
        v += 1
    return tuple(nodes)


def reference_membership(graph):
    mat = np.zeros((len(graph.edge_masks), graph.n))
    for i, m in enumerate(graph.edge_masks):
        for v in reference_nodes_of(m):
            mat[i, v] = 1.0
    return mat


def reference_mask_from_flags(flags):
    m = 0
    for v in np.flatnonzero(flags):
        m |= 1 << int(v)
    return m


def node_set(lo, hi):
    """Masks over nodes lo..hi: a few nodes, mostly next to word boundaries
    so that edges and queries often meet in a word other than the first, or
    any subset of the range."""
    boundary_nodes = [v for v in (0, 1, 62, 63, 64, 65, 127, 128, 129, 130, 191, 192)
                      if lo <= v <= hi]
    node = st.one_of(st.sampled_from(boundary_nodes), st.integers(lo, hi))
    return st.one_of(st.sets(node, max_size=3).map(mask_of),
                     st.integers(0, (1 << (hi + 1)) - 1).map(lambda m: m >> lo << lo))


@st.composite
def graph_and_query(draw):
    n = draw(st.sampled_from(NODE_COUNTS))
    # The empty edge always appears; set() keeps the masks distinct.
    masks = sorted(set(draw(st.lists(node_set(0, n - 1), max_size=40))) | {0})
    # A query covers a few of the edges, so it is hit in several words, plus
    # nothing, nodes in range, or bits at or beyond n.
    query = 0
    for m in draw(st.lists(st.sampled_from(masks), max_size=3)):
        query |= m
    query |= draw(st.one_of(st.just(0), node_set(0, n - 1), node_set(0, n + 70),
                            node_set(n, n + 70)))
    return Hypergraph(n, draw(st.permutations(masks))), query


class TestEdgeOutcomes:
    @settings(max_examples=300, deadline=None)
    @given(graph_and_query())
    def test_matches_per_edge_loop(self, case):
        graph, query = case
        got = edge_outcomes(graph, query)
        assert got.dtype == bool
        assert np.array_equal(got, reference_edge_outcomes(graph, query))

    def test_no_edges(self):
        assert edge_outcomes(Hypergraph(70, []), 1 << 69).shape == (0,)

    def test_no_nodes(self):
        assert not edge_outcomes(Hypergraph(0, [0]), 0b101).any()

    @pytest.mark.parametrize("n", NODE_COUNTS)
    def test_store_shape(self, n):
        graph = Hypergraph(n, [0, 1 << (n - 1)])
        assert graph.words.shape == ((n + 63) // 64, 2)
        assert graph.words[:, 1].any() and not graph.words[:, 0].any()


class TestMembership:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_query())
    def test_matches_bit_by_bit_build(self, case):
        graph, _ = case
        got = graph.membership
        assert got.shape == (len(graph), graph.n)
        assert np.array_equal(got, reference_membership(graph))


class TestMaskConversions:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(NODE_COUNTS).flatmap(lambda n: st.integers(0, (1 << n) - 1)))
    def test_nodes_of_round_trips(self, mask):
        nodes = nodes_of(mask)
        assert nodes == reference_nodes_of(mask)
        assert all(type(v) is int for v in nodes)
        assert mask_of(nodes) == mask

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.integers(0, 200)))
    def test_mask_of_round_trips(self, nodes):
        assert nodes_of(mask_of(nodes)) == tuple(sorted(nodes))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.booleans(), max_size=200))
    def test_mask_from_flags(self, flags):
        flags = np.array(flags, dtype=bool)
        assert mask_from_flags(flags) == reference_mask_from_flags(flags)

    def test_empty(self):
        assert nodes_of(0) == ()
        assert mask_from_flags(np.zeros(0, dtype=bool)) == 0
