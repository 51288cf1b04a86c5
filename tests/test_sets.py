"""The packed edge store and the vectorised set operations, checked against
the per-edge and bit-by-bit loops they replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_membership
from hypergt.model import Hypergraph, edge_outcomes
from hypergt.sets import (
    column_nodes,
    mask_from_flags,
    mask_of,
    meets,
    nodes_of,
    pack_rows,
    pack_words,
    unpack_words,
)

NODE_COUNTS = (1, 63, 64, 65, 130)


def reference_edge_outcomes(graph, t_mask):
    return np.array([bool(m & t_mask) for m in graph.edge_masks], dtype=bool)


def reference_pack_words(masks, n):
    """The word store built one 64-bit word of one mask at a time."""
    words = np.zeros(((n + 63) // 64, len(masks)), dtype="<u8")
    for j in range(words.shape[0]):
        for e, m in enumerate(masks):
            words[j, e] = (m >> (64 * j)) & ((1 << 64) - 1)
    return words


def reference_nodes_of(mask):
    nodes = []
    v = 0
    while mask:
        if mask & 1:
            nodes.append(v)
        mask >>= 1
        v += 1
    return tuple(nodes)


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


def stored_masks(n):
    """Masks a word store of n nodes holds whole: 0 <= mask < 2^(64 ceil(n/64))."""
    top = (n + 63) // 64 * 64
    return st.one_of(node_set(0, top - 1), st.integers(0, (1 << top) - 1)) if top else st.just(0)


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


class TestQueryBlocks:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_query(), st.lists(st.integers(0, 2 ** 32 - 1), max_size=6))
    def test_rows_are_masks_and_meets_is_the_per_edge_loop(self, case, seeds):
        """Each row of pack_rows is the mask of its flags, and meets answers
        every row as the per-edge loop answers that mask."""
        graph, query = case
        n = graph.n
        flags = np.array([[query >> v & 1 for v in range(n)]] + [
            np.random.default_rng(seed).random(n) < 0.3 for seed in seeds], dtype=bool)
        masks = [reference_mask_from_flags(row) for row in flags]
        block = pack_rows(flags)
        assert block.shape == (len(masks), (n + 63) // 64)
        assert np.array_equal(block, pack_words(masks, n).T)
        hit = meets(graph.words, block)
        assert hit.shape == (len(masks), len(graph))
        assert np.array_equal(hit, [reference_edge_outcomes(graph, m) for m in masks])


class TestPackWords:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((0, 1, 64, 65, 130)).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(stored_masks(n), max_size=12))))
    def test_matches_the_per_word_build(self, case):
        """A small chunk size makes the masks span several chunks."""
        n, masks = case
        want = reference_pack_words(masks, n)
        with mock.patch("hypergt.sets._PACK_CHUNK", 5):
            chunked = pack_words(masks, n)
        for got in (pack_words(masks, n), chunked):
            assert got.shape == want.shape == ((n + 63) // 64, len(masks))
            assert got.dtype == want.dtype and got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got, want)


class TestMembership:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_query())
    def test_matches_bit_by_bit_build(self, case):
        graph, _ = case
        member = reference_membership(graph)
        got = unpack_words(graph.words, graph.n)
        assert got.shape == member.shape and got.dtype == member.dtype
        assert np.array_equal(got, member)
        # column_nodes lists each edge's nodes in order, edge after edge.
        assert column_nodes(graph.words).tolist() == [
            v for row in member for v in np.flatnonzero(row).tolist()]


@st.composite
def graph_and_masses(draw):
    """A graph, non-negative edge masses with some exact zeros, and a subset
    of edge indices in any order."""
    graph, _ = draw(graph_and_query())
    mass = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.integers(1, 9).map(float))
    q = np.array(draw(st.lists(mass, min_size=len(graph), max_size=len(graph))))
    edges = np.array(draw(st.permutations(range(len(graph))))[:draw(st.integers(0, len(graph)))],
                     dtype=np.intp)
    return graph, q, edges


class TestNodeMass:
    """Both kernels of Hypergraph.node_mass against the bit-by-bit membership
    matrix; SPARSE_DENSITY is patched to force each form."""

    @staticmethod
    def mass(graph, q, edges, density):
        with mock.patch("hypergt.model.SPARSE_DENSITY", density):
            fresh = Hypergraph(graph.n, graph.edge_masks)
            got = fresh.node_mass(q), fresh.node_mass(q, edges)
        assert isinstance(fresh._kernel, np.ndarray) == (density == 0.0)
        return got

    @settings(max_examples=200, deadline=None)
    @given(graph_and_masses())
    def test_sparse_and_dense_forms_agree(self, case):
        graph, q, edges = case
        member = reference_membership(graph)
        picked = np.zeros(len(graph))
        picked[edges] = q[edges]
        dense = self.mass(graph, q, edges, 0.0)
        sparse = self.mass(graph, q, edges, 2.0)
        for d, s, want in zip(dense, sparse, (member.T @ q, member.T @ picked)):
            assert d.shape == s.shape == (graph.n,)
            np.testing.assert_allclose(s, d, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(d, want, rtol=1e-12, atol=0.0)
            assert np.array_equal(d == 0.0, s == 0.0)
            assert np.array_equal(d == 0.0, want == 0.0)

    def test_dense_form_is_the_membership_mat_vec(self):
        """The dense form keeps the mat-vec, so its sums are those of
        membership.T @ q to the bit."""
        graph = Hypergraph(4, [[0, 1], [1, 2, 3], [0, 3], []])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        assert graph.node_mass(q).tolist() == (reference_membership(graph).T @ q).tolist()
        assert isinstance(graph._kernel, np.ndarray)


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
