from fractions import Fraction

import numpy as np
import pytest

from hypergt.model import EdgeDistribution, GroundTruth, Hypergraph, noiseless_oracle
from hypergt.sets import mask_of, nodes_of


@pytest.fixture
def fig1():
    """Five-node worked example: edges {1,2,3}, {1,5}, {4,5} with masses
    .3/.2/.5 (node labels here are 0-based)."""
    graph = Hypergraph(5, [[0, 1, 2], [0, 4], [3, 4]])
    dist = EdgeDistribution([0.3, 0.2, 0.5])
    return graph, dist


def truth_for(graph, index):
    return GroundTruth(index, graph.edge_masks[index])


def oracle_for(graph, index):
    return noiseless_oracle(truth_for(graph, index))


def random_model(rng, max_n=6, max_edges=10):
    """Seeded random small model: distinct edge masks, positive masses."""
    n = int(rng.integers(2, max_n + 1))
    count = int(rng.integers(2, min(max_edges, 2 ** n) + 1))
    masks = rng.choice(2 ** n, size=count, replace=False)
    weights = rng.integers(1, 20, size=count).astype(float)
    dist = EdgeDistribution(weights / weights.sum())
    return Hypergraph(n, [int(m) for m in masks]), dist


# Scalar reference implementations of E(S), w(S) and q_v: one edge at a time,
# so the vectorised model code can be checked against them.

def edge_set(graph, s):
    """Indices of edges entirely contained in node set s (E(S))."""
    s_mask = s if isinstance(s, int) else mask_of(s)
    return tuple(i for i, m in enumerate(graph.edge_masks) if m & ~s_mask == 0)


def set_weight(post, s):
    """Total posterior mass of edges contained in s (w(S))."""
    return float(sum(post.q[i] for i in edge_set(post.graph, s)))


def node_marginal(post, v):
    """Posterior probability that node v is infected (q_v)."""
    bit = 1 << v
    return float(sum(post.q[i] for i, m in enumerate(post.graph.edge_masks) if m & bit))


def reference_split_scan(post, c):
    """`find_split_set` in exact arithmetic: the same greedy removal from
    S = {v : q_v > 0}, lowest index first, with every w(S minus v) summed as
    Fractions of the float masses and compared with the float bounds c and
    1 - c. Returns (node mask, found)."""
    q = [Fraction(x) for x in post.q]
    lo, hi = Fraction(c), Fraction(1.0 - c)
    masks = post.graph.edge_masks
    s = mask_of(v for v in range(post.graph.n) if node_marginal(post, v) > 0.0)
    while True:
        inside = [i for i, m in enumerate(masks) if m & ~s == 0]
        w = {v: sum((q[i] for i in inside if not masks[i] >> v & 1), Fraction(0))
             for v in nodes_of(s)}
        window = [v for v in w if lo < w[v] <= hi]
        if window:
            return s & ~(1 << window[0]), True
        high = [v for v in w if w[v] > hi]
        if not high:
            return s, False
        s &= ~(1 << high[0])
