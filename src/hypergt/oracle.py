"""Independent brute-force references.

Two ground truths live here: the exact optimal zero-error adaptive policy
(exhaustive memoized search over information states) and the one-pass direct
posterior (noiseless removal, or Bayes under symmetric noise, from
per-edge mismatch counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import TooLarge, ZeroSurvivorMass
from .model import EdgeDistribution, Hypergraph, Posterior, validate_model
from .noisy import NoiseChannel
from .sets import nodes_of
from .transcript import SPLIT, Transcript

MAX_EDGES = 14


@dataclass
class PolicyNode:
    """Decision-tree node: a leaf names the identified edge, an inner node
    names the queried node mask and both continuations."""

    value: float
    edge: int | None = None
    test: int | None = None
    on_positive: "PolicyNode | None" = None
    on_negative: "PolicyNode | None" = None

    def is_leaf(self) -> bool:
        return self.edge is not None

    def to_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf():
            return f"{pad}return edge {self.edge}\n"
        out = f"{pad}test {set(nodes_of(self.test))}  (expected tests from here: {self.value:.6g})\n"
        out += f"{pad}+ positive:\n" + self.on_positive.to_text(indent + 1)
        out += f"{pad}- negative:\n" + self.on_negative.to_text(indent + 1)
        return out


def optimal_expected_tests(graph: Hypergraph, dist: EdgeDistribution) -> tuple[float, PolicyNode]:
    """Exact minimum expected tests for zero-error identification.

    State = the set of edges still consistent with the transcript; a test only
    matters through the bipartition of the state it induces, so splits are
    enumerated over edge subsets and kept when some node set realizes them.
    A split with negative side B is realizable exactly when every positive-side
    edge keeps a node outside the union of B. Zero-mass edges are never the
    target and are dropped up front. Nodes enter only as bits of int masks,
    so any n is searched; more than MAX_EDGES supported edges is TooLarge.
    """
    validate_model(graph, dist)
    alive = [i for i in range(len(graph)) if dist.probs[i] > 0.0]
    if len(alive) > MAX_EDGES:
        raise TooLarge(f"{len(alive)} supported edges > {MAX_EDGES}")

    emask = [graph.edge_masks[i] for i in alive]
    eprob = [float(dist.probs[i]) for i in alive]
    # Per edge subset s: the union of its node masks, its mass (summed in edge
    # order) and the edges lying wholly inside that union. Each entry extends
    # the one for s without its highest edge.
    size = 1 << len(alive)
    union, mass, covered = [0] * size, [0.0] * size, [0] * size
    for s in range(1, size):
        high = s.bit_length() - 1
        rest = s ^ (1 << high)
        union[s] = union[rest] | emask[high]
        mass[s] = mass[rest] + eprob[high]
        covered[s] = sum(1 << k for k, m in enumerate(emask) if not m & ~union[s])

    @lru_cache(maxsize=None)
    def solve(state: int) -> tuple[float, int]:
        """Returns (value, chosen negative-side subset; -1 at leaves). A state
        of two or more edges always has a split: an inclusion-minimal edge
        alone on the negative side."""
        if state & (state - 1) == 0:
            return 0.0, -1
        best_val, best_neg = None, -1
        neg = (state - 1) & state
        while neg:  # nonempty proper subsets of the state as the negative side
            pos = state & ~neg
            if not covered[neg] & pos:
                p_pos = mass[pos] / mass[state]
                val = 1.0 + p_pos * solve(pos)[0] + (1.0 - p_pos) * solve(neg)[0]
                if best_val is None or val < best_val - 1e-15:
                    best_val, best_neg = val, neg
            neg = (neg - 1) & state
        return best_val, best_neg

    def build(state: int) -> PolicyNode:
        val, neg = solve(state)
        if neg == -1:
            return PolicyNode(0.0, edge=alive[nodes_of(state)[0]])
        pos = state & ~neg
        return PolicyNode(val, test=union[pos] & ~union[neg], on_positive=build(pos),
                          on_negative=build(neg))

    root = build((1 << len(alive)) - 1)
    return root.value, root


def direct_posterior(graph: Hypergraph, dist: EdgeDistribution,
                     transcript: Iterable[tuple[int, bool]],
                     delta: float = 0.0) -> Posterior:
    """Posterior from a whole transcript of (query mask, outcome) pairs in one
    pass. Edge by edge it counts D, the outcomes that contradict the edge's
    noiseless outcome; then q ∝ p · r^(D - min D), r = delta/(1-delta), with
    the minimum over the edges of positive prior, so no such edge underflows
    to zero. At delta = 0 only the edges with D = 0 survive, and a transcript
    that contradicts every edge of positive prior raises ZeroSurvivorMass.
    SchemaError for a delta outside [0, 1/2)."""
    NoiseChannel(delta)
    counts = [0] * len(graph)
    for t_mask, outcome in transcript:
        for i, m in enumerate(graph.edge_masks):
            counts[i] += bool(m & t_mask) != bool(outcome)
    low = min(d for d, p in zip(counts, dist.probs) if p > 0.0)
    if delta == 0.0 and low > 0:
        raise ZeroSurvivorMass("transcript inconsistent with every edge")
    r = delta / (1.0 - delta)
    weights = np.array([p * r ** (d - low) if p > 0.0 else 0.0 for d, p in zip(counts, dist.probs)])
    return Posterior(graph, weights / weights.sum())


def run_policy(graph: Hypergraph, policy: PolicyNode, oracle) -> Transcript:
    """Walk a policy tree against a test oracle, recording each test as SPLIT."""
    tr = Transcript()
    node = policy
    while not node.is_leaf():
        outcome = oracle(node.test)
        tr.add(node.test, outcome, SPLIT)
        node = node.on_positive if outcome else node.on_negative
    tr.result_edge, tr.result_nodes = node.edge, graph.edge_nodes(node.edge)
    return tr
