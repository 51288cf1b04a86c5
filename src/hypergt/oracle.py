"""Independent brute-force references.

Three ground truths live here: the exact optimal zero-error adaptive policy
(exhaustive memoized search over information states), the one-pass direct
posterior (noiseless removal or likelihood-weighted Bayes), and an exhaustive
error checker for single-node non-adaptive plans on the chain model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import TooLarge, ZeroSurvivorMass
from .model import EdgeDistribution, Hypergraph, Posterior, validate_model
from .sets import full_mask, iter_bits, mask_of, nodes_of

MAX_EDGES = 14
MAX_NODES = 12


@dataclass
class PolicyNode:
    """Decision-tree node: a leaf names the identified edge, an inner node
    names the queried node set and both continuations."""

    value: float
    edge: int | None = None
    test: tuple[int, ...] | None = None
    on_positive: "PolicyNode | None" = None
    on_negative: "PolicyNode | None" = None

    def is_leaf(self) -> bool:
        return self.edge is not None

    def to_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf():
            return f"{pad}return edge {self.edge}\n"
        out = f"{pad}test {set(self.test)}  (expected tests from here: {self.value:.6g})\n"
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
    target and are dropped up front.
    """
    validate_model(graph, dist)
    alive = [i for i in range(len(graph)) if dist.probs[i] > 0.0]
    if len(alive) > MAX_EDGES:
        raise TooLarge(f"{len(alive)} supported edges > {MAX_EDGES}")
    if graph.n > MAX_NODES:
        raise TooLarge(f"{graph.n} nodes > {MAX_NODES}")

    emask = [graph.edge_masks[i] for i in alive]
    eprob = [float(dist.probs[i]) for i in alive]
    universe = full_mask(graph.n)

    @lru_cache(maxsize=None)
    def solve(state: int) -> tuple[float, int]:
        """Returns (value, chosen negative-side subset; -1 at leaves)."""
        if state & (state - 1) == 0:
            return 0.0, -1
        mass = sum(eprob[k] for k in iter_bits(state))
        best_val, best_neg = None, -1
        neg = (state - 1) & state
        while neg:  # nonempty proper subsets of the state as the negative side
            pos = state & ~neg
            union_neg = 0
            for k in iter_bits(neg):
                union_neg |= emask[k]
            t = universe & ~union_neg
            if all(emask[k] & t for k in iter_bits(pos)):
                p_pos = sum(eprob[k] for k in iter_bits(pos)) / mass
                val = 1.0 + p_pos * solve(pos)[0] + (1.0 - p_pos) * solve(neg)[0]
                if best_val is None or val < best_val - 1e-15:
                    best_val, best_neg = val, neg
            neg = (neg - 1) & state
        assert best_val is not None, "no realizable split (duplicate-free states always have one)"
        return best_val, best_neg

    def build(state: int) -> PolicyNode:
        val, neg = solve(state)
        if neg == -1:
            return PolicyNode(0.0, edge=alive[next(iter_bits(state))])
        pos = state & ~neg
        union_neg, union_pos = 0, 0
        for k in iter_bits(neg):
            union_neg |= emask[k]
        for k in iter_bits(pos):
            union_pos |= emask[k]
        t = (universe & ~union_neg) & union_pos
        return PolicyNode(val, test=nodes_of(t), on_positive=build(pos), on_negative=build(neg))

    root_state = (1 << len(alive)) - 1
    if root_state == 0:
        raise TooLarge("distribution has empty support")
    root = build(root_state)
    return root.value, root


def direct_posterior(graph: Hypergraph, dist: EdgeDistribution,
                     transcript: Iterable[tuple[int, bool]],
                     delta: float = 0.0) -> Posterior:
    """Posterior from a whole transcript of (query mask, outcome) pairs in one
    pass: q ∝ p · Π likelihoods, with likelihoods in {0,1} at delta=0 and
    {delta, 1-delta} otherwise."""
    weights = dist.probs.copy()
    for t_mask, outcome in transcript:
        for i, m in enumerate(graph.edge_masks):
            match = bool(m & t_mask) == bool(outcome)
            if delta == 0.0:
                weights[i] *= 1.0 if match else 0.0
            else:
                weights[i] *= (1.0 - delta) if match else delta
    total = weights.sum()
    if total <= 0.0:
        raise ZeroSurvivorMass("transcript inconsistent with every edge")
    return Posterior(graph, weights / total)


def nonadaptive_min_error(n: int, budget: int) -> float:
    """Exhaustive minimum error of single-node non-adaptive plans on the chain
    model (edges {v1..vi}, uniform 1/n mass).

    Plans draw `budget` distinct probe nodes from {2..n}; node 1 is in every
    edge, so probing it is never useful. Decoding is maximum-a-posteriori; a
    target that stays ambiguous within its outcome class counts as a half
    error, the pairwise-confusion convention of the matching lower bound.
    """
    if n > MAX_NODES:
        raise TooLarge(f"n={n} > {MAX_NODES}")
    if not 0 <= budget <= n - 1:
        raise ValueError(f"budget {budget} outside 0..{n - 1}")
    best = None
    for plan in combinations(range(2, n + 1), budget):
        probes = sorted(plan)
        # Targets e_k and e_k' share an outcome signature iff no probe lies in
        # (k, k']; classes are the intervals the probes cut {1..n} into.
        bounds = [1] + probes + [n + 1]
        err = sum(bounds[i + 1] - bounds[i] - 1 for i in range(len(bounds) - 1)) / (2.0 * n)
        best = err if best is None else min(best, err)
    return float(best)


def simulate_policy(policy: PolicyNode, oracle) -> tuple[int, int]:
    """Walk a policy tree against a test oracle: (tests used, returned edge)."""
    node = policy
    tests = 0
    while not node.is_leaf():
        tests += 1
        node = node.on_positive if oracle(mask_of(node.test)) else node.on_negative
    return tests, node.edge
