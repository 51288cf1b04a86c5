"""Independent brute-force references.

Two ground truths live here: the exact optimal zero-error adaptive policy
(exhaustive memoized search over information states) and the one-pass direct
posterior (noiseless removal, or Bayes under symmetric noise, from
per-edge mismatch counts). The policy is a tree of `adaptive._Step`, the
type of the adaptive engine's step tree: a leaf holds the edge, an inner step
a split test and its two children by outcome, each with the shares of its
parent's mass that the test removed and kept.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from .adaptive import _finish, _Step
from .errors import TooLarge, ZeroSurvivorMass
from .model import EdgeDistribution, Hypergraph, Posterior, validate_model
from .noisy import NoiseChannel
from .transcript import SPLIT, Transcript

MAX_EDGES = 14


def optimal_expected_tests(graph: Hypergraph, dist: EdgeDistribution) -> tuple[float, _Step]:
    """Exact minimum expected tests for zero-error identification, and the
    root step of a policy that attains it.

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

    def build(state: int) -> _Step:
        neg = solve(state)[1]
        if neg == -1:
            return _Step(alive[state.bit_length() - 1])
        pos = state & ~neg
        step = _Step(None, union[pos] & ~union[neg], SPLIT)
        for outcome, sub in ((True, pos), (False, neg)):
            child = step.after[outcome] = build(sub)
            child.removed, child.norm = mass[state & ~sub] / mass[state], mass[sub] / mass[state]
        return step

    return solve(size - 1)[0], build(size - 1)


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


def run_policy(graph: Hypergraph, policy: _Step, oracle) -> Transcript:
    """Walk a policy's step tree against a test oracle, recording each test."""
    tr = Transcript()
    while policy.edge is None:
        outcome = oracle(policy.t_mask)
        tr.add(policy.t_mask, outcome, policy.stage)
        policy = policy.after[outcome]
    return _finish(tr, graph, policy.edge)
