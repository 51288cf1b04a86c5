"""Two-stage greedy adaptive tester and its truncated / regular variants.

Stage 1 hunts for a node set S whose weight sits strictly inside (c, 1-c) and
tests its complement; either outcome discards at least a c-fraction of the
posterior mass. When no such set exists the accumulated low-weight nodes are
tested as one group; on a negative result the survivors are pinned down by
individual tests (base), by one random uncertain node per visit with a
positive-count cutoff (truncated), or by edge-complement tests when all
surviving edges share one size (regular).

Boundary convention: the stage-1 window is (c, 1-c], so a removal weight equal
to c falls through toward the group test while one equal to 1-c still fires an
informative test; this keeps every residual node above 1-2c at the group-test
branch. The stage-2 test list is frozen at entry: every node that is uncertain
at that moment is tested, even if an earlier outcome in the same sweep settles
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotRegular, OracleInconsistent, ZeroSurvivorMass
from .model import (
    CERTAINTY_TOL,
    EdgeDistribution,
    Hypergraph,
    Posterior,
    certain_edge,
    condition_on_test,
    expected_infections,
    node_marginals,
    prior_posterior,
    validate_model,
)
from .sets import mask_from_flags
from .transcript import COMPLEMENT, INDIVIDUAL, RESIDUAL, SPLIT, Transcript

TestOracle = Callable[[int], bool]

_TOL = 1e-9


@dataclass
class AdaptiveConfig:
    """Knobs for the adaptive engine.

    c: split constant in (0, 1/2); default 1/3 (the error-tolerant optimum).
    variant: "base" | "truncated" | "regular".
    f2: positive-count cutoff for the truncated variant; when unset and eps is
        given, resolved as ceil(mu / eps).
    eps: tolerated error for the truncated variant's cutoff.
    seed: RNG seed for the truncated variant's random node picks.
    """

    c: float = 1.0 / 3.0
    variant: str = "base"
    f2: int | None = None
    eps: float | None = None
    seed: int | None = None

    def validate(self) -> None:
        if not 0.0 < self.c < 0.5:
            raise ValueError(f"c={self.c} outside (0, 1/2)")
        if self.variant not in ("base", "truncated", "regular"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "truncated":
            if self.c > 1.0 / 3.0 + 1e-12:
                raise ValueError(f"truncated variant needs c <= 1/3, got {self.c}")
            if self.f2 is None and self.eps is None:
                raise ValueError("truncated variant needs f2 or eps")
            if self.f2 is not None and self.f2 < 1:
                raise ValueError("f2 must be >= 1")
            if self.eps is not None and not 0.0 < self.eps < 1.0:
                raise ValueError("eps must lie in (0, 1)")


def resolve_f2(config: AdaptiveConfig, graph: Hypergraph, dist: EdgeDistribution) -> int:
    """Cutoff for the truncated variant; eps mode uses ceil(mu/eps) from the prior."""
    if config.f2 is not None:
        return config.f2
    mu = expected_infections(prior_posterior(graph, dist))
    return max(1, math.ceil(mu / config.eps))


def _split_scan(q: np.ndarray, member: np.ndarray, nonmember: np.ndarray,
                active: np.ndarray, c: float) -> tuple[np.ndarray, bool, np.ndarray]:
    """Greedy node removal over the active set.

    Returns (s, found, in_s): the residual node flags, whether s landed
    strictly inside the (c, 1-c) weight window, and the surviving-edge flags
    for E(S). Removal order is lowest index first.
    """
    s = active.copy()
    in_s = (member @ (1.0 - s)) == 0.0
    while True:
        # w(S \ v) summed directly over edges inside S avoiding v, so boundary
        # equalities like w == c are decided on exact input values.
        w_minus = nonmember.T @ (q * in_s)
        window = s & (w_minus > c) & (w_minus <= 1.0 - c)
        if window.any():
            v = int(np.argmax(window))
            s[v] = False
            in_s &= member[:, v] == 0.0
            return s, True, in_s
        high = s & (w_minus > 1.0 - c)
        if high.any():
            v = int(np.argmax(high))
            s[v] = False
            in_s &= member[:, v] == 0.0
            continue
        return s, False, in_s


def find_split_set(post: Posterior, c: float) -> tuple[int, bool]:
    """Stage-1 search from S = {v : q_v > 0}: returns (node mask, found);
    found means w(S) landed in the (c, 1-c] window."""
    member = post.graph.membership
    active = node_marginals(post) > 0.0
    s, found, _ = _split_scan(post.q, member, 1.0 - member, active, c)
    return mask_from_flags(s), found


def _apply(post: Posterior, t_mask: int, outcome: bool) -> tuple[Posterior, float]:
    """Condition and report the posterior mass the update removed."""
    before = post.q
    post = condition_on_test(post, t_mask, outcome)
    removed = float(before[post.q == 0.0].sum())
    return post, removed


def _uncertain_nodes(marg: np.ndarray, s: np.ndarray) -> list[int]:
    flags = s & (marg > CERTAINTY_TOL) & (marg < 1.0 - CERTAINTY_TOL)
    return [int(v) for v in np.flatnonzero(flags)]


def _finish(tr: Transcript, graph: Hypergraph, idx: int) -> Transcript:
    tr.result_edge = idx
    tr.result_nodes = graph.edge_nodes(idx)
    return tr


def run_adaptive(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                 config: AdaptiveConfig | None = None,
                 rng: np.random.Generator | None = None) -> Transcript:
    """Run the configured variant against a noiseless oracle."""
    config = config or AdaptiveConfig()
    config.validate()
    validate_model(graph, dist)
    variant = config.variant
    f2 = resolve_f2(config, graph, dist) if variant == "truncated" else 0
    if rng is None:
        rng = np.random.default_rng(config.seed)

    member = graph.membership
    nonmember = 1.0 - member
    c = config.c
    post = prior_posterior(graph, dist)
    known_negative = np.zeros(graph.n, dtype=bool)
    tr = Transcript()

    def condition(t_mask: int, outcome: bool, stage: str) -> float:
        nonlocal post
        try:
            post, removed = _apply(post, t_mask, outcome)
        except ZeroSurvivorMass as exc:
            raise OracleInconsistent(str(exc)) from exc
        tr.add(t_mask, outcome, stage, mass_removed=removed)
        known_negative[node_marginals(post) == 0.0] = True
        return removed

    while True:
        idx = certain_edge(post)
        if idx is not None:
            return _finish(tr, graph, idx)

        active = ~known_negative
        s, found, in_s = _split_scan(post.q, member, nonmember, active, c)
        t_mask = mask_from_flags(active & ~s)

        if found:
            outcome = oracle(t_mask)
            removed = condition(t_mask, outcome, SPLIT)
            tr.informative += 1
            assert removed >= c - _TOL, f"window test removed only {removed}"
            continue

        # No informative split exists: the residual S holds almost all the
        # mass and each of its nodes is almost surely infected.
        w_s = float((post.q * in_s).sum())
        assert w_s > 1.0 - c - _TOL, f"residual weight {w_s} <= 1-c"
        marg = node_marginals(post)
        assert bool(np.all(marg[s] > 1.0 - 2.0 * c - _TOL)), "residual node below 1-2c"

        if t_mask:
            outcome = oracle(t_mask)
            removed = condition(t_mask, outcome, RESIDUAL)
            if outcome:
                tr.informative += 1
                assert removed >= c - _TOL, f"positive residual removed only {removed}"
                continue
        # An empty complement is resolved as negative at zero test cost.

        mu2 = expected_infections(post)
        if tr.mu_stage2 is None:
            tr.mu_stage2 = mu2

        if variant == "truncated":
            pending = _uncertain_nodes(node_marginals(post), s)
            if pending:
                v = int(rng.choice(pending))
                outcome = oracle(1 << v)
                condition(1 << v, outcome, INDIVIDUAL)
                if outcome:
                    tr.pn += 1
                if tr.pn >= f2:
                    marg = node_marginals(post)
                    tr.result_nodes = tuple(
                        int(u) for u in np.flatnonzero(marg >= 1.0 - CERTAINTY_TOL)
                    )
                    tr.result_edge = certain_edge(post)
                    return tr
            continue

        if variant == "regular":
            surviving = [i for i in range(len(graph)) if post.q[i] > 0.0]
            sizes = {int(graph.edge_sizes[i]) for i in surviving}
            if len(sizes) > 1:
                raise NotRegular(f"surviving edge sizes {sorted(sizes)} at stage-2 entry")
            if len(surviving) < int(s.sum()):
                s_mask = mask_from_flags(s)
                for e in surviving:
                    if post.q[e] <= 0.0:
                        continue
                    t2 = s_mask & ~graph.edge_masks[e]
                    if t2 == 0:
                        return _finish(tr, graph, e)  # S equals e, nothing left to ask
                    outcome = oracle(t2)
                    condition(t2, outcome, COMPLEMENT)
                    if not outcome:
                        return _finish(tr, graph, e)
                raise OracleInconsistent("every edge complement tested positive")
            # Dense case: fall through to individual testing.

        # Test every node that is uncertain right now, in index order,
        # conditioning after each; outcomes later in the sweep do not shrink
        # the list.
        for v in _uncertain_nodes(node_marginals(post), s):
            outcome = oracle(1 << v)
            condition(1 << v, outcome, INDIVIDUAL)
        idx = certain_edge(post)
        if idx is None:
            raise OracleInconsistent("individual sweep left no certain edge")
        return _finish(tr, graph, idx)


def run_base(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
             config: AdaptiveConfig | None = None) -> Transcript:
    config = config or AdaptiveConfig()
    if config.variant != "base":
        raise ValueError("run_base requires variant='base'")
    return run_adaptive(graph, dist, oracle, config)


def run_truncated(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                  config: AdaptiveConfig,
                  rng: np.random.Generator | None = None) -> Transcript:
    if config.variant != "truncated":
        raise ValueError("run_truncated requires variant='truncated'")
    return run_adaptive(graph, dist, oracle, config, rng=rng)


def run_regular(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                config: AdaptiveConfig | None = None) -> Transcript:
    config = config or AdaptiveConfig(variant="regular")
    if config.variant != "regular":
        raise ValueError("run_regular requires variant='regular'")
    return run_adaptive(graph, dist, oracle, config)
