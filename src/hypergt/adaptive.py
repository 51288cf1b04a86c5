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
branch. A weight near either bound is compared on its exact sum, so a tie
never depends on summation order. The scan starts from the active nodes,
which hold every edge of positive mass, and keeps the in-S mass through each
node, so a greedy removal subtracts only the edges it drops from E(S). The
stage-2 test list is frozen at entry: every node that is uncertain at that
moment is tested, even if an earlier outcome in the same sweep settles it.

One loop, `_run`, drives the noiseless variants here and the noisy engine in
`noisy`. What differs between them lives in an observer, which decides how
often a test site is asked, how each answer updates the posterior and the
transcript, when a run halts, and what the stage-2 sweep returns. `_Exact`
asks each site once and conditions exactly; `noisy` supplies the repeated,
Bayes-updating one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation, NotRegular, OracleInconsistent, ZeroSurvivorMass
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
from .sets import intersects, mask_from_flags
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
    """

    c: float = 1.0 / 3.0
    variant: str = "base"
    f2: int | None = None
    eps: float | None = None

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


def _split_scan(q: np.ndarray, marg: np.ndarray, graph: Hypergraph, active: np.ndarray,
                c: float) -> tuple[np.ndarray, bool, float]:
    """Greedy node removal over the active set, lowest index first.

    `marg`, the node marginals of q, must be zero outside `active`: then E(S)
    for S = active holds all the mass, and the in-S mass through each node, m,
    starts at marg. Removing v subtracts only the in-S edges through v, so a
    step costs O(n + |E|), and each dropped edge n once per scan.

    Returns (s, found, w): the residual node flags, whether s landed strictly
    inside the (c, 1-c) weight window, and the weight of s.
    """
    s = active.copy()
    m = marg.copy()
    qs = q.copy()
    hi = 1.0 - c
    while True:
        # w(S \ v) = w(S) - m[v]. A node within _TOL of c or 1-c is decided
        # exactly instead: fsum rounds once, so the sign of (sum of its in-S
        # edges avoiding v) - bound is the exact comparison.
        w_minus = qs.sum() - m
        above_c = w_minus > c
        above_hi = w_minus > hi
        for v in np.flatnonzero(s & (np.abs(np.abs(w_minus - 0.5) - (0.5 - c)) <= _TOL)):
            terms = qs[~intersects(graph.words, 1 << int(v))].tolist()
            above_c[v] = math.fsum(terms + [-c]) > 0.0
            above_hi[v] = math.fsum(terms + [-hi]) > 0.0
        window = s & above_c & ~above_hi
        if window.any():
            v = int(np.argmax(window))
            s[v] = False
            return s, True, float(w_minus[v])
        high = s & above_hi
        if not high.any():
            return s, False, float(qs.sum())
        v = int(np.argmax(high))
        s[v] = False
        es = np.flatnonzero(intersects(graph.words, 1 << v) & (qs != 0.0))
        m -= graph.membership.take(es, axis=0).T @ qs.take(es)
        qs[es] = 0.0


def find_split_set(post: Posterior, c: float) -> tuple[int, bool]:
    """Stage-1 search from S = {v : q_v > 0}: returns (node mask, found);
    found means w(S) landed in the (c, 1-c] window."""
    marg = node_marginals(post)
    s, found, _ = _split_scan(post.q, marg, post.graph, marg > 0.0, c)
    return mask_from_flags(s), found


def _check(ok: bool, message: str) -> None:
    """An invariant check that python -O keeps."""
    if not ok:
        raise InvariantViolation(message)


def _uncertain_nodes(marg: np.ndarray, s: np.ndarray) -> list[int]:
    flags = s & (marg > CERTAINTY_TOL) & (marg < 1.0 - CERTAINTY_TOL)
    return [int(v) for v in np.flatnonzero(flags)]


def _finish(tr: Transcript, graph: Hypergraph, idx: int) -> Transcript:
    tr.result_edge = idx
    tr.result_nodes = graph.edge_nodes(idx)
    return tr


class _Exact:
    """Noiseless observer: each test site is asked once and conditioned on
    exactly; the stage-2 sweep ends on the certain edge."""

    def __init__(self, oracle: TestOracle, post: Posterior):
        self.oracle = oracle
        self.post = post
        self.tr = Transcript()
        self.removed = 0.0

    def ask(self, t_mask: int, stage: str) -> bool:
        outcome = self.oracle(t_mask)
        before = self.post.q
        try:
            self.post = condition_on_test(self.post, t_mask, outcome)
        except ZeroSurvivorMass as exc:
            raise OracleInconsistent(str(exc)) from exc
        self.removed = float(before[self.post.q == 0.0].sum())
        self.tr.add(t_mask, outcome, stage, mass_removed=self.removed)
        return outcome

    def informative(self, c: float) -> None:
        _check(self.removed >= c - _TOL, f"informative test removed only {self.removed}")
        self.tr.informative += 1

    def finish(self, positives: list[int]) -> Transcript:
        idx = certain_edge(self.post)
        if idx is None:
            raise OracleInconsistent("individual sweep left no certain edge")
        return _finish(self.tr, self.post.graph, idx)


def _run(graph: Hypergraph, dist: EdgeDistribution, config: AdaptiveConfig, obs,
         active: np.ndarray, rng: np.random.Generator | None = None) -> Transcript:
    """The two-stage loop. `active` flags the nodes stage 1 scans first; it
    only loses nodes whose marginal has reached zero, which stays zero. An
    observer verdict of None means the observer halted the run."""
    variant = config.variant
    if variant == "truncated":
        f2 = resolve_f2(config, graph, dist)
        if rng is None:
            rng = np.random.default_rng()
    c = config.c
    tr = obs.tr
    marg = node_marginals(obs.post)

    while True:
        idx = certain_edge(obs.post)
        if idx is not None:
            return _finish(tr, graph, idx)

        _check(not marg[~active].any(), "posterior mass outside the active set")
        s, found, w_s = _split_scan(obs.post.q, marg, graph, active, c)
        t_mask = mask_from_flags(active & ~s)
        if found:
            verdict = obs.ask(t_mask, SPLIT)
        else:
            # No informative split exists: the residual S holds almost all
            # the mass and each of its nodes is almost surely infected.
            _check(w_s > 1.0 - c - _TOL, f"residual weight {w_s} <= 1-c")
            _check(bool(np.all(marg[s] > 1.0 - 2.0 * c - _TOL)), "residual node below 1-2c")
            # An empty complement is resolved as negative at zero test cost.
            verdict = obs.ask(t_mask, RESIDUAL) if t_mask else False
        if verdict is None:
            return tr
        if found or verdict:
            obs.informative(c)
        else:
            if tr.mu_stage2 is None:
                tr.mu_stage2 = expected_infections(obs.post)
            if variant != "truncated":
                return _stage2(graph, obs, s, variant == "regular")
            pending = _uncertain_nodes(node_marginals(obs.post), s)
            if pending:
                v = int(rng.choice(pending))
                if obs.ask(1 << v, INDIVIDUAL):
                    tr.pn += 1
                if tr.pn >= f2:
                    marg = node_marginals(obs.post)
                    tr.result_nodes = tuple(
                        int(u) for u in np.flatnonzero(marg >= 1.0 - CERTAINTY_TOL)
                    )
                    tr.result_edge = certain_edge(obs.post)
                    return tr
        marg = node_marginals(obs.post)
        active &= marg > 0.0


def _stage2(graph: Hypergraph, obs, s: np.ndarray, regular: bool) -> Transcript:
    """Stage 2 of the base and regular variants, from residual set s."""
    if regular:
        surviving = [i for i in range(len(graph)) if obs.post.q[i] > 0.0]
        sizes = {int(graph.edge_sizes[i]) for i in surviving}
        if len(sizes) > 1:
            raise NotRegular(f"surviving edge sizes {sorted(sizes)} at stage-2 entry")
        if len(surviving) < int(s.sum()):
            s_mask = mask_from_flags(s)
            for e in surviving:
                if obs.post.q[e] <= 0.0:
                    continue
                t2 = s_mask & ~graph.edge_masks[e]
                # When S equals e there is nothing left to ask.
                if t2 == 0 or not obs.ask(t2, COMPLEMENT):
                    return _finish(obs.tr, graph, e)
            raise OracleInconsistent("every edge complement tested positive")
        # Dense case: fall through to individual testing.

    # Test every node that is uncertain right now, in index order, updating
    # after each; outcomes later in the sweep do not shrink the list.
    marg = node_marginals(obs.post)
    positives = [int(v) for v in np.flatnonzero(marg >= 1.0 - CERTAINTY_TOL)]
    for v in _uncertain_nodes(marg, s):
        verdict = obs.ask(1 << v, INDIVIDUAL)
        if verdict is None:
            return obs.tr
        if verdict:
            positives.append(v)
    return obs.finish(sorted(positives))


def run_adaptive(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                 config: AdaptiveConfig | None = None,
                 rng: np.random.Generator | None = None) -> Transcript:
    """Run the configured variant against a noiseless oracle. Stage 1 first
    scans all n nodes, those of zero prior mass included. rng draws the
    truncated variant's random node picks; None means an unseeded one."""
    config = config or AdaptiveConfig()
    config.validate()
    validate_model(graph, dist)
    obs = _Exact(oracle, prior_posterior(graph, dist))
    return _run(graph, dist, config, obs, np.ones(graph.n, dtype=bool), rng)
