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
node, so a greedy removal subtracts only the edges it drops from E(S). One
greedy step drops together the nodes that one-at-a-time removal would drop in
turn, as long as each provably stays above 1-c until its turn. The stage-2
test list is frozen at entry: every node that is uncertain at that moment is
tested, even if an earlier outcome in the same sweep settles it.

A stage-1 test reuses what its scan already holds, in two ways. First, a step
with nodes near a bound sums w(S) exactly once, as a few floats (the exact
partials), and decides each such node on a short exact sum of those partials
less the masses through it. This pays where removal weights tie exactly at c
or 1-c, as under uniform or equal-mass priors. Second, the test's complement
T is the active set less S, so an edge of positive mass meets T exactly when
it is not inside S: the scan's in-S masses are what a negative outcome keeps,
and q less them what a positive one keeps. The noiseless observer conditions
on them with no pass over the edge words.

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

from .errors import InvariantViolation, NotRegular, OracleInconsistent, SchemaError, ZeroSurvivorMass
from .model import (
    CERTAINTY_TOL,
    EdgeDistribution,
    Hypergraph,
    Posterior,
    _check_types,
    _conditioned,
    certain_edge,
    condition_on_test,
    expected_infections,
    node_marginals,
    prior_posterior,
    validate_model,
)
from .sets import intersects, mask_from_flags, mask_of
from .transcript import COMPLEMENT, INDIVIDUAL, RESIDUAL, SPLIT, Transcript

TestOracle = Callable[[int], bool]

_TOL = 1e-9


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for the adaptive engine; SchemaError when built with bad ones.

    c: split constant in (0, 1/2); default 1/3 (the error-tolerant optimum).
    variant: "base" | "truncated" | "regular".
    f2: positive-count cutoff for the truncated variant, an integer >= 1.
    eps: tolerated error for the truncated variant, whose cutoff is then
        ceil(mu / eps); it takes f2 or eps, not both, and no other variant
        takes either.
    """

    c: float = 1.0 / 3.0
    variant: str = "base"
    f2: int | None = None
    eps: float | None = None

    def __post_init__(self) -> None:
        _check_types(AdaptiveConfig, vars(self), "adaptive config")
        if not 0.0 < self.c < 0.5:
            raise SchemaError(f"c={self.c} outside (0, 1/2)")
        if self.variant not in ("base", "truncated", "regular"):
            raise SchemaError(f"unknown variant {self.variant!r}")
        if self.variant != "truncated" and (self.f2, self.eps) != (None, None):
            raise SchemaError(f"f2 and eps apply only to the truncated variant, got "
                              f"f2={self.f2}, eps={self.eps}")
        if self.variant == "truncated":
            if self.c > 1.0 / 3.0 + 1e-12:
                raise SchemaError(f"truncated variant needs c <= 1/3, got {self.c}")
            if (self.f2 is None) == (self.eps is None):
                raise SchemaError("truncated variant needs f2 or eps, not both")
            if self.f2 is not None and self.f2 < 1:
                raise SchemaError("f2 must be >= 1")
            if self.eps is not None and not 0.0 < self.eps < 1.0:
                raise SchemaError("eps must lie in (0, 1)")


def resolve_f2(config: AdaptiveConfig, graph: Hypergraph, dist: EdgeDistribution) -> int:
    """Cutoff for the truncated variant; eps mode uses ceil(mu/eps) from the prior."""
    if config.f2 is not None:
        return config.f2
    mu = expected_infections(prior_posterior(graph, dist))
    return max(1, math.ceil(mu / config.eps))


def _exact_partials(values: list[float]) -> list[float]:
    """Floats whose exact sum is that of `values`: each pass appends the
    remainder rounded once, until the remainder is exactly 0 (fsum rounds
    correctly, so it returns 0 only for an exact 0)."""
    partials = []
    while p := math.fsum(values + [-x for x in partials]):
        partials.append(p)
    return partials


def _split_scan(q: np.ndarray, marg: np.ndarray, graph: Hypergraph, active: np.ndarray,
                c: float) -> tuple[np.ndarray, bool, float, Callable[[], np.ndarray]]:
    """Greedy node removal over the active set, lowest index first.

    `marg`, the node marginals of q, must be zero outside `active`: then E(S)
    for S = active holds all the mass, and the in-S mass through each node, m,
    starts at marg. Removing nodes subtracts only the in-S edges through them.

    After a step that finds no window, each node v of S is high, with
    w(S minus v) > 1-c, or at most c, where it stays as S shrinks. Dropping
    nodes lowers each w(S minus u) by at most the sum of their m, so one step
    drops the lowest high node, and each next one while the m dropped before
    it stays below `room`, the least margin of a high node above 1-c + 2 _TOL:
    the nodes that one-at-a-time removal would drop in turn. A step costs
    O(n + |E|), and each dropped edge n once per scan.

    A step with nodes within _TOL of a bound, which exact ties at c or 1-c
    bring (uniform or equal-mass priors), takes the exact partials of w(S)
    once, in O(|E|) per pass, and then decides each such node on an fsum of
    the partials less its in-S masses: O(|E|) for the edges through it and
    O(deg) for the sum.

    Returns (s, found, w, in_s): the residual node flags, whether s landed
    strictly inside the (c, 1-c) weight window, the weight of s, and a
    function giving q on the edges inside s and 0 elsewhere. As E(S) for
    S = active holds all the mass, these are the masses of the edges that
    miss the test active minus s. It is computed on call, as only the
    noiseless observer reads it.
    """
    s = active.copy()
    m = marg.copy()
    qs = q.copy()
    hi = 1.0 - c
    while True:
        # w(S \ v) = w(S) - m[v]. A node within _TOL of c or 1-c is decided
        # exactly against that bound instead: fsum rounds once, so the sign
        # of (exact partials of w(S), minus the in-S masses through v) - bound
        # is the exact comparison.
        w = qs.sum()
        w_minus = w - m
        above_c = w_minus > c
        above_hi = w_minus > hi
        ties = np.flatnonzero(s & (np.abs(np.abs(w_minus - 0.5) - (0.5 - c)) <= _TOL))
        if ties.size:
            nz = qs != 0.0
            partials = _exact_partials(qs[nz].tolist())
            for v in ties.tolist():
                through = (-qs[nz & intersects(graph.words, 1 << v)]).tolist()
                for bound, above in ((c, above_c), (hi, above_hi)):
                    if abs(float(w_minus[v]) - bound) <= _TOL:
                        above[v] = math.fsum(partials + through + [-bound]) > 0.0
        window = s & above_c & ~above_hi
        if window.any():
            v = int(np.argmax(window))
            s[v] = False

            def in_s() -> np.ndarray:  # the edges through v leave S with it
                qs[intersects(graph.words, 1 << v)] = 0.0
                return qs

            return s, True, float(w_minus[v]), in_s
        high = np.flatnonzero(s & above_hi)
        if not high.size:
            return s, False, float(w), lambda: qs
        room = w_minus[high].min() - hi - 2.0 * _TOL
        drop = high[:1 + int(np.searchsorted(np.cumsum(m[high]), room))]
        s[drop] = False
        es = np.flatnonzero(intersects(graph.words, mask_of(drop.tolist())) & (qs != 0.0))
        m -= graph.node_mass(qs, es)
        qs[es] = 0.0


def find_split_set(post: Posterior, c: float) -> tuple[int, bool]:
    """Stage-1 search from S = {v : q_v > 0}: returns (node mask, found);
    found means w(S) landed in the (c, 1-c] window."""
    marg = node_marginals(post)
    s, found, _, _ = _split_scan(post.q, marg, post.graph, marg > 0.0, c)
    return mask_from_flags(s), found


def _check(ok: bool, message: str) -> None:
    """An invariant check that python -O keeps."""
    if not ok:
        raise InvariantViolation(message)


def _uncertain_nodes(marg: np.ndarray, s: np.ndarray) -> list[int]:
    flags = s & (marg > CERTAINTY_TOL) & (marg < 1.0 - CERTAINTY_TOL)
    return [int(v) for v in np.flatnonzero(flags)]


def _finish(tr: Transcript, graph: Hypergraph, idx: int) -> Transcript:
    tr.result_edge, tr.result_mask = idx, graph.edge_masks[idx]
    return tr


class _Exact:
    """Noiseless observer: each test site is asked once and conditioned on
    exactly; the stage-2 sweep ends on the certain edge."""

    def __init__(self, oracle: TestOracle, post: Posterior):
        self.oracle = oracle
        self.post = post
        self.tr = Transcript()
        self.removed = 0.0

    def ask(self, t_mask: int, stage: str,
            in_s: Callable[[], np.ndarray] | None = None) -> bool:
        """Ask t_mask once and condition on the answer. `in_s`, a stage-1
        scan's, gives the masses of the edges inside S, which are the edges
        of positive mass that miss t_mask: a negative outcome keeps them,
        a positive one keeps q less them."""
        outcome = self.oracle(t_mask)
        before = self.post.q
        try:
            if in_s is None:
                self.post = condition_on_test(self.post, t_mask, outcome)
            else:
                kept = in_s()
                self.post = _conditioned(self.post, before - kept if outcome else kept,
                                         t_mask, outcome)
        except ZeroSurvivorMass as exc:
            raise OracleInconsistent(str(exc)) from exc
        self.removed = float(before[self.post.q == 0.0].sum())
        self.tr.add(t_mask, outcome, stage, mass_removed=self.removed)
        return outcome

    def informative(self, c: float) -> None:
        _check(self.removed >= c - _TOL, f"informative test removed only {self.removed}")
        self.tr.informative += 1

    def finish(self, positives: int) -> Transcript:
        idx = certain_edge(self.post)
        if idx is None:
            raise OracleInconsistent("individual sweep left no certain edge")
        return _finish(self.tr, self.post.graph, idx)


def _run(graph: Hypergraph, dist: EdgeDistribution, config: AdaptiveConfig, obs,
         active: np.ndarray, rng: np.random.Generator | None = None) -> Transcript:
    """The two-stage loop. `active` flags the nodes stage 1 scans first;
    after each test it is the nodes of positive marginal, which a noisy
    posterior can give back to a node it had underflowed. An observer verdict
    of None means the observer halted the run."""
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

        s, found, w_s, in_s = _split_scan(obs.post.q, marg, graph, active, c)
        t_mask = mask_from_flags(active & ~s)
        if found:
            verdict = obs.ask(t_mask, SPLIT, in_s)
        else:
            # No informative split exists: the residual S holds almost all
            # the mass and each of its nodes is almost surely infected.
            _check(w_s > 1.0 - c - _TOL, f"residual weight {w_s} <= 1-c")
            _check(bool(np.all(marg[s] > 1.0 - 2.0 * c - _TOL)), "residual node below 1-2c")
            # An empty complement is resolved as negative at zero test cost.
            verdict = obs.ask(t_mask, RESIDUAL, in_s) if t_mask else False
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
                    tr.result_mask = mask_from_flags(marg >= 1.0 - CERTAINTY_TOL)
                    tr.result_edge = certain_edge(obs.post)
                    return tr
        marg = node_marginals(obs.post)
        active = marg > 0.0


def _stage2(graph: Hypergraph, obs, s: np.ndarray, regular: bool) -> Transcript:
    """Stage 2 of the base and regular variants, from residual set s."""
    if regular:
        surviving = np.flatnonzero(obs.post.q > 0.0).tolist()
        sizes = set(graph.edge_sizes[surviving].tolist())
        if len(sizes) > 1:
            raise NotRegular(f"surviving edge sizes {sorted(sizes)} at stage-2 entry")
        if len(surviving) < int(s.sum()):
            s_mask = mask_from_flags(s)
            for e in surviving:
                t2 = s_mask & ~graph.edge_masks[e]
                # When S equals e there is nothing left to ask.
                if t2 == 0 or not obs.ask(t2, COMPLEMENT):
                    return _finish(obs.tr, graph, e)
            raise OracleInconsistent("every edge complement tested positive")
        # Dense case: fall through to individual testing.

    # Test every node that is uncertain right now, in index order, updating
    # after each; outcomes later in the sweep do not shrink the list.
    marg = node_marginals(obs.post)
    positives = mask_from_flags(marg >= 1.0 - CERTAINTY_TOL)
    for v in _uncertain_nodes(marg, s):
        verdict = obs.ask(1 << v, INDIVIDUAL)
        if verdict is None:
            return obs.tr
        if verdict:
            positives |= 1 << v
    return obs.finish(positives)


def run_adaptive(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                 config: AdaptiveConfig | None = None,
                 rng: np.random.Generator | None = None) -> Transcript:
    """Run the configured variant against a noiseless oracle. Stage 1 first
    scans all n nodes, those of zero prior mass included. rng draws the
    truncated variant's random node picks; None means an unseeded one."""
    config = config or AdaptiveConfig()
    validate_model(graph, dist)
    obs = _Exact(oracle, prior_posterior(graph, dist))
    return _run(graph, dist, config, obs, np.ones(graph.n, dtype=bool), rng)
