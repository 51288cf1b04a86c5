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

A scan step with nodes near a bound sums w(S) exactly once, as a few floats
(the exact partials), and decides each such node on a short exact sum of
those partials less the masses through it. This pays where removal weights
tie exactly at c or 1-c, as under uniform or equal-mass priors.

Up to the truncated variant's random node picks, each test depends on the
outcome history alone, so all runs of one model and config walk one
decision tree, and one experiment runs one config. A memo that they share
holds that tree, and a run given none walks a tree of its own: its root
step under ("steps", graph, dist, config, observer settings), config the
whole `AdaptiveConfig`, and each later step in the `after` dict of the
step before it, under what that step's test heard. A stage-1 step is the
test's mask and stage and, under base and regular, a residual test's node
set, or a leaf's certain edge; every step also holds the mass that the
test leading to it removed and the total that the posterior was divided
by. A run that finds its next step there asks the stored test with
no scan or marginals. The noiseless observer reads the removed mass back,
checks it, and keeps the test pending; it rebuilds the posterior in one
pass, bit for bit the one that conditioning test by test gives, only where
it is read: where a step is computed, and where the truncated variant
leaves the tree. Under base and regular the residual test's negative
outcome leads to the stage-2 entry, which holds mu_stage2 and the frozen
test list; the steps after it follow by outcome and end on the leaf's
certain edge. So a run whose whole path is stored reads no posterior. The
noisy observer's posterior is fixed by each group's test, size and count
of positive votes, so its tree branches on the vote count, stage 2
included; it folds a replayed group in as it folds a fresh one. Only the
truncated variant's random picks take a run out of its tree.

One loop, `_run`, drives the noiseless variants here and the noisy engine in
`noisy`. What differs between them lives in an observer, which decides how
often a test site is asked, how each answer updates the posterior and the
transcript, when a run halts, and what the stage-2 sweep returns. `_Exact`
asks each site once and conditions exactly; `noisy` supplies the repeated,
Bayes-updating one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvariantViolation, NotRegular, OracleInconsistent, SchemaError, ZeroSurvivorMass
from .model import (
    CERTAINTY_TOL,
    EdgeDistribution,
    Hypergraph,
    Posterior,
    _check_types,
    certain_edge,
    condition_on_test,
    expected_infections,
    node_marginals,
    prior_posterior,
    validate_model,
)
from .sets import intersects, mask_from_flags, mask_of, nodes_of
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
                c: float) -> tuple[np.ndarray, bool, float]:
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

    Returns (s, found, w): the residual node flags, whether s landed
    strictly inside the (c, 1-c) weight window, and the weight of s.
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
            return s, True, float(w_minus[v])
        high = np.flatnonzero(s & above_hi)
        if not high.size:
            return s, False, float(w)
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
    s, found, _ = _split_scan(post.q, marg, post.graph, marg > 0.0, c)
    return mask_from_flags(s), found


def _check(ok: bool, message: str) -> None:
    """An invariant check that python -O keeps."""
    if not ok:
        raise InvariantViolation(message)


def _uncertain_nodes(marg: np.ndarray, s: int = -1) -> list[int]:
    """The nodes of node mask s, all by default, whose marginal is neither 0
    nor 1."""
    flags = (marg > CERTAINTY_TOL) & (marg < 1.0 - CERTAINTY_TOL)
    return [v for v in np.flatnonzero(flags).tolist() if s >> v & 1]


def _finish(tr: Transcript, graph: Hypergraph, idx: int) -> Transcript:
    tr.result_edge, tr.result_mask = idx, graph.edge_masks[idx]
    return tr


@dataclass(slots=True)
class _Step:
    """The step that any trial with one outcome history takes. In stage 1 it
    is a leaf's certain edge, or a test's mask and stage and, for a base or
    regular residual test, the residual set's node mask, which stage 2
    reads at each entry it stores (one per vote count under noise). A
    stage-2 step holds no test, as its entry's list does, and the last one
    holds the sweep's end under the key None, which no outcome uses: a leaf
    with the edge the sweep returned, None where a noisy sweep found no
    certain edge. Each step holds the mass that the test leading to it
    removed and the total that the posterior was divided by (None where
    nothing was removed), and the steps after it by what its test heard.
    The oracle's optimal policy is one such tree, of split tests."""

    edge: int | None
    t_mask: int = 0
    stage: str | None = None
    s: int | None = None
    removed: float = 0.0
    norm: float | None = None
    after: dict = field(default_factory=dict)

    def to_text(self) -> str:
        """The binary tree from this step, indented, each test with its expected
        tests from here: 1 + the sum over its children of norm x their own."""
        def walk(step: _Step, pad: str) -> tuple[str, float]:
            if step.edge is not None:
                return f"{pad}return edge {step.edge}\n", 0.0
            (pos, v_pos), (neg, v_neg) = (walk(step.after[o], pad + "  ") for o in (True, False))
            value = 1.0 + step.after[True].norm * v_pos + step.after[False].norm * v_neg
            return (f"{pad}test {set(nodes_of(step.t_mask))}  (expected tests from here: "
                    f"{value:.6g})\n{pad}+ positive:\n{pos}{pad}- negative:\n{neg}"), value

        return walk(self, "")[0]


@dataclass(slots=True)
class _Sweep(_Step):
    """A stage-2 entry, the residual step's child under a negative outcome
    (or vote count): mu_stage2, the frozen tests (mask, stage, and the edge
    a negative complement settles on, else None) and the nodes already
    certain at entry."""

    mu: float = 0.0
    tests: list = field(default_factory=list)
    positives: int = 0


class _Exact:
    """Noiseless observer: each test site is asked once and conditioned on
    exactly; the stage-2 sweep ends on the certain edge.

    A test whose outcome leads to a stored step is not conditioned on: the
    step holds the mass the test removed and the normaliser, and the test
    waits in `pending`. The posterior is rebuilt where it is read, in one
    pass: the last one times the AND of the pending tests' keep masks,
    divided by each normaliser in turn. Conditioning one test at a time
    multiplies each kept mass by 1 and divides it by the same normalisers
    in the same order, so the bits are the same."""

    settings = "noiseless"  # keys its step tree in a memo, with graph, dist and config

    def __init__(self, oracle: TestOracle, post: Posterior):
        self.oracle = oracle
        self._post = post
        self.pending: list[tuple[int, bool, float | None]] = []
        self.tr = Transcript()
        self.removed = 0.0
        self.norm: float | None = None

    @property
    def post(self) -> Posterior:
        if self.pending:
            graph = self._post.graph
            keep = None
            for t_mask, outcome, _ in self.pending:
                hits = intersects(graph.words, t_mask)
                kept = hits if outcome else ~hits
                keep = kept if keep is None else np.logical_and(keep, kept, out=keep)
            q = self._post.q * keep
            for _, _, norm in self.pending:
                if norm is not None:
                    q /= norm
            self._post = Posterior(graph, q)
            self.pending.clear()
        return self._post

    def ask(self, t_mask: int, stage: str, after: dict) -> bool:
        """Ask t_mask once. Where `after`, the asking step's children, holds
        a step for the answer, take the mass removed and the normaliser
        from it; else condition on the answer. The outcome is what it heard,
        which picks the next step in the step tree."""
        outcome = self.oracle(t_mask)
        child = after.get(outcome)
        if child is None:
            before = self.post.q
            try:
                self._post = condition_on_test(self._post, t_mask, outcome)
            except ZeroSurvivorMass as exc:
                raise OracleInconsistent(str(exc)) from exc
            self.removed = float(before[self._post.q == 0.0].sum())
            self.norm = self._post.norm
        else:
            self.removed, self.norm = child.removed, child.norm
            self.pending.append((t_mask, outcome, self.norm))
        self.tr.add(t_mask, outcome, stage, mass_removed=self.removed)
        self.heard = outcome
        return outcome

    def informative(self, c: float) -> None:
        _check(self.removed >= c - _TOL, f"informative test removed only {self.removed}")
        self.tr.informative += 1

    def finish(self, positives: int, end: _Step | None) -> Transcript:
        """End the sweep on the edge of `end`, the stored leaf, without
        reading the posterior, or else on the posterior's certain edge."""
        edge = certain_edge(self.post) if end is None else end.edge
        if edge is None:
            raise OracleInconsistent("individual sweep left no certain edge")
        return _finish(self.tr, self._post.graph, edge)


def _run(graph: Hypergraph, dist: EdgeDistribution, config: AdaptiveConfig, obs,
         active: np.ndarray | None, rng: np.random.Generator | None = None,
         memo: dict | None = None) -> Transcript:
    """The two-stage loop. `active` flags the nodes stage 1 scans first,
    None meaning the nodes of positive marginal, as after each test, where a
    noisy posterior can give back a node it had underflowed. An observer
    verdict of None means the observer halted the run. `memo` holds the
    step tree under ("steps", graph, dist, config, obs.settings), and a run
    given none keeps a tree of its own; a step found in it is replayed
    instead of scanned, and one computed is stored. The truncated variant
    leaves the tree at stage-2 entry and goes on in a tree of its own: its
    random node picks make nearly every path after them unique, so storing
    them costs more than replays save. Kept in the memo, 2000 eps = 0.1
    runs on cosize(70) stored 203 966 steps and ran about 1.3x slower, as
    did sparse500; only community12 gained (README, 2-vCPU VM)."""
    variant = config.variant
    c = config.c
    if variant == "truncated":
        f2 = resolve_f2(config, graph, dist)
        if rng is None:
            rng = np.random.default_rng()
    tr = obs.tr
    # The next step is parent.after.get(key): the root under a holder whose
    # children are the memo, then the step that the last one's test heard.
    parent = _Step(None, after={} if memo is None else memo)
    key = ("steps", graph, dist, config, obs.settings)

    while True:
        step = parent.after.get(key)
        if step is None:
            idx = certain_edge(obs.post)
            if idx is not None:
                step = _Step(idx)
            else:
                marg = node_marginals(obs.post)
                if active is None:
                    active = marg > 0.0
                s, found, w_s = _split_scan(obs.post.q, marg, graph, active, c)
                if not found:
                    # No informative split exists: the residual S holds almost
                    # all the mass and each of its nodes is almost surely infected.
                    _check(w_s > 1.0 - c - _TOL, f"residual weight {w_s} <= 1-c")
                    _check(bool(np.all(marg[s] > 1.0 - 2.0 * c - _TOL)), "residual node below 1-2c")
                # Only stage 2 reads the residual set, and truncated never enters it.
                step = _Step(None, mask_from_flags(active & ~s), SPLIT if found else RESIDUAL,
                             None if found or variant == "truncated" else mask_from_flags(s))
            step.removed, step.norm = obs.removed, obs.norm
            parent.after[key] = step
        if step.edge is not None:
            return _finish(tr, graph, step.edge)
        # An empty complement is resolved as negative at zero test cost.
        verdict = obs.ask(step.t_mask, step.stage, step.after) if step.t_mask else False
        if verdict is None:
            return tr
        if step.stage == SPLIT or verdict:
            obs.informative(c)
            parent, key = step, obs.heard
        elif variant != "truncated":
            return _stage2(graph, obs, step, variant == "regular")
        else:
            parent = _Step(None)  # the rest of the run stays out of the memo
            if tr.mu_stage2 is None:
                tr.mu_stage2 = expected_infections(obs.post)
            # Every uncertain node lies in S: the test of active less S came
            # back negative, and a node outside active had no mass.
            pending = _uncertain_nodes(node_marginals(obs.post))
            if pending:
                v = int(rng.choice(pending))
                if obs.ask(1 << v, INDIVIDUAL, parent.after):
                    tr.pn += 1
                if tr.pn >= f2:
                    marg = node_marginals(obs.post)
                    tr.result_mask = mask_from_flags(marg >= 1.0 - CERTAINTY_TOL)
                    tr.result_edge = certain_edge(obs.post)
                    return tr
        active = None


def _stage2(graph: Hypergraph, obs, residual: _Step, regular: bool) -> Transcript:
    """Stage 2 of the base and regular variants, after residual's test came
    back negative. Its entry fixes mu_stage2 and the test list, frozen at
    entry: an edge complement over the residual set for each surviving
    edge, or each node uncertain at entry, in index order, even one that
    an earlier outcome settles. The entry is the residual's child under
    what its test heard (False for an empty residual, which is not asked),
    the step after each test hangs under the one before it by what the
    test heard, and the last one holds the sweep's end, None included,
    under the key None; a run that finds them reads no posterior."""
    key = obs.heard if residual.t_mask else False
    entry = residual.after.get(key)
    if entry is None:
        entry = _Sweep(None, mu=expected_infections(obs.post))
        if residual.t_mask:
            entry.removed, entry.norm = obs.removed, obs.norm
        s = residual.s
        if regular:
            surviving = np.flatnonzero(obs.post.q > 0.0).tolist()
            sizes = set(graph.edge_sizes[surviving].tolist())
            if len(sizes) > 1:
                raise NotRegular(f"surviving edge sizes {sorted(sizes)} at stage-2 entry")
            if len(surviving) < s.bit_count():
                entry.tests = [(s & ~graph.edge_masks[e], COMPLEMENT, e) for e in surviving]
            # Dense case: fall through to individual testing.
        if not entry.tests:
            marg = node_marginals(obs.post)
            entry.positives = mask_from_flags(marg >= 1.0 - CERTAINTY_TOL)
            entry.tests = [(1 << v, INDIVIDUAL, None) for v in _uncertain_nodes(marg, s)]
        residual.after[key] = entry

    tr = obs.tr
    tr.mu_stage2 = entry.mu
    step, positives = entry, entry.positives
    for t_mask, stage, edge in entry.tests:
        # A complement is empty when S equals its edge: nothing is left to ask.
        verdict = obs.ask(t_mask, stage, step.after) if t_mask else False
        if verdict is None:
            return tr
        if t_mask:
            if obs.heard not in step.after:
                step.after[obs.heard] = _Step(None, removed=obs.removed, norm=obs.norm)
            step = step.after[obs.heard]
        if verdict:
            positives |= t_mask
        elif edge is not None:
            return _finish(tr, graph, edge)
    if entry.tests and entry.tests[-1][2] is not None:
        raise OracleInconsistent("every edge complement tested positive")
    end = step.after.get(None)
    tr = obs.finish(positives, end)
    if end is None:
        step.after[None] = _Step(tr.result_edge)
    return tr


def run_adaptive(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                 config: AdaptiveConfig | None = None,
                 rng: np.random.Generator | None = None,
                 memo: dict | None = None) -> Transcript:
    """Run the configured variant against a noiseless oracle. Stage 1 first
    scans all n nodes, those of zero prior mass included. rng draws the
    truncated variant's random node picks; None means an unseeded one.

    memo is a dict that runs share, empty at first, as `run_experiment`
    shares one between the trials of an experiment: each step a run
    computes, stage 2 included, is stored in a tree under (graph, dist,
    config), graph and dist by identity, and a later run with the same
    outcome history replays it without conditioning on it. A run given no
    memo keeps a tree of its own, which it drops when it returns. The
    truncated variant stores and replays only the steps before stage 2."""
    config = config or AdaptiveConfig()
    validate_model(graph, dist)
    obs = _Exact(oracle, prior_posterior(graph, dist))
    return _run(graph, dist, config, obs, np.ones(graph.n, dtype=bool), rng, memo)
