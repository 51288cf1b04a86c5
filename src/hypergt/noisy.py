"""Symmetric-noise testing: the flip channel, exact Bayesian updates, one
repetition-with-majority rule, and the noisy adaptive / semi-non-adaptive
engines.

The noisy adaptive engine has no control loop of its own: it runs the base
loop of `adaptive` with a repeated observer. The observer decides how often a
test site is asked (weight-window tests once, the residual group test and the
stage-2 individual tests per `repetitions`), halts the run on the
physical-test budget, and ends the stage-2 sweep on the majority positives.
Under symmetric noise the exact posterior after any transcript is
q_e ∝ p_e · r^(D_e), with r = delta/(1-delta) and D_e the number of observed
outcomes that contradict edge e's noiseless outcome. The observer keeps the
prior and the integer counts D, so no edge of positive prior is ever lost to
underflow, and folds each repetition group into D with one kernel. Majority
verdicts steer control flow only; the posterior absorbs every physical
outcome. `bayes_update_noisy` is the same posterior taken one physical test
at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adaptive import AdaptiveConfig, _run as _adaptive_run
from .errors import SchemaError, ZeroSurvivorMass
from .model import (
    NODE_CAP,
    EdgeDistribution,
    GroundTruth,
    Hypergraph,
    Posterior,
    certain_edge,
    condition_on_test,
    edge_outcomes,
    node_marginals,
    noiseless_oracle,
    prior_posterior,
    validate_model,
)
from .sets import mask_of, nodes_of
from .snagt import SnagtConfig, _run as _snagt_run
from .transcript import INDIVIDUAL, RESIDUAL, SPLIT, Transcript

TestOracle = Callable[[int], bool]


@dataclass(frozen=True)
class NoiseChannel:
    """Each test outcome flips independently with probability delta."""

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 0.5:
            raise SchemaError(f"delta={self.delta} outside [0, 1/2)")


def repetitions(alpha: float, x: float, delta: float) -> int:
    """How often a noisy engine repeats a test: ceil(alpha * log2(x) / (1-2d)^2),
    never fewer than once. x is n for the residual group test,
    max(2, u log2 n) for a stage-2 individual test and u n for a preplanned
    test, and must be >= 1. alpha must be finite and >= 0; 0 asks once."""
    if not 0.0 <= alpha < math.inf:
        raise SchemaError(f"alpha={alpha} must be finite and >= 0")
    if not x >= 1:
        raise SchemaError(f"the repetition count needs x >= 1 (x is n, u log2 n or u n), got x={x}")
    try:
        return max(1, math.ceil(alpha * math.log2(x) / (1.0 - 2.0 * delta) ** 2))
    except OverflowError:
        raise SchemaError(f"alpha={alpha} overflows the repetition count") from None


def _adaptive_repetitions(n: int, u: int | None, alpha: float, delta: float) -> dict[str, int]:
    """How often the noisy adaptive engine asks a site in each stage; u=None
    means n."""
    u = n if u is None else u
    return {SPLIT: 1, RESIDUAL: repetitions(alpha, n, delta),
            INDIVIDUAL: repetitions(alpha, max(2.0, math.log2(n) * u), delta)}


def _check_budget(u: int | None, max_physical_tests: int | None) -> None:
    """Refuse a stage-2 size bound outside 1..NODE_CAP or a physical-test
    budget below 1; None means n for either."""
    if u is not None and not 1 <= u <= NODE_CAP:  # no edge has more than NODE_CAP nodes
        raise SchemaError(f"u={u} must be >= 1" if u < 1 else f"u exceeds NODE_CAP={NODE_CAP}")
    if max_physical_tests is not None and max_physical_tests < 1:
        raise SchemaError(f"physical-test budget {max_physical_tests} must be >= 1")


def noisy_oracle(truth: GroundTruth, channel: NoiseChannel,
                 rng: np.random.Generator) -> TestOracle:
    """True outcome XOR an independent Bernoulli(delta) flip per call."""
    clean = noiseless_oracle(truth)
    delta = channel.delta

    def answers(t_mask: int) -> bool:
        flip = delta > 0.0 and rng.random() < delta
        return clean(t_mask) != flip

    return answers


def bayes_update_noisy(post: Posterior, t, observed: bool, delta: float) -> Posterior:
    """Exact Bayes step: q'(e) ∝ q(e) * (1-delta if e's noiseless outcome on T
    matches the observation else delta). At delta = 0 this is noiseless
    conditioning."""
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"delta={delta} outside [0, 1/2)")
    if delta == 0.0:
        return condition_on_test(post, t, observed)
    t_mask = t if isinstance(t, int) else mask_of(t)
    match = edge_outcomes(post.graph, t_mask) == bool(observed)
    q = post.q * np.where(match, 1.0 - delta, delta)  # keeps at least delta of the mass
    return Posterior(post.graph, q / q.sum())


def admissible_threshold(delta: float) -> float:
    """Smallest split constant the noisy analysis supports:
    1 - (1-d)^(1-d) * d^d, which is 0 at d = 0."""
    return 1.0 - ((1.0 - delta) ** (1.0 - delta)) * (delta ** delta)


class _Repeated:
    """Noisy observer: a test site is asked ells[stage] times (once for a
    split, `repetitions` times for the residual and for a stage-2 node), and
    the majority decides. The posterior is the prior times r^(D - min D),
    with D each edge's count of outcomes that contradict it; one
    `edge_outcomes` call folds a whole group into D. The run halts once the
    physical-test budget is spent; the stage-2 sweep ends on the majority
    positives."""

    def __init__(self, oracle: TestOracle, post: Posterior, delta: float,
                 ells: dict[str, int], cap: int):
        self.oracle = oracle
        self.post = post
        self.prior = post.q
        # An edge of zero prior starts its count past any that a run reaches,
        # so the least count is always that of an edge of positive prior.
        self.mismatches = np.where(post.q > 0.0, 0, 1 << 62)
        self.r = delta / (1.0 - delta)
        self.tr = Transcript()
        self.ells = ells
        self.cap = cap
        self.groups = 0

    def ask(self, t_mask: int, stage: str) -> bool | None:
        """Issue up to ell physical tests, then fold their outcomes into the
        posterior; None means the budget ran out within the group."""
        self.groups += 1
        ell = self.ells[stage]
        asked = min(ell, self.cap - self.tr.total)
        votes = 0
        for _ in range(asked):
            outcome = self.oracle(t_mask)
            self.tr.add(t_mask, outcome, stage, rep_group=self.groups)
            votes += 1 if outcome else 0
        if asked:
            hits = edge_outcomes(self.post.graph, t_mask)
            self.mismatches += np.where(hits, asked - votes, votes)
            self.post = self._posterior(t_mask, votes, asked)
        if asked < ell:
            self.tr.halted = True
            return None
        return 2 * votes >= ell

    def _posterior(self, t_mask: int, votes: int, asked: int) -> Posterior:
        """q ∝ prior · r^(D - min D): the shift keeps the least contradicted
        edges at their prior scale, so the weights never all underflow. At
        delta = 0 (r = 0) a least count above 0 means the observation
        contradicts every edge of positive prior."""
        d = self.mismatches
        low = int(d.min())
        if low and not self.r:
            raise ZeroSurvivorMass(f"observation ({nodes_of(t_mask)}, {votes} of {asked} positive) "
                                   "is inconsistent with every surviving edge")
        # powers[k] = r^(k - low) for k >= low, by repeated multiplication,
        # which rounds alike on every CPU. No count of an edge of positive
        # prior exceeds the tests asked.
        powers = np.full(self.tr.total + 1, self.r)
        powers[:low + 1] = 1.0
        np.multiply.accumulate(powers, out=powers)
        w = self.prior * powers.take(d, mode="clip")  # clips only the zero-prior edges
        return Posterior(self.post.graph, w / w.sum())

    def informative(self, c: float) -> None:
        self.tr.informative += 1

    def finish(self, positives: list[int]) -> Transcript:
        self.tr.result_nodes = tuple(positives)
        self.tr.result_edge = certain_edge(self.post)
        return self.tr


def run_noisy_adaptive(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                       config: AdaptiveConfig, channel: NoiseChannel, alpha: float = 2.0,
                       u: int | None = None,
                       max_physical_tests: int | None = None) -> Transcript:
    """The base adaptive loop under symmetric noise.

    Weight-window tests run once; the residual group test and the stage-2
    individual tests are repeated per `repetitions` with majority verdicts
    (u >= 1, default n). The posterior absorbs every physical outcome through
    exact Bayes. Stage 1 first scans the nodes of positive prior mass. The
    physical-test budget (>= 1) defaults to n, the asymptotic analysis' cap;
    desk runs usually need to raise it. Only the base variant runs under noise.
    """
    _check_budget(u, max_physical_tests)
    if config.variant != "base":
        raise SchemaError(f"noisy runs support only variant='base', got {config.variant!r}")
    validate_model(graph, dist)
    delta = channel.delta
    if config.c <= admissible_threshold(delta):
        warnings.warn(
            f"c={config.c} is at or below the admissible threshold "
            f"{admissible_threshold(delta):.4f} for delta={delta}; proceeding anyway",
            stacklevel=2,
        )
    cap = graph.n if max_physical_tests is None else max_physical_tests
    post = prior_posterior(graph, dist)
    obs = _Repeated(oracle, post, delta, _adaptive_repetitions(graph.n, u, alpha, delta), cap)
    return _adaptive_run(graph, dist, config, obs, node_marginals(post) > 0.0)


def run_noisy_snagt(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                    config: SnagtConfig, channel: NoiseChannel,
                    alpha: float = 2.0) -> Transcript:
    """Semi-non-adaptive run under noise: every scheduled random test is
    repeated per `repetitions` with x = u n, and the majority verdict drives
    elimination. Schedule and repetition counts depend only on (n, u, seed),
    so the design stays target-independent; the test cap scales by the
    repetition factor."""
    config._threshold_and_cap(graph.n)  # refuses n = 0 before log2(u n) can
    return _snagt_run(graph, dist, oracle, config,
                      repetitions(alpha, config.u * graph.n, channel.delta))
