"""Symmetric-noise testing: the flip channel, exact Bayesian updates,
repetition-with-majority schedules, and the noisy adaptive / semi-non-adaptive
engines.

The noisy adaptive engine has no control loop of its own: it runs the base
loop of `adaptive` with a repeated observer. The observer decides how often a
test site is asked (weight-window tests once, the residual group test and the
stage-2 individual tests per the schedule), applies one exact Bayes step
(prior times per-test likelihood, normalized) per physical test, halts the
run on the physical-test budget, and ends the stage-2 sweep on the majority
positives. Majority verdicts steer control flow only; the posterior absorbs
every physical outcome.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adaptive import AdaptiveConfig, _run as _adaptive_run
from .model import (
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
    renormalized,
    validate_model,
)
from .sets import mask_of
from .snagt import SnagtConfig, _run as _snagt_run
from .transcript import INDIVIDUAL, RESIDUAL, SPLIT, Transcript

TestOracle = Callable[[int], bool]


@dataclass(frozen=True)
class NoiseChannel:
    """Each test outcome flips independently with probability delta."""

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 0.5:
            raise ValueError(f"delta={self.delta} outside [0, 1/2)")


@dataclass
class RepetitionSchedule:
    """How often to repeat the repeated test sites.

    Group tests of the residual nodes run ceil(alpha * log2(n) / (1-2d)^2)
    times and stage-2 individual tests ceil(alpha * log2(u log2 n) / (1-2d)^2)
    times, never fewer than once. Explicit counts override the formulas.
    """

    alpha: float = 2.0
    ell_group: int | None = None
    ell_individual: int | None = None

    def resolve(self, n: int, u: int, delta: float) -> tuple[int, int]:
        shrink = (1.0 - 2.0 * delta) ** 2
        group = self.ell_group
        if group is None:
            group = math.ceil(self.alpha * math.log2(n) / shrink)
        individual = self.ell_individual
        if individual is None:
            individual = math.ceil(self.alpha * math.log2(max(2.0, math.log2(n) * u)) / shrink)
        return max(1, group), max(1, individual)


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
    return renormalized(post, post.q * np.where(match, 1.0 - delta, delta), t_mask, observed)


def majority_test(oracle: TestOracle, t_mask: int, ell: int) -> bool:
    """Query t exactly ell times and take the majority; even-split ties
    resolve positive."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    votes = sum(1 for _ in range(ell) if oracle(t_mask))
    return 2 * votes >= ell


def majority_error_probability(ell: int, delta: float) -> float:
    """Exact probability that the ell-repetition majority verdict is wrong.

    With ties resolving positive, a truly negative query errs when at least
    ceil(ell/2) flips occur, a truly positive one when more than ell/2 do;
    this returns the larger (the negative-side tail).
    """
    kmin = math.ceil(ell / 2)
    return sum(
        math.comb(ell, k) * delta ** k * (1.0 - delta) ** (ell - k)
        for k in range(kmin, ell + 1)
    )


def admissible_threshold(delta: float) -> float:
    """Smallest split constant the noisy analysis supports:
    1 - (1-d)^(1-d) * d^d."""
    if delta == 0.0:
        return 0.0
    return 1.0 - ((1.0 - delta) ** (1.0 - delta)) * (delta ** delta)


class _Repeated:
    """Noisy observer: a test site is asked ell times for its stage (once for
    a split, ell_group for the residual, ell_individual for a stage-2 node),
    each physical test takes one exact Bayes step, and the majority decides.
    The run halts once the physical-test budget is spent; the stage-2 sweep
    ends on the majority positives."""

    def __init__(self, oracle: TestOracle, post: Posterior, delta: float,
                 ells: dict[str, int], cap: int):
        self.oracle = oracle
        self.post = post
        self.tr = Transcript()
        self.delta = delta
        self.ells = ells
        self.cap = cap
        self.groups = 0

    def ask(self, t_mask: int, stage: str) -> bool | None:
        """Issue up to ell physical tests; None means the budget ran out."""
        self.groups += 1
        ell = self.ells[stage]
        votes = 0
        for _ in range(ell):
            if self.tr.total >= self.cap:
                self.tr.halted = True
                return None
            outcome = self.oracle(t_mask)
            self.post = bayes_update_noisy(self.post, t_mask, outcome, self.delta)
            self.tr.add(t_mask, outcome, stage, rep_group=self.groups)
            votes += 1 if outcome else 0
        return 2 * votes >= ell

    def informative(self, c: float) -> None:
        self.tr.informative += 1

    def finish(self, positives: list[int]) -> Transcript:
        self.tr.result_nodes = tuple(positives)
        self.tr.result_edge = certain_edge(self.post)
        return self.tr


def run_noisy_adaptive(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                       config: AdaptiveConfig, channel: NoiseChannel,
                       schedule: RepetitionSchedule | None = None,
                       u: int | None = None,
                       max_physical_tests: int | None = None) -> Transcript:
    """The base adaptive loop under symmetric noise.

    Weight-window tests run once; the residual group test and the stage-2
    individual tests are repeated per the schedule with majority verdicts.
    The posterior absorbs every physical outcome through exact Bayes. Stage 1
    first scans the nodes of positive prior mass. The physical-test budget
    defaults to n, the asymptotic analysis' cap; desk runs usually need to
    raise it. Only the base variant runs under noise.
    """
    config.validate()
    if config.variant != "base":
        raise ValueError(f"noisy runs support only variant='base', got {config.variant!r}")
    validate_model(graph, dist)
    schedule = schedule or RepetitionSchedule()
    delta = channel.delta
    if config.c <= admissible_threshold(delta):
        warnings.warn(
            f"c={config.c} is at or below the admissible threshold "
            f"{admissible_threshold(delta):.4f} for delta={delta}; proceeding anyway",
            stacklevel=2,
        )
    n = graph.n
    ell_group, ell_individual = schedule.resolve(n, u if u else n, delta)
    cap = n if max_physical_tests is None else max_physical_tests
    post = prior_posterior(graph, dist)
    obs = _Repeated(oracle, post, delta,
                    {SPLIT: 1, RESIDUAL: ell_group, INDIVIDUAL: ell_individual}, cap)
    return _adaptive_run(graph, dist, config, obs, node_marginals(post) > 0.0)


def run_noisy_snagt(graph: Hypergraph, dist: EdgeDistribution, oracle: TestOracle,
                    config: SnagtConfig, channel: NoiseChannel,
                    alpha: float = 2.0, ell: int | None = None) -> Transcript:
    """Semi-non-adaptive run under noise: every scheduled random test is
    repeated ceil(alpha * log2(u*n) / (1-2d)^2) times and the majority verdict
    drives elimination. Schedule and repetition counts depend only on
    (n, u, seed), so the design stays target-independent; the test cap scales
    by the repetition factor."""
    if ell is None:
        shrink = (1.0 - 2.0 * channel.delta) ** 2
        ell = max(1, math.ceil(alpha * math.log2(config.u * graph.n) / shrink))
    return _snagt_run(graph, dist, oracle, config, repetitions=ell)
