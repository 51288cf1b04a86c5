"""Semi-non-adaptive engine: a preplanned random test sequence with online
elimination and an adaptive stopping rule.

Edges larger than the stochastic size bound u are dropped up front. The
survivors are partitioned into dyadic probability bands; a band becomes a
candidate once a single edge of it survives, and the run stops when some
candidate has survived ceil(stop_coeff * u * log2 n) further tests. Every
queried set is drawn before any outcome is seen (each node independently with
probability 1/u), so the schedule is a pure function of (n, u, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport
from .model import EdgeDistribution, Hypergraph, validate_model
from .sets import intersects, mask_from_flags
from .transcript import RANDOM, Transcript


@dataclass
class SnagtConfig:
    u: int
    stop_coeff: float = 10.0
    cap_coeff: float = 2.0
    seed: int | None = None

    def validate(self) -> None:
        if self.u < 2:
            raise ValueError(f"u={self.u} must be >= 2")
        if self.stop_coeff <= 0 or self.cap_coeff <= 0:
            raise ValueError("stop_coeff and cap_coeff must be positive")


@dataclass
class SubgraphPartition:
    """Dyadic bands: band i holds edges with probability in [2^-i, 2^-(i-1)]."""

    buckets: dict[int, list[int]]

    def bucket_counts(self) -> dict[int, int]:
        return {i: len(es) for i, es in self.buckets.items()}


@dataclass
class CandidateTracker:
    """Bands down to a single surviving edge, with per-band survival counts.

    A band is a candidate exactly while its surviving-edge count is 1; its
    time counts the tests it survived after becoming one.
    """

    sg: set[int]
    time: dict[int, int]

    @classmethod
    def fresh(cls, bucket_ids) -> "CandidateTracker":
        return cls(set(), {i: 0 for i in bucket_ids})

    def tick(self) -> None:
        """One more test survived by every current candidate."""
        for b in self.sg:
            self.time[b] += 1

    def refresh(self, alive_count: dict[int, int]) -> None:
        """Counts only decrease, so candidacy is exactly count == 1."""
        self.sg = {b for b, cnt in alive_count.items() if cnt == 1}

    def ripe(self, threshold: int) -> list[int]:
        return sorted(b for b in self.sg if self.time[b] >= threshold)

    def max_time(self) -> int:
        return max(self.time.values(), default=0)


def preprocess_truncate(graph: Hypergraph, dist: EdgeDistribution,
                        u: int) -> tuple[Hypergraph, EdgeDistribution, list[int]]:
    """Drop edges of size >= u and renormalize; nodes are kept as they are.

    Also returns the surviving edges' original indices.
    """
    keep = [i for i in range(len(graph)) if int(graph.edge_sizes[i]) < u]
    if not keep:
        raise EmptySupport(f"every edge has size >= u={u}")
    mass = float(dist.probs[keep].sum())
    if mass <= 0.0:
        raise EmptySupport("surviving edges carry no probability")
    graph2 = Hypergraph(graph.n, [graph.edge_masks[i] for i in keep])
    dist2 = EdgeDistribution(dist.probs[keep] / mass)
    return graph2, dist2, keep


def dyadic_bucket(p: float) -> int:
    """Band index for probability p; exact powers of two take the smaller
    index, and p = 1 clamps to band 1."""
    if p <= 0.0:
        raise ValueError("bands are defined for positive probabilities only")
    return max(1, math.ceil(math.log2(1.0 / p)))


def partition_dyadic(dist: EdgeDistribution, n: int | None = None) -> SubgraphPartition:
    """Assign each positive-mass edge its dyadic band; bands past
    ceil(n log2 n) collapse into one tail band when n is given."""
    tail = None
    if n is not None and n >= 2:
        tail = math.ceil(n * math.log2(n))
    buckets: dict[int, list[int]] = {}
    for e, p in enumerate(dist.probs):
        if p <= 0.0:
            continue  # zero-mass edges are never the target
        i = dyadic_bucket(float(p))
        if tail is not None:
            i = min(i, tail)
        buckets.setdefault(i, []).append(e)
    return SubgraphPartition(buckets)


def random_test_set(n: int, u: int, rng: np.random.Generator) -> int:
    """Each node enters the test independently with probability 1/u."""
    return mask_from_flags(rng.random(n) < 1.0 / u)


def run_snagt(graph: Hypergraph, dist: EdgeDistribution, oracle,
              config: SnagtConfig) -> Transcript:
    """Noiseless semi-non-adaptive run. Empty scheduled tests are real tests:
    they are issued, recorded, and always answer negative."""
    config.validate()
    validate_model(graph, dist)
    return _run(graph, dist, oracle, config, repetitions=1)


def _run(graph: Hypergraph, dist: EdgeDistribution, oracle, config: SnagtConfig,
         repetitions: int) -> Transcript:
    u = config.u
    n = graph.n
    # u bounds the target size as Pr(|e*| > u) -> 0, so size-u edges stay; a
    # regular support run with u equal to the common edge size keeps its mass.
    graph2, dist2, orig_index = preprocess_truncate(graph, dist, u + 1)
    part = partition_dyadic(dist2, n)
    bucket_of = {}
    for i, edges in part.buckets.items():
        for e in edges:
            bucket_of[e] = i
    alive_count = dict(part.bucket_counts())
    alive = dist2.probs > 0.0
    # Live edges (graph2 indices) and their columns of the caller's cached
    # word store; dead columns are dropped after every test.
    live = np.flatnonzero(alive)
    live_words = graph.words[:, np.asarray(orig_index)[live]]

    threshold = math.ceil(config.stop_coeff * u * math.log2(n))
    cap = math.floor(config.cap_coeff * u * n + 1e-9)

    schedule_rng = np.random.default_rng(config.seed)
    # The final uniform pick among qualifying bands draws from its own stream
    # so the test schedule stays a pure function of (n, u, seed).
    pick_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=0 if config.seed is None else config.seed, spawn_key=(1,)))

    tracker = CandidateTracker.fresh(part.buckets)
    tr = Transcript()
    tests = 0

    while True:
        ready = tracker.ripe(threshold)
        if ready:
            chosen_bucket = ready[int(pick_rng.integers(len(ready)))] if len(ready) > 1 else ready[0]
            e2 = next(e for e in part.buckets[chosen_bucket] if alive[e])
            tr.result_edge = orig_index[e2]
            tr.result_nodes = graph2.edge_nodes(e2)
            return tr

        if tests >= cap:
            tr.halted = True
            return tr

        t_mask = random_test_set(n, u, schedule_rng)
        votes = 0
        for rep in range(repetitions):
            outcome = oracle(t_mask)
            votes += 1 if outcome else 0
            tr.add(t_mask, outcome, RANDOM,
                   rep_group=tests if repetitions > 1 else None,
                   sg_size=len(tracker.sg),
                   sg_max_time=tracker.max_time())
        verdict = 2 * votes >= repetitions
        tests += 1

        # Eliminate edges inconsistent with the verdict.
        dead = intersects(live_words, t_mask) != verdict
        if dead.any():
            gone = live[dead]
            alive[gone] = False
            for e in gone.tolist():
                alive_count[bucket_of[e]] -= 1
            live = live[~dead]
            live_words = live_words[:, ~dead]

        tracker.tick()
        tracker.refresh(alive_count)
