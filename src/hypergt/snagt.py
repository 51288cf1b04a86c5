"""Semi-non-adaptive engine: a preplanned random test sequence with online
elimination and an adaptive stopping rule.

Edges larger than the stochastic size bound u are dropped up front. The
survivors are partitioned into dyadic probability bands; a band becomes a
candidate once a single edge of it survives, and the run stops when some
candidate has survived ceil(stop_coeff * u * log2 n) further tests. `_run`
keeps these rules as flat arrays: a band id per live edge, and a count,
candidate flag and time per band. Every queried set is drawn before any
outcome is seen (each node independently with probability 1/u), so the
schedule is a pure function of (n, u, seed).

As no test waits for an outcome, `_run` draws many tests at once: no band
can ripen within threshold - max(time) tests, so each pass of its one loop
checks the stopping rule and the cap, then draws at most that many tests, and
at most 8, 16, 32, ... in successive passes. A draw is packed at once, asked
in order, and scored by one word kernel that finds each live edge's first
contradicted test; per-band cumulative deaths give each record the snapshot a
test-at-a-time loop would. The draws are cut from one stream, so schedule,
oracle calls and transcripts are that loop's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport, SchemaError
from .model import NODE_CAP, EdgeDistribution, Hypergraph, validate_model
from .sets import meets, pack_rows
from .transcript import RANDOM, Transcript


@dataclass(frozen=True)
class SnagtConfig:
    u: int
    stop_coeff: float = 10.0
    cap_coeff: float = 2.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.u <= NODE_CAP:  # no edge has more than NODE_CAP nodes
            raise SchemaError(f"u={self.u} must be >= 2" if self.u < 2 else f"u exceeds NODE_CAP={NODE_CAP}")
        if not (0.0 < self.stop_coeff < math.inf and 0.0 < self.cap_coeff < math.inf):
            raise SchemaError("stop_coeff and cap_coeff must be positive and finite")

    def _threshold_and_cap(self, n: int) -> tuple[int, int]:
        """ceil(stop_coeff u log2 n) and floor(cap_coeff u n); SchemaError if not finite."""
        if n == 0:
            raise SchemaError("the survival threshold ceil(stop_coeff u log2 n) is undefined at n=0")
        threshold, cap = self.stop_coeff * self.u * math.log2(n), self.cap_coeff * self.u * n
        if not math.isfinite(threshold + cap):
            raise SchemaError(f"stop_coeff and cap_coeff overflow the test budget at n={n}")
        return math.ceil(threshold), math.floor(cap + 1e-9)


def dyadic_bucket(p: float) -> int:
    """Band index for probability p; exact powers of two take the smaller
    index, and p = 1 clamps to band 1."""
    if p <= 0.0:
        raise ValueError("bands are defined for positive probabilities only")
    return max(1, math.ceil(math.log2(1.0 / p)))


def random_test_set(n: int, u: int, rng: np.random.Generator, k: int) -> np.ndarray:
    """k tests as a (k, ceil(n/64)) word block, row i the query of test i:
    each node enters each test independently with probability 1/u. The draw
    rng.random((k, n)) yields the doubles of k successive rng.random(n), so
    the schedule does not depend on how it is cut into blocks."""
    return pack_rows(rng.random((k, n)) < 1.0 / u)


def run_snagt(graph: Hypergraph, dist: EdgeDistribution, oracle,
              config: SnagtConfig) -> Transcript:
    """Noiseless semi-non-adaptive run. Empty scheduled tests are real tests:
    they are issued, recorded, and always answer negative."""
    return _run(graph, dist, oracle, config, repetitions=1)


def _run(graph: Hypergraph, dist: EdgeDistribution, oracle, config: SnagtConfig,
         repetitions: int) -> Transcript:
    validate_model(graph, dist)
    u = config.u
    n = graph.n
    # u bounds the target size as Pr(|e*| > u) -> 0, so size-u edges stay; a
    # regular support run with u equal to the common edge size keeps its mass.
    kept = np.flatnonzero(graph.edge_sizes <= u)
    probs = dist.probs[kept]
    mass = float(probs.sum())
    if mass <= 0.0:
        raise EmptySupport(f"the edges of size <= u={u} carry no probability")
    probs = probs / mass
    # Zero-mass edges are never the target. The scalar band rule runs once per
    # distinct probability: a vectorised log2 can land an ulp off near powers
    # of two and move an edge to the next band.
    live = kept[probs > 0.0]
    tail = math.ceil(n * math.log2(n)) if n >= 2 else math.inf  # later bands merge
    values, inverse = np.unique(probs[probs > 0.0], return_inverse=True)
    ids = np.array([min(dyadic_bucket(float(p)), tail) for p in values])
    _, band = np.unique(ids[inverse], return_inverse=True)  # ascending band ids
    count = np.bincount(band)
    # A band's time counts the tests it survived as a candidate; candidacy is
    # count == 1, taken after each test, so no band starts as one.
    time = np.zeros(count.size, dtype=np.int64)
    candidate = np.zeros(count.size, dtype=bool)
    live_words = graph.words[:, live]  # columns of the caller's cached store

    threshold, cap = config._threshold_and_cap(n)
    if threshold >= cap:
        warnings.warn(
            f"survival threshold {threshold} >= test cap {cap} for n={n}, u={u}: "
            "this run halts without an answer; lower stop_coeff or raise cap_coeff",
            stacklevel=3,
        )

    schedule_rng = np.random.default_rng(config.seed)
    # The final uniform pick among ripe bands (one draw per run, even for a
    # lone band) has its own stream so the schedule depends on (n, u, seed) only.
    pick_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=0 if config.seed is None else config.seed, spawn_key=(1,)))

    tr = Transcript()
    tests = 0
    chunk = 8  # growing draws bound the draw and the kernel by chunk x (n + |live|)

    while True:
        ready = np.flatnonzero(candidate & (time >= threshold))
        if ready.size:
            e = int(live[band == ready[int(pick_rng.integers(ready.size))]][0])
            tr.result_edge, tr.result_nodes = e, graph.edge_nodes(e)
            return tr

        if tests >= cap:
            tr.halted = True
            return tr

        # A band's time grows by at most one a test, so none can ripen within
        # threshold - max(time) tests, and the stop rule need not be checked
        # inside a draw of at most that many.
        k = min(chunk, cap - tests, max(1, threshold - int(time.max())))
        chunk *= 2
        block = random_test_set(n, u, schedule_rng, k)
        masks = [int.from_bytes(row.tobytes(), "little") for row in block]
        outcomes = [[bool(oracle(m)) for _ in range(repetitions)] for m in masks]
        verdict = np.array([2 * sum(votes) >= repetitions for votes in outcomes])

        # An edge dies at its first test whose verdict it contradicts.
        wrong = meets(live_words, block) != verdict[:, None]
        dead = wrong.any(axis=0)
        deaths = np.bincount(wrong.argmax(axis=0)[dead] * count.size + band[dead],
                             minlength=k * count.size).reshape(k, count.size)
        after = count - np.cumsum(deaths, axis=0)  # band counts after each test
        before = np.vstack([candidate, after[:-1] == 1])  # candidacy before each test
        times = time + np.cumsum(before, axis=0) - before  # band times before each test
        for i, (mask, votes, sg_size, sg_max_time) in enumerate(zip(
                masks, outcomes, before.sum(axis=1).tolist(), times.max(axis=1).tolist())):
            for outcome in votes:
                tr.add(mask, outcome, RANDOM,
                       rep_group=tests + i if repetitions > 1 else None,
                       sg_size=sg_size, sg_max_time=sg_max_time)
        tests += k
        count, candidate, time = after[-1], after[-1] == 1, times[-1] + before[-1]
        live, band, live_words = live[~dead], band[~dead], live_words[:, ~dead]
