import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypergt.adaptive import _TOL, _run as _adaptive_run
from hypergt.builders import _components, _finish
from hypergt.errors import EmptySupport, TooLarge
from hypergt.model import (
    EdgeDistribution,
    GroundTruth,
    Hypergraph,
    node_marginals,
    noiseless_oracle,
    prior_posterior,
    validate_model,
)
from hypergt.noisy import _adaptive_repetitions, _Repeated, bayes_update_noisy
from hypergt.sets import intersects, mask_from_flags, mask_of, nodes_of
from hypergt.snagt import dyadic_bucket
from hypergt.transcript import RANDOM, Transcript


@pytest.fixture
def fig1():
    """Five-node worked example: edges {1,2,3}, {1,5}, {4,5} with masses
    .3/.2/.5 (node labels here are 0-based)."""
    graph = Hypergraph(5, [[0, 1, 2], [0, 4], [3, 4]])
    dist = EdgeDistribution([0.3, 0.2, 0.5])
    return graph, dist


def truth_for(graph, index):
    return GroundTruth(index, graph.edge_masks[index])


def oracle_for(graph, index):
    return noiseless_oracle(truth_for(graph, index))


def random_model(rng, max_n=6, max_edges=10):
    """Seeded random small model: distinct edge masks, positive masses."""
    n = int(rng.integers(2, max_n + 1))
    count = int(rng.integers(2, min(max_edges, 2 ** n) + 1))
    masks = rng.choice(2 ** n, size=count, replace=False)
    weights = rng.integers(1, 20, size=count).astype(float)
    dist = EdgeDistribution(weights / weights.sum())
    return Hypergraph(n, [int(m) for m in masks]), dist


# Scalar reference implementations of E(S), w(S) and q_v: one edge at a time,
# so the vectorised model code can be checked against them.

def edge_set(graph, s):
    """Indices of edges entirely contained in node set s (E(S))."""
    s_mask = s if isinstance(s, int) else mask_of(s)
    return tuple(i for i, m in enumerate(graph.edge_masks) if m & ~s_mask == 0)


def set_weight(post, s):
    """Total posterior mass of edges contained in s (w(S))."""
    return float(sum(post.q[i] for i in edge_set(post.graph, s)))


def reference_membership(graph):
    """(|E|, n) float matrix, entry 1.0 iff node v is in edge e; one bit at a time."""
    mat = np.zeros((len(graph), graph.n))
    for i, m in enumerate(graph.edge_masks):
        for v in range(graph.n):
            mat[i, v] = float(m >> v & 1)
    return mat


def node_marginal(post, v):
    """Posterior probability that node v is infected (q_v)."""
    bit = 1 << v
    return float(sum(post.q[i] for i, m in enumerate(post.graph.edge_masks) if m & bit))


def reference_split_scan(post, c):
    """`find_split_set` in exact arithmetic: the same greedy removal from
    S = {v : q_v > 0}, lowest index first, with every w(S minus v) summed as
    Fractions of the float masses and compared with the float bounds c and
    1 - c. Returns (node mask, found)."""
    q = [Fraction(x) for x in post.q]
    lo, hi = Fraction(c), Fraction(1.0 - c)
    masks = post.graph.edge_masks
    s = mask_of(v for v in range(post.graph.n) if node_marginal(post, v) > 0.0)
    while True:
        inside = [i for i, m in enumerate(masks) if m & ~s == 0]
        w = {v: sum((q[i] for i in inside if not masks[i] >> v & 1), Fraction(0))
             for v in nodes_of(s)}
        window = [v for v in w if lo < w[v] <= hi]
        if window:
            return s & ~(1 << window[0]), True
        high = [v for v in w if w[v] > hi]
        if not high:
            return s, False
        s &= ~(1 << high[0])


def reference_step_scan(q, marg, graph, active, c):
    """`adaptive._split_scan` one node per step: the loop it ran before it
    dropped provably-high nodes in batches, kept so the batched scan can be
    compared with it. Returns (s, found, w)."""
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
            terms = qs[(qs != 0.0) & ~intersects(graph.words, 1 << int(v))].tolist()
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
        m -= graph.node_mass(qs, es)
        qs[es] = 0.0


def reference_snagt(graph, dist, oracle, config, repetitions):
    """The preplanned engine one test at a time: the loop `snagt._run` ran
    before it eliminated in blocks, kept so the block engine can be compared
    with it record for record."""
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

    while True:
        ready = np.flatnonzero(candidate & (time >= threshold))
        if ready.size:
            e = int(live[band == ready[int(pick_rng.integers(ready.size))]][0])
            tr.result_edge, tr.result_mask = e, graph.edge_masks[e]
            return tr

        if tests >= cap:
            tr.halted = True
            return tr

        t_mask = random_test_set(n, u, schedule_rng)
        sg_size = int(candidate.sum())
        sg_max_time = int(time.max())
        votes = 0
        for _ in range(repetitions):
            outcome = oracle(t_mask)
            votes += 1 if outcome else 0
            tr.add(t_mask, outcome, RANDOM,
                   rep_group=tests if repetitions > 1 else None,
                   sg_size=sg_size, sg_max_time=sg_max_time)
        verdict = 2 * votes >= repetitions
        tests += 1

        # Eliminate edges inconsistent with the verdict.
        dead = intersects(live_words, t_mask) != verdict
        if dead.any():
            count -= np.bincount(band[dead], minlength=count.size)
            live = live[~dead]
            band = band[~dead]
            live_words = live_words[:, ~dead]

        time[candidate] += 1
        candidate = count == 1


class ReferenceRepeated(_Repeated):
    """`noisy._Repeated` one physical test at a time: the observer the noisy
    adaptive engine ran before it kept mismatch counts, one
    `bayes_update_noisy` step per test, kept so the count form can be
    compared with it verdict for verdict and record for record."""

    def __init__(self, oracle, post, delta, ells, cap):
        super().__init__(oracle, post, delta, ells, cap)
        self.delta = delta

    def ask(self, t_mask, stage, after=None):
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
        self.heard = votes
        return 2 * votes >= ell


def reference_noisy_adaptive(graph, dist, oracle, config, delta, alpha=2.0, u=None,
                             max_physical_tests=None):
    """`run_noisy_adaptive` driven by `ReferenceRepeated`."""
    post = prior_posterior(graph, dist)
    cap = graph.n if max_physical_tests is None else max_physical_tests
    obs = ReferenceRepeated(oracle, post, delta, _adaptive_repetitions(graph.n, u, alpha, delta), cap)
    return _adaptive_run(graph, dist, config, obs, node_marginals(post) > 0.0)


def random_test_set(n, u, rng):
    """One scheduled test of `reference_snagt`: each node independently with
    probability 1/u."""
    return mask_from_flags(rng.random(n) < 1.0 / u)


def reference_sbim(m, k, seed_prob, q1, q2):
    """`build_sbim` as the loop it ran before it summed one block product per
    seed set: for each infected set S, over every seed set T inside it, the
    weight of seeding exactly T times each node's chance to catch or escape.
    Kept so the block form can be compared with it edge for edge."""
    n = m * k
    community = [v // k for v in range(n)]
    masses = {}
    for s in range(2 ** n):
        total = 0.0
        s_nodes = nodes_of(s)
        others = [v for v in range(n) if not s >> v & 1]
        for t_bits in range(2 ** len(s_nodes)):
            seeds = [s_nodes[i] for i in range(len(s_nodes)) if t_bits >> i & 1]
            w = (seed_prob ** len(seeds)) * ((1.0 - seed_prob) ** (n - len(seeds)))
            for v in s_nodes:
                if v in seeds:
                    continue
                same = sum(1 for u in seeds if community[u] == community[v])
                miss = ((1.0 - q1) ** same) * ((1.0 - q2) ** (len(seeds) - same))
                w *= 1.0 - miss
            for v in others:
                same = sum(1 for u in seeds if community[u] == community[v])
                w *= ((1.0 - q1) ** same) * ((1.0 - q2) ** (len(seeds) - same))
            total += w
        masses[s] = total
    return _finish(n, masses)


# References that only tests use: the exact majority tail, the single-probe
# preplanned error floor on the chain model, and the two generative processes
# whose enumerations the builders compute.

def majority_error_probability(ell, delta):
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


NONADAPTIVE_MAX_NODES = 12  # the plan enumeration is exponential in n


def nonadaptive_min_error(n, budget):
    """Exhaustive minimum error of single-node non-adaptive plans on the chain
    model (edges {v1..vi}, uniform 1/n mass).

    Plans draw `budget` distinct probe nodes from {2..n}; node 1 is in every
    edge, so probing it is never useful. Decoding is maximum-a-posteriori; a
    target that stays ambiguous within its outcome class counts as a half
    error, the pairwise-confusion convention of the matching lower bound.
    """
    if n > NONADAPTIVE_MAX_NODES:
        raise TooLarge(f"n={n} > {NONADAPTIVE_MAX_NODES}")
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


def sample_edge_faulty(n, contact_edges, r, p, rng):
    """One draw of the edge-faulty generative process (infected set mask)."""
    kept = [e for e in contact_edges if rng.random() < r]
    mask = 0
    for comp in _components(n, kept):
        if rng.random() < p:
            mask |= comp
    return mask


def sample_sbim(m, k, seed_prob, q1, q2, rng):
    """One draw of the seeded block infection process (infected set mask)."""
    n = m * k
    community = [v // k for v in range(n)]
    seeds = [v for v in range(n) if rng.random() < seed_prob]
    mask = mask_of(seeds)
    for v in range(n):
        if mask >> v & 1:
            continue
        for u in seeds:
            q = q1 if community[u] == community[v] else q2
            if rng.random() < q:
                mask |= 1 << v
                break
    return mask
