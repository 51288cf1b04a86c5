"""Constructors for every correlation model the engines are exercised on.

Three flavors: closed-form products over node subsets (independent,
community), explicit structured supports (chains, co-size families, island
unions, dense two-scale graphs, random regular hypergraphs), and exact
enumerations of generative processes (edge-faulty contact graphs, seeded
block infection). Each builder normalises its masses and hands them to the
validating constructors; subsets with zero probability are left out of the
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import EmptySupport, ModelError, SupportTooLarge
from .model import EdgeDistribution, Hypergraph
from .sets import iter_bits, mask_of

DEFAULT_SUPPORT_CAP = 1 << 20

FAMILIES = (
    "independent",
    "islands",
    "nested",
    "cosize",
    "partial_regular",
    "big_graph",
    "entropy_gap",
    "random_regular",
    "community",
    "sbim",
    "edge_faulty",
)


@dataclass
class ModelSpec:
    """A named family plus its parameter record; JSON-friendly."""

    family: str
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ModelError(f"unknown model family {self.family!r}")


def _finish(n: int, masses: dict[int, float], cap: int) -> tuple[Hypergraph, EdgeDistribution]:
    support = [(m, p) for m, p in masses.items() if p > 0.0]
    if not support:
        raise EmptySupport("no edge carries positive probability")
    if len(support) > cap:
        raise SupportTooLarge(f"{len(support)} edges exceed cap {cap}")
    probs = np.array([p for _, p in support])
    return Hypergraph(n, [m for m, _ in support]), EdgeDistribution(probs / probs.sum())


# ---------------------------------------------------------------------------
# Closed-form families


def build_independent(p: Sequence[float], cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Each node infected independently with its own probability."""
    p = list(map(float, p))
    n = len(p)
    if 2 ** n > cap:
        raise SupportTooLarge(f"2^{n} subsets exceed cap {cap}")
    masses: dict[int, float] = {}
    for s in range(2 ** n):
        prob = 1.0
        for v in range(n):
            prob *= p[v] if s >> v & 1 else 1.0 - p[v]
        masses[s] = prob
    return _finish(n, masses, cap)


def build_community(sizes: Sequence[int], q: float, p: Sequence[float],
                    cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Families independently infected with probability q; a node of an
    infected family j is infected with probability p[j]."""
    sizes = list(map(int, sizes))
    p = list(map(float, p))
    if len(p) != len(sizes):
        raise ModelError("need one infection probability per family")
    n = sum(sizes)
    if 2 ** n > cap:
        raise SupportTooLarge(f"2^{n} subsets exceed cap {cap}")
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    masses: dict[int, float] = {}
    for s in range(2 ** n):
        prob = 1.0
        for j, size in enumerate(sizes):
            members = (s >> int(starts[j])) & ((1 << size) - 1)
            hit = members.bit_count()
            if hit > 0:
                prob *= q * (p[j] ** hit) * ((1.0 - p[j]) ** (size - hit))
            else:
                prob *= 1.0 - q + q * (1.0 - p[j]) ** size
        masses[s] = prob
    return _finish(n, masses, cap)


# ---------------------------------------------------------------------------
# Structured supports


def build_islands(k: int, m: int, p: float | Sequence[float],
                  cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """k islands of m nodes; all nodes of an island share one state, and
    islands are independent with infection probabilities p."""
    ps = [float(p)] * k if np.isscalar(p) else list(map(float, p))
    if len(ps) != k:
        raise ModelError("need one probability per island")
    n = k * m
    island_mask = [mask_of(range(j * m, (j + 1) * m)) for j in range(k)]
    masses: dict[int, float] = {}
    for s in range(2 ** k):
        prob = 1.0
        mask = 0
        for j in range(k):
            if s >> j & 1:
                prob *= ps[j]
                mask |= island_mask[j]
            else:
                prob *= 1.0 - ps[j]
        masses[mask] = prob
    return _finish(n, masses, cap)


def build_nested(n: int, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Chain of prefixes {v1..vi}, each carrying mass 1/n."""
    masses = {mask_of(range(i + 1)): 1.0 / n for i in range(n)}
    return _finish(n, masses, cap)


def build_cosize(n: int, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """All n edges of size n-1 (complement of each single node), uniform."""
    full = (1 << n) - 1
    masses = {full & ~(1 << v): 1.0 / n for v in range(n)}
    return _finish(n, masses, cap)


def build_partial_regular(n: int, d: int, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Uniform mass on the d+1 size-d subsets of one chosen (d+1)-node set;
    remaining nodes belong to no edge."""
    if n < d + 1:
        raise ModelError(f"need n >= d+1, got n={n}, d={d}")
    special = range(d + 1)
    masses = {mask_of(set(special) - {v}): 1.0 / (d + 1) for v in special}
    return _finish(n, masses, cap)


def build_big_graph(n: int, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """n communities of n nodes; half the mass on the n^2 small edges
    (community minus one node), half on the n large edges (everything except
    one community)."""
    total = n * n
    full = (1 << total) - 1
    masses: dict[int, float] = {}
    for j in range(n):
        comm = mask_of(range(j * n, (j + 1) * n))
        for kk in range(n):
            small = comm & ~(1 << (j * n + kk))
            masses[small] = 0.5 / (n * n)
        masses[full & ~comm] = 0.5 / n
    return _finish(total, masses, cap)


def build_entropy_gap(n: int, m: int, d: int, seed: int | None = None,
                      cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Grow a size-d edge family by repeatedly taking a random (d+1)-node set
    and adding all its size-d subsets, until at least m edges exist; uniform."""
    if n < d + 1:
        raise ModelError(f"need n >= d+1, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    edges: set[int] = set()
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > 1000 * (m + 1):
            raise ModelError("could not reach the requested edge count")
        group = rng.choice(n, size=d + 1, replace=False)
        subsets = [mask_of(set(map(int, group)) - {int(v)}) for v in group]
        if all(s in edges for s in subsets):
            continue
        edges.update(subsets)
    masses = {e: 1.0 / len(edges) for e in edges}
    return _finish(n, masses, cap)


def build_random_regular(n: int, d: int, r: float | None = None, count: int | None = None,
                         seed: int | None = None,
                         cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Random d-regular hypergraph, uniform mass over sampled edges.

    Either each size-d subset enters independently with probability r, or
    exactly `count` distinct size-d subsets are drawn.
    """
    if (r is None) == (count is None):
        raise ModelError("give exactly one of r, count")
    rng = np.random.default_rng(seed)
    if r is not None:
        if math.comb(n, d) > (1 << 22):
            raise SupportTooLarge(f"C({n},{d}) subsets is too many to enumerate")
        chosen = [mask_of(c) for c in combinations(range(n), d) if rng.random() < r]
        if not chosen:
            raise EmptySupport("no edge was sampled; retry with a larger r")
    else:
        if count > math.comb(n, d):
            raise ModelError("count exceeds the number of size-d subsets")
        chosen_set: set[int] = set()
        while len(chosen_set) < count:
            pick = rng.choice(n, size=d, replace=False)
            chosen_set.add(mask_of(map(int, pick)))
        chosen = sorted(chosen_set)
    masses = {e: 1.0 / len(chosen) for e in chosen}
    return _finish(n, masses, cap)


# ---------------------------------------------------------------------------
# Generative families, enumerated exactly


def _components(n: int, kept: Sequence[tuple[int, int]]) -> list[int]:
    """Connected components (as node masks) of a simple graph given kept edges."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in kept:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, int] = {}
    for v in range(n):
        comps.setdefault(find(v), 0)
        comps[find(v)] |= 1 << v
    return list(comps.values())


def build_edge_faulty(n: int, contact_edges: Sequence[tuple[int, int]], r: float, p: float,
                      cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Edge-faulty contact graph: each contact edge survives with probability
    r, then every resulting component is infected with probability p. The
    infected set is the union of infected components."""
    contact_edges = [tuple(e) for e in contact_edges]
    if len(contact_edges) > 20:
        raise SupportTooLarge("at most 20 contact edges are enumerable")
    masses: dict[int, float] = {}
    for kept_bits in range(2 ** len(contact_edges)):
        kept = [contact_edges[i] for i in range(len(contact_edges)) if kept_bits >> i & 1]
        w_graph = (r ** len(kept)) * ((1.0 - r) ** (len(contact_edges) - len(kept)))
        comps = _components(n, kept)
        for infected_bits in range(2 ** len(comps)):
            mask = 0
            w = w_graph
            for i, comp in enumerate(comps):
                if infected_bits >> i & 1:
                    mask |= comp
                    w *= p
                else:
                    w *= 1.0 - p
            masses[mask] = masses.get(mask, 0.0) + w
    return _finish(n, masses, cap)


def sample_edge_faulty(n: int, contact_edges: Sequence[tuple[int, int]], r: float, p: float,
                       rng: np.random.Generator) -> int:
    """One draw of the edge-faulty generative process (infected set mask)."""
    kept = [e for e in contact_edges if rng.random() < r]
    mask = 0
    for comp in _components(n, kept):
        if rng.random() < p:
            mask |= comp
    return mask


def build_sbim(m: int, k: int, seed_prob: float, q1: float, q2: float,
               cap: int = DEFAULT_SUPPORT_CAP) -> tuple[Hypergraph, EdgeDistribution]:
    """Seeded block infection: m communities of k nodes; each node seeds
    independently with probability seed_prob, then each seed infects every
    same-community node with probability q1 and every other node with q2.

    D(S) sums, over seed sets T inside S, the probability that exactly the
    nodes of S \\ T catch an infection and nobody outside S does.
    """
    n = m * k
    if n > 12:
        raise SupportTooLarge("sbim enumeration is limited to 12 nodes")
    community = [v // k for v in range(n)]
    masses: dict[int, float] = {}
    for s in range(2 ** n):
        total = 0.0
        s_nodes = list(iter_bits(s))
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
    return _finish(n, masses, cap)


def sample_sbim(m: int, k: int, seed_prob: float, q1: float, q2: float,
                rng: np.random.Generator) -> int:
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


# ---------------------------------------------------------------------------
# Dispatch


def build_model(spec: ModelSpec) -> tuple[Hypergraph, EdgeDistribution]:
    """Build any family from its spec record."""
    spec.validate()
    params = dict(spec.params)
    builder = {
        "independent": build_independent,
        "islands": build_islands,
        "nested": build_nested,
        "cosize": build_cosize,
        "partial_regular": build_partial_regular,
        "big_graph": build_big_graph,
        "entropy_gap": build_entropy_gap,
        "random_regular": build_random_regular,
        "community": build_community,
        "sbim": build_sbim,
        "edge_faulty": build_edge_faulty,
    }[spec.family]
    return builder(**params)
