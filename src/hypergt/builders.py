"""Constructors for every correlation model the engines are exercised on.

Two flavors: products of independent blocks (independent nodes,
communities, perfectly correlated islands, and sums of such products: one
per edge-faulty contact graph, or one per seed set of seeded block
infection), and explicit structured supports (chains, co-size families,
dense two-scale graphs, entropy-gap and random regular hypergraphs). The
product-form families share one enumerator, `_product`, which refuses more
than SUPPORT_CAP ways before it lists any. It lists them as two parallel
lists, the union masks and the weights, with no (mask, weight) pair per way.
Each builder hands its edges and masses as parallel sequences to `_finish`,
which normalises the masses and calls the validating constructors; subsets
with zero probability are left out of the support, and a support of more
than SUPPORT_CAP edges is refused. Independent nodes, islands and
communities pass the enumerator's lists as they are, since disjoint blocks
never repeat a mask (`DuplicateEdge` would catch one); the other families,
the sums of products included, collect their masses in a dict first.
Every family refuses more than NODE_CAP nodes before it builds any mask;
seeded block infection stops at 12 nodes.
`BUILDERS` maps each family name to its builder, and a `ModelSpec` names a
family and its parameters.
"""

from __future__ import annotations

import copy
import inspect
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, combinations, compress, repeat
from operator import lshift

import numpy as np

from .errors import (EmptySupport, ModelError, NodeOutOfRange, ProbabilityOutOfRange, SchemaError,
                     SupportTooLarge)
from .model import EdgeDistribution, Hypergraph, _check_types, check_node_count, check_record
from .sets import mask_of

SUPPORT_CAP = 1 << 20


@dataclass(frozen=True)
class ModelSpec:
    """A named family plus its own copy of its parameter record; JSON-friendly.
    SchemaError for an unknown family, or unless params is an object holding
    every required parameter of the family's builder, no other key, and
    values of the types the builder annotates, with no negative integer
    where it annotates int (inside lists and pairs too)."""

    family: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, doc, what: str) -> "ModelSpec":
        """Parse a {family, params} record; `what` names it in errors."""
        check_record(doc, what, ("family",), ("family", "params"))
        return cls(doc["family"], doc.get("params", {}))

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in BUILDERS:
            raise SchemaError(f"unknown model family {self.family!r}")
        builder, what = BUILDERS[self.family], f"{self.family} params"
        args = inspect.signature(builder).parameters
        check_record(self.params, what, [k for k, a in args.items() if a.default is a.empty], list(args))
        _check_types(builder, self.params, what, natural=True)
        object.__setattr__(self, "params", copy.deepcopy(self.params))


def _check_probabilities(**params) -> None:
    """Raise ProbabilityOutOfRange naming the first parameter value (or list
    item) outside [0, 1]; NaN and infinities are outside."""
    for name, value in params.items():
        items = [(name, value)] if np.isscalar(value) else [
            (f"{name}[{i}]", x) for i, x in enumerate(value)]
        for label, x in items:
            if not 0.0 <= x <= 1.0:
                raise ProbabilityOutOfRange(f"probability {label}={float(x)!r} outside [0, 1]")


def _product(blocks: Iterable[tuple[Iterable[int], list[float]]]) -> tuple[list[int], list[float]]:
    """Every way to pick one outcome of positive probability from each block,
    as parallel lists: the union of the node masks and the product of the
    probabilities in block order. A block is (its outcomes' node masks, the
    list of their probabilities), disjoint from the other blocks' masks; the
    first block varies fastest, giving the model's edge order. Blocks are
    only counted as they are read, and past SUPPORT_CAP ways the model is
    refused before any outcome is listed."""
    kept, ways = [], 1
    for masks, probs in blocks:
        ways *= len(probs) - probs.count(0.0)
        if ways > SUPPORT_CAP:
            raise SupportTooLarge(f"at least {ways} edges exceed cap {SUPPORT_CAP}")
        kept.append((masks, probs))
    unions, weights = [0], [1.0]
    for masks, probs in kept:
        bms = [m for m, p in zip(masks, probs) if p > 0.0]
        bws = [p for p in probs if p > 0.0]
        unions = [m | bm for bm in bms for m in unions]
        weights = [w * bw for bw in bws for w in weights]
    return unions, weights


def _finish(n: int, masks: Sequence[int], probs: Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """The model of the edges `masks` with masses proportional to `probs`;
    the edges of zero mass are left out of the support."""
    probs = np.asarray(probs, dtype=float)
    keep = probs > 0.0
    if not keep.all():
        masks, probs = list(compress(masks, keep)), probs[keep]
    if not len(probs):
        raise EmptySupport("no edge carries positive probability")
    if len(probs) > SUPPORT_CAP:
        raise SupportTooLarge(f"{len(probs)} edges exceed cap {SUPPORT_CAP}")
    return Hypergraph(n, masks), EdgeDistribution(probs / probs.sum())


# ---------------------------------------------------------------------------
# Products of independent blocks


def build_independent(p: Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """Each node infected independently with its own probability: islands of
    one node each."""
    return build_islands(len(p), 1, p)


def build_community(sizes: Sequence[int], q: float, p: Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """Families independently infected with probability q; a node of an
    infected family j is infected with probability p[j]."""
    sizes = list(map(int, sizes))
    if min(sizes, default=0) < 0:
        raise ModelError(f"need family sizes >= 0, got {min(sizes)}")
    n, largest = sum(sizes), max(sizes, default=0)
    check_node_count(n)
    p = list(map(float, p))
    _check_probabilities(q=q, p=p)
    if len(p) != len(sizes):
        raise ModelError("need one infection probability per family")
    if 2 ** largest > SUPPORT_CAP:
        raise SupportTooLarge(f"2^{largest} subsets of one family exceed cap {SUPPORT_CAP}")

    def block(start: int, size: int, pj: float) -> tuple[Iterable[int], list[float]]:
        # A subset's mass depends only on its size. With no interior size of
        # positive mass, only the empty and the full subset are listed.
        w = [1.0 - q + q * (1.0 - pj) ** size] + [
            q * (pj ** hit) * ((1.0 - pj) ** (size - hit)) for hit in range(1, size + 1)]
        members = range(2 ** size) if any(w[1:size]) else sorted({0, 2 ** size - 1})
        return map(lshift, members, repeat(start)), [w[m.bit_count()] for m in members]

    # map is lazy: each family's block is made only when _product reads it.
    return _finish(n, *_product(map(block, accumulate(sizes, initial=0), sizes, p)))


def build_islands(k: int, m: int, p: float | Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """k islands of m nodes; all nodes of an island share one state, and
    islands are independent with infection probabilities p."""
    check_node_count(k)  # at most NODE_CAP islands, of at most NODE_CAP nodes each
    check_node_count(m)
    _check_probabilities(p=p)
    ps = [float(p)] * k if np.isscalar(p) else list(map(float, p))
    if len(ps) != k:
        raise ModelError("need one probability per island")
    check_node_count(k * m)
    blocks = (([0, mask_of(range(j * m, (j + 1) * m))], [1.0 - pj, pj]) for j, pj in enumerate(ps))
    # With m = 0 every island is empty: no blocks, so the one empty edge.
    return _finish(k * m, *_product(blocks if m > 0 else []))


# ---------------------------------------------------------------------------
# Structured supports


def build_nested(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """Chain of prefixes {v1..vi}, each carrying mass 1/n."""
    check_node_count(n)
    masses = {mask_of(range(i + 1)): 1.0 / n for i in range(n)}
    return _finish(n, list(masses), list(masses.values()))


def build_cosize(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """All n edges of size n-1 (complement of each single node), uniform."""
    check_node_count(n)  # before n - 1, which a non-integer n would fail
    return build_partial_regular(n, n - 1)


def build_partial_regular(n: int, d: int) -> tuple[Hypergraph, EdgeDistribution]:
    """Uniform mass on the d+1 size-d subsets of one chosen (d+1)-node set;
    remaining nodes belong to no edge."""
    if n < d + 1:
        raise ModelError(f"need n >= d+1, got n={n}, d={d}")
    check_node_count(n)
    special = range(d + 1)
    masses = {mask_of(set(special) - {v}): 1.0 / (d + 1) for v in special}
    return _finish(n, list(masses), list(masses.values()))


def build_big_graph(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """n communities of n nodes; half the mass on the n^2 small edges
    (community minus one node), half on the n large edges (everything except
    one community)."""
    check_node_count(n)
    total = n * n
    check_node_count(total)
    full = (1 << total) - 1
    masses: dict[int, float] = {}
    for j in range(n):
        comm = mask_of(range(j * n, (j + 1) * n))
        for kk in range(n):
            small = comm & ~(1 << (j * n + kk))
            masses[small] = 0.5 / (n * n)
        masses[full & ~comm] = 0.5 / n
    return _finish(total, list(masses), list(masses.values()))


def build_entropy_gap(n: int, m: int, d: int, seed: int | None = None) -> tuple[Hypergraph, EdgeDistribution]:
    """Grow a size-d edge family by repeatedly taking a random (d+1)-node set
    and adding all its size-d subsets, until at least m edges exist; uniform."""
    if d < 0 or n < d + 1:
        raise ModelError(f"need n >= d+1 and d >= 0, got n={n}, d={d}")
    check_node_count(n)
    if m > math.comb(n, d):
        raise ModelError(f"m={m} exceeds the {math.comb(n, d)} size-d subsets of {n} nodes")
    if m > SUPPORT_CAP:
        raise SupportTooLarge(f"{m} edges exceed cap {SUPPORT_CAP}")
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
    return _finish(n, list(masses), list(masses.values()))


def build_random_regular(n: int, d: int, r: float | None = None, count: int | None = None,
                         seed: int | None = None) -> tuple[Hypergraph, EdgeDistribution]:
    """Random d-regular hypergraph, uniform mass over sampled edges.

    Either each size-d subset enters independently with probability r, or
    exactly `count` distinct size-d subsets are drawn.
    """
    if (r is None) == (count is None):
        raise ModelError("give exactly one of r, count")
    if n < 0 or d < 0:
        raise ModelError(f"need n, d >= 0, got n={n}, d={d}")
    check_node_count(n)
    rng = np.random.default_rng(seed)
    if r is not None:
        _check_probabilities(r=r)
        if math.comb(n, d) > (1 << 22):
            raise SupportTooLarge(f"C({n},{d}) subsets is too many to enumerate")
        chosen = [mask_of(c) for c in combinations(range(n), d) if rng.random() < r]
        if not chosen:
            raise EmptySupport("no edge was sampled; retry with a larger r")
    else:
        if count > math.comb(n, d):
            raise ModelError("count exceeds the number of size-d subsets")
        if count > SUPPORT_CAP:
            raise SupportTooLarge(f"{count} edges exceed cap {SUPPORT_CAP}")
        chosen_set: set[int] = set()
        while len(chosen_set) < count:
            chosen_set.add(mask_of(rng.choice(n, size=d, replace=False).tolist()))
        chosen = sorted(chosen_set)
    masses = {e: 1.0 / len(chosen) for e in chosen}
    return _finish(n, list(masses), list(masses.values()))


# ---------------------------------------------------------------------------
# Generative families: sums of block products


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


def build_edge_faulty(n: int, contact_edges: Sequence[tuple[int, int]], r: float,
                      p: float) -> tuple[Hypergraph, EdgeDistribution]:
    """Edge-faulty contact graph: each contact edge survives with probability
    r, then every resulting component is infected with probability p. The
    infected set is the union of infected components."""
    _check_probabilities(r=r, p=p)
    check_node_count(n)
    contact_edges = [tuple(e) for e in contact_edges]
    for e in contact_edges:
        if not all(0 <= v < n for v in e):
            raise NodeOutOfRange(f"contact edge {list(e)} has a node outside 0..{n - 1}")
    if len(contact_edges) > 20:
        raise SupportTooLarge("at most 20 contact edges are enumerable")
    masses: dict[int, float] = {}
    for kept_bits in range(2 ** len(contact_edges)):
        kept = [contact_edges[i] for i in range(len(contact_edges)) if kept_bits >> i & 1]
        w_graph = (r ** len(kept)) * ((1.0 - r) ** (len(contact_edges) - len(kept)))
        blocks = [([0], [w_graph])] + [([0, comp], [1.0 - p, p]) for comp in _components(n, kept)]
        for mask, w in zip(*_product(blocks)):
            masses[mask] = masses.get(mask, 0.0) + w
    return _finish(n, list(masses), list(masses.values()))


def build_sbim(m: int, k: int, seed_prob: float, q1: float, q2: float) -> tuple[Hypergraph, EdgeDistribution]:
    """Seeded block infection: m communities of k nodes; each node seeds
    independently with probability seed_prob, then each seed infects every
    same-community node with probability q1 and every other node with q2.

    Given the seed set T, every other node escapes each seed independently:
    D sums one block product per seed set, in ascending mask order.
    """
    _check_probabilities(seed_prob=seed_prob, q1=q1, q2=q2)
    if m < 0 or k < 0:
        raise ModelError(f"need m, k >= 0, got m={m}, k={k}")
    n = m * k
    if n > 12:
        raise SupportTooLarge("sbim enumeration is limited to 12 nodes")
    community = [((1 << k) - 1) << (v - v % k) for v in range(n)]  # node v's community
    masses: dict[int, float] = {}
    for seeds in range(2 ** n):
        t = seeds.bit_count()
        blocks = [([seeds], [(seed_prob ** t) * ((1.0 - seed_prob) ** (n - t))])]
        for v in range(n):
            if not seeds >> v & 1:
                same = (seeds & community[v]).bit_count()
                miss = ((1.0 - q1) ** same) * ((1.0 - q2) ** (t - same))
                blocks.append(([0, 1 << v], [miss, 1.0 - miss]))
        for mask, w in zip(*_product(blocks)):
            masses[mask] = masses.get(mask, 0.0) + w
    masks = sorted(masses)
    return _finish(n, masks, [masses[m] for m in masks])


# ---------------------------------------------------------------------------
# Dispatch

BUILDERS = {
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
}


def build_model(spec: ModelSpec) -> tuple[Hypergraph, EdgeDistribution]:
    """Build any family from its spec record."""
    return BUILDERS[spec.family](**spec.params)
