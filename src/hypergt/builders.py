"""Constructors for every correlation model the engines are exercised on.

Two flavors: products of independent blocks (independent nodes,
communities, perfectly correlated islands, and sums of such products: one
per edge-faulty contact graph, or one per seed set of seeded block
infection), and explicit structured supports (chains, co-size families,
dense two-scale graphs, entropy-gap and random regular hypergraphs). The
product-form families share one enumerator, `_product`, which refuses more
than SUPPORT_CAP ways before it lists any. Each builder normalises its masses
and hands them to the validating constructors; subsets with zero probability
are left out of the support, and a support of more than SUPPORT_CAP edges is
refused. Every family refuses more than NODE_CAP nodes before it builds any
mask; seeded block infection stops at 12 nodes.
`BUILDERS` maps each family name to its builder, and a `ModelSpec` names a
family and its parameters.
"""

from __future__ import annotations

import copy
import functools
import inspect
import math
import numbers
import types
import typing
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, combinations, repeat
from operator import lshift

import numpy as np

from .errors import (EmptySupport, ModelError, NodeOutOfRange, ProbabilityOutOfRange, SchemaError,
                     SupportTooLarge)
from .model import EdgeDistribution, Hypergraph, check_node_count, check_record
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
        args, hints = _signature(self.family)
        check_record(self.params, f"{self.family} params",
                     [k for k, a in args.items() if a.default is inspect.Parameter.empty],
                     list(args))
        for key, value in self.params.items():
            if not _conforms(value, hints[key]):
                raise SchemaError(f"{self.family} params: {key!r} must be "
                                  f"{args[key].annotation}, not {value!r}")
            if not _conforms(value, hints[key], natural=True):
                raise SchemaError(f"{self.family} params: {key!r} must hold no negative "
                                  f"integer, not {value!r}")
        object.__setattr__(self, "params", copy.deepcopy(self.params))


@functools.cache
def _signature(family: str) -> tuple:
    """The parameters and type hints of a family's builder, read once."""
    return inspect.signature(BUILDERS[family]).parameters, typing.get_type_hints(BUILDERS[family])


def _conforms(value, hint, natural: bool = False) -> bool:
    """Whether value has the annotated type: int and float take numbers but not
    booleans, and with `natural` int takes none below 0; a sequence or a tuple
    takes a list, tuple or numpy array, and any other type its instances."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, a, natural) for a in args)
    if origin in (Sequence, tuple):
        if not isinstance(value, (list, tuple, np.ndarray)):
            return False
        if origin is tuple:
            return len(value) == len(args) and all(_conforms(x, a, natural) for x, a in zip(value, args))
        return all(_conforms(x, args[0], natural) for x in value)
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool) and (
            not natural or hint is float or value >= 0)
    return isinstance(value, hint)


def _check_probabilities(**params) -> None:
    """Raise ProbabilityOutOfRange naming the first parameter value (or list
    item) outside [0, 1]; NaN and infinities are outside."""
    for name, value in params.items():
        items = [(name, value)] if np.isscalar(value) else [
            (f"{name}[{i}]", x) for i, x in enumerate(value)]
        for label, x in items:
            if not 0.0 <= x <= 1.0:
                raise ProbabilityOutOfRange(f"probability {label}={float(x)!r} outside [0, 1]")


def _product(blocks: Iterable[tuple[Iterable[int], list[float]]]) -> list[tuple[int, float]]:
    """Every way to pick one outcome of positive probability from each block,
    as (union of the node masks, product of the probabilities in block
    order). A block is (its outcomes' node masks, the list of their
    probabilities), disjoint from the other blocks' masks; the first block
    varies fastest, giving the model's edge order. Blocks are only counted
    as they are read, and past SUPPORT_CAP ways the model is refused before
    any outcome is listed."""
    kept, ways = [], 1
    for masks, probs in blocks:
        ways *= len(probs) - probs.count(0.0)
        if ways > SUPPORT_CAP:
            raise SupportTooLarge(f"at least {ways} edges exceed cap {SUPPORT_CAP}")
        kept.append((masks, probs))
    combos = [(0, 1.0)]
    for masks, probs in kept:
        combos = [(m | bm, w * bw) for bm, bw in zip(masks, probs) if bw > 0.0 for m, w in combos]
    return combos


def _finish(n: int, masses: dict[int, float]) -> tuple[Hypergraph, EdgeDistribution]:
    support = [(m, p) for m, p in masses.items() if p > 0.0]
    if not support:
        raise EmptySupport("no edge carries positive probability")
    if len(support) > SUPPORT_CAP:
        raise SupportTooLarge(f"{len(support)} edges exceed cap {SUPPORT_CAP}")
    probs = np.array([p for _, p in support])
    return Hypergraph(n, [m for m, _ in support]), EdgeDistribution(probs / probs.sum())


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
    return _finish(n, dict(_product(map(block, accumulate(sizes, initial=0), sizes, p))))


def build_islands(k: int, m: int, p: float | Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """k islands of m nodes; all nodes of an island share one state, and
    islands are independent with infection probabilities p."""
    _check_probabilities(p=p)
    ps = [float(p)] * k if np.isscalar(p) else list(map(float, p))
    if len(ps) != k:
        raise ModelError("need one probability per island")
    check_node_count(k * m)
    blocks = (([0, mask_of(range(j * m, (j + 1) * m))], [1.0 - pj, pj]) for j, pj in enumerate(ps))
    # With m = 0 every island is empty: no blocks, so the one empty edge.
    return _finish(k * m, dict(_product(blocks if m > 0 else [])))


# ---------------------------------------------------------------------------
# Structured supports


def build_nested(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """Chain of prefixes {v1..vi}, each carrying mass 1/n."""
    check_node_count(n)
    masses = {mask_of(range(i + 1)): 1.0 / n for i in range(n)}
    return _finish(n, masses)


def build_cosize(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """All n edges of size n-1 (complement of each single node), uniform."""
    check_node_count(n)
    full = (1 << n) - 1
    masses = {full & ~(1 << v): 1.0 / n for v in range(n)}
    return _finish(n, masses)


def build_partial_regular(n: int, d: int) -> tuple[Hypergraph, EdgeDistribution]:
    """Uniform mass on the d+1 size-d subsets of one chosen (d+1)-node set;
    remaining nodes belong to no edge."""
    if n < d + 1:
        raise ModelError(f"need n >= d+1, got n={n}, d={d}")
    check_node_count(n)
    special = range(d + 1)
    masses = {mask_of(set(special) - {v}): 1.0 / (d + 1) for v in special}
    return _finish(n, masses)


def build_big_graph(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """n communities of n nodes; half the mass on the n^2 small edges
    (community minus one node), half on the n large edges (everything except
    one community)."""
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
    return _finish(total, masses)


def build_entropy_gap(n: int, m: int, d: int, seed: int | None = None) -> tuple[Hypergraph, EdgeDistribution]:
    """Grow a size-d edge family by repeatedly taking a random (d+1)-node set
    and adding all its size-d subsets, until at least m edges exist; uniform."""
    if d < 0 or n < d + 1:
        raise ModelError(f"need n >= d+1 and d >= 0, got n={n}, d={d}")
    check_node_count(n)
    if m > math.comb(n, d):
        raise ModelError(f"m={m} exceeds the {math.comb(n, d)} size-d subsets of {n} nodes")
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
    return _finish(n, masses)


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
            pick = rng.choice(n, size=d, replace=False)
            chosen_set.add(mask_of(map(int, pick)))
        chosen = sorted(chosen_set)
    masses = {e: 1.0 / len(chosen) for e in chosen}
    return _finish(n, masses)


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
        for mask, w in _product(blocks):
            masses[mask] = masses.get(mask, 0.0) + w
    return _finish(n, masses)


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
        for mask, w in _product(blocks):
            masses[mask] = masses.get(mask, 0.0) + w
    return _finish(n, dict(sorted(masses.items())))


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
