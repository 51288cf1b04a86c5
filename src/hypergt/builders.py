"""Constructors for every correlation model the engines are exercised on.

Three flavors: products of independent blocks (independent nodes,
communities, perfectly correlated islands, and the components of each
edge-faulty contact graph), explicit structured supports (chains, co-size
families, dense two-scale graphs, entropy-gap and random regular
hypergraphs), and the exact enumeration of seeded block infection. The
product-form families share one enumerator, `_product`. Each builder
normalises its masses and hands them to the validating constructors; subsets
with zero probability are left out of the support, and a support of more
than SUPPORT_CAP edges is refused. `BUILDERS` maps each family name to its
builder, and a `ModelSpec` names a family and its parameters.
"""

from __future__ import annotations

import inspect
import math
import numbers
import types
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import EmptySupport, ModelError, ProbabilityOutOfRange, SchemaError, SupportTooLarge
from .model import EdgeDistribution, Hypergraph, check_record
from .sets import iter_bits, mask_of

SUPPORT_CAP = 1 << 20


@dataclass
class ModelSpec:
    """A named family plus its parameter record; JSON-friendly."""

    family: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, doc, what: str) -> "ModelSpec":
        """Parse and validate a {family, params} record; `what` names it in errors."""
        check_record(doc, what, ("family",), ("family", "params"))
        spec = cls(doc["family"], doc.get("params", {}))
        spec.validate()
        return spec

    def validate(self) -> None:
        """Raise ModelError for an unknown family, and SchemaError unless params
        is an object holding every required parameter of the family's builder,
        no other key, and values of the types the builder annotates."""
        if self.family not in BUILDERS:
            raise ModelError(f"unknown model family {self.family!r}")
        builder = BUILDERS[self.family]
        args = inspect.signature(builder).parameters
        check_record(self.params, f"{self.family} params",
                     [k for k, a in args.items() if a.default is inspect.Parameter.empty],
                     list(args))
        hints = typing.get_type_hints(builder)
        for key, value in self.params.items():
            if key in hints and not _conforms(value, hints[key]):
                raise SchemaError(f"{self.family} params: {key!r} must be "
                                  f"{args[key].annotation}, not {value!r}")


def _conforms(value, hint) -> bool:
    """Whether value has the annotated type: int and float take numbers but not
    booleans, a sequence or a tuple takes a list, tuple or numpy array, and any
    other type its instances."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, a) for a in args)
    if origin in (Sequence, tuple):
        if not isinstance(value, (list, tuple, np.ndarray)):
            return False
        if origin is tuple:
            return len(value) == len(args) and all(map(_conforms, value, args))
        return all(_conforms(x, args[0]) for x in value)
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
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


def _product(blocks: Sequence[Sequence[tuple[int, float]]],
             start: float = 1.0) -> list[tuple[int, float]]:
    """Every way to pick one (node mask, probability) outcome from each
    independent block, as (union of the masks, start times the probabilities
    multiplied in block order). The first block varies fastest; this order
    is the edge order of the model built from it."""
    combos = [(0, start)]
    for block in blocks:
        combos = [(m | bm, w * bw) for bm, bw in block for m, w in combos]
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
    """Each node infected independently with its own probability."""
    p = list(map(float, p))
    _check_probabilities(p=p)
    n = len(p)
    if 2 ** n > SUPPORT_CAP:
        raise SupportTooLarge(f"2^{n} subsets exceed cap {SUPPORT_CAP}")
    return _finish(n, dict(_product([[(0, 1.0 - pv), (1 << v, pv)] for v, pv in enumerate(p)])))


def build_community(sizes: Sequence[int], q: float, p: Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """Families independently infected with probability q; a node of an
    infected family j is infected with probability p[j]."""
    sizes = list(map(int, sizes))
    p = list(map(float, p))
    _check_probabilities(q=q, p=p)
    if len(p) != len(sizes):
        raise ModelError("need one infection probability per family")
    n = sum(sizes)
    if 2 ** n > SUPPORT_CAP:
        raise SupportTooLarge(f"2^{n} subsets exceed cap {SUPPORT_CAP}")
    blocks, start = [], 0
    for pj, size in zip(p, sizes):
        block = [(0, 1.0 - q + q * (1.0 - pj) ** size)]
        for members in range(1, 2 ** size):
            hit = members.bit_count()
            block.append((members << start, q * (pj ** hit) * ((1.0 - pj) ** (size - hit))))
        blocks.append(block)
        start += size
    return _finish(n, dict(_product(blocks)))


def build_islands(k: int, m: int, p: float | Sequence[float]) -> tuple[Hypergraph, EdgeDistribution]:
    """k islands of m nodes; all nodes of an island share one state, and
    islands are independent with infection probabilities p."""
    _check_probabilities(p=p)
    ps = [float(p)] * k if np.isscalar(p) else list(map(float, p))
    if len(ps) != k:
        raise ModelError("need one probability per island")
    # Each island of 0 < p < 1 doubles the support: refuse before enumerating.
    support = 2 ** sum(0.0 < pj < 1.0 for pj in ps) if m > 0 else 1
    if support > SUPPORT_CAP:
        raise SupportTooLarge(f"{support} edges exceed cap {SUPPORT_CAP}")
    blocks = [[(0, 1.0 - pj), (mask_of(range(j * m, (j + 1) * m)), pj)] for j, pj in enumerate(ps)]
    return _finish(k * m, dict(_product(blocks)))


# ---------------------------------------------------------------------------
# Structured supports


def build_nested(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """Chain of prefixes {v1..vi}, each carrying mass 1/n."""
    masses = {mask_of(range(i + 1)): 1.0 / n for i in range(n)}
    return _finish(n, masses)


def build_cosize(n: int) -> tuple[Hypergraph, EdgeDistribution]:
    """All n edges of size n-1 (complement of each single node), uniform."""
    full = (1 << n) - 1
    masses = {full & ~(1 << v): 1.0 / n for v in range(n)}
    return _finish(n, masses)


def build_partial_regular(n: int, d: int) -> tuple[Hypergraph, EdgeDistribution]:
    """Uniform mass on the d+1 size-d subsets of one chosen (d+1)-node set;
    remaining nodes belong to no edge."""
    if n < d + 1:
        raise ModelError(f"need n >= d+1, got n={n}, d={d}")
    special = range(d + 1)
    masses = {mask_of(set(special) - {v}): 1.0 / (d + 1) for v in special}
    return _finish(n, masses)


def build_big_graph(n: int) -> tuple[Hypergraph, EdgeDistribution]:
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
    return _finish(total, masses)


def build_entropy_gap(n: int, m: int, d: int, seed: int | None = None) -> tuple[Hypergraph, EdgeDistribution]:
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
    return _finish(n, masses)


def build_random_regular(n: int, d: int, r: float | None = None, count: int | None = None,
                         seed: int | None = None) -> tuple[Hypergraph, EdgeDistribution]:
    """Random d-regular hypergraph, uniform mass over sampled edges.

    Either each size-d subset enters independently with probability r, or
    exactly `count` distinct size-d subsets are drawn.
    """
    if (r is None) == (count is None):
        raise ModelError("give exactly one of r, count")
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
        chosen_set: set[int] = set()
        while len(chosen_set) < count:
            pick = rng.choice(n, size=d, replace=False)
            chosen_set.add(mask_of(map(int, pick)))
        chosen = sorted(chosen_set)
    masses = {e: 1.0 / len(chosen) for e in chosen}
    return _finish(n, masses)


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


def build_edge_faulty(n: int, contact_edges: Sequence[tuple[int, int]], r: float,
                      p: float) -> tuple[Hypergraph, EdgeDistribution]:
    """Edge-faulty contact graph: each contact edge survives with probability
    r, then every resulting component is infected with probability p. The
    infected set is the union of infected components."""
    _check_probabilities(r=r, p=p)
    contact_edges = [tuple(e) for e in contact_edges]
    if len(contact_edges) > 20:
        raise SupportTooLarge("at most 20 contact edges are enumerable")
    masses: dict[int, float] = {}
    for kept_bits in range(2 ** len(contact_edges)):
        kept = [contact_edges[i] for i in range(len(contact_edges)) if kept_bits >> i & 1]
        w_graph = (r ** len(kept)) * ((1.0 - r) ** (len(contact_edges) - len(kept)))
        comps = _components(n, kept)
        if 0.0 < p < 1.0 and w_graph > 0.0 and 2 ** len(comps) > SUPPORT_CAP:
            raise SupportTooLarge(f"at least {2 ** len(comps)} edges exceed cap {SUPPORT_CAP}")
        for mask, w in _product([[(0, 1.0 - p), (comp, p)] for comp in comps], w_graph):
            masses[mask] = masses.get(mask, 0.0) + w
    return _finish(n, masses)


def sample_edge_faulty(n: int, contact_edges: Sequence[tuple[int, int]], r: float, p: float,
                       rng: np.random.Generator) -> int:
    """One draw of the edge-faulty generative process (infected set mask)."""
    kept = [e for e in contact_edges if rng.random() < r]
    mask = 0
    for comp in _components(n, kept):
        if rng.random() < p:
            mask |= comp
    return mask


def build_sbim(m: int, k: int, seed_prob: float, q1: float, q2: float) -> tuple[Hypergraph, EdgeDistribution]:
    """Seeded block infection: m communities of k nodes; each node seeds
    independently with probability seed_prob, then each seed infects every
    same-community node with probability q1 and every other node with q2.

    D(S) sums, over seed sets T inside S, the probability that exactly the
    nodes of S \\ T catch an infection and nobody outside S does.
    """
    _check_probabilities(seed_prob=seed_prob, q1=q1, q2=q2)
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
    return _finish(n, masses)


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
    spec.validate()
    return BUILDERS[spec.family](**spec.params)
