"""Hypergraph world model: distributions over candidate infected sets,
posteriors under test transcripts, weights, marginals, and entropy.

Exactly one hyperedge (the target) is realized; its members are the infected
nodes. A group test on node set T is positive iff T intersects the target.
Conditioning on a noiseless outcome removes the inconsistent edges and
rescales the surviving mass to 1.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import types
import typing
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    ModelError,
    NegativeProbability,
    NodeOutOfRange,
    NotNormalized,
    SchemaError,
    ZeroSurvivorMass,
)
from .sets import (
    column_nodes,
    full_mask,
    intersects,
    mask_of,
    nodes_of,
    pack_words,
    unpack_words,
)

NORMALIZATION_TOL = 1e-9
# q is treated as certain once it reaches 1 - CERTAINTY_TOL.
CERTAINTY_TOL = 1e-9
# Most nodes a model may have; the word store holds n/64 words per edge.
NODE_CAP = 2 ** 16
# Hypergraph.node_mass uses a CSR incidence below this density (set bits per |E| n),
# else the float matrix. On a 2-vCPU Xeon, numpy 2.4: bincount 3.4-4.1 ns a set bit, mat-vec
# 0.25-0.27 ns an entry (sparse500 62 vs 680 us, dense12 83 vs 12 us); they break even near 1/15.
SPARSE_DENSITY = 1 / 16


def check_node_count(n: int) -> None:
    """SchemaError for a node count that is not an integer (a boolean is not),
    NodeOutOfRange for one outside 0..NODE_CAP; builders call it before any mask."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise SchemaError(f"node count {n!r} is not an integer")
    if not 0 <= n <= NODE_CAP:
        raise NodeOutOfRange(f"node count {n} outside 0..{NODE_CAP}")


class Hypergraph:
    """n nodes plus an explicit list of candidate infected sets.

    Edges (node lists or bitmasks) are stored as bitmasks in input order;
    edge identity is the index into that list. The empty edge (nobody
    infected) is a legal member. The constructor rejects a non-integer n or
    node, a boolean included (SchemaError), an n outside 0..NODE_CAP or a
    node outside 0..n-1 (NodeOutOfRange) and a repeated edge (DuplicateEdge),
    naming the first offending edge, and builds the read-only packed words
    (see `sets`) and edge sizes.
    """

    def __init__(self, n: int, edges: Iterable[Iterable[int] | int]):
        check_node_count(n)
        self.n = int(n)
        if not isinstance(edges, Iterable):
            raise SchemaError(f"edges must be a list, not {type(edges).__name__}")
        masks = tuple(_edge_mask(i, e, self.n) for i, e in enumerate(edges))
        limit = full_mask(self.n)
        if (masks and (min(masks) < 0 or max(masks) > limit)) or len(set(masks)) != len(masks):
            seen = set()  # walk the edges only to name the first offender
            for i, m in enumerate(masks):
                if m & ~limit or m < 0:
                    raise NodeOutOfRange(f"edge {i} uses a node index outside 0..{self.n - 1}")
                if m in seen:
                    raise DuplicateEdge(f"edge {i} duplicates an earlier edge")
                seen.add(m)
        self.edge_masks: tuple[int, ...] = masks
        self.words = pack_words(masks, self.n)  # (ceil(n/64), |E|) uint64
        self.edge_sizes = np.array([m.bit_count() for m in masks], dtype=np.int64)
        self.words.flags.writeable = False
        self.edge_sizes.flags.writeable = False
        self._kernel = None  # node_mass builds it on first use

    def __len__(self) -> int:
        return len(self.edge_masks)

    def node_mass(self, q: np.ndarray, edges: np.ndarray | None = None) -> np.ndarray:
        """Sum of q[e] times edge e's node indicator, over every edge or the
        indices `edges`. The first call builds the kernel: below SPARSE_DENSITY
        a CSR incidence (edge offsets, node indices), else the (|E|, n) matrix."""
        if self._kernel is None:
            if self.edge_sizes.sum() < SPARSE_DENSITY * len(self) * self.n:
                starts = np.cumsum(self.edge_sizes) - self.edge_sizes
                self._kernel = starts, column_nodes(self.words)
            else:
                self._kernel = unpack_words(self.words, self.n)
        if isinstance(self._kernel, np.ndarray):
            rows = self._kernel if edges is None else self._kernel.take(edges, axis=0)
            return rows.T @ (q if edges is None else q.take(edges))
        starts, nodes = self._kernel
        if edges is None:
            return np.bincount(nodes, weights=np.repeat(q, self.edge_sizes), minlength=self.n)
        sizes = self.edge_sizes[edges]
        at = np.repeat(starts[edges] - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        return np.bincount(nodes[at], weights=np.repeat(q[edges], sizes), minlength=self.n)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, |E|={len(self)})"


def _edge_mask(i: int, e: Iterable[int] | int, n: int) -> int:
    """Bitmask of edge i; a node index outside 0..n-1 gives the out-of-range mask -1.
    A boolean edge or node is refused like any other non-integer: a boolean
    node becomes None, which mask_of cannot shift by."""
    try:
        return e if type(e) is int else mask_of(
            None if isinstance(v, bool) else v if 0 <= v < n else -1 for v in e)
    except TypeError:
        raise SchemaError(f"edge {i} is not a list of integer node indices: {e!r}") from None
    except ValueError:  # a shift by -1: no node outside 0..n-1 is shifted, however large
        return -1


@dataclass(eq=False)
class EdgeDistribution:
    """One probability per edge, aligned with Hypergraph.edge_masks.

    `probs` is the distribution's own read-only float copy of the input, and
    `cdf` its read-only cumulative sum, which `sample_truth` searches. The
    constructor rejects non-numeric masses (SchemaError), a negative one
    (NegativeProbability) and a total that is not finite or not within
    NORMALIZATION_TOL of 1 (NotNormalized).
    """

    probs: np.ndarray

    def __init__(self, probs: Sequence[float] | np.ndarray):
        try:
            raw = np.asarray(probs)
        except ValueError:
            raise SchemaError("edge probabilities must be a flat list of numbers") from None
        if raw.ndim != 1 or raw.dtype.kind not in "fiu":
            raise SchemaError("edge probabilities must be a flat list of numbers")
        p = raw.astype(float)  # always a copy
        if np.any(p < 0):
            raise NegativeProbability("edge probabilities must be >= 0")
        total = float(p.sum())
        # NaN or +inf anywhere makes the sum non-finite; -inf was rejected above.
        if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"edge probabilities sum to {total!r}")
        p.flags.writeable = False
        self.probs = p
        # Built as Generator.choice builds it from p / p.sum(), so a draw
        # matches rng.choice(len(p), p=p / p.sum()) on the same stream.
        cdf = np.cumsum(p / p.sum())
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        self.cdf = cdf

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(eq=False)
class Posterior:
    """Edge posterior after a transcript of tests; removed edges carry exact 0.
    norm is the total that the conditioning which made it divided by: None
    where that removed no mass, or where no conditioning made it."""

    graph: Hypergraph
    q: np.ndarray
    norm: float | None = None


@dataclass(frozen=True)
class GroundTruth:
    """The hidden sampled target edge."""

    target: int  # edge index
    mask: int  # that edge's node bitmask


def validate_model(graph: Hypergraph, dist: EdgeDistribution) -> None:
    """Check that dist has one probability per edge of graph; each object
    checked its own invariants when it was built."""
    if len(graph) != len(dist):
        raise ModelError(f"{len(dist)} probabilities for {len(graph)} edges")


def prior_posterior(graph: Hypergraph, dist: EdgeDistribution) -> Posterior:
    return Posterior(graph, dist.probs.copy())


def node_marginals(post: Posterior) -> np.ndarray:
    """All node infection marginals at once."""
    return post.graph.node_mass(post.q)


def expected_infections(post: Posterior) -> float:
    """Expected number of infected nodes under the posterior."""
    return float(post.q @ post.graph.edge_sizes)


def edge_entropy(dist: EdgeDistribution | np.ndarray) -> float:
    """Shannon entropy of the edge distribution, in bits."""
    p = dist.probs if isinstance(dist, EdgeDistribution) else np.asarray(dist, dtype=float)
    pos = p[p > 0]
    return float(-(pos * np.log2(pos)).sum())


def edge_outcomes(graph: Hypergraph, t_mask: int) -> np.ndarray:
    """Noiseless outcome of testing t for each candidate edge (True = positive)."""
    return intersects(graph.words, t_mask)


def condition_on_test(post: Posterior, t_mask: int, outcome: bool) -> Posterior:
    """Noiseless conditioning: positive keeps edges hitting node mask t_mask,
    negative keeps edges disjoint from it; survivors are rescaled to total
    mass 1."""
    hits = edge_outcomes(post.graph, t_mask)
    q = post.q * (hits if outcome else ~hits)
    if np.array_equal(q, post.q):  # no mass removed: keep exact prior values
        return Posterior(post.graph, q)
    total = q.sum()
    if total <= 0.0:
        raise ZeroSurvivorMass(
            f"observation ({nodes_of(t_mask)}, {outcome}) is inconsistent with every surviving edge")
    return Posterior(post.graph, q / total, float(total))


def certain_edge(post: Posterior) -> int | None:
    """Index of the edge with q >= 1 - CERTAINTY_TOL, if any."""
    i = int(np.argmax(post.q))
    return i if post.q[i] >= 1.0 - CERTAINTY_TOL else None


def sample_truth(graph: Hypergraph, dist: EdgeDistribution, rng: np.random.Generator) -> GroundTruth:
    """Draw the target edge from the prior."""
    i = int(dist.cdf.searchsorted(rng.random(), side="right"))
    return GroundTruth(i, graph.edge_masks[i])


def noiseless_oracle(truth: GroundTruth) -> Callable[[int], bool]:
    """Test oracle answering positive iff the query intersects the target edge."""

    def answers(t_mask: int) -> bool:
        return bool(t_mask & truth.mask)

    return answers


def save_model(path: str, graph: Hypergraph, dist: EdgeDistribution) -> None:
    """Write the model file: fields n, edges (node lists), probs.

    Floats serialize via repr, which round-trips exactly.
    """
    doc = {
        "n": graph.n,
        "edges": [list(nodes_of(m)) for m in graph.edge_masks],
        "probs": [float(p) for p in dist.probs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def check_record(doc, what: str, required: Sequence[str], allowed: Sequence[str]) -> None:
    """Raise SchemaError unless doc is a JSON object that holds every required
    key and no key outside allowed."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object, not {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{what} lacks key {key!r}")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{what} has unknown key {key!r}")


def _check_types(owner, values: dict, what: str, natural: bool = False) -> None:
    """SchemaError `what: 'name' must be <annotation>, not <value>` for the first
    value without the type that owner, a settings class or a function, annotates
    for its name; with `natural` an int is >= 0. Hints resolve once per owner."""
    hints = _hints(owner)
    for name, value in values.items():
        if not _conforms(value, hints[name], natural):
            if natural and _conforms(value, hints[name]):
                raise SchemaError(f"{what}: {name!r} must hold no negative integer, not {value!r}")
            raise SchemaError(f"{what}: {name!r} must be {owner.__annotations__[name]}, not {value!r}")


@functools.cache
def _hints(owner) -> dict:
    """The type of each name that owner annotates, as `_members` of its hint."""
    return {name: _members(hint) for name, hint in typing.get_type_hints(owner).items()}


def _members(hint) -> tuple:
    """A resolved hint as the tuple of types a value may have: a union gives
    each of its members, a Sequence[X] or tuple[X, ...] the pair (its origin,
    the members of each argument), and any other hint itself."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType or origin is typing.Union:
        return tuple(m for a in args for m in _members(a))
    if origin in (Sequence, tuple):
        return ((origin, tuple(_members(a) for a in args)),)
    return (hint,)


def _conforms(value, members: tuple, natural: bool = False) -> bool:
    """Whether value has one of the `_members` types: int and float take
    numbers but not booleans, and with `natural` int takes none below 0; a
    sequence or a tuple takes a list, tuple or numpy array, and any other type
    its instances."""
    for hint in members:
        if hint is int or hint is float:  # an exact int or float skips the ABC check
            kind = numbers.Integral if hint is int else numbers.Real
            ok = (type(value) is hint or isinstance(value, kind) and not isinstance(value, bool)) and (
                not natural or hint is float or value >= 0)
        elif type(hint) is tuple:  # (Sequence or tuple, the members of each argument)
            origin, args = hint
            ok = isinstance(value, (list, tuple, np.ndarray)) and (
                len(value) == len(args) and all(_conforms(x, a, natural) for x, a in zip(value, args))
                if origin is tuple else all(_conforms(x, args[0], natural) for x in value))
        else:
            ok = isinstance(value, hint)
        if ok:
            return True
    return False


def parse_json(text: str, what: str):
    """json.loads that raises SchemaError naming `what` and where the text
    breaks, or why it cannot be decoded (an integer of more digits than Python
    converts, nesting deeper than the recursion limit)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from None


def load_model(path: str) -> tuple[Hypergraph, EdgeDistribution]:
    what = f"model file {path}"
    with open(path) as fh:
        doc = parse_json(fh.read(), what)
    check_record(doc, what, ("n", "edges", "probs"), ("n", "edges", "probs"))
    for i, e in enumerate(doc["edges"] if isinstance(doc["edges"], list) else ()):
        if not (isinstance(e, list) and all(type(v) is int for v in e)):  # no masks, no bools
            raise SchemaError(f"edge {i} is not a list of integer node indices: {e!r}")
    graph = Hypergraph(doc["n"], doc["edges"])
    dist = EdgeDistribution(doc["probs"])
    validate_model(graph, dist)
    return graph, dist
