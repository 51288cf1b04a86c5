"""Hypergraph world model: distributions over candidate infected sets,
posteriors under test transcripts, weights, marginals, and entropy.

Exactly one hyperedge (the target) is realized; its members are the infected
nodes. A group test on node set T is positive iff T intersects the target.
Conditioning on a noiseless outcome removes the inconsistent edges and
rescales the surviving mass to 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    bit_count,
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


class Hypergraph:
    """n nodes plus an explicit list of candidate infected sets.

    Edges are stored as integer bitmasks in input order; edge identity is the
    index into that list. The empty edge (nobody infected) is a legal member.
    """

    def __init__(self, n: int, edges: Iterable[Iterable[int] | int]):
        self.n = int(n)
        if self.n < 0:
            raise NodeOutOfRange(f"node count {self.n} is negative")
        masks = []
        for e in edges:
            masks.append(e if isinstance(e, int) else mask_of(e))
        self.edge_masks: tuple[int, ...] = tuple(masks)
        self._words: np.ndarray | None = None
        self._membership: np.ndarray | None = None
        self._sizes: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.edge_masks)

    def edge_nodes(self, i: int) -> tuple[int, ...]:
        return nodes_of(self.edge_masks[i])

    @property
    def edge_sizes(self) -> np.ndarray:
        if self._sizes is None:
            self._sizes = np.array([bit_count(m) for m in self.edge_masks])
        return self._sizes

    @property
    def words(self) -> np.ndarray:
        """(ceil(n/64), |E|) uint64 store of the edges; see `sets`.

        Built on first use, so out-of-range masks reach validate_model intact.
        """
        if self._words is None:
            self._words = pack_words(self.edge_masks, self.n)
        return self._words

    @property
    def membership(self) -> np.ndarray:
        """(|E|, n) float matrix, entry 1.0 iff node v belongs to edge e."""
        if self._membership is None:
            self._membership = unpack_words(self.words, self.n)
        return self._membership

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, |E|={len(self)})"


@dataclass
class EdgeDistribution:
    """One probability per edge, aligned with Hypergraph.edges."""

    probs: np.ndarray

    def __init__(self, probs: Sequence[float] | np.ndarray):
        self.probs = np.asarray(probs, dtype=float)

    def __len__(self) -> int:
        return len(self.probs)


@dataclass
class Posterior:
    """Edge posterior after a transcript of tests; removed edges carry exact 0."""

    graph: Hypergraph
    q: np.ndarray


@dataclass(frozen=True)
class GroundTruth:
    """The hidden sampled target edge and the induced node states."""

    target: int  # edge index
    mask: int  # that edge's node bitmask
    n: int

    @property
    def states(self) -> tuple[bool, ...]:
        return tuple(bool(self.mask >> v & 1) for v in range(self.n))


def validate_model(graph: Hypergraph, dist: EdgeDistribution) -> None:
    """Check both type invariant sets; raise a ModelError subclass otherwise."""
    if len(graph) != len(dist):
        raise ModelError(
            f"{len(dist)} probabilities for {len(graph)} edges"
        )
    masks = graph.edge_masks
    limit = full_mask(graph.n)
    if (masks and (min(masks) < 0 or max(masks) > limit)) or len(set(masks)) != len(masks):
        seen = set()  # walk the edges only to name the first offender
        for i, m in enumerate(masks):
            if m & ~limit or m < 0:
                raise NodeOutOfRange(f"edge {i} uses a node index outside 0..{graph.n - 1}")
            if m in seen:
                raise DuplicateEdge(f"edge {i} duplicates an earlier edge")
            seen.add(m)
    if np.any(dist.probs < 0):
        raise NegativeProbability("edge probabilities must be >= 0")
    total = float(dist.probs.sum())
    # NaN or +inf anywhere makes the sum non-finite; -inf was rejected above.
    if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"edge probabilities sum to {total!r}")


def prior_posterior(graph: Hypergraph, dist: EdgeDistribution) -> Posterior:
    return Posterior(graph, dist.probs.astype(float).copy())


def node_marginals(post: Posterior) -> np.ndarray:
    """All node infection marginals at once."""
    return post.graph.membership.T @ post.q


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


def renormalized(post: Posterior, q: np.ndarray, t_mask: int, outcome: bool) -> Posterior:
    """The posterior with post's edges reweighted to q, rescaled to total mass 1."""
    total = q.sum()
    if total <= 0.0:
        raise ZeroSurvivorMass(
            f"observation ({nodes_of(t_mask)}, {outcome}) is inconsistent with every surviving edge"
        )
    return Posterior(post.graph, q / total)


def condition_on_test(post: Posterior, t: int | Iterable[int], outcome: bool) -> Posterior:
    """Noiseless conditioning: positive keeps edges hitting t, negative keeps
    edges disjoint from t; survivors are rescaled to total mass 1."""
    t_mask = t if isinstance(t, int) else mask_of(t)
    hits = edge_outcomes(post.graph, t_mask)
    q = post.q * (hits if outcome else ~hits)
    if np.array_equal(q, post.q):  # no mass removed: keep exact prior values
        return Posterior(post.graph, q)
    return renormalized(post, q, t_mask, outcome)


def certain_edge(post: Posterior) -> int | None:
    """Index of the edge with q >= 1 - CERTAINTY_TOL, if any."""
    i = int(np.argmax(post.q))
    return i if post.q[i] >= 1.0 - CERTAINTY_TOL else None


def sample_truth(graph: Hypergraph, dist: EdgeDistribution, rng: np.random.Generator) -> GroundTruth:
    """Draw the target edge from the prior."""
    i = int(rng.choice(len(dist.probs), p=dist.probs / dist.probs.sum()))
    return GroundTruth(i, graph.edge_masks[i], graph.n)


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
        "edges": [list(graph.edge_nodes(i)) for i in range(len(graph))],
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


def load_model(path: str) -> tuple[Hypergraph, EdgeDistribution]:
    with open(path) as fh:
        doc = json.load(fh)
    check_record(doc, f"model file {path}", ("n", "edges", "probs"), ("n", "edges", "probs"))
    graph = Hypergraph(doc["n"], doc["edges"])
    dist = EdgeDistribution(doc["probs"])
    validate_model(graph, dist)
    return graph, dist
