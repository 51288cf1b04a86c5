"""Engine run records: ordered tests with stage tags plus outcome counters,
and the reader of their JSON form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import NodeOutOfRange, SchemaError
from .model import check_record
from .sets import mask_of, nodes_of

# Stage tags.
SPLIT = "split"  # weight-window test found in stage 1
RESIDUAL = "residual"  # group test of the accumulated low-weight nodes
INDIVIDUAL = "individual"  # stage-2 single-node test
COMPLEMENT = "complement"  # regular-variant edge-complement test
RANDOM = "random"  # preplanned random test (semi-non-adaptive)

_OPTIONAL_KEYS = ("mass_removed", "rep_group", "sg_size", "sg_max_time")
# Every key a record's JSON form can hold.
RECORD_KEYS = ("query", "outcome", "stage") + _OPTIONAL_KEYS


@dataclass
class TestEntry:
    query_mask: int
    outcome: bool
    stage: str
    mass_removed: float | None = None
    rep_group: int | None = None
    sg_size: int | None = None
    sg_max_time: int | None = None

    @property
    def query(self) -> tuple[int, ...]:
        return nodes_of(self.query_mask)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "query": list(self.query),
            "outcome": bool(self.outcome),
            "stage": self.stage,
        }
        for key in _OPTIONAL_KEYS:
            val = getattr(self, key)
            if val is not None:
                doc[key] = val
        return doc


@dataclass
class Transcript:
    """What a run did: every issued test, counters, and the returned answer.

    Stage 2 counts the individual and complement records and stage 1 the
    rest; empty queries are resolved as negative at zero cost and never
    appear here (the preplanned engines are the exception: their empty tests
    are real scheduled tests).
    """

    records: list[TestEntry] = field(default_factory=list)
    informative: int = 0
    pn: int = 0
    result_edge: int | None = None
    result_nodes: tuple[int, ...] | None = None
    halted: bool = False
    mu_stage2: float | None = None  # expected infections at stage-2 entry

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def stage2(self) -> int:
        return sum(r.stage in (INDIVIDUAL, COMPLEMENT) for r in self.records)

    @property
    def stage1(self) -> int:
        return self.total - self.stage2

    def returned_mask(self) -> int | None:
        if self.result_nodes is None:
            return None
        return mask_of(self.result_nodes)

    def add(self, query_mask: int, outcome: bool, stage: str, **extras: Any) -> None:
        self.records.append(TestEntry(query_mask, bool(outcome), stage, **extras))

    def to_json(self) -> dict[str, Any]:
        return {
            "records": [r.to_json() for r in self.records],
            "stage1": self.stage1,
            "stage2": self.stage2,
            "informative": self.informative,
            "pn": self.pn,
            "result_edge": self.result_edge,
            "result_nodes": list(self.result_nodes) if self.result_nodes is not None else None,
            "halted": self.halted,
            "mu_stage2": self.mu_stage2,
        }


def read_records(doc, n: int, what: str) -> list[tuple[int, bool]]:
    """(query mask, outcome) pairs from a JSON list of test records in the
    `TestEntry.to_json` form, for a model on n nodes. SchemaError for a
    malformed list or record, NodeOutOfRange for a node outside 0..n-1; `what`
    names the list in errors."""
    if not isinstance(doc, list):
        raise SchemaError(f"{what} must be a JSON list of test records")
    pairs = []
    for i, rec in enumerate(doc):
        where = f"transcript record {i}"
        check_record(rec, where, ("query", "outcome"), RECORD_KEYS)
        query, outcome = rec["query"], rec["outcome"]
        if not (isinstance(query, list) and all(type(v) is int for v in query)
                and isinstance(outcome, bool)):
            raise SchemaError(f"{where} needs a list of integer nodes as query and true or "
                              f"false as outcome, not {query!r} and {outcome!r}")
        if not all(0 <= v < n for v in query):
            raise NodeOutOfRange(f"{where} queries a node outside 0..{n - 1}")
        pairs.append((mask_of(query), outcome))
    return pairs
