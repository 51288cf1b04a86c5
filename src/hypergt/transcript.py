"""Engine run records: ordered tests with stage tags plus outcome counters,
and the reader of their JSON form. A transcript stores its records as
columns, so an engine can append a whole block of tests in one call."""

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


@dataclass(slots=True)
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

    The records are stored as columns, one list per `TestEntry` field;
    `records` builds the entries when read. Stage 2 counts the individual and
    complement records and stage 1 the rest; empty queries are resolved as
    negative at zero cost and never appear here (the preplanned engines are
    the exception: their empty tests are real scheduled tests).
    """

    query_masks: list[int] = field(default_factory=list)
    outcomes: list[bool] = field(default_factory=list)
    stages: list[str] = field(default_factory=list)
    masses_removed: list[float | None] = field(default_factory=list)
    rep_groups: list[int | None] = field(default_factory=list)
    sg_sizes: list[int | None] = field(default_factory=list)
    sg_max_times: list[int | None] = field(default_factory=list)
    informative: int = 0
    pn: int = 0
    result_edge: int | None = None
    result_mask: int | None = None  # the returned node set
    halted: bool = False
    mu_stage2: float | None = None  # expected infections at stage-2 entry

    def _columns(self) -> tuple[list, ...]:
        """The record columns in `TestEntry` field order."""
        return (self.query_masks, self.outcomes, self.stages, self.masses_removed,
                self.rep_groups, self.sg_sizes, self.sg_max_times)

    @property
    def records(self) -> list[TestEntry]:
        return [TestEntry(*row) for row in zip(*self._columns())]

    @property
    def total(self) -> int:
        return len(self.stages)

    @property
    def stage2(self) -> int:
        return self.stages.count(INDIVIDUAL) + self.stages.count(COMPLEMENT)

    @property
    def stage1(self) -> int:
        return self.total - self.stage2

    @property
    def result_nodes(self) -> tuple[int, ...] | None:
        return None if self.result_mask is None else nodes_of(self.result_mask)

    def add(self, query_mask: int, outcome: bool, stage: str, mass_removed: float | None = None,
            rep_group: int | None = None, sg_size: int | None = None,
            sg_max_time: int | None = None) -> None:
        """Append a record. The optional fields stay None unless an engine
        sets them: mass_removed, the posterior mass a noiseless adaptive test
        removed; rep_group, the index shared by the repeats of one noisy test;
        sg_size and sg_max_time, a preplanned engine's candidate-band count
        and longest band survival time before the test."""
        self.query_masks.append(query_mask)
        self.outcomes.append(bool(outcome))
        self.stages.append(stage)
        self.masses_removed.append(mass_removed)
        self.rep_groups.append(rep_group)
        self.sg_sizes.append(sg_size)
        self.sg_max_times.append(sg_max_time)

    def extend(self, query_masks: list[int], outcomes: list[bool], stage: str,
               mass_removed: list[float | None] | None = None,
               rep_group: list[int | None] | None = None, sg_size: list[int | None] | None = None,
               sg_max_time: list[int | None] | None = None) -> None:
        """Append one record per query mask, all of one stage: the records
        `add` would append one at a time. Each optional field is a list of
        one value per record, or None for all; ValueError for a list of
        another length."""
        k = len(query_masks)
        values = (query_masks, list(map(bool, outcomes)), [stage] * k, mass_removed, rep_group,
                  sg_size, sg_max_time)
        if any(v is not None and len(v) != k for v in values):
            raise ValueError(f"every column of a block of {k} records needs {k} values")
        for column, v in zip(self._columns(), values):
            column += [None] * k if v is None else v

    def to_json(self) -> dict[str, Any]:
        return {
            "records": [r.to_json() for r in self.records],
            "stage1": self.stage1,
            "stage2": self.stage2,
            "informative": self.informative,
            "pn": self.pn,
            "result_edge": self.result_edge,
            "result_nodes": None if self.result_mask is None else list(self.result_nodes),
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
