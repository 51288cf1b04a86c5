"""Outside-in tracing of hypergt.

`Tracer.install` rebinds public hypergt names as the calling modules see them
(for example `hypergt.adaptive.condition_on_test`), so each call records a
span: name, start, end and the span open when it began. Spans stay in memory
and are written out when the run ends. `uninstall` restores every original.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name); "Class.method" rebinds on the class.
TARGETS = (
    ("hypergt.harness", "run_adaptive", "adaptive.run"),
    ("hypergt.harness", "run_snagt", "snagt.run"),
    ("hypergt.harness", "run_noisy_adaptive", "noisy.run"),
    ("hypergt.harness", "sample_truth", "harness.sample_truth"),
    ("hypergt.adaptive", "validate_model", "model.validate_model"),
    ("hypergt.noisy", "validate_model", "model.validate_model"),
    ("hypergt.snagt", "validate_model", "model.validate_model"),
    ("hypergt.adaptive", "node_marginals", "model.node_marginals"),
    ("hypergt.noisy", "node_marginals", "model.node_marginals"),
    ("hypergt.adaptive", "certain_edge", "model.certain_edge"),
    ("hypergt.noisy", "certain_edge", "model.certain_edge"),
    ("hypergt.adaptive", "condition_on_test", "model.condition_on_test"),
    ("hypergt.noisy", "bayes_update_noisy", "noisy.bayes_update_noisy"),
    ("hypergt.snagt", "random_test_set", "snagt.random_test_set"),
    ("hypergt.transcript", "Transcript.add", "transcript.add"),
)
ENGINE_SPANS = ("adaptive.run", "snagt.run", "noisy.run")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.returns: list[tuple[str, object]] = []  # (span name, value) for kept names
        self.missing: set[str] = set()  # span names whose target no longer exists
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, keep: bool):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.returns.append((name, value))
            return value
        return traced

    def install(self, keep: tuple[str, ...] = ()) -> None:
        """Rebind every target that exists; record the names of those that do not.
        Return values of spans named in `keep` are collected in `returns`."""
        for module_name, attr, name in TARGETS:
            owner_name, _, member = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                fn = getattr(owner, member)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            self._saved.append((owner, member, fn))
            setattr(owner, member, self._wrap(fn, name, name in keep))

    def uninstall(self) -> None:
        while self._saved:
            owner, member, fn = self._saved.pop()
            setattr(owner, member, fn)

    def to_json(self) -> dict:
        return {"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans,
                "missing": sorted(self.missing)}


class SpanStats:
    """Per-name call count, inclusive time and self time over a set of spans."""

    def __init__(self, spans: list[list]) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + end - start - child_ns[i]

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_ns.get(name, 0) / calls / 1e3 if calls else 0.0
