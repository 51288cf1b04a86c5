"""Experiment runner and reporting: seeded Monte-Carlo trials, summaries,
bound conformance checks, and CSV emission.

Per-trial randomness comes from a counter-based split of the master seed, so
results are reproducible and a trial's draws depend only on its index. Engine
errors become per-trial failure records; a batch never aborts.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adaptive import AdaptiveConfig, run_adaptive
from .builders import ModelSpec, _conforms, build_model
from .errors import MismatchedConfig, SchemaError
from .model import (
    EdgeDistribution,
    Hypergraph,
    check_record,
    edge_entropy,
    expected_infections,
    load_model,
    noiseless_oracle,
    prior_posterior,
    sample_truth,
)
from .noisy import NoiseChannel, noisy_oracle, run_noisy_adaptive, run_noisy_snagt
from .oracle import optimal_expected_tests, simulate_policy
from .snagt import SnagtConfig, run_snagt

ALGORITHMS = ("base", "truncated", "regular", "snagt", "noisy_adaptive", "noisy_snagt", "oracle")
CSV_COLUMNS = ("trial", "seed", "target", "tests", "stage1", "stage2", "informative", "correct",
               "halted", "error")


@dataclass
class ExperimentConfig:
    model: ModelSpec | str
    algorithm: str
    trials: int = 1
    seed: int = 0
    c: float = 1.0 / 3.0
    eps: float | None = None
    f2: int | None = None
    u: int | None = None
    delta: float = 0.0
    alpha: float = 2.0
    stop_coeff: float = 10.0
    cap_coeff: float = 2.0
    max_tests: int | None = None
    output: str | None = None

    def validate(self) -> None:
        """Raise SchemaError for a config no trial can run with; the engine's
        own settings are checked by the engine's validator."""
        try:
            if self.algorithm not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {self.algorithm!r}")
            if self.trials < 1:
                raise ValueError("trials must be >= 1")
            NoiseChannel(self.delta)
            if self.algorithm in ("snagt", "noisy_snagt"):
                if self.u is None:
                    raise ValueError(f"{self.algorithm} needs u")
                _snagt_config(self, None).validate()
            elif self.algorithm != "oracle":
                _adaptive_config(self).validate()
        except ValueError as exc:
            raise SchemaError(f"experiment config: {exc}") from None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)  # a ModelSpec becomes its {family, params} record

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Parse a config record; SchemaError for a missing or unknown key or
        a value of the wrong type."""
        fields = dataclasses.fields(cls)
        check_record(doc, "experiment config", ("model", "algorithm"), [f.name for f in fields])
        if isinstance(doc["model"], dict):
            doc = {**doc, "model": ModelSpec.from_json(doc["model"], "model record")}
        hints = typing.get_type_hints(cls)
        for f in fields:
            if f.name in doc and not _conforms(doc[f.name], hints[f.name]):
                raise SchemaError(f"experiment config: {f.name!r} must be {f.type}, "
                                  f"not {doc[f.name]!r}")
        return cls(**doc)


@dataclass
class TrialResult:
    trial: int
    seed: int
    target: int
    tests: int
    stage1: int
    stage2: int
    informative: int
    correct: bool
    halted: bool
    mu_stage2: float | None = None  # in-memory only; not part of the CSV schema
    error: str | None = None  # repr of the exception the trial raised; empty in the CSV if none


def resolve_model(config: ExperimentConfig) -> tuple[Hypergraph, EdgeDistribution]:
    if isinstance(config.model, str):
        return load_model(config.model)
    return build_model(config.model)


def _adaptive_config(config: ExperimentConfig) -> AdaptiveConfig:
    variant = "base" if config.algorithm == "noisy_adaptive" else config.algorithm
    return AdaptiveConfig(c=config.c, variant=variant, f2=config.f2, eps=config.eps)


def _snagt_config(config: ExperimentConfig, seed: int | None) -> SnagtConfig:
    return SnagtConfig(config.u, config.stop_coeff, config.cap_coeff, seed=seed)


def run_experiment(config: ExperimentConfig,
                   graph: Hypergraph | None = None,
                   dist: EdgeDistribution | None = None) -> list[TrialResult]:
    """Execute config.trials independent trials and collect their records."""
    config.validate()
    if graph is None or dist is None:
        graph, dist = resolve_model(config)

    policy = None
    if config.algorithm == "oracle":
        _, policy = optimal_expected_tests(graph, dist)

    results: list[TrialResult] = []
    for trial in range(config.trials):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
        trial_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
        rng_target, rng_engine, rng_noise = (np.random.default_rng(s) for s in ss.spawn(3))
        truth = sample_truth(graph, dist, rng_target)
        try:
            results.append(_run_one(config, graph, dist, truth, trial, trial_seed,
                                    rng_engine, rng_noise, policy))
        except Exception as exc:  # noqa: BLE001 - failures become records
            results.append(TrialResult(trial, trial_seed, truth.target, 0, 0, 0, 0,
                                       correct=False, halted=True, error=repr(exc)))
    return results


def _run_one(config, graph, dist, truth, trial, trial_seed, rng_engine, rng_noise, policy):
    algorithm = config.algorithm
    channel = NoiseChannel(config.delta)

    if algorithm == "oracle":
        tests, edge = simulate_policy(policy, noiseless_oracle(truth))
        return TrialResult(trial, trial_seed, truth.target, tests, tests, 0, 0,
                           correct=edge == truth.target, halted=False)

    if algorithm in ("base", "truncated", "regular"):
        oracle = noiseless_oracle(truth)
        tr = run_adaptive(graph, dist, oracle, _adaptive_config(config), rng=rng_engine)
    elif algorithm == "snagt":
        oracle = noiseless_oracle(truth)
        tr = run_snagt(graph, dist, oracle, _snagt_config(config, trial_seed))
    elif algorithm == "noisy_adaptive":
        oracle = noisy_oracle(truth, channel, rng_noise)
        tr = run_noisy_adaptive(graph, dist, oracle, _adaptive_config(config), channel,
                                alpha=config.alpha, u=config.u,
                                max_physical_tests=config.max_tests)
    elif algorithm == "noisy_snagt":
        oracle = noisy_oracle(truth, channel, rng_noise)
        tr = run_noisy_snagt(graph, dist, oracle, _snagt_config(config, trial_seed), channel,
                             alpha=config.alpha)
    else:  # pragma: no cover
        raise ValueError(algorithm)

    correct = (not tr.halted) and tr.returned_mask() == truth.mask
    # Trials that never enter stage 2 contribute 0 to the stage-2 budget on
    # both sides of the bound.
    mu_stage2 = tr.mu_stage2 if tr.mu_stage2 is not None else 0.0
    return TrialResult(trial, trial_seed, truth.target, tr.total, tr.stage1, tr.stage2,
                       tr.informative, correct=correct, halted=tr.halted,
                       mu_stage2=mu_stage2)


def write_csv(results: Sequence[TrialResult], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow([r.trial, r.seed, r.target, r.tests, r.stage1, r.stage2,
                             r.informative, int(r.correct), int(r.halted), r.error or ""])


def read_csv(path: str) -> list[TrialResult]:
    """Read a results CSV. The error column may be absent; a missing integer
    column, or a cell of one that is not an integer, raises SchemaError."""
    numeric = CSV_COLUMNS[:-1]
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for key in numeric:
            if key not in (reader.fieldnames or ()):
                raise SchemaError(f"results CSV {path} lacks column {key!r}")
        for i, row in enumerate(reader, 1):
            cells = {}
            for key in numeric:
                try:
                    cells[key] = int(row[key])
                except (TypeError, ValueError):
                    raise SchemaError(f"results CSV {path} row {i} column {key!r} holds "
                                      f"{row[key]!r}, not an integer") from None
            cells["correct"], cells["halted"] = bool(cells["correct"]), bool(cells["halted"])
            out.append(TrialResult(**cells, error=row.get("error") or None))
    return out


# ---------------------------------------------------------------------------
# Summaries


@dataclass
class Moments:
    """Streaming first and second moments."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        self.total_sq += x * x

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        var = (self.total_sq - self.count * self.mean ** 2) / (self.count - 1)
        return math.sqrt(max(var, 0.0) / self.count)


@dataclass
class Summary:
    count: int = 0
    tests: Moments = field(default_factory=Moments)
    stage1: Moments = field(default_factory=Moments)
    stage2: Moments = field(default_factory=Moments)
    mu_stage2: Moments = field(default_factory=Moments)
    wrong: int = 0
    halts: int = 0

    @property
    def error_rate(self) -> float:
        return self.wrong / self.count if self.count else 0.0

    @property
    def halt_rate(self) -> float:
        return self.halts / self.count if self.count else 0.0


def summarize(results: Sequence[TrialResult]) -> Summary:
    if not results:
        raise ValueError("no results to summarize")
    s = Summary()
    for r in results:
        s.count += 1
        s.tests.add(r.tests)
        s.stage1.add(r.stage1)
        s.stage2.add(r.stage2)
        if r.mu_stage2 is not None:
            s.mu_stage2.add(r.mu_stage2)
        s.wrong += 0 if r.correct else 1
        s.halts += 1 if r.halted else 0
    return s


# ---------------------------------------------------------------------------
# Bound conformance


@dataclass
class BoundCheck:
    name: str
    observed: float
    bound: float | None
    slack: float = 0.0
    passed: bool | None = None  # None marks an informational line

    def line(self) -> str:
        if self.passed is None:
            tail = f"(reference {self.bound:.4f})" if self.bound is not None else ""
            return f"  info  {self.name}: {self.observed:.4f} {tail}".rstrip()
        word = "pass" if self.passed else "FAIL"
        return (f"  {word}  {self.name}: observed {self.observed:.4f} "
                f"<= {self.bound:.4f} + {self.slack:.4f}")


@dataclass
class BoundReport:
    entropy: float
    mu: float
    checks: list[BoundCheck]
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_text(self) -> str:
        lines = [f"H(X) = {self.entropy:.5f} bits, mu = {self.mu:.5f}"]
        lines += [c.line() for c in self.checks]
        lines += [f"  note  {n}" for n in self.notes]
        return "\n".join(lines)


def _at_most(name: str, m: Moments, bound: float) -> BoundCheck:
    """Passes when the mean is at most the bound plus three standard errors."""
    slack = 3.0 * m.stderr
    return BoundCheck(name, m.mean, bound, slack, m.mean <= bound + slack)


def check_bounds(graph: Hypergraph, dist: EdgeDistribution,
                 results: Sequence[TrialResult], config: ExperimentConfig) -> BoundReport:
    """Compare observed test counts against the applicable expectation bound
    at three-standard-error slack."""
    if not results or len(results) != config.trials:
        raise MismatchedConfig(
            f"{len(results)} results for a config with trials={config.trials}")
    s = summarize(results)
    entropy = edge_entropy(dist)
    mu = expected_infections(prior_posterior(graph, dist))
    c = config.c
    checks: list[BoundCheck] = []
    notes: list[str] = []

    if config.algorithm in ("base", "regular"):
        if config.delta == 0.0:
            checks.append(BoundCheck("exact recovery", s.error_rate, 0.0,
                                     passed=s.wrong == 0))
        stage1_bound = entropy / math.log2(1.0 / (1.0 - c)) + 1.0
        if s.mu_stage2.count == s.count:
            mu2 = s.mu_stage2.mean
        else:
            mu2 = mu
            notes.append("stage-2 expected infections not recorded; using prior mu "
                         "(an upper bound on its mean)")
        stage2_bound = mu2 / (1.0 - 2.0 * c)
        checks.append(_at_most("stage-1 tests", s.stage1, stage1_bound))
        checks.append(_at_most("stage-2 tests", s.stage2, stage2_bound))
        checks.append(_at_most("total tests", s.tests, stage1_bound + stage2_bound))
        sizes = [int(graph.edge_sizes[i]) for i in range(len(graph)) if dist.probs[i] > 0]
        f1, f2 = min(sizes), max(sizes)
        if f1 >= 1:
            size_bound = stage1_bound + f2 * mu / (f1 * (1.0 - 2.0 * c))
            checks.append(_at_most("total tests (size-band form)", s.tests, size_bound))
        if s.tests.mean > entropy + 3.0 * s.tests.stderr:
            notes.append(f"entropy floor is loose here: mean tests {s.tests.mean:.3f} "
                         f"exceed H(X) = {entropy:.3f}")
    elif config.algorithm == "truncated":
        tail = 2.0 * (mu / config.eps if config.eps else float(config.f2))
        bound = 2.0 * entropy / math.log2(1.0 / (1.0 - c)) + tail
        checks.append(_at_most("total tests", s.tests, bound))
        if config.eps is not None:
            err_slack = 3.0 * math.sqrt(max(config.eps * (1 - config.eps), 1e-12) / s.count)
            checks.append(BoundCheck("error rate", s.error_rate, config.eps, err_slack,
                                     s.error_rate <= config.eps + err_slack))
    elif config.algorithm in ("snagt", "noisy_snagt"):
        scale = config.u * (entropy + math.log2(graph.n))
        checks.append(BoundCheck("tests / [u(H + log2 n)]",
                                 s.tests.mean / scale if scale else 0.0, None))
        checks.append(BoundCheck("recovery rate", 1.0 - s.error_rate, None))
        checks.append(BoundCheck("halt rate", s.halt_rate, None))
    elif config.algorithm == "noisy_adaptive":
        checks.append(BoundCheck("recovery rate", 1.0 - s.error_rate, None))
        checks.append(BoundCheck("halt rate", s.halt_rate, None))
    elif config.algorithm == "oracle":
        value, _ = optimal_expected_tests(graph, dist)
        checks.append(BoundCheck("entropy lower bound vs optimum", entropy, value,
                                 passed=entropy <= value + 1e-9))
        checks.append(BoundCheck("mean simulated tests", s.tests.mean, value))
    return BoundReport(entropy, mu, checks, notes)
