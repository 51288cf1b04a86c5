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
    prior_posterior,
    sample_truth,
)
from .noisy import (
    NoiseChannel,
    _adaptive_repetitions,
    _check_budget,
    noisy_oracle,
    repetitions,
    run_noisy_adaptive,
    run_noisy_snagt,
)
from .oracle import optimal_expected_tests, run_policy
from .snagt import SnagtConfig, run_snagt

# The engine settings each algorithm reads. Any other must keep its default.
READS = {
    "base": ("c",),
    "truncated": ("c", "f2", "eps"),
    "regular": ("c",),
    "snagt": ("u", "stop_coeff", "cap_coeff"),
    "noisy_adaptive": ("c", "u", "delta", "alpha", "max_tests"),
    "noisy_snagt": ("u", "stop_coeff", "cap_coeff", "delta", "alpha"),
    "oracle": (),
}
ALGORITHMS = tuple(READS)
CSV_COLUMNS = ("trial", "seed", "target", "tests", "stage1", "stage2", "informative", "correct",
               "halted", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings; SchemaError when built with a value of the
    wrong type, an engine setting no trial can run with, or a setting off its
    default that the algorithm does not read (see READS)."""

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

    def __post_init__(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            if not _conforms(getattr(self, f.name), hints[f.name]):
                raise SchemaError(f"experiment config: {f.name!r} must be {f.type}, "
                                  f"not {getattr(self, f.name)!r}")
        if self.trials < 1:
            raise SchemaError("experiment config: trials must be >= 1")
        if self.seed < 0:
            raise SchemaError(f"experiment config: seed={self.seed} must be >= 0")
        _engine(self)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)  # a ModelSpec becomes its {family, params} record

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Parse a config record; SchemaError for a missing or unknown key,
        and from the constructor for a value of the wrong type."""
        check_record(doc, "experiment config", ("model", "algorithm"),
                     [f.name for f in dataclasses.fields(cls)])
        if isinstance(doc["model"], dict):
            doc = {**doc, "model": ModelSpec.from_json(doc["model"], "model record")}
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


def _engine(config: ExperimentConfig, graph: Hypergraph | None = None,
            dist: EdgeDistribution | None = None):
    """Check the engine settings of config against READS, and at the model's
    n once graph is given; SchemaError for any no trial can run with. With
    dist too, return the runner of one trial, run(truth, seed, rng_engine,
    rng_noise) -> Transcript; the oracle's policy is searched here, once per
    model."""
    algorithm, u = config.algorithm, config.u
    try:
        if algorithm not in READS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        channel = NoiseChannel(config.delta)
        for f in dataclasses.fields(config):
            readers = [a for a, row in READS.items() if f.name in row]
            if readers and algorithm not in readers and getattr(config, f.name) != f.default:
                raise ValueError(f"{f.name}={getattr(config, f.name)} applies only to "
                                 + " and ".join(", ".join(readers).rsplit(", ", 1)))
        repetitions(config.alpha, 2.0, config.delta)
        if algorithm in ("snagt", "noisy_snagt"):
            if u is None:
                raise ValueError(f"{algorithm} needs u")
            snagt = SnagtConfig(u, config.stop_coeff, config.cap_coeff)
            if graph is not None:
                snagt._threshold_and_cap(graph.n)
                repetitions(config.alpha, u * graph.n, config.delta)
        elif algorithm != "oracle":
            _check_budget(u, config.max_tests)
            adaptive = AdaptiveConfig(config.c, "base" if algorithm == "noisy_adaptive"
                                      else algorithm, config.f2, config.eps)
            if algorithm == "noisy_adaptive" and graph is not None:
                _adaptive_repetitions(graph.n, u, config.alpha, config.delta)
    except ValueError as exc:
        raise SchemaError(f"experiment config: {exc}") from None
    if dist is None:
        return None
    policy = optimal_expected_tests(graph, dist)[1] if algorithm == "oracle" else None

    # The engines are looked up by their module names on every call, so a
    # rebinding of those names (as tracing does) takes effect. At delta = 0
    # the noisy oracle answers truthfully and draws nothing.
    def run(truth, seed, rng_engine, rng_noise):
        oracle = noisy_oracle(truth, channel, rng_noise)
        if algorithm == "oracle":
            return run_policy(graph, policy, oracle)
        if algorithm == "noisy_adaptive":
            return run_noisy_adaptive(graph, dist, oracle, adaptive, channel, alpha=config.alpha,
                                      u=u, max_physical_tests=config.max_tests)
        if algorithm == "snagt":
            return run_snagt(graph, dist, oracle, dataclasses.replace(snagt, seed=seed))
        if algorithm == "noisy_snagt":
            return run_noisy_snagt(graph, dist, oracle, dataclasses.replace(snagt, seed=seed),
                                   channel, alpha=config.alpha)
        return run_adaptive(graph, dist, oracle, adaptive, rng=rng_engine)

    return run


def run_experiment(config: ExperimentConfig,
                   graph: Hypergraph | None = None,
                   dist: EdgeDistribution | None = None) -> list[TrialResult]:
    """Execute config.trials independent trials and collect their records."""
    if graph is None or dist is None:
        graph, dist = resolve_model(config)
    run = _engine(config, graph, dist)

    results: list[TrialResult] = []
    for trial in range(config.trials):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
        trial_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
        rng_target, rng_engine, rng_noise = (np.random.default_rng(s) for s in ss.spawn(3))
        truth = sample_truth(graph, dist, rng_target)
        try:
            tr = run(truth, trial_seed, rng_engine, rng_noise)
        except Exception as exc:  # noqa: BLE001 - failures become records
            results.append(TrialResult(trial, trial_seed, truth.target, 0, 0, 0, 0,
                                       correct=False, halted=True, error=repr(exc)))
            continue
        # Trials that never enter stage 2 contribute 0 to the stage-2 budget on
        # both sides of the bound.
        mu_stage2 = tr.mu_stage2 if tr.mu_stage2 is not None else 0.0
        results.append(TrialResult(trial, trial_seed, truth.target, tr.total, tr.stage1,
                                   tr.stage2, tr.informative,
                                   correct=not tr.halted and tr.returned_mask() == truth.mask,
                                   halted=tr.halted, mu_stage2=mu_stage2))
    return results


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
    errors: dict[str, int] = field(default_factory=dict)  # trials that raised, by exception type

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
        if r.error is not None:
            kind = r.error.split("(", 1)[0]  # the class name of the exception's repr
            s.errors[kind] = s.errors.get(kind, 0) + 1
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
    at three-standard-error slack; SchemaError for a config no run accepts
    at the model's n."""
    _engine(config, graph)
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
        checks.append(BoundCheck("exact recovery", s.error_rate, 0.0, passed=s.wrong == 0))
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
        sizes = graph.edge_sizes[dist.probs > 0]
        f1, f2 = int(sizes.min()), int(sizes.max())
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
