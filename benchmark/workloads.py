"""The benchmark's four workloads.

Each workload is what a user would put in an experiment config: a model spec
and the engine settings. The benchmark adds how many trials one
`run_experiment` call makes (a batch) and how many batches every run makes
at least; the quality metrics are taken over exactly those first batches, so
they are a pure function of the seed.

See README.md in this directory for why each workload exists and which layer
it loads.
"""

from __future__ import annotations

from dataclasses import dataclass

# base on community: n=12, every one of the 4096 subsets is an edge.
DENSE_MODEL = {"family": "community",
               "params": {"sizes": [3, 3, 3, 3], "q": 0.3, "p": [0.5] * 4}}
# 5000 distinct 3-node edges over 500 nodes, uniform mass.
SPARSE_MODEL = {"family": "random_regular",
                "params": {"n": 500, "d": 3, "count": 5000, "seed": 0}}


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict  # ModelSpec family and params
    engine: dict  # the ExperimentConfig fields that pick and tune the engine
    batch_trials: int  # trials per run_experiment call
    min_batches: int  # batches every run makes; quality metrics use exactly these
    zero_error: bool  # a wrong or halted trial counts as failed


WORKLOADS = {w.name: w for w in (
    Workload("dense12", DENSE_MODEL, {"algorithm": "base"},
             batch_trials=100, min_batches=12, zero_error=True),
    Workload("sparse500", SPARSE_MODEL, {"algorithm": "base"},
             batch_trials=4, min_batches=12, zero_error=True),
    Workload("preplanned500", SPARSE_MODEL, {"algorithm": "snagt", "u": 4},
             batch_trials=5, min_batches=12, zero_error=True),
    Workload("noisy12", DENSE_MODEL,
             {"algorithm": "noisy_adaptive", "delta": 0.05, "max_tests": 2000},
             batch_trials=20, min_batches=24, zero_error=False),
)}

DEFAULT_SEED = 0
# Never used while tuning the benchmark or a change; confirm gains on it.
HELDOUT_SEED = 104729
