"""Group testing on correlated populations.

Candidate infected sets are hyperedges with a probability mass function; one
edge is realized and group tests narrow the posterior until it is identified.
"""

from .adaptive import AdaptiveConfig, find_split_set, run_adaptive
from .builders import ModelSpec, build_model
from .errors import (
    DuplicateEdge,
    EmptySupport,
    InvariantViolation,
    MismatchedConfig,
    ModelError,
    NegativeProbability,
    NodeOutOfRange,
    NotNormalized,
    NotRegular,
    OracleInconsistent,
    ProbabilityOutOfRange,
    SchemaError,
    SupportTooLarge,
    TooLarge,
    ZeroSurvivorMass,
)
from .harness import ExperimentConfig, TrialResult, check_bounds, run_experiment, summarize
from .model import (
    EdgeDistribution,
    GroundTruth,
    Hypergraph,
    Posterior,
    certain_edge,
    condition_on_test,
    edge_entropy,
    expected_infections,
    load_model,
    node_marginals,
    noiseless_oracle,
    prior_posterior,
    sample_truth,
    save_model,
    validate_model,
)
from .noisy import (
    NoiseChannel,
    bayes_update_noisy,
    noisy_oracle,
    repetitions,
    run_noisy_adaptive,
    run_noisy_snagt,
)
from .oracle import direct_posterior, optimal_expected_tests, run_policy
from .snagt import SnagtConfig, random_test_set, run_snagt
from .transcript import Transcript

__all__ = [name for name in dir() if not name.startswith("_")]
