"""Exception types shared across the package."""


class ModelError(ValueError):
    """Base class for invalid hypergraph/distribution inputs."""


class NegativeProbability(ModelError):
    pass


class NotNormalized(ModelError):
    pass


class DuplicateEdge(ModelError):
    pass


class NodeOutOfRange(ModelError):
    pass


class ZeroSurvivorMass(RuntimeError):
    """A noiseless observation is inconsistent with every surviving edge."""


class OracleInconsistent(ZeroSurvivorMass):
    """A noiseless transcript zeroed out all posterior mass mid-run."""


class EmptySupport(ModelError):
    pass


class SchemaError(ModelError):
    """A model or config record is malformed: a key is missing or unknown, a
    value has the wrong type, or an experiment setting no engine accepts."""


class SupportTooLarge(ModelError):
    pass


class ProbabilityOutOfRange(ModelError):
    """A builder's probability parameter lies outside [0, 1]."""


class TooLarge(ValueError):
    """Instance exceeds the brute-force oracle's feasibility limits."""


class InvariantViolation(RuntimeError):
    """An invariant the adaptive analysis relies on failed mid-run."""


class NotRegular(RuntimeError):
    """Surviving edges differ in size where the regular variant needs them equal."""


class MismatchedConfig(ValueError):
    """Results do not correspond to the supplied experiment config."""
