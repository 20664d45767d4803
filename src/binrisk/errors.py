"""Exception types shared across the library: everything raised on
purpose derives from BinriskError, so callers can catch one base class
at the CLI boundary."""


class BinriskError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BinriskError):
    """Input file is not syntactically valid (bad JSON, bad JSONL line)."""


class SchemaError(BinriskError):
    """Input parsed but violates the documented schema."""


class UnknownFunction(BinriskError):
    """A function id does not occur in the graph."""


class UnknownLabel(BinriskError):
    """A label path is not a member of the lattice."""


class EmptyGoldenSet(BinriskError):
    """Violation-rate computation received zero records."""


class AnnotatorFailure(BinriskError):
    """An annotator raised or an external annotator misbehaved."""

    def __init__(self, function_id, message: str = ""):
        self.function_id = function_id
        super().__init__(f"annotator failed on function {function_id}: {message}")


class MissingAnnotation(BinriskError):
    """A replay file has no entry for the requested function."""


class InvalidRule(BinriskError):
    """A rule table entry is malformed or names an unknown label."""


class MissingEmbedding(BinriskError):
    """A file-backed embedding provider has no entry for the key."""


class DimensionMismatch(BinriskError):
    """Vectors of different lengths were combined."""


class ZeroVector(BinriskError):
    """Cosine similarity is undefined for a zero-norm vector."""


class ConfigError(BinriskError):
    """A configuration value is out of range or inconsistent."""


class ShapeMismatch(BinriskError):
    """A tensor does not have the shape the model configuration implies."""


class EmptyGraph(BinriskError):
    """The operation needs at least one entity."""


class VersionMismatch(BinriskError):
    """A weight file was written by an incompatible container version."""


class CorruptFile(BinriskError):
    """A weight file is truncated or otherwise unreadable."""


class NonConvergence(BinriskError):
    """Iterative scoring exhausted its iteration budget."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class EmptyTarget(BinriskError):
    """Similarity against an empty target embedding set is undefined."""


class SingleClassInput(BinriskError):
    """Threshold selection needs both benign and malicious examples."""


class LengthMismatch(BinriskError):
    """Parallel sequences have different lengths."""

