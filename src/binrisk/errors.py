"""Exception types shared across the library: everything raised on
purpose derives from BinriskError, so callers can catch one base class
at the CLI boundary.  One class per kind of fault:

- ParseError: text or an archive that is not its format (bad JSON, a
  bad JSONL line, a weight file numpy cannot open).
- SchemaError: input content that breaks its rules, whether a file, an
  argument or an in-memory object (a missing field, a wrong type, an
  empty or mismatched input).
- ConfigError: a setting out of range, raised where the setting is
  checked.
- AnnotatorFailure and NonConvergence carry fields callers read.
"""


class BinriskError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BinriskError):
    """Input is not syntactically valid for its format."""


class SchemaError(BinriskError):
    """Input parsed but breaks its documented rules."""


class ConfigError(BinriskError):
    """A configuration value is out of range or inconsistent."""


class AnnotatorFailure(BinriskError):
    """An annotator raised or an external annotator misbehaved."""

    def __init__(self, function_id, message: str = ""):
        self.function_id = function_id
        super().__init__(f"annotator failed on function {function_id}: {message}")


class NonConvergence(BinriskError):
    """Iterative scoring exhausted its iteration budget."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
