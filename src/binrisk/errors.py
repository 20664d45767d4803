"""Exception types shared across the library, and the JSON file format.

Everything raised on purpose derives from BinriskError so callers can
catch one base class at the CLI boundary.

``read_json`` is the one JSON file reader and ``dumps_json`` the one
JSON writer.  Every JSON file the package writes, and every summary the
CLI prints, has the canonical byte form ``dumps_json`` produces:
two-space indent, sorted keys, non-ASCII text as ``\\u`` escapes and a
trailing newline, so identical documents always give identical bytes.
The writers of the large files (CPG, knowledge graph, embeddings) yield
the same text in chunks, list items a block at a time, through
``json_value`` and ``json_chunks``.
"""

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator


class BinriskError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BinriskError):
    """Input file is not syntactically valid (bad JSON, bad JSONL line)."""


class SchemaError(BinriskError):
    """Input parsed but violates the documented schema."""


class UnknownNode(BinriskError):
    """A claim or edge references a node id absent from the graph."""


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


def read_json(path: str | Path, what: str):
    """Parse a JSON input file; malformed text raises ParseError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from None


def dumps_json(doc) -> str:
    """Canonical JSON text of doc, with a trailing newline.

    Equal byte for byte to ``json.dumps(doc, indent=2, sort_keys=True)
    + "\\n"``, which with an indent runs the standard library's pure
    Python encoder, one generator per value.  Here each container is
    joined in one call, and a list of floats (every vector) is formatted
    by ``float.__repr__`` alone.
    """
    return _encode(doc, "\n") + "\n"


def json_value(value, depth: int) -> str:
    """The text ``dumps_json`` writes for value nested depth levels deep,
    less the indent of the line it starts on."""
    return _encode(value, "\n" + "  " * depth)


def json_chunks(items: Callable[[int, int], list[str]], count: int, block: int,
                depth: int, brackets: str = "[]") -> Iterator[str]:
    """Chunks of the text of a list (or, with brackets "{}", an object) of
    count items nested depth levels deep, which join into what
    ``dumps_json`` writes.

    ``items(lo, hi)`` gives the text of items lo to hi - 1, each without
    the indent of its first line (an object's item is ``"key": value``);
    it is called for one block of at most ``block`` items per chunk.
    """
    if not count:
        yield brackets
        return
    inner = "\n" + "  " * (depth + 1)
    for lo in range(0, count, block):
        yield ("," if lo else brackets[0]) + inner + ("," + inner).join(
            items(lo, min(lo + block, count)))
    yield "\n" + "  " * depth + brackets[1]


def _encode(value, newline: str) -> str:
    # newline is "\n" plus the indent of the line value starts on; the
    # checks run in the standard encoder's order, so a str-valued Enum
    # member is written as its string and a bool is not taken for an int.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = "," + inner
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:  # an item is not a float
            body = None
        if body is None or "n" in body:  # only nan and inf have an "n" in their repr
            body = sep.join([_encode(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            item = value[key]
            # Rows are mostly ints and strings: write those without a call.
            if type(item) is int:
                text = int.__repr__(item)
            elif isinstance(item, str):
                text = encode_basestring_ascii(item)
            else:
                text = _encode(item, inner)
            name = encode_basestring_ascii(key) if isinstance(key, str) else _key(key)
            items.append(name + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == -float("inf"):
        return "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    # A key that is not a string, spelled as the standard encoder does.
    if isinstance(key, float):
        return encode_basestring_ascii(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
