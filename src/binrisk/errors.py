"""Exception types shared across the library, and the JSON file format.

Everything raised on purpose derives from BinriskError so callers can
catch one base class at the CLI boundary.

``read_json`` reads a JSON file whole and ``dumps_json`` is the one
JSON writer.  Every JSON file the package writes, and every summary the
CLI prints, has the canonical byte form ``dumps_json`` produces:
two-space indent, sorted keys, non-ASCII text as ``\\u`` escapes and a
trailing newline, so identical documents always give identical bytes.
The writers of the large files (CPG, knowledge graph, embeddings) yield
the same text in chunks, list items a block at a time, through
``json_value`` and ``json_chunks``.

The two large inputs (CPG, knowledge graph) are read by ``read_rows``,
which walks the top-level object through a window of the text and
hands each of its large arrays to a converter a chunk of rows at a
time, so neither the whole text nor its JSON tree is held.  The
converter is the one its format has for that array, which the
whole-tree reader and the row constructor use too.  ``read_rows`` takes
only well-formed text: anything else, a converter's error included,
raises ``_WholeTree``, and the caller reads the file again whole, whose
error names the first fault.  JSON nested deeper than the decoder
recurses is a ParseError like any other text that is no JSON.
"""

import gc
import json
import re
from contextlib import contextmanager
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from pathlib import Path
from typing import Callable, Iterator, Mapping, NoReturn, TextIO


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
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from None


_CHUNK = 1 << 18  # characters read from a file at a time, and of rows per json.loads call
_SCAN = make_scanner(json.JSONDecoder())
# A row that ends before the next row of its array starts, and the first
# row that ends its array (unless a string holds the same characters).
_ROW_END = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*(?=\{)")
_LAST_ROW_END = re.compile(r"\}[ \t\n\r]*\]")


class _WholeTree(Exception):
    """The streamed reader met text that only the whole-tree reader takes."""


def _whole_tree() -> NoReturn:
    raise _WholeTree


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector while a file is parsed.

    Parsing builds no reference cycles, so the collector would only
    rescan the rows built so far, again and again as they grow.
    """
    collect = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collect:
            gc.enable()


def _scan_key(text: str, pos: int) -> tuple[str, int]:
    return scanstring(text, pos + 1)


class _Window:
    """The text of a source, a str or a text file read ``_CHUNK``
    characters at a time.  ``text[pos:]`` has been read but not walked;
    reading more drops the text before pos."""

    def __init__(self, source: str | TextIO):
        self.read = None if isinstance(source, str) else source.read
        self.text = source if self.read is None else ""
        self.pos = 0

    def more(self, size: int = 0) -> bool:
        """Read at least ``_CHUNK`` and at least size more characters;
        False at the end of the source."""
        chunk = self.read(max(size, _CHUNK)) if self.read else ""
        if not chunk:
            self.read = None
            return False
        self.text = self.text[self.pos:] + chunk
        self.pos = 0
        return True

    def peek(self) -> str:
        """Skip whitespace: the next character, or "" at the end."""
        while True:
            self.pos = WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos:self.pos + 1]

    def value(self, scan: Callable):
        """The value ``scan(text, pos)`` reads at pos, once the window
        holds all of it (a number cut at the window's end looks whole)."""
        while True:
            try:
                value, end = scan(self.text, self.pos)
            except (StopIteration, ValueError):
                end = None
            if end is not None and (end < len(self.text) or self.read is None):
                self.pos = end
                return value
            # Doubling the window reads a long value in linear time.
            if not self.more(len(self.text) - self.pos):
                _whole_tree()

    def rows(self, convert: Callable[[list], object]) -> list:
        """convert(rows) of each chunk of rows of the array at pos, in order."""
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return [convert([])]
        parts = []
        while True:
            text, pos = self.text, self.pos
            # One search per window: the text before pos holds no row end.
            last = _LAST_ROW_END.search(text, pos)
            stop = last.start() + 1 if last else len(text)
            while True:
                cut = _ROW_END.search(text, pos + _CHUNK, stop)
                if cut is None and last is None:
                    break
                end = cut.start() + 1 if cut else stop
                try:
                    parts.append(convert(json.loads("[" + text[pos:end] + "]")))
                except Exception:  # any fault: the whole-tree reader is the one to name it
                    _whole_tree()
                if cut is None:
                    self.pos = last.end()
                    return parts
                pos = cut.end()
            self.pos = pos
            if not self.more(len(text) - pos):
                _whole_tree()


def read_rows(source: str | TextIO,
              arrays: Mapping[str, tuple[Callable, Callable]]) -> tuple[dict, dict]:
    """Walk the JSON object that is all of source, a str or a text file.

    ``arrays`` maps a key to a pair ``(convert, join)``.  Returns the
    object's other values (for a repeated key, the last one, as
    ``json.loads`` keeps them), and the array of each key of ``arrays``
    as ``join(parts)``, where parts holds ``convert(rows)`` for each chunk
    of the array's rows, in order (an empty array is one empty chunk).

    A chunk is about ``_CHUNK`` characters of whole rows, decoded by one
    ``json.loads`` call.  It is cut only before a row's opening brace, and
    a cut inside a string or a nested value leaves invalid JSON, so a
    chunk that decodes was cut between rows.  The window holds about two
    chunks of the text, and each array is joined as soon as it ends.

    Raises _WholeTree on anything else: text that is not valid JSON, a
    BOM or text after the object, a key of ``arrays`` that is missing or
    holds no array of objects, a converter that raises, or a string that
    holds the characters an array is cut at.
    """
    if not isinstance(source, str) and not hasattr(source, "read"):
        _whole_tree()  # bytes, which json.loads also takes
    window = _Window(source)
    doc, arrays_read = {}, {}
    try:
        if window.peek() != "{":
            _whole_tree()
        window.pos += 1
        while True:
            if window.peek() != '"':
                _whole_tree()
            key = window.value(_scan_key)
            if window.peek() != ":":
                _whole_tree()
            window.pos += 1
            if key in arrays and window.peek() == "[":
                convert, join = arrays[key]
                arrays_read[key] = join(window.rows(convert))
            else:
                arrays_read.pop(key, None)
                window.peek()
                doc[key] = window.value(_SCAN)
            mark = window.peek()
            window.pos += 1
            if mark == "}":
                break
            if mark != ",":
                _whole_tree()
        tail = window.peek()
    except (StopIteration, ValueError, RecursionError):  # ValueError covers a UnicodeDecodeError
        _whole_tree()
    if tail or arrays_read.keys() != arrays.keys():
        _whole_tree()
    return doc, arrays_read


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
