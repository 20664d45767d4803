"""The JSON file format: one reader and one writer.

``read_json`` reads a small JSON file whole and ``dumps_json`` is the one
JSON writer.  Every JSON file the package writes, and every summary the
CLI prints, has the canonical byte form ``dumps_json`` produces:
two-space indent, sorted keys, non-ASCII text as ``\\u`` escapes and a
trailing newline, so identical documents always give identical bytes.
The writers of the large files (CPG, knowledge graph, embeddings) yield
the same text in chunks, list items a block at a time, through
``json_chunks``; their row templates, lists and top-level objects come
from ``json_object``, ``json_list`` and ``json_value``.

The two large inputs (CPG, knowledge graph) are read by ``read_rows``,
which walks the top-level object through a window of the text and
hands each of its large arrays to a converter a chunk of rows at a
time, so neither the whole text nor its JSON tree is held.  The
converter is the one its format has for that array, which the row
constructor uses too.  ``read_rows`` is the only reader of those files,
faulty or not: a chunk that does not decode is scanned again one row at
a time, a syntax fault raises the error ``json.loads`` would give for
the whole text, and a converter's error is held until the rest of the
text has been decoded, so that a syntax fault further on comes first.
JSON nested deeper than the decoder recurses is a ParseError like any
other text that is no JSON.
"""

import codecs
import gc
import json
import re
from contextlib import contextmanager
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, TextIO

from .errors import BinriskError, ParseError, SchemaError


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
# How far past the end of a value or fault the scanner may have looked.
_LOOKAHEAD = 16


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
    characters at a time (``io.StringIO`` would hold a str again, at four
    bytes a character).  ``text[pos:]`` has been read but not walked;
    reading more drops the text before pos, keeping its length
    (``start``), its newlines and where its last line starts, so that a
    fault is named by its place in the whole text."""

    def __init__(self, source: str | TextIO):
        self.read = None if isinstance(source, str) else source.read
        self.text = source if self.read is None else ""
        self.pos = self.start = self.lines = self.line_start = 0

    def more(self, size: int = 0) -> bool:
        """Read at least ``_CHUNK`` and at least size more characters;
        False at the end of the source."""
        chunk = self.read(max(size, _CHUNK)) if self.read else ""
        if not chunk:
            self.read = None
            return False
        text, pos = self.text, self.pos
        self.lines += text.count("\n", 0, pos)
        if (newline := text.rfind("\n", 0, pos)) >= 0:
            self.line_start = self.start + newline + 1
        self.start += pos
        self.text, self.pos = text[pos:] + chunk, 0
        return True

    def error(self, message: str, pos: int) -> ValueError:
        """The error ``json.loads`` gives the whole text for a fault at pos."""
        line = self.lines + self.text.count("\n", 0, pos) + 1
        newline = self.text.rfind("\n", 0, pos)
        column = pos - newline if newline >= 0 else self.start + pos - self.line_start + 1
        return ValueError(f"{message}: line {line} column {column} (char {self.start + pos})")

    def peek(self) -> str:
        """Skip whitespace: the next character, or "" at the end."""
        while True:
            self.pos = WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos:self.pos + 1]

    def expect(self, mark: str, message: str) -> None:
        """Step past mark, the next character, or raise message."""
        if self.peek() != mark:
            raise self.error(message, self.pos)
        self.pos += 1

    def value(self, scan: Callable):
        """The value ``scan(text, pos)`` reads at pos, once the window
        holds all of it and what the scanner looks at past it; a fault
        raises the error ``json.loads`` names it by."""
        while True:
            fault = None
            try:
                value, end = scan(self.text, self.pos)
            except StopIteration as exc:
                fault, end = "Expecting value", exc.value
            except json.JSONDecodeError as exc:
                fault, end = exc.msg, exc.pos
            if self.read is None or (end + _LOOKAHEAD < len(self.text) and not (
                    fault or "").startswith("Unterminated")):
                if fault:
                    raise self.error(fault, end)
                self.pos = end
                return value
            self.more(len(self.text) - self.pos)  # doubling: linear in a long value

    def rows(self, take: Callable[[list], None]) -> None:
        """take(rows) for each chunk of rows of the array at pos, in order
        (an empty array is one empty chunk)."""
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return take([])
        while True:
            text, pos = self.text, self.pos
            # One search per window: the text before pos holds no row end.
            last = _LAST_ROW_END.search(text, pos)
            stop = last.start() + 1 if last else len(text)
            while True:
                cut = _ROW_END.search(text, pos + _CHUNK, stop)
                if cut is None and last is None:  # no row ends in the window
                    self.pos = pos
                    if len(text) - pos > 2 * _CHUNK:  # rows that are no objects, or a long one
                        if self.walk(take, self.start + len(text)):
                            return
                    elif not self.more(len(text) - pos):
                        self.walk(take, None)
                        return
                    break
                end = cut.start() + 1 if cut else stop
                try:
                    rows = json.loads("[" + text[pos:end] + "]")
                except (ValueError, RecursionError):  # a fault, or not cut between rows
                    self.pos = pos
                    # Scan at least a chunk's worth: a part per row costs more than its rows.
                    if self.walk(take, self.start + max(end, pos + _CHUNK)):
                        return
                    break
                take(rows)
                del rows
                if cut is None:
                    self.pos = last.end()
                    return
                pos = cut.end()

    def walk(self, take: Callable[[list], None], until: int | None) -> bool:
        """take(rows) of the rows from pos, scanned one at a time as
        ``json.loads`` scans an array, up to the first comma at or past
        offset until (None: the array's end); True if the array ended."""
        rows = []
        while True:
            self.peek()
            rows.append(self.value(_SCAN))
            mark = self.peek()
            if mark == "]" or (mark == "," and until is not None
                               and self.start + self.pos >= until):
                self.pos += 1
                take(rows)
                return mark == "]"
            self.expect(",", "Expecting ',' delimiter")


def read_rows(source: str | TextIO,
              arrays: Mapping[str, tuple[Callable, Callable]]) -> tuple[dict, dict]:
    """Walk the JSON object that is all of source, a str or a text file.

    ``arrays`` maps a key to a pair ``(convert, join)``.  Returns the
    object's other values, with each key of ``arrays`` whose value is no
    array (for a repeated key, the last one, as ``json.loads`` keeps
    them), and the value of each key of ``arrays`` that is an array:
    ``join(parts)``, where parts holds ``convert(rows, start)`` for each
    chunk of its rows, start being the index of the chunk's first row,
    or the first error convert raised, after which the rows are decoded
    but not converted.  Each caller decides what a missing array means.

    A chunk is about ``_CHUNK`` characters of whole rows, decoded by one
    ``json.loads`` call.  It is cut only before a row's opening brace, and
    a cut inside a string or a nested value leaves invalid JSON, so a
    chunk that decodes was cut between rows; one that does not (a fault,
    a string holding the characters cut at) is scanned one row at a time.
    The window holds about two chunks of the text, and each array is
    joined as soon as it ends.

    Text ``json.loads`` would not take raises the ValueError or
    RecursionError it would raise for the whole file: a byte that is no
    UTF-8, then a BOM, then the first fault.  Valid JSON that is no
    object raises SchemaError.
    """
    window = _Window(source)
    try:
        try:
            return _read_object(window, arrays)
        except (ValueError, RecursionError) as exc:
            while not isinstance(exc, UnicodeDecodeError) and window.read and window.read(_CHUNK):
                pass  # a byte that is no UTF-8 further on comes first
            raise
    except UnicodeDecodeError as exc:
        raise ValueError(_undecodable(source.buffer, exc)) from None


def _read_object(window: _Window, arrays: Mapping[str, tuple[Callable, Callable]]) -> tuple:
    window.more()
    if window.text.startswith("\ufeff"):
        raise window.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    doc, read = {}, {}
    if (mark := window.peek()) != "{":
        if mark == "[":
            window.rows(lambda rows: None)
        else:
            window.value(_SCAN)
        if window.peek():
            raise window.error("Extra data", window.pos)
        raise SchemaError("top-level document must be an object")
    window.pos += 1
    mark = "}" if window.peek() == "}" else ","
    while mark == ",":
        if window.peek() != '"':
            raise window.error("Expecting property name enclosed in double quotes", window.pos)
        key = window.value(_scan_key)
        window.expect(":", "Expecting ':' delimiter")
        doc.pop(key, None)  # the last copy of a key counts
        read.pop(key, None)
        if key in arrays and window.peek() == "[":
            read[key] = _converted(window, *arrays[key])
        else:
            window.peek()
            doc[key] = window.value(_SCAN)
        if (mark := window.peek()) != "}":
            window.expect(",", "Expecting ',' delimiter")
    window.pos += 1
    if window.peek():
        raise window.error("Extra data", window.pos)
    return doc, read


def _converted(window: _Window, convert: Callable, join: Callable) -> object | BinriskError:
    """join(parts) of the array at the window's pos, or the first error
    convert raised, held while the rest is decoded: a syntax fault comes
    first."""
    parts, start = [], 0

    def take(rows: list) -> None:
        nonlocal parts, start
        if isinstance(parts, list):
            try:
                parts.append(convert(rows, start))
            except BinriskError as exc:
                parts = exc
        start += len(rows)

    window.rows(take)
    return join(parts) if isinstance(parts, list) else parts


def _undecodable(raw: BinaryIO, found: UnicodeDecodeError) -> str:
    """The message of the UnicodeDecodeError that decoding all of the
    binary file raw as UTF-8 raises, found a block at a time (or that of
    found, which reading the file raised, if it decodes now)."""
    raw.seek(0)
    decoder, done = codecs.getincrementaldecoder("utf-8")(), 0
    while True:
        block = raw.read(_CHUNK)
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            shift = done - len(exc.object) + len(block)  # exc.object holds the cut bytes before
            start, end = exc.start + shift, exc.end + shift
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                     if end == start + 1 else f"bytes in position {start}-{end - 1}")
            return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"
        if not block:
            return str(found)
        done += len(block)


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


def json_list(items: list[str], depth: int) -> str:
    """The text ``dumps_json`` writes for a list of the item texts items
    nested depth levels deep, less the indent of the line it starts on."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def json_object(fields: Mapping[str, str | Iterable[str]], depth: int) -> Iterator[str]:
    """Chunks of the text ``dumps_json`` writes for an object nested depth
    levels deep, less the indent of the line it starts on, whose value
    at each key is the text fields[key], or an iterable of its chunks.

    The keys are sorted: given %-format conversions for values, the
    joined text is a row template that takes its values in key order.
    """
    inner = "\n" + "  " * (depth + 1)
    for i, key in enumerate(sorted(fields)):
        yield ("," if i else "{") + inner + encode_basestring_ascii(key) + ": "
        yield from (fields[key],) if isinstance(fields[key], str) else fields[key]
    yield "\n" + "  " * depth + "}" if fields else "{}"


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
