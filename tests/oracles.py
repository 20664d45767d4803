"""Whole-tree readers of the CPG and KG files, the reference the
streamed readers are checked against.

Each reads the whole text with one ``json.loads`` call and names the
first fault of any document: a byte that is no UTF-8, then a syntax
fault, then the format's checks in its order.  They hold the file's
text and its JSON tree at once, so the package reads its files with
``errors.read_rows`` instead.
"""

import json
from pathlib import Path

from binrisk.cpg import CpgGraph, _edge_columns, _node_columns
from binrisk.errors import ParseError, SchemaError, collector_paused, read_json
from binrisk.ssckg import SsckgGraph, _entities, _relations, _ssckg


def loads_tree(text: str) -> CpgGraph:
    """The whole-tree reader, which names the first fault of any document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    try:
        raw_nodes = doc["nodes"]
        raw_edges = doc["edges"]
    except KeyError as exc:
        raise SchemaError(f"document is missing required field {exc}") from None
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise SchemaError("document 'nodes' and 'edges' must be lists")
    interned: dict[str, str] = {}
    return CpgGraph._from_columns(doc.get("binary_id", ""), _node_columns(raw_nodes, 0, interned),
                                  _edge_columns(raw_edges, 0, interned))


def load_cpg_tree(path: str | Path) -> CpgGraph:
    """``load_cpg`` through the whole-tree reader."""
    path = Path(path)
    try:
        with collector_paused():
            return loads_tree(path.read_text(encoding="utf-8"))
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"CPG file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"CPG file {path}: not valid JSON: {exc}") from None


def _ssckg_from_doc(doc) -> SsckgGraph:
    """The whole-tree reader, which names the first fault of any document."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    return _ssckg(_entities(_rows(doc, "entities")), _relations(_rows(doc, "relations")), doc)


def _rows(doc, key: str) -> list:
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise SchemaError(f"'{key}' must be a list")
    return rows


def load_ssckg_tree(path: str | Path) -> SsckgGraph:
    """``load_ssckg`` through the whole-tree reader."""
    try:
        with collector_paused():
            return _ssckg_from_doc(read_json(path, "KG file"))
    except SchemaError as exc:
        raise SchemaError(f"KG file {path}: {exc}") from None
