"""Code property graph loading, validation, and traversal primitives.

The exchange format is plain JSON:

    {
      "binary_id": "pump_ctrl_v2",
      "nodes": [{"id": 0, "kind": "Instruction", "opcode": "entry",
                 "function_id": 0, "block_id": 0, "attrs": {}}, ...],
      "edges": [{"src": 0, "dst": 1, "kind": "Cfg", "label": ""}, ...]
    }

Node kinds are Instruction/Call/Param/Return/Literal; edge kinds are
Ast/Cfg/Pdg.  Ids (``id``, ``function_id``, ``block_id``, ``src``,
``dst``) are signed 64-bit integers; a boolean is not an id.
``opcode`` and ``attrs`` are optional, since stripped binaries often
provide neither.  Edges form a multigraph: parallel edges with distinct
kinds or labels are meaningful and preserved.

Well-known attrs keys (all values are strings):

    callee         name of the called routine, on Call nodes
    function_name  human-readable routine name, usually on entry nodes
    external       "true" when the routine is externally linked or cross-module

A graph is stored as columns, not as one object per node or edge.  The
node columns are in id order: int64 arrays ``node_id``,
``node_function``, ``node_block`` and ``node_kind`` (a code into
``NODE_KINDS``), the list ``opcode``, and ``attrs``, a dict from row to
attrs holding only the rows that set some.  The edge columns are in
(src, dst, kind, label) order, the canonical order ``dumps_cpg``
writes: int64 arrays ``edge_src_row`` and ``edge_dst_row`` (the
endpoints as node rows; since ``node_id`` ascends with the row, an
endpoint's id is ``node_id[row]``), ``edge_kind`` (a code into
``EDGE_KINDS``, whose codes rank as the kind values do) and
``edge_label`` (an index into ``labels``, the sorted distinct labels,
of the narrowest unsigned type that holds their count).  A graph read
from any file therefore traverses like its canonical copy.

The columns are the graph's one representation: every stage reads
them, and so does an annotator's one-function view
(``lifting.function_subgraph``).

One converter per array, ``_node_columns`` and ``_edge_columns``, turns
JSON-shaped rows into typed columns, a chunk of rows at a time.  It
checks all its rows at once and, only when a check fails, walks them
for the first offender, so the error names the same row (by its index
in the whole array) and field whatever the size of the input.  A value
of the wrong type is an error, never coerced: an opcode, label or attrs
value must be a string.  The constructor, ``CpgGraph(binary_id,
node_columns, edge_columns)``, takes the typed columns, checks ids
across the graph and puts them in canonical order.  Graphs are
immutable after construction; the
indexes over them (``function_rows``, the rows of each function, and
``pdg_csr``, the data-dependence adjacency that ``failing_claims``
walks) are built on first use and cached.

Neither direction holds a whole file's structure.  ``load_cpg`` reads
the file in windows (``jsonio.read_rows``) and converts each chunk of
``nodes`` or ``edges`` rows before it decodes the next, so neither the
file's text nor a JSON tree of the whole graph is held.  A faulty file
is read the same way: the first fault is named as a reading of the
whole file would name it, a syntax fault anywhere first, then the
document's fields, the node rows and the edge rows.  ``cpg_chunks``
fills row templates a block of rows at a time, and ``dumps_cpg`` is its
join; ``jsonio`` lays out the templates and the document around them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TextIO

import numpy as np

from .errors import ParseError, SchemaError
from .jsonio import collector_paused, json_chunks, json_object, json_value, read_rows


class NodeKind(str, Enum):
    INSTRUCTION = "Instruction"
    CALL = "Call"
    PARAM = "Param"
    RETURN = "Return"
    LITERAL = "Literal"


class EdgeKind(str, Enum):
    AST = "Ast"
    CFG = "Cfg"
    PDG = "Pdg"


@dataclass(frozen=True, slots=True)
class DataFlowClaim:
    """A claimed data flow (sink_node reachable from source_node) that failed."""

    source_node: int
    sink_node: int


NODE_KINDS: tuple[NodeKind, ...] = tuple(NodeKind)
# Edges sort by kind value, so the codes follow the values.
EDGE_KINDS: tuple[EdgeKind, ...] = tuple(sorted(EdgeKind, key=lambda k: k.value))
# A str-valued member hashes and compares as its value, so these tables
# take the JSON text and the member alike.
_NODE_CODES = {k.value: code for code, k in enumerate(NODE_KINDS)}
_EDGE_CODES = {k.value: code for code, k in enumerate(EDGE_KINDS)}
AST_CODE, PDG_CODE = EDGE_KINDS.index(EdgeKind.AST), EDGE_KINDS.index(EdgeKind.PDG)

_INT64 = range(-2 ** 63, 2 ** 63)


class CpgGraph:
    """Validated, immutable code property graph, stored as columns."""

    def __init__(self, binary_id: str, node_columns: tuple, edge_columns: tuple):
        """Check ids across the graph and put the typed columns of
        ``_node_columns`` and ``_edge_columns`` in canonical order."""
        if type(binary_id) is not str:
            raise SchemaError(f"'binary_id' must be a string, got {binary_id!r}")
        node_id, node_kind, node_function, node_block, opcodes, attr_rows, attrs = node_columns
        edge_src, edge_dst, edge_kind, labels = edge_columns
        n = len(node_id)
        order = None
        if n > 1 and not np.all(node_id[1:] > node_id[:-1]):
            order = np.argsort(node_id, kind="stable")
        sorted_id = node_id if order is None else node_id[order]
        duplicate = np.zeros(n, dtype=bool)
        if order is not None:
            duplicate[order[1:]] = sorted_id[1:] == sorted_id[:-1]
        bad = duplicate | (node_function < 0) | (node_block < 0)
        if bad.any():
            i = int(np.argmax(bad))
            if duplicate[i]:
                raise SchemaError(f"duplicate node id {node_id[i]}")
            raise SchemaError(f"node {node_id[i]} has negative function or block id")
        src_row, src_found = _search(sorted_id, edge_src)
        dst_row, dst_found = _search(sorted_id, edge_dst)
        bad = ~(src_found & dst_found)
        if bad.any():
            i = int(np.argmax(bad))
            missing = edge_src[i] if not src_found[i] else edge_dst[i]
            raise SchemaError(f"edge {i} references missing node {missing}")

        if order is not None:
            row_of = np.empty(n, dtype=np.int64)
            row_of[order] = np.arange(n)
            node_function, node_block = node_function[order], node_block[order]
            node_kind = node_kind[order]
            opcodes = [opcodes[i] for i in order.tolist()]
            attr_rows = row_of[attr_rows]
        distinct = sorted(set(labels))
        rank = {lab: code for code, lab in enumerate(distinct)}
        edge_label = np.array(list(map(rank.__getitem__, labels)),
                              dtype=np.min_scalar_type(len(distinct)))
        # lexsort's last key is the primary one; rows rank as their ids do.
        edge_order = np.lexsort((edge_label, edge_kind, dst_row, src_row))

        self.binary_id = binary_id
        self.node_id = sorted_id
        self.node_function = node_function
        self.node_block = node_block
        self.node_kind = node_kind
        self.opcode = opcodes
        self.attrs = dict(zip(attr_rows.tolist(), attrs))
        self.edge_src_row = src_row[edge_order]
        self.edge_dst_row = dst_row[edge_order]
        self.edge_kind = edge_kind[edge_order]
        self.edge_label = edge_label[edge_order]
        self.labels = distinct

    def __len__(self) -> int:
        return len(self.node_id)

    def rows_of(self, ids: Iterable) -> np.ndarray:
        """Row of each node id (an int64 array, or any iterable), or -1 for
        an id the graph does not hold or a value that is no int64."""
        keys, valid = ids, None
        if not (isinstance(ids, np.ndarray) and ids.dtype == np.int64):
            ids = list(ids)
            keys = _int64(ids)
        if keys is None:  # a value that is no int64 names no node
            valid = np.array([isinstance(i, (int, np.integer)) and int(i) in _INT64
                              for i in ids], dtype=bool)
            keys = np.array([int(i) if ok else 0 for i, ok in zip(ids, valid.tolist())],
                            dtype=np.int64)
        rows, found = _search(self.node_id, keys)
        if valid is not None:
            found &= valid
        return np.where(found, rows, -1)

    @cached_property
    def function_rows(self) -> dict[int, np.ndarray]:
        """Rows of each function in id order, keyed by ascending function id."""
        return group_rows(self.node_function)

    @property
    def function_ids(self) -> list[int]:
        return list(self.function_rows)

    @cached_property
    def pdg_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Data-dependence adjacency over rows: (indptr, successor rows).

        The successors of row r are ``succ[indptr[r]:indptr[r + 1]]``, in
        edge order; edges are sorted by source, so one search splits them.
        """
        pdg = self.edge_kind == PDG_CODE
        src = self.edge_src_row[pdg]
        return np.searchsorted(src, np.arange(len(self) + 1)), self.edge_dst_row[pdg]


def group_rows(keys: np.ndarray) -> dict[int, np.ndarray]:
    """Positions of each distinct key, in position order, by ascending key."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    return dict(zip(distinct.tolist(), np.split(order, starts[1:])))


def _int64(values: list) -> np.ndarray | None:
    """values as int64, or None unless each is a plain int in range."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _floats(values) -> np.ndarray | None:
    """values as float64, or None unless values is a list and each item a
    plain int or float in range: a bool or a numeric string is no number
    here, though np.array takes it."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def _matrix(rows: list[np.ndarray], source: str) -> np.ndarray:
    """A file's vectors as one read-only matrix ((0, 0) for none), or a SchemaError."""
    dims = sorted(set(map(len, rows)))
    if len(dims) > 1:
        raise SchemaError(f"{source}: vectors have mixed dimensions {dims}")
    out = np.stack(rows) if rows else np.empty((0, 0))
    out.setflags(write=False)
    return out


def _codes(values: list, table: Mapping) -> np.ndarray | None:
    """Each value's code in table, or None if a value has none."""
    try:
        return np.array(list(map(table.__getitem__, values)), dtype=np.int8)
    except (KeyError, TypeError):
        return None


def _search(sorted_id: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, found) of each key in the sorted id column."""
    rows = np.searchsorted(sorted_id, keys)
    found = rows < len(sorted_id)
    found[found] = sorted_id[rows[found]] == keys[found]
    return rows, found


def _is_id(value) -> bool:
    return type(value) is int and value in _INT64


def _raise_first_fault(rows: Sequence, start: int,
                       check: Callable[[object, int], None]) -> NoReturn:
    """Raise the SchemaError check gives the first faulty row, each row
    named by its index, counted from start."""
    for pos, raw in enumerate(rows, start):
        check(raw, pos)
    raise AssertionError("a column check failed but every row passes")


def _check_node(raw, pos: int) -> None:
    if not isinstance(raw, dict):
        raise SchemaError(f"node at index {pos} must be an object")
    try:
        node_id = raw["id"]
        kind_text = raw["kind"]
    except KeyError as exc:
        raise SchemaError(f"node at index {pos} is missing required field {exc}") from None
    try:
        _NODE_CODES[kind_text]
    except (KeyError, TypeError):
        raise SchemaError(f"node at index {pos} has unknown kind '{kind_text}'") from None
    if not _is_id(node_id):
        raise SchemaError(f"node at index {pos} has non-integer id {node_id!r}")
    if type(raw.get("attrs", {})) is not dict:
        raise SchemaError(f"node {node_id} attrs must be an object")
    try:
        function_id = raw["function_id"]
        block_id = raw["block_id"]
    except KeyError as exc:
        raise SchemaError(f"node {node_id} is missing required field {exc}") from None
    if not _is_id(function_id):
        raise SchemaError(f"node {node_id} has non-integer function_id {function_id!r}")
    if not _is_id(block_id):
        raise SchemaError(f"node {node_id} has non-integer block_id {block_id!r}")
    opcode = raw.get("opcode", "")
    if type(opcode) is not str:
        raise SchemaError(f"node {node_id} has non-string opcode {opcode!r}")
    for key, value in raw.get("attrs", {}).items():
        if type(key) is not str or type(value) is not str:
            raise SchemaError(f"node {node_id} has non-string attrs entry {key!r}: {value!r}")


def _check_edge(raw, pos: int) -> None:
    if not isinstance(raw, dict):
        raise SchemaError(f"edge at index {pos} must be an object")
    try:
        kind_text = raw["kind"]
    except KeyError as exc:
        raise SchemaError(f"edge at index {pos} is missing required field {exc}") from None
    try:
        _EDGE_CODES[kind_text]
    except (KeyError, TypeError):
        raise SchemaError(f"edge at index {pos} has unknown kind '{kind_text}'") from None
    try:
        src = raw["src"]
        dst = raw["dst"]
    except KeyError as exc:
        raise SchemaError(f"edge at index {pos} is missing required field {exc}") from None
    if not _is_id(src) or not _is_id(dst):
        raise SchemaError(f"edge at index {pos} has a non-integer endpoint {src!r} -> {dst!r}")
    label = raw.get("label", "")
    if type(label) is not str:
        raise SchemaError(f"edge at index {pos} has non-string label {label!r}")


_REQUIRED = object()
_NODE_KEYS = ("id", "kind", "function_id", "block_id")  # the required fields
_EDGE_KEYS = ("src", "dst", "kind")


def _column(rows: list, key: str, default=_REQUIRED) -> list:
    """The key's value in every row; a row without an optional key gives default."""
    try:
        return list(map(itemgetter(key), rows))
    except KeyError:
        if default is _REQUIRED:
            raise
        return [row.get(key, default) for row in rows]


def load_cpg(path: str | Path) -> CpgGraph:
    """Parse and validate a graph file, preserving node and edge counts.

    ``jsonio.read_rows`` reads the file in windows, and each chunk of
    node or edge rows becomes typed columns before the next is decoded,
    for a faulty file too.  The error names the first fault: a syntax
    fault anywhere in the file, then the document's fields, then the
    node rows, the edge rows and the graph.  A ParseError or SchemaError
    names the file.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as source:
            return loads_cpg(source)
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"CPG file {path}: {exc}") from None


def loads_cpg(source: str | TextIO) -> CpgGraph:
    """Parse and validate a graph document, its text or a text file open
    for reading, as ``load_cpg`` reads a file."""
    interned: dict[str, str] = {}
    with collector_paused():
        try:
            doc, columns = read_rows(source, {
                "nodes": (partial(_node_columns, interned=interned), _joined),
                "edges": (partial(_edge_columns, interned=interned), _joined)})
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ParseError(f"not valid JSON: {exc}") from None
        for key in ("nodes", "edges"):
            if key not in doc and key not in columns:
                raise SchemaError(f"document is missing required field '{key}'")
        if "nodes" in doc or "edges" in doc:
            raise SchemaError("document 'nodes' and 'edges' must be lists")
        for key in ("nodes", "edges"):
            if isinstance(columns[key], Exception):  # the first faulty row
                raise columns[key]
        return CpgGraph(doc.get("binary_id", ""), columns["nodes"], columns["edges"])


def _joined(parts: list[tuple]) -> tuple:
    """The columns of each chunk of an array, joined."""
    return tuple(np.concatenate(column) if isinstance(column[0], np.ndarray)
                 else list(chain.from_iterable(column)) for column in zip(*parts))


def _node_columns(rows: list, start: int, interned: dict[str, str]) -> tuple:
    """The typed columns of JSON-shaped node rows: int64 ids, int8 kind
    codes, int64 function and block ids, str opcodes, and the attrs of
    the rows that set some: those rows' int64 indices in the array and
    their attrs, each a dict of str.

    A fault raises the SchemaError of the first faulty row, which is named
    by its index in the array, start being that of the first row here.
    """
    try:
        ids, kinds, functions, blocks = (_column(rows, key) for key in _NODE_KEYS)
        opcodes, attrs = _column(rows, "opcode", ""), _column(rows, "attrs", {})
    except (KeyError, TypeError, AttributeError):  # a row is no object or lacks a field
        _raise_first_fault(rows, start, _check_node)
    typed = (_int64(ids), _codes(kinds, _NODE_CODES), _int64(functions), _int64(blocks))
    if (any(column is None for column in typed) or not set(map(type, attrs)) <= {dict}
            or not set(map(type, opcodes)) <= {str}):
        _raise_first_fault(rows, start, _check_node)
    attr_rows = np.array(list(compress(range(start, start + len(rows)), attrs)), dtype=np.int64)
    attrs = list(compress(attrs, attrs))
    if not set(map(type, chain.from_iterable(chain(a, a.values()) for a in attrs))) <= {str}:
        _raise_first_fault(rows, start, _check_node)
    return (*typed, list(map(interned.setdefault, opcodes, opcodes)), attr_rows, attrs)


def _edge_columns(rows: list, start: int, interned: dict[str, str]) -> tuple:
    """The typed columns of JSON-shaped edge rows: int64 endpoints, int8
    kind codes and str labels.

    A fault raises the SchemaError of the first faulty row, as
    ``_node_columns`` does.
    """
    try:
        srcs, dsts, kinds = (_column(rows, key) for key in _EDGE_KEYS)
        labels = _column(rows, "label", "")
    except (KeyError, TypeError, AttributeError):  # a row is no object or lacks a field
        _raise_first_fault(rows, start, _check_edge)
    typed = (_int64(srcs), _int64(dsts), _codes(kinds, _EDGE_CODES))
    if any(column is None for column in typed) or not set(map(type, labels)) <= {str}:
        _raise_first_fault(rows, start, _check_edge)
    return (*typed, list(map(interned.setdefault, labels, labels)))


_NODE_TEMPLATES = ["".join(json_object({
    "attrs": "%s", "block_id": "%d", "function_id": "%d", "id": "%d",
    "kind": json_value(k.value, 3), "opcode": "%s"}, 2)) for k in NODE_KINDS]
_EDGE_TEMPLATES = ["".join(json_object({
    "dst": "%d", "kind": json_value(k.value, 3), "label": "%s", "src": "%d"}, 2))
    for k in EDGE_KINDS]
_ROW_BLOCK = 1024  # rows per chunk cpg_chunks yields


def dumps_cpg(g: CpgGraph) -> str:
    """Canonical serialization; loads_cpg(dumps_cpg(g)) reproduces g."""
    return "".join(cpg_chunks(g))


def cpg_chunks(g: CpgGraph) -> Iterator[str]:
    """The canonical text of g in chunks, for ``pipeline.write_atomic``.

    The bytes are those ``jsonio.dumps_json`` writes for the graph's
    document; each row is filled into a template for its kind, a block
    of rows at a time.
    """
    labels = [json_value(label, 3) for label in g.labels]
    opcodes = {o: json_value(o, 3) for o in set(g.opcode)}

    def edges(lo: int, hi: int) -> list[str]:
        return [_EDGE_TEMPLATES[k] % (d, labels[c], s) for k, d, c, s in zip(
            g.edge_kind[lo:hi].tolist(), g.node_id[g.edge_dst_row[lo:hi]].tolist(),
            g.edge_label[lo:hi].tolist(), g.node_id[g.edge_src_row[lo:hi]].tolist())]

    def nodes(lo: int, hi: int) -> list[str]:
        attrs = [json_value(a, 3) if a else "{}" for a in map(g.attrs.get, range(lo, hi))]
        return [_NODE_TEMPLATES[k] % (a, b, f, i, o) for k, a, b, f, i, o in zip(
            g.node_kind[lo:hi].tolist(), attrs, g.node_block[lo:hi].tolist(),
            g.node_function[lo:hi].tolist(), g.node_id[lo:hi].tolist(),
            map(opcodes.__getitem__, g.opcode[lo:hi]))]

    yield from json_object({"binary_id": json_value(g.binary_id, 1),
                            "edges": json_chunks(edges, len(g.edge_kind), _ROW_BLOCK, 1),
                            "nodes": json_chunks(nodes, len(g), _ROW_BLOCK, 1)}, 0)
    yield "\n"


def _reachable(indptr: np.ndarray, succ: np.ndarray, source: int, sink: int) -> bool:
    # Plain BFS over rows; reachability is reflexive (empty path).
    if source == sink:
        return True
    seen = {source}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt in succ[indptr[cur]:indptr[cur + 1]].tolist():
            if nxt == sink:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def failing_claims(g: CpgGraph, claim_lists: Sequence[np.ndarray]) -> list[DataFlowClaim | None]:
    """Each list's first claim that fails, or None when every claim holds.

    Each list is a (k, 2) array of (source, sink) node ids, as
    ``Annotation.claims``.  A claim holds when its sink is reachable from
    its source over Pdg edges alone (control and syntax edges carry no
    data); a claim naming an id the graph lacks fails.  The lists are
    joined into one array, whose ends are looked up at once.  A claim
    whose ends are one node, or one Pdg edge, holds by a search in the
    sorted edge keys; only the other claims of a list, up to its first
    failure, are searched for a path.  Only a failure becomes a
    ``DataFlowClaim``.
    """
    counts = [len(claims) for claims in claim_lists]
    ends = (np.concatenate(claim_lists) if claim_lists else np.empty((0, 2), np.int64)).ravel()
    rows = g.rows_of(ends)
    src, dst = rows[0::2], rows[1::2]
    n = len(g)
    pdg = g.edge_kind == PDG_CODE
    edge_keys = g.edge_src_row[pdg] * n + g.edge_dst_row[pdg]  # ascending: edges sort by src, dst
    missing = (src < 0) | (dst < 0)
    keys = src * n + dst
    pos = np.searchsorted(edge_keys, keys)
    direct = pos < len(edge_keys)
    direct[direct] = edge_keys[pos[direct]] == keys[direct]
    settled = ~missing & (direct | (src == dst))
    del pdg, edge_keys, keys, pos, direct
    out: list[DataFlowClaim | None] = [None] * len(claim_lists)
    owner = np.repeat(np.arange(len(claim_lists)), counts)
    open_lists = np.flatnonzero(np.bincount(owner[~settled],
                                            minlength=len(claim_lists))).tolist()
    if not open_lists:
        return out
    indptr, succ = g.pdg_csr
    starts = np.cumsum([0] + counts).tolist()
    settled, missing, src, dst = settled.tolist(), missing.tolist(), src.tolist(), dst.tolist()
    for k in open_lists:
        for i in range(starts[k], starts[k + 1]):
            if settled[i]:
                continue
            if missing[i] or not _reachable(indptr, succ, src[i], dst[i]):
                out[k] = DataFlowClaim(*ends[2 * i:2 * i + 2].tolist())
                break
    return out


_HOP_ROWS = 256  # sources per block of the breadth-first search
_HOP_CHUNK = 256  # frontier nodes per float32 product, so its path counts are exact


def _next_frontier(frontier: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """``frontier @ adj > 0`` for a bool (rows, n) frontier and the bool
    (n, n) adjacency: the nodes one edge past each row's frontier.

    The product is taken over chunks of ``_HOP_CHUNK`` nodes that are on
    some frontier, each in float32: its path counts are at most the chunk
    size, so they are exact, and only their sign is read.
    """
    out = np.zeros(frontier.shape, dtype=bool)
    on = np.flatnonzero(frontier.any(axis=0))
    for lo in range(0, len(on), _HOP_CHUNK):
        chunk = on[lo:lo + _HOP_CHUNK]
        out |= frontier[:, chunk].astype(np.float32) @ adj[chunk].astype(np.float32) > 0
    return out


def shortest_path_matrix(num_nodes: int, edges: Iterable[tuple[int, int]],
                         max_dist: int = 20) -> np.ndarray:
    """Directed hop-count matrix with clamping.

    Entry (i, j) is the unweighted shortest-path hop count from i to j,
    clamped to max_dist.  Unreachable pairs get the sentinel bucket
    max_dist + 1.  The diagonal is 0.  The dtype is the narrowest that
    holds the sentinel, ``np.min_scalar_type(max_dist + 1)``: uint8 up
    to max_dist 254.

    A breadth-first search from ``_HOP_ROWS`` sources at a time, one
    level at a time, over the bool adjacency: a block's next frontiers
    are ``_next_frontier`` of its current ones, so besides the result
    and the adjacency (n^2 bytes each) only a block's frontiers and one
    chunk's float32 product are held.  If some searches still find new
    nodes past max_dist levels, their rows of the reachability matrix
    are squared until they stop changing, which tells the pairs beyond
    max_dist (clamped) from the unreachable ones.
    """
    if num_nodes < 1:
        raise ValueError("graph must be non-empty")
    if max_dist < 1:
        raise ValueError("max_dist must be at least 1")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= num_nodes):
        raise ValueError(f"edge endpoint out of range for {num_nodes} nodes")
    adj = np.zeros((num_nodes, num_nodes), dtype=bool)
    adj[pairs[:, 0], pairs[:, 1]] = True
    unseen = max_dist + 1  # the sentinel, until a search reaches the pair
    hops = np.full((num_nodes, num_nodes), unseen, dtype=np.min_scalar_type(unseen))
    np.fill_diagonal(hops, 0)
    beyond = []  # the sources whose search still finds nodes past max_dist levels
    for lo in range(0, num_nodes, _HOP_ROWS):
        block = hops[lo:lo + _HOP_ROWS]  # a view: levels are written through it
        rows = np.arange(len(block))  # the block's sources whose search still finds nodes
        fresh = adj[lo:lo + _HOP_ROWS]  # level 1: each frontier is its source alone
        for level in range(1, max_dist + 2):
            found = block[rows]
            fresh = fresh & (found == unseen)
            live = fresh.any(axis=1)
            if not live.any():
                break
            if level > max_dist:
                beyond.append(rows[live] + lo)
                break
            rows, fresh, found = rows[live], fresh[live], found[live]
            found[fresh] = level  # a masked write: no index pairs of the frontiers
            block[rows] = found
            fresh = _next_frontier(fresh, adj)
    if beyond:
        # Rows of finished searches are whole, so squaring only the open
        # rows in place, until none changes, closes them.
        del adj
        reach, rows = hops <= max_dist, np.concatenate(beyond)
        grown = True
        while grown:
            grown = False
            for lo in range(0, len(rows), _HOP_ROWS):
                part = rows[lo:lo + _HOP_ROWS]
                wider = _next_frontier(reach[part], reach)
                grown |= not np.array_equal(wider, reach[part])
                reach[part] = wider
        hops[reach & (hops == unseen)] = max_dist
    return hops
