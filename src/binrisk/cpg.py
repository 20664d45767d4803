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
``dst``) are integers.  ``opcode`` and ``attrs`` are optional, since
stripped binaries often provide neither.  Edges form a multigraph:
parallel edges with distinct kinds or labels are meaningful and
preserved.

Well-known attrs keys (all values are strings):

    callee         name of the called routine, on Call nodes
    function_name  human-readable routine name, usually on entry nodes
    external       "true" when the routine is externally linked or cross-module

Graphs are immutable after construction and hold their nodes in id
order and their edges in (src, dst, kind, label) order, the canonical
order ``dumps_cpg`` writes, so a graph read from any file traverses like
its canonical copy.  Adjacency indexes are built lazily and cached,
which is safe because nothing mutates the graph.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import ParseError, SchemaError, UnknownNode, dumps_json


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
class CpgNode:
    id: int
    kind: NodeKind
    opcode: str
    function_id: int
    block_id: int
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class CpgEdge:
    src: int
    dst: int
    kind: EdgeKind
    label: str = ""


@dataclass(frozen=True, slots=True)
class DataFlowClaim:
    """A claimed data flow: sink_node is reachable from source_node."""

    source_node: int
    sink_node: int


@dataclass(frozen=True)
class VerifyResult:
    sat: bool
    failing_claim: DataFlowClaim | None = None


class CpgGraph:
    """Validated, immutable code property graph."""

    def __init__(self, nodes: Sequence[CpgNode], edges: Sequence[CpgEdge],
                 binary_id: str = ""):
        by_id: dict[int, CpgNode] = {}
        for n in nodes:
            if n.id in by_id:
                raise SchemaError(f"duplicate node id {n.id}")
            if n.function_id < 0 or n.block_id < 0:
                raise SchemaError(f"node {n.id} has negative function or block id")
            by_id[n.id] = n
        for i, e in enumerate(edges):
            if e.src not in by_id:
                raise SchemaError(f"edge {i} references missing node {e.src}")
            if e.dst not in by_id:
                raise SchemaError(f"edge {i} references missing node {e.dst}")
        self.binary_id = binary_id
        self.nodes: tuple[CpgNode, ...] = tuple(sorted(nodes, key=lambda n: n.id))
        # A str-valued kind compares as its value.
        self.edges: tuple[CpgEdge, ...] = tuple(
            sorted(edges, key=attrgetter("src", "dst", "kind", "label")))
        self._by_id = by_id
        self._pdg_adj: dict[int, list[int]] | None = None
        self._by_function: dict[int, list[CpgNode]] | None = None
        self._fn_edges: dict[int, list[CpgEdge]] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> CpgNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id

    @property
    def function_ids(self) -> list[int]:
        return sorted(self._function_index())

    def nodes_of_function(self, function_id: int) -> list[CpgNode]:
        return list(self._function_index().get(function_id, []))

    def edges_of_kind(self, kind: EdgeKind) -> list[CpgEdge]:
        return [e for e in self.edges if e.kind is kind]

    def edges_of_function(self, function_id: int) -> list[CpgEdge]:
        """Edges with both endpoints inside the given function.

        Node sets of distinct functions are disjoint, so an edge is
        induced by a function exactly when both endpoints carry that
        function id; the bucket index is built once.
        """
        if self._fn_edges is None:
            idx: dict[int, list[CpgEdge]] = {}
            for e in self.edges:
                src_fn = self._by_id[e.src].function_id
                if src_fn == self._by_id[e.dst].function_id:
                    idx.setdefault(src_fn, []).append(e)
            self._fn_edges = idx
        return list(self._fn_edges.get(function_id, []))

    def pdg_successors(self) -> Mapping[int, list[int]]:
        """Adjacency over data-dependence edges only, built once."""
        if self._pdg_adj is None:
            adj: dict[int, list[int]] = {}
            for e in self.edges:
                if e.kind is EdgeKind.PDG:
                    adj.setdefault(e.src, []).append(e.dst)
            self._pdg_adj = adj
        return self._pdg_adj

    def _function_index(self) -> dict[int, list[CpgNode]]:
        if self._by_function is None:
            idx: dict[int, list[CpgNode]] = {}
            for n in self.nodes:
                idx.setdefault(n.function_id, []).append(n)
            self._by_function = idx
        return self._by_function


_NODE_KINDS = {k.value: k for k in NodeKind}
_EDGE_KINDS = {k.value: k for k in EdgeKind}


def _parse_node(raw: Mapping, pos: int) -> CpgNode:
    if not isinstance(raw, dict):
        raise SchemaError(f"node at index {pos} must be an object")
    try:
        node_id = raw["id"]
        kind_text = raw["kind"]
    except KeyError as exc:
        raise SchemaError(f"node at index {pos} is missing required field {exc}") from None
    try:
        kind = _NODE_KINDS[kind_text]
    except (KeyError, TypeError):
        raise SchemaError(f"node at index {pos} has unknown kind '{kind_text}'") from None
    if not isinstance(node_id, int):
        raise SchemaError(f"node at index {pos} has non-integer id {node_id!r}")
    attrs = raw.get("attrs", {})
    if not isinstance(attrs, dict):
        raise SchemaError(f"node {node_id} attrs must be an object")
    try:
        function_id = raw["function_id"]
        block_id = raw["block_id"]
    except KeyError as exc:
        raise SchemaError(f"node {node_id} is missing required field {exc}") from None
    if not isinstance(function_id, int):
        raise SchemaError(f"node {node_id} has non-integer function_id {function_id!r}")
    if not isinstance(block_id, int):
        raise SchemaError(f"node {node_id} has non-integer block_id {block_id!r}")
    return CpgNode(
        id=node_id,
        kind=kind,
        opcode=str(raw.get("opcode", "")),
        function_id=function_id,
        block_id=block_id,
        attrs={str(k): str(v) for k, v in attrs.items()},
    )


def _parse_edge(raw: Mapping, pos: int) -> CpgEdge:
    if not isinstance(raw, dict):
        raise SchemaError(f"edge at index {pos} must be an object")
    try:
        kind_text = raw["kind"]
    except KeyError as exc:
        raise SchemaError(f"edge at index {pos} is missing required field {exc}") from None
    try:
        kind = _EDGE_KINDS[kind_text]
    except (KeyError, TypeError):
        raise SchemaError(f"edge at index {pos} has unknown kind '{kind_text}'") from None
    try:
        src = raw["src"]
        dst = raw["dst"]
    except KeyError as exc:
        raise SchemaError(f"edge at index {pos} is missing required field {exc}") from None
    if not isinstance(src, int) or not isinstance(dst, int):
        raise SchemaError(f"edge at index {pos} has a non-integer endpoint {src!r} -> {dst!r}")
    return CpgEdge(src=src, dst=dst, kind=kind, label=str(raw.get("label", "")))


def loads_cpg(text: str) -> CpgGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    nodes = [_parse_node(n, i) for i, n in enumerate(raw_nodes)]
    edges = [_parse_edge(e, i) for i, e in enumerate(raw_edges)]
    return CpgGraph(nodes, edges, binary_id=str(doc.get("binary_id", "")))


def load_cpg(path: str | Path) -> CpgGraph:
    """Parse and validate a graph file, preserving node and edge counts."""
    return loads_cpg(Path(path).read_text(encoding="utf-8"))


def dumps_cpg(g: CpgGraph) -> str:
    """Canonical serialization; loads_cpg(dumps_cpg(g)) reproduces g."""
    return dumps_json({
        "binary_id": g.binary_id,
        "nodes": [
            {"id": n.id, "kind": n.kind, "opcode": n.opcode,
             "function_id": n.function_id, "block_id": n.block_id, "attrs": n.attrs}
            for n in g.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "kind": e.kind, "label": e.label}
            for e in g.edges
        ],
    })


def _reachable(adj: Mapping[int, list[int]], source: int, sink: int) -> bool:
    # Plain BFS; reachability is reflexive (empty path).
    if source == sink:
        return True
    seen = {source}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt == sink:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def verify_claims(g: CpgGraph, claims: Sequence[DataFlowClaim]) -> VerifyResult:
    """Check claimed data flows against directed data-dependence reachability.

    Returns Sat when every claimed sink is reachable from its source over
    Pdg edges alone (control and syntax edges carry no data and are
    ignored).  On the first claim that fails, returns Unsat carrying that
    claim.  A claim naming a node id absent from the graph raises
    UnknownNode.
    """
    adj = g.pdg_successors()
    for claim in claims:
        if not g.has_node(claim.source_node):
            raise UnknownNode(f"claim references missing node {claim.source_node}")
        if not g.has_node(claim.sink_node):
            raise UnknownNode(f"claim references missing node {claim.sink_node}")
        if not _reachable(adj, claim.source_node, claim.sink_node):
            return VerifyResult(sat=False, failing_claim=claim)
    return VerifyResult(sat=True)


def shortest_path_matrix(num_nodes: int, edges: Iterable[tuple[int, int]],
                         max_dist: int = 20) -> np.ndarray:
    """Directed hop-count matrix with clamping.

    Entry (i, j) is the unweighted shortest-path hop count from i to j,
    clamped to max_dist.  Unreachable pairs get the sentinel bucket
    max_dist + 1.  The diagonal is 0.
    """
    if num_nodes < 1:
        raise ValueError("graph must be non-empty")
    if max_dist < 1:
        raise ValueError("max_dist must be at least 1")
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(num_nodes, num_nodes))
    hops = shortest_path(adj, directed=True, unweighted=True)
    # Full closure: pairs reachable beyond max_dist clamp to max_dist,
    # only truly unreachable pairs (inf) take the sentinel.
    unreachable = np.isinf(hops)
    np.minimum(hops, max_dist, out=hops)
    hops[unreachable] = max_dist + 1
    return hops.astype(np.int64)
