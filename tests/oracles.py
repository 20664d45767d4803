"""References the tests check the package against.

Rows: one ``CpgNode``, ``CpgEdge`` or ``Relation`` per node, edge or
relation.  ``row_cpg``, ``row_relations`` and ``row_kg`` build graphs
of them through the package's converters, each array one chunk of
JSON-shaped rows: a second path beside the streamed readers.
``node_rows``, ``edge_rows`` and ``relation_rows`` read columns back.

Whole-tree readers of the CPG and KG files, which read the whole text
with one ``json.loads`` call and so name the first fault of any
document as the streamed readers must.

``attention_matrix``: one head of one layer, for ``forward``'s algebra.
``layer_tensors``: one layer's weights by their short names.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from binrisk.cpg import (EDGE_KINDS, NODE_KINDS, CpgGraph, EdgeKind, NodeKind, _edge_columns,
                         _node_columns)
from binrisk.errors import ParseError, SchemaError, ShapeMismatch, collector_paused, read_json
from binrisk.graphormer import ModelParams, _attention, _edge_bias_terms, _relation_arrays
from binrisk.ssckg import (RELATION_TYPES, RelationColumns, RelationType, SsckgGraph, _entities,
                           _relations, _ssckg)


# --- rows -------------------------------------------------------------------------

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


@dataclass(frozen=True)
class Relation:
    src: int
    rel_type: RelationType
    dst: int | str  # entity id, or CVE id for vulnerable_to
    weight: float


def inst(nid, fn=0, block=0, opcode="mov", **attrs) -> CpgNode:
    return CpgNode(nid, NodeKind.INSTRUCTION, opcode, fn, block, attrs)


def pdg(a, b) -> CpgEdge:
    return CpgEdge(a, b, EdgeKind.PDG)


def row_cpg(nodes: Sequence[CpgNode], edges: Sequence[CpgEdge], binary_id: str = "") -> CpgGraph:
    """The graph of node and edge rows, as a file holding them reads."""
    interned: dict[str, str] = {}
    node_docs = [{"id": n.id, "kind": n.kind, "opcode": n.opcode, "function_id": n.function_id,
                  "block_id": n.block_id, "attrs": n.attrs} for n in nodes]
    edge_docs = [{"src": e.src, "dst": e.dst, "kind": e.kind, "label": e.label} for e in edges]
    return CpgGraph(binary_id, _node_columns(node_docs, 0, interned),
                    _edge_columns(edge_docs, 0, interned))


def row_relations(relations: Sequence[Relation]) -> RelationColumns:
    """The columns of relation rows, as a file holding them reads."""
    return _relations([{"src": r.src, "rel_type": r.rel_type, "dst": r.dst, "weight": r.weight}
                       for r in relations])


def row_kg(entities, relations: Sequence[Relation], source_binary: str = "",
           clustering=None) -> SsckgGraph:
    return SsckgGraph(entities, row_relations(relations), source_binary, clustering)


def node_rows(g: CpgGraph) -> list[CpgNode]:
    """Every node, in id order."""
    return [CpgNode(i, NODE_KINDS[k], o, f, b, g.attrs.get(r, {}))
            for r, (i, k, o, f, b) in enumerate(zip(
                g.node_id.tolist(), g.node_kind.tolist(), g.opcode,
                g.node_function.tolist(), g.node_block.tolist()))]


def edge_rows(g: CpgGraph) -> list[CpgEdge]:
    """Every edge, in canonical order."""
    return [CpgEdge(s, d, EDGE_KINDS[k], g.labels[c])
            for s, d, k, c in zip(g.edge_src.tolist(), g.edge_dst.tolist(),
                                  g.edge_kind.tolist(), g.edge_label.tolist())]


def relation_rows(relations: RelationColumns | SsckgGraph) -> list[Relation]:
    """Every relation of the columns, or of the graph, in stored order."""
    if isinstance(relations, SsckgGraph):
        relations = relations.relation_columns
    return list(map(Relation, relations.src.tolist(),
                    map(RELATION_TYPES.__getitem__, relations.type_code.tolist()),
                    relations.dst_values(), relations.weight.tolist()))


# --- whole-tree readers -------------------------------------------------------------


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
    return CpgGraph(doc.get("binary_id", ""), _node_columns(raw_nodes, 0, interned),
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


# --- attention --------------------------------------------------------------------

def attention_matrix(z: np.ndarray, dist: np.ndarray,
                     edges: Sequence[tuple[int, int, int, float]],
                     params: ModelParams, layer: int, head: int) -> np.ndarray:
    """Row-stochastic attention for one head of one layer.

    Pre-softmax score (i, j) is the scaled query-key product plus the
    spatial bias for the hop-distance bucket from i to j plus, when
    directed relations i -> j exist, the sum of their type-bias entries
    scaled by the relation weights.  The diagonal uses distance bucket 0
    and never takes an edge term.  ``forward`` calls the same
    ``_attention`` for each head, so its bits equal this one's.
    """
    cfg = params.config
    n = z.shape[0]
    if z.ndim != 2 or z.shape[1] != cfg.hidden_dim:
        raise ShapeMismatch(f"state must be (n, {cfg.hidden_dim}), got {z.shape}")
    if dist.shape != (n, n):
        raise ShapeMismatch(f"distance matrix must be {(n, n)}, got {dist.shape}")
    rows = np.array(edges, dtype=np.float64).reshape(-1, 4)
    src, dst, type_index = rows[:, :3].astype(np.int64).T
    flat, vals = _edge_bias_terms(n, src, dst, type_index, rows[:, 3],
                                  params.tensors["edge_bias"][head:head + 1])
    d = cfg.hidden_dim // cfg.heads
    cols, lp = slice(head * d, (head + 1) * d), layer_tensors(params, layer)
    return _attention(z @ lp["w_q"][:, cols], z @ lp["w_k"][:, cols], dist, flat, vals[0],
                      params.tensors["spatial_bias"][head])


def layer_tensors(params: ModelParams, layer: int) -> dict[str, np.ndarray]:
    """Layer ``layer``'s tensors, keyed by name without the ``layer{i}.`` prefix."""
    prefix = f"layer{layer}."
    return {name.removeprefix(prefix): t for name, t in params.tensors.items()
            if name.startswith(prefix)}


def relation_edges(kg: SsckgGraph) -> list[tuple[int, int, int, float]]:
    """Entity-to-entity relations as (src_index, dst_index, type_index, weight)."""
    return list(zip(*(column.tolist() for column in _relation_arrays(kg))))
