"""References the tests check the package against.

Rows: one ``CpgNode``, ``CpgEdge`` or ``Relation`` per node, edge or
relation.  ``row_cpg``, ``row_relations`` and ``row_kg`` build graphs
of them through the package's converters, each array one chunk of
JSON-shaped rows: a second path beside the streamed readers.
``node_rows``, ``edge_rows`` and ``relation_rows`` read columns back.
``node_ids`` builds an entity's members, ``frozen`` a summary or CVE
vector and ``claim_array`` an annotation's claims; ``coefficient_dict``
reads ``normalize_weights``' columns back as {target id: {source id:
coefficient}}.

Whole-tree readers of the CPG and KG files, which read the whole text
with one ``json.loads`` call and so name the first fault of any
document as the streamed readers must.

``function_subgraph``: one function's view from the Pdg adjacency of
its rows, which ``view_fields`` reads back; ``first_failing_claim``:
the claims one at a time, each by a breadth-first search over the Pdg
edge rows; ``build_corpus``: the corpus gate one function at a time
through both.

``kg_document``: a knowledge graph's document, which ``dumps_json``
writes as ``dumps_ssckg`` must.

``attention_matrix``: one head of one layer, for ``forward``'s algebra.
``layer_tensors``: one layer's weights by their short names.

Scoring: ``cosine`` is the per-pair cosine, one ``np.dot`` per pair,
and ``cve_similarity_ref`` fills the entity x CVE matrix with it;
``propagate_dense`` iterates over a dense n x n transition; ``to_dot_ref``
builds the DOT text line by line and joins it once.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from binrisk.cpg import (EDGE_KINDS, NODE_KINDS, CpgGraph, DataFlowClaim, EdgeKind, NodeKind,
                         _edge_columns, _node_columns)
from binrisk.errors import NonConvergence, ParseError, SchemaError
from binrisk.graphormer import ModelParams, _attention, _edge_bias_terms, _relation_arrays
from binrisk.jsonio import collector_paused, read_json
from binrisk.lifting import FunctionSubgraph, VerifiedCorpus
from binrisk.risk import PropagationConfig, RiskVector, normalize_weights
from binrisk.ssckg import (RELATION_TYPES, CveRecord, Entity, RelationColumns, RelationType,
                           SsckgGraph, _entities, _relations, _ssckg)


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


def node_ids(*ids: int) -> np.ndarray:
    """An entity's members: the given node ids as int64, ascending, each once."""
    return np.array(sorted(set(ids)), dtype=np.int64)


def frozen(values) -> np.ndarray:
    """A summary or CVE vector as the providers hand one out: a read-only
    1-D float64 array."""
    vector = np.array(values, dtype=np.float64)
    vector.setflags(write=False)
    return vector


def claim_array(*pairs) -> np.ndarray:
    """Claims as an annotation holds them: (source, sink) rows, int64 when
    every id fits, else Python ints (as a JSON claim past int64 loads)."""
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except (OverflowError, ValueError):
        return np.array(pairs, dtype=object).reshape(-1, 2)


def coefficient_dict(kg: SsckgGraph) -> dict[int, dict[int, float]]:
    """The coefficients of ``normalize_weights(kg)`` by entity id, after
    checking that its rows are distinct pairs sorted by target, then source."""
    dst, src, coeff = normalize_weights(kg)
    pairs = list(zip(dst.tolist(), src.tolist()))
    assert pairs == sorted(set(pairs)) and len(pairs) == len(coeff)
    ids = kg.entity_ids.tolist()
    out: dict[int, dict[int, float]] = {}
    for (d, s), c in zip(pairs, coeff.tolist()):
        out.setdefault(ids[d], {})[ids[s]] = c
    return out


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
            for s, d, k, c in zip(g.node_id[g.edge_src_row].tolist(),
                                  g.node_id[g.edge_dst_row].tolist(),
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


# --- corpus gate and KG document ----------------------------------------------------

def function_subgraph(g: CpgGraph, function_id: int) -> FunctionSubgraph:
    """One function's view: the Pdg successors of each of its rows, rows
    in id order and each row's successors in edge order, give its inner
    Pdg edges in canonical order."""
    rows = g.function_rows.get(function_id)
    if rows is None:
        raise SchemaError(f"no nodes with function id {function_id}")
    indptr, succ = g.pdg_csr
    starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
    src = np.repeat(rows, counts)
    dst = succ[np.arange(len(src)) + np.repeat(starts - np.cumsum(counts) + counts, counts)]
    inner = g.node_function[dst] == function_id
    row_list = rows.tolist()
    return FunctionSubgraph(
        function_id=function_id,
        node_ids=g.node_id[rows].tolist(),
        kinds=[NODE_KINDS[k] for k in g.node_kind[rows].tolist()],
        opcodes=[g.opcode[r] for r in row_list],
        attrs=[g.attrs.get(r, {}) for r in row_list],
        pdg_edges=np.array([g.node_id[src[inner]], g.node_id[dst[inner]]]).T.reshape(-1, 2))


def view_fields(view: FunctionSubgraph) -> tuple:
    """A view's fields, its Pdg edges as their dtype, shape and rows."""
    return (view.function_id, view.node_ids, view.kinds, view.opcodes, view.attrs,
            view.pdg_edges.dtype, view.pdg_edges.shape, view.pdg_edges.tolist())


def first_failing_claim(g: CpgGraph, claims: np.ndarray) -> DataFlowClaim | None:
    """Each (source, sink) row in turn: the first with an end that names no
    node, or whose sink the source reaches by no Pdg path (the empty one
    included), or None."""
    ids = set(g.node_id.tolist())
    succ: dict[int, list[int]] = {}
    for e in edge_rows(g):
        if e.kind is EdgeKind.PDG:
            succ.setdefault(e.src, []).append(e.dst)
    for source, sink in claims.tolist():
        # As rows_of: an int naming a node; nothing else.
        if not all(isinstance(end, int) and end in ids for end in (source, sink)):
            return DataFlowClaim(source, sink)
        seen, frontier = {source}, [source]
        while frontier:
            frontier = [d for s in frontier for d in succ.get(s, []) if d not in seen]
            seen.update(frontier)
        if sink not in seen:
            return DataFlowClaim(source, sink)
    return None


def build_corpus(g: CpgGraph, functions: Sequence[int], annotator) -> VerifiedCorpus:
    """The corpus gate one function at a time: annotate, then verify."""
    corpus = VerifiedCorpus()
    context = {"binary_id": g.binary_id}
    for fid in functions:
        view = function_subgraph(g, fid)
        try:
            ann = annotator.annotate(view, context)
        except Exception:
            corpus.failed_count += 1
            continue
        if first_failing_claim(g, ann.claims) is None:
            corpus.accepted.append(ann)
        else:
            corpus.rejected_count += 1
    return corpus


def kg_document(kg: SsckgGraph) -> dict:
    """The graph's document, entity by entity and relation by relation."""
    return {
        "source_binary": kg.source_binary,
        "clustering": kg.clustering,
        "entities": [{"id": e.id, "name": e.name, "label": str(e.label),
                      "members": sorted(e.members.tolist()), "summary": e.summary,
                      "embedding": None if e.embedding is None else e.embedding.tolist(),
                      "external": e.external, "cluster_id": e.cluster_id}
                     for e in kg.entities],
        "relations": [{"src": r.src, "rel_type": r.rel_type, "dst": r.dst, "weight": r.weight}
                      for r in relation_rows(kg)],
    }


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
        raise SchemaError(f"state must be (n, {cfg.hidden_dim}), got {z.shape}")
    if dist.shape != (n, n):
        raise SchemaError(f"distance matrix must be {(n, n)}, got {dist.shape}")
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


# --- scoring ------------------------------------------------------------------------

def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding drift."""
    if len(a) != len(b):
        raise SchemaError(f"cosine of {len(a)}-dim and {len(b)}-dim vectors")
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise SchemaError("cosine with a zero-norm vector is undefined")
    val = float(np.dot(a, b) / (norm_a * norm_b))
    return max(-1.0, min(1.0, val))


def cve_similarity_ref(entities: Sequence[Entity], cves: Sequence[CveRecord]) -> np.ndarray:
    """The entity x CVE cosines pair by pair; a row of -1 for an entity
    with no summary vector or a zero one."""
    sims = np.full((len(entities), len(cves)), -1.0)
    for i, ent in enumerate(entities):
        if ent.embedding is not None and np.linalg.norm(ent.embedding) != 0.0:
            sims[i] = [cosine(ent.embedding, cve.embedding) for cve in cves]
    return sims


def propagate_dense(kg: SsckgGraph, inherent: dict[int, float],
                    config: PropagationConfig) -> RiskVector:
    """The damped update, each sweep one product with a dense n x n
    transition filled from ``normalize_weights``' columns."""
    order = kg.entity_ids.tolist()
    inh = np.array([float(inherent.get(eid, 0.0)) for eid in order])
    dst, src, coeff = normalize_weights(kg)
    transition = np.zeros((len(order), len(order)))
    transition[dst, src] = coeff
    connected = np.bincount(dst, minlength=len(order)) > 0
    scores = inh.copy()
    residual = float("inf")
    for iteration in range(1, config.max_iterations + 1):
        nxt = config.beta * inh + (1.0 - config.beta) * (transition @ scores)
        nxt[~connected] = inh[~connected]
        residual = float(np.abs(nxt - scores).sum())
        scores = nxt
        if residual < config.tolerance:
            return RiskVector(dict(zip(order, scores.tolist())), iteration, residual,
                              frozenset(kg.entity_ids[connected].tolist()))
    raise NonConvergence(residual=residual, iterations=config.max_iterations)


def to_dot_ref(kg: SsckgGraph, risk: dict[int, float] | None = None,
               bands: dict[str, float] | None = None) -> str:
    """The DOT text, one line per entity, relation and CVE, joined once."""
    bands = bands or {"high": 0.7, "medium": 0.4}

    def quoted(text):  # inside a DOT string: backslash and double quote escaped
        return "".join("\\" + ch if ch in '\\"' else ch for ch in text)

    lines = ["digraph ssckg {", "  rankdir=LR;", "  node [shape=box];"]
    for e in kg.entities:
        color, extra = "gray90", ""
        if risk is not None and e.id in risk:
            band = ("high" if risk[e.id] >= bands["high"]
                    else "medium" if risk[e.id] >= bands["medium"] else "low")
            color = {"high": "firebrick", "medium": "orange", "low": "gray70"}[band]
            extra = f"\\nrisk={risk[e.id]:.3f}"
        lines.append(f'  e{e.id} [label="{quoted(e.name)}\\n{quoted(str(e.label))}{extra}", '
                     f'style=filled, fillcolor="{color}"];')
    cves = []
    for r in relation_rows(kg):
        if isinstance(r.dst, str):
            cves += [] if r.dst in cves else [r.dst]
            lines.append(f'  e{r.src} -> "cve_{quoted(r.dst)}" [label="{r.rel_type.value}"];')
        else:
            lines.append(f'  e{r.src} -> e{r.dst} [label="{r.rel_type.value}"];')
    lines += [f'  "cve_{quoted(c)}" [shape=ellipse, label="{quoted(c)}"];' for c in cves]
    return "\n".join(lines + ["}"]) + "\n"
