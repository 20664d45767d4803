"""Compression of instruction-level graphs into entity-level graphs.

The pipeline here is: collapse nodes into entities along structural
boundaries (one entity per block or per function), optionally merge
externally-linked entities whose summaries cluster together, then
extract typed relations between entities.  The result is a small
knowledge graph (entities + eight relation types) that the scoring
stages operate on.

Relation types and default weights:

    taints 1.0, vulnerable_to 1.0, reaches 0.8, writes_to 0.6,
    reads_from 0.4, calls 0.3, depends_on 0.2, imports 0.2

vulnerable_to points from an entity to a CVE identifier (a string);
every other relation connects two entities.  Parallel relations of
distinct types between the same pair are meaningful and kept; exact
(src, type, dst) duplicates are dropped.

A graph's relations are stored as columns (``RelationColumns``), not as
one object per relation.  In row order they are: int64 ``src``, int8
``type_code`` (an index into ``RELATION_TYPES``, which is also the
model's bias-table index), int64 ``dst``, float64 ``weight``, and
``cve``, the CVE id of each vulnerable_to row by row (whose ``dst`` is
0).  ``extract_relations`` returns them sorted by src, then type name,
then dst as a string.  Relation ids are plain integers, not booleans,
and every weight is finite and positive.

One converter, ``_relations``, turns JSON-shaped relation rows into
columns; as ``cpg``'s converters do, it walks the rows for the first
offender only when a check over all of them fails.  The constructor,
``SsckgGraph(entities, relations)``, takes the columns and checks the
ids, ends and weights across the graph.
``load_ssckg`` reads the file in windows (``errors.read_rows``) and
turns each chunk of entity rows into entities, and each chunk of
relation rows into columns, before it decodes the next, for a faulty
file too, whose first fault it names as a reading of the whole file
would.
``dumps_ssckg`` is the join of ``ssckg_chunks``, which writes the bytes
``errors.dumps_json`` would a block of rows at a time, each relation
filled into a row template.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .cpg import (AST_CODE, PDG_CODE, CpgGraph, _codes, _floats, _int64, _is_id,
                  _raise_first_fault, _search, group_rows)
from .embedding import EmbeddingVector, cosine, stack
from .errors import (ParseError, SchemaError, ZeroVector, collector_paused, json_chunks,
                     json_value, read_json, read_rows)
from .lattice import TOP, Label, join, leq
from .lifting import Annotation, VerifiedCorpus


class RelationType(str, Enum):
    CALLS = "calls"
    DEPENDS_ON = "depends_on"
    IMPORTS = "imports"
    READS_FROM = "reads_from"
    WRITES_TO = "writes_to"
    TAINTS = "taints"
    REACHES = "reaches"
    VULNERABLE_TO = "vulnerable_to"


# The type of each relation type code; a code is also the model's bias-table index.
RELATION_TYPES: tuple[RelationType, ...] = tuple(RelationType)
RELATION_INDEX: dict[RelationType, int] = {t: i for i, t in enumerate(RELATION_TYPES)}
# A str-valued member hashes and compares as its value, so this table
# takes the JSON text and the member alike.
_TYPE_CODES = {t.value: code for code, t in enumerate(RELATION_TYPES)}
VULN_CODE = RELATION_INDEX[RelationType.VULNERABLE_TO]
# Rows sort by type name, not by code: the rank of each code's name.
_NAME_RANK = np.argsort(np.argsort([t.value for t in RELATION_TYPES])).astype(np.int8)


DEFAULT_WEIGHTS: dict[RelationType, float] = {
    RelationType.TAINTS: 1.0,
    RelationType.REACHES: 0.8,
    RelationType.VULNERABLE_TO: 1.0,
    RelationType.WRITES_TO: 0.6,
    RelationType.READS_FROM: 0.4,
    RelationType.CALLS: 0.3,
    RelationType.DEPENDS_ON: 0.2,
    RelationType.IMPORTS: 0.2,
}


class Granularity(Enum):
    BLOCK = "block"
    FUNCTION = "function"


@dataclass(frozen=True, eq=False)
class Entity:
    """An elevated entity: a set of instruction nodes with one identity."""

    id: int
    name: str
    label: Label
    members: frozenset[int]
    summary: str = ""
    embedding: EmbeddingVector | None = None
    external: bool = False
    # DBSCAN outcome: None = never clustered, -1 = noise, >=0 = cluster id.
    cluster_id: int | None = None


def check_relation_weight(weight: float) -> None:
    """The weight rule of a relation; SchemaError unless weight is finite and positive."""
    if not (math.isfinite(weight) and weight > 0):
        raise SchemaError(f"relation weight must be finite and positive, got {weight}")


@dataclass(frozen=True)
class CveRecord:
    cve_id: str
    description: str
    embedding: EmbeddingVector


class RelationColumns:
    """Relations as columns, in row order; see the module docstring.

    ``len`` is the number of relations.
    """

    def __init__(self, src: np.ndarray, type_code: np.ndarray, dst: np.ndarray,
                 weight: np.ndarray, cve: Mapping[int, str]):
        self.src = src
        self.type_code = type_code
        self.dst = dst
        self.weight = weight
        self.cve = dict(cve)  # row -> CVE id, in row order

    @classmethod
    def joined(cls, parts: Sequence[RelationColumns]) -> RelationColumns:
        """The rows of parts one after another: the cve rows of each part
        shift by the rows of the parts before it."""
        if len(parts) == 1:
            return parts[0]
        starts = np.cumsum([0] + [len(p) for p in parts]).tolist()
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("src", "type_code", "dst", "weight")),
                   {start + row: cve_id for p, start in zip(parts, starts)
                    for row, cve_id in p.cve.items()})

    def __len__(self) -> int:
        return len(self.src)

    def dst_values(self) -> list[int | str]:
        """Each row's target: an entity id, or a CVE id on vulnerable_to rows."""
        dst = self.dst.tolist()
        for row, cve_id in self.cve.items():
            dst[row] = cve_id
        return dst

    def entity_rows(self) -> np.ndarray:
        """Mask of the rows between two entities (everything but CVE links)."""
        return self.type_code != VULN_CODE


def _check_relation(raw, pos: int) -> None:
    if not isinstance(raw, dict):
        raise SchemaError(f"relation at index {pos} must be an object")
    try:
        src, type_name, dst, weight = raw["src"], raw["rel_type"], raw["dst"], raw["weight"]
    except KeyError as exc:
        raise SchemaError(f"relation at index {pos} is missing required field {exc}") from None
    try:
        code = _TYPE_CODES[type_name]
    except (KeyError, TypeError):
        raise SchemaError(f"relation at index {pos} has unknown rel_type "
                          f"{type_name!r}") from None
    if not _is_id(src):
        raise SchemaError(f"relation at index {pos} has non-integer src {src!r}")
    if code == VULN_CODE and type(dst) is not str:
        raise SchemaError(f"relation at index {pos} is vulnerable_to, whose dst must be "
                          f"a CVE id string, got {dst!r}")
    if code != VULN_CODE and not _is_id(dst):
        raise SchemaError(f"relation at index {pos} has non-integer dst {dst!r}")
    if _floats([weight]) is None:
        raise SchemaError(f"relation at index {pos} has weight {weight!r}, which is no float")


class SsckgGraph:
    """Entity-level knowledge graph, immutable after construction."""

    def __init__(self, entities: Sequence[Entity], relations: RelationColumns,
                 source_binary: str = "", clustering: Mapping | None = None):
        """Check the entity ids and members and the relations' ends and
        weights; entities are kept in id order."""
        if type(source_binary) is not str:
            raise SchemaError(f"'source_binary' must be a string, got {source_binary!r}")
        entities = list(entities)
        ids = _int64([e.id for e in entities])
        if ids is None:
            pos = next(i for i, e in enumerate(entities) if not _is_id(e.id))
            raise SchemaError(f"entity at index {pos} has non-integer id {entities[pos].id!r}")
        if not set(map(type, chain.from_iterable(e.members for e in entities))) <= {int}:
            ent, member = next((e, m) for e in entities for m in e.members if type(m) is not int)
            raise SchemaError(f"entity {ent.id} has non-integer member {member!r}")
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        duplicate = np.zeros(len(ids), dtype=bool)
        duplicate[order[1:]] = sorted_ids[1:] == sorted_ids[:-1]
        if duplicate.any():
            raise SchemaError(f"duplicate entity id {ids[np.argmax(duplicate)]}")

        _, src_found = _search(sorted_ids, relations.src)
        _, dst_found = _search(sorted_ids, relations.dst)
        weight_ok = np.isfinite(relations.weight) & (relations.weight > 0)
        dst_found |= ~relations.entity_rows()
        bad = ~(src_found & dst_found & weight_ok)
        if bad.any():
            i = int(np.argmax(bad))
            try:
                check_relation_weight(float(relations.weight[i]))
            except SchemaError as exc:
                raise SchemaError(f"relation at index {i}: {exc}") from None
            if not src_found[i]:
                raise SchemaError(f"relation at index {i}: source {relations.src[i]} "
                                  "is not an entity")
            raise SchemaError(f"relation at index {i}: target {relations.dst[i]} "
                              "is not an entity")

        self.entities: tuple[Entity, ...] = tuple(entities[i] for i in order.tolist())
        self.entity_ids = sorted_ids
        self.relation_columns = relations
        self.source_binary = source_binary
        self.clustering = dict(clustering) if clustering else None

    def __len__(self) -> int:
        return len(self.entities)

    def positions(self, entity_ids: np.ndarray) -> np.ndarray:
        """Position in ``entities`` of each of the graph's entity ids."""
        return np.searchsorted(self.entity_ids, entity_ids)


def structural_collapse(g: CpgGraph, granularity: Granularity = Granularity.FUNCTION,
                        corpus: VerifiedCorpus | Mapping[str, Annotation] | None = None,
                        ) -> list[Entity]:
    """One entity per distinct block or function; members partition the nodes.

    Accepted annotations attach their label and summary to the entity
    covering the annotated function; entities whose functions carry no
    accepted annotation stay at top with an empty summary.  Entity ids
    are assigned by ascending group key, so collapse is deterministic.
    An entity is named by the first of its nodes, in id order, that
    sets ``function_name``.
    """
    annotations: dict[str, Annotation] = {}
    if isinstance(corpus, VerifiedCorpus):
        annotations = {a.function_id: a for a in corpus.accepted}
    elif corpus:
        annotations = {str(k): v for k, v in corpus.items()}

    by_block = granularity is Granularity.BLOCK
    groups = group_rows(g.node_block) if by_block else g.function_rows
    entity_of_row = np.empty(len(g), dtype=np.int64)
    for eid, rows in enumerate(groups.values()):
        entity_of_row[rows] = eid
    # Only rows with attrs can name an entity or mark it external; rows
    # ascend with node id.
    names: dict[int, str] = {}
    external: set[int] = set()
    attr_rows = sorted(g.attrs)
    for row, eid in zip(attr_rows, entity_of_row[attr_rows].tolist()):
        attrs = g.attrs[row]
        if eid not in names and attrs.get("function_name", ""):
            names[eid] = attrs["function_name"]
        if attrs.get("external") == "true":
            external.add(eid)

    prefix = "block" if by_block else "func"
    entities: list[Entity] = []
    for eid, (key, rows) in enumerate(groups.items()):
        fids = np.unique(g.node_function[rows]).tolist() if by_block else [key]
        covered = [annotations[str(fid)] for fid in fids if str(fid) in annotations]
        # Fold the covered functions' labels with join; no annotation
        # leaves the entity at top.
        if covered:
            label = covered[0].label
            for ann in covered[1:]:
                label = join(label, ann.label)
        else:
            label = TOP
        entities.append(Entity(
            id=eid,
            name=names.get(eid, f"{prefix}_{key}"),
            label=label,
            members=frozenset(g.node_id[rows].tolist()),
            summary=" ".join(a.summary for a in covered),
            external=eid in external,
        ))
    return entities


def embed_entities(entities: Sequence[Entity], provider) -> list[Entity]:
    """Fill each entity's embedding from its summary text."""
    return [replace(e, embedding=provider.embed(e.summary)) for e in entities]


def check_dbscan_params(eps: float, min_samples: int) -> None:
    """The parameter rule of dbscan; ValueError names the bad one."""
    if not eps >= 0:  # NaN too: it would make every point noise
        raise ValueError(f"dbscan eps must be non-negative, got {eps}")
    if min_samples < 1:
        raise ValueError(f"dbscan min_samples must be at least 1, got {min_samples}")


def dbscan(points, eps: float, min_samples: int) -> np.ndarray:
    """Density clustering under cosine distance (1 - cosine similarity).

    Classic seeded expansion, scanning points in input order.  A point
    is core when its eps-neighborhood (inclusive, counting itself)
    holds at least min_samples points.  Border points go to the first
    cluster discovered that reaches them, which makes the labeling
    deterministic for a fixed input order.  Noise is labeled -1.
    """
    if isinstance(points, np.ndarray):
        mat = np.asarray(points, dtype=np.float64)
    else:
        mat = stack(points)
    n = mat.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    check_dbscan_params(eps, min_samples)
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("cosine distance undefined for zero-norm points")
    unit = mat / norms[:, None]
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    neighbors = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    is_core = np.array([len(nb) >= min_samples for nb in neighbors])

    labels = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cluster = -1
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        if not is_core[start]:
            continue  # stays noise unless a later cluster claims it as border
        cluster += 1
        labels[start] = cluster
        queue = deque(int(j) for j in neighbors[start] if j != start)
        enqueued = set(int(j) for j in neighbors[start] if j != start)
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cluster
            visited[j] = True
            if is_core[j]:
                for k in neighbors[j]:
                    k = int(k)
                    if labels[k] == -1 and k not in enqueued:
                        enqueued.add(k)
                        queue.append(k)
    return labels


def semantic_clustering(entities: Sequence[Entity], provider,
                        eps: float = 0.3, min_samples: int = 2) -> list[Entity]:
    """Merge externally-linked entities whose summaries cluster together.

    Only entities flagged external are eligible; everything else passes
    through untouched.  Entities sharing a DBSCAN cluster merge into
    one entity: member union, label join, the lexicographically
    smallest member name plus a cluster suffix, and the concatenated
    summaries re-embedded.  Noise points survive as singletons with
    cluster_id -1.
    """
    eligible = [e for e in entities if e.external]
    rest = [e for e in entities if not e.external]
    if not eligible:
        return sorted(entities, key=lambda e: e.id)

    embedded = [e if e.embedding is not None else replace(e, embedding=provider.embed(e.summary))
                for e in eligible]
    labels = dbscan([e.embedding for e in embedded], eps=eps, min_samples=min_samples)

    out = list(rest)
    by_cluster: dict[int, list[Entity]] = {}
    for ent, lab in zip(embedded, labels):
        if lab == -1:
            out.append(replace(ent, cluster_id=-1))
        else:
            by_cluster.setdefault(int(lab), []).append(ent)
    for k in sorted(by_cluster):
        members_ents = sorted(by_cluster[k], key=lambda e: e.id)
        merged_label = members_ents[0].label
        for ent in members_ents[1:]:
            merged_label = join(merged_label, ent.label)
        merged_members = frozenset().union(*(e.members for e in members_ents))
        base = min(e.name for e in members_ents)
        summary = " ".join(e.summary for e in members_ents)
        out.append(Entity(
            id=min(e.id for e in members_ents),
            name=f"{base}.c{k}",
            label=merged_label,
            members=merged_members,
            summary=summary,
            embedding=provider.embed(summary),
            external=True,
            cluster_id=k,
        ))
    return sorted(out, key=lambda e: e.id)


@dataclass
class RelationConfig:
    """Seeds for relation extraction; label strings use path syntax.

    structural_edge_labels maps syntax-edge labels (as emitted by the
    graph exporter) to structural relation types.  read_actions and
    write_actions decide reads_from / writes_to emission: a
    data-dependence edge from entity A to entity B emits
    (B, reads_from, A) when A's label falls under a read action, and
    (A, writes_to, B) when B's label falls under a write action.
    taint_sources / taint_sinks drive taints and reaches.
    """

    structural_edge_labels: dict[str, RelationType] = field(default_factory=lambda: {
        "call": RelationType.CALLS,
        "import": RelationType.IMPORTS,
        "depends_on": RelationType.DEPENDS_ON,
    })
    read_actions: tuple[str, ...] = ("Hardware/Register_Read", "Memory")
    write_actions: tuple[str, ...] = ("Hardware/Coil_Write", "Hardware/Firmware_Update", "Memory")
    taint_sources: tuple[str, ...] = ("Network/Protocol_Parse", "FileSystem")
    taint_sinks: tuple[str, ...] = ("Hardware/Coil_Write", "Hardware/Firmware_Update")
    weights: dict[RelationType, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))


def _under_any(labels: Sequence[Label], paths: Iterable[str]) -> np.ndarray:
    """Mask of the labels that fall under at least one of the paths."""
    parsed = [Label.parse(p) for p in paths]
    verdict: dict[Label, bool] = {}
    for label in labels:
        if label not in verdict:
            verdict[label] = any(leq(label, p) for p in parsed)
    return np.array([verdict[label] for label in labels], dtype=bool)


def _strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """Tarjan's strong components of the graph with n nodes and edges src -> dst.

    An iterative pass, so path length is not bounded by the recursion
    limit.  Returns the component count and each node's component
    number; components are numbered in the order Tarjan emits them,
    which puts every component after all the components it reaches.
    """
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    succ = dst[order].tolist()
    index = [-1] * n
    low = [0] * n
    component = [-1] * n  # -1 while the node is unvisited or on the stack
    stack: list[int] = []
    count = visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, indptr[root])]  # (node, next successor slot)
        while work:
            v, i = work[-1]
            end = indptr[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    work[-1] = (v, i)
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, indptr[w]))
                    break
                if component[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = count
                        if w == v:
                            break
                    count += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return count, np.array(component, dtype=np.int64)


def _reach(n: int, src: np.ndarray, dst: np.ndarray, sources: np.ndarray,
           sinks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, sink) position pairs joined by a path of at least one edge.

    The graph has n nodes and the edges src -> dst.  As in Nuutila's
    transitive closure (1995), the closure runs over the condensation:
    every node of a strong component reaches what the component
    reaches.  Tarjan numbers each component after those it reaches, so
    one pass in that order ORs each component's reach bitset (a Python
    int) from its successors'.  A component reaches itself over a
    nonempty path exactly when an edge stays inside it: it has more than
    one node, or a self-loop.  The pairs come source-major, each
    source's sinks in the order given.
    """
    if not len(sources) or not len(sinks):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    count, component = _strong_components(n, src, dst)
    csrc, cdst = component[src], component[dst]
    inner = csrc == cdst
    link = np.unique(csrc[~inner] * count + cdst[~inner])
    heads = np.searchsorted(link // count, np.arange(count + 1))
    succ = (link % count).tolist()
    bits = [0] * count
    for c in np.unique(csrc[inner]).tolist():
        bits[c] = 1 << c
    for c, (lo, hi) in enumerate(zip(heads[:-1].tolist(), heads[1:].tolist())):
        reach = bits[c]
        for d in succ[lo:hi]:
            reach |= bits[d] | 1 << d
        bits[c] = reach
    starts, start_of = np.unique(component[sources], return_inverse=True)
    width = (count + 7) // 8
    packed = b"".join(bits[c].to_bytes(width, "little") for c in starts.tolist())
    reach = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(starts), width),
                          axis=1, count=count, bitorder="little").astype(bool)
    rows, cols = np.nonzero(reach[start_of][:, component[sinks]])
    return sources[rows], sinks[cols]


def extract_relations(g: CpgGraph, entities: Sequence[Entity],
                      cves: Sequence[CveRecord] = (),
                      cve_match_threshold: float = 0.85,
                      config: RelationConfig | None = None) -> RelationColumns:
    """Derive the typed relation set connecting the given entities.

    Structural relations come from syntax edges whose label is mapped
    in the config; data-flow relations from inter-entity
    data-dependence edges and the read/write action sets; taints from
    inter-entity data-dependence reachability between taint sources
    and sinks; reaches from reachability over everything extracted so
    far plus raw inter-entity data dependence; vulnerable_to from
    summary-to-CVE cosine at or above the threshold.  Edges interior
    to one entity never produce relations.  The rows are distinct and
    sorted by src, then type name, then dst as a string.
    """
    cfg = config or RelationConfig()
    n = len(entities)
    ids = np.array([e.id for e in entities], dtype=np.int64)
    # The entity position of each node row that some entity lists; a
    # node listed twice belongs to the later entity.
    member_rows = g.rows_of(chain.from_iterable(e.members for e in entities))
    owner = np.repeat(np.arange(n), [len(e.members) for e in entities])
    listed = member_rows >= 0
    rows, last = np.unique(member_rows[listed][::-1], return_index=True)
    entity_of_row = np.zeros(len(g), dtype=np.int64)
    entity_of_row[rows] = owner[listed][::-1][last]
    owned = np.zeros(len(g), dtype=bool)
    owned[rows] = True
    src_entity = entity_of_row[g.edge_src_row]
    dst_entity = entity_of_row[g.edge_dst_row]
    between = owned[g.edge_src_row] & owned[g.edge_dst_row] & (src_entity != dst_entity)

    labels = [e.label for e in entities]
    is_read = _under_any(labels, cfg.read_actions)
    is_write = _under_any(labels, cfg.write_actions)
    sources = np.flatnonzero(_under_any(labels, cfg.taint_sources))
    sinks = np.flatnonzero(_under_any(labels, cfg.taint_sinks))

    # Structural relations from mapped syntax-edge labels.
    mapped = [cfg.structural_edge_labels.get(label) for label in g.labels]
    label_code = np.array([-1 if t is None else RELATION_INDEX[t] for t in mapped],
                          dtype=np.int8)
    ast = np.flatnonzero(between & (g.edge_kind == AST_CODE))
    struct_code = label_code[g.edge_label[ast]]
    ast = ast[struct_code >= 0]
    struct_code = struct_code[struct_code >= 0]
    if (struct_code == VULN_CODE).any():
        raise SchemaError("only vulnerable_to relations may target a CVE id")

    # Distinct inter-entity data-dependence pairs, and data-flow
    # relations over them.
    pdg = between & (g.edge_kind == PDG_CODE)
    pair = np.unique(src_entity[pdg] * n + dst_entity[pdg])
    pdg_src, pdg_dst = pair // n, pair % n
    writes, reads = is_write[pdg_dst], is_read[pdg_src]

    parts = [  # (src, code, dst) position columns
        (src_entity[ast], struct_code, dst_entity[ast]),
        (pdg_src[writes], RELATION_INDEX[RelationType.WRITES_TO], pdg_dst[writes]),
        (pdg_dst[reads], RELATION_INDEX[RelationType.READS_FROM], pdg_src[reads]),
    ]
    # Taints: data-dependence reachability from an input-bearing entity
    # to a sensitive one.
    taint_src, taint_dst = _reach(n, pdg_src, pdg_dst, sources, sinks)
    # Reaches: any directed path over structural relations, data-flow
    # relations, and raw inter-entity data dependence.  A taint relation
    # joins a pair that data dependence already joins, so it adds no path.
    flow_src = np.concatenate([pdg_src] + [part[0] for part in parts])
    flow_dst = np.concatenate([pdg_dst] + [part[2] for part in parts])
    reach_src, reach_dst = _reach(n, flow_src, flow_dst, sources, sinks)
    parts.append((taint_src, RELATION_INDEX[RelationType.TAINTS], taint_dst))
    parts.append((reach_src, RELATION_INDEX[RelationType.REACHES], reach_dst))

    # Entity targets sort by their ids as strings ("10" before "9").
    text_rank = np.empty(n, dtype=np.int64)
    text_rank[sorted(range(n), key=lambda i: str(entities[i].id))] = np.arange(n)
    src = np.concatenate([part[0] for part in parts])
    code = np.concatenate([np.broadcast_to(part[1], part[0].shape).astype(np.int8)
                           for part in parts])
    dst = np.concatenate([part[2] for part in parts])
    rank = text_rank[dst]

    # CVE matches on summary embeddings; a CVE target's rank is its place
    # among the matched CVE ids.
    matched: dict[int, dict[str, None]] = {}
    if cves:
        for pos, ent in enumerate(entities):
            if ent.embedding is None or ent.embedding.norm == 0.0:
                continue
            hits = dict.fromkeys(cve.cve_id for cve in cves
                                 if cosine(ent.embedding, cve.embedding) >= cve_match_threshold)
            if hits:
                matched[pos] = hits
    cve_ids = sorted(set(chain.from_iterable(matched.values())))
    cve_rank = {cve_id: i for i, cve_id in enumerate(cve_ids)}
    links = [(pos, cve_rank[cve_id]) for pos, hits in matched.items() for cve_id in hits]
    link_src, link_rank = np.array(links, dtype=np.int64).reshape(-1, 2).T
    src = np.concatenate([src, link_src])
    code = np.concatenate([code, np.full(len(links), VULN_CODE, dtype=np.int8)])
    dst = np.concatenate([dst, link_rank])
    rank = np.concatenate([rank, link_rank])

    # lexsort's last key is the primary one; equal rows end up adjacent.
    order = np.lexsort((rank, _NAME_RANK[code], ids[src]))
    src, code, dst = src[order], code[order], dst[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (src[1:] != src[:-1]) | (code[1:] != code[:-1]) | (dst[1:] != dst[:-1])
    src, code, dst = src[fresh], code[fresh], dst[fresh]

    weights = np.zeros(len(RELATION_TYPES))
    for c in np.unique(code).tolist():
        weights[c] = cfg.weights[RELATION_TYPES[c]]
        check_relation_weight(weights[c])
    vuln = code == VULN_CODE
    dst_id = np.zeros(len(dst), dtype=np.int64)
    dst_id[~vuln] = ids[dst[~vuln]]
    cve = dict(zip(np.flatnonzero(vuln).tolist(), map(cve_ids.__getitem__, dst[vuln].tolist())))
    return RelationColumns(ids[src], code, dst_id, weights[code], cve)


VULN_RELATION_TYPES = {RelationType.TAINTS, RelationType.REACHES,
                       RelationType.VULNERABLE_TO}


def construction_stats(g: CpgGraph, kg: SsckgGraph) -> dict:
    """Compression and composition summary for one built graph."""
    n_nodes = len(g)
    n_entities = len(kg)
    n_rel = len(kg.relation_columns)
    n_vuln = int(np.isin(kg.relation_columns.type_code,
                         [RELATION_INDEX[t] for t in VULN_RELATION_TYPES]).sum())
    clustering = kg.clustering or {}
    points = int(clustering.get("points", 0))
    noise = int(clustering.get("noise", 0))
    return {
        "cpg_nodes": n_nodes,
        "entities": n_entities,
        "compression_ratio": n_nodes / n_entities if n_entities else 0.0,
        "relation_count": n_rel,
        "vuln_relation_fraction": n_vuln / n_rel if n_rel else 0.0,
        "noise_fraction": noise / points if points else 0.0,
    }


# --- CVE corpus ----------------------------------------------------------------

def load_cves(path: str | Path, provider) -> list[CveRecord]:
    """Read a JSON list of {cve_id, description}; embeddings are cached here."""
    doc = read_json(path, "CVE corpus")
    if not isinstance(doc, list):
        raise SchemaError(f"CVE corpus {path} must be a JSON list")
    out = []
    for i, raw in enumerate(doc):
        if not isinstance(raw, dict) or "cve_id" not in raw or "description" not in raw:
            raise SchemaError(f"CVE corpus {path}: record {i} needs 'cve_id' and 'description'")
        for key in ("cve_id", "description"):
            if type(raw[key]) is not str:
                raise SchemaError(f"CVE corpus {path}: record {i} has non-string {key} "
                                  f"{raw[key]!r}")
        desc = raw["description"]
        out.append(CveRecord(cve_id=raw["cve_id"], description=desc,
                             embedding=provider.embed(desc)))
    return out


# --- serialization ---------------------------------------------------------------

def _relation_template(rel_type: RelationType) -> str:
    dst = "%s" if rel_type is RelationType.VULNERABLE_TO else "%d"
    return ('{\n      "dst": ' + dst + ',\n      "rel_type": "' + rel_type.value + '",\n'
            '      "src": %d,\n      "weight": %r\n    }')


_RELATION_TEMPLATES = [_relation_template(t) for t in RELATION_TYPES]
_RELATION_BLOCK = 1024  # relation rows per chunk ssckg_chunks yields
_ENTITY_BLOCK = 16  # entity rows per chunk: each may hold a long vector


def _entity_doc(e: Entity) -> dict:
    return {
        "id": e.id,
        "name": e.name,
        "label": str(e.label),
        "members": sorted(e.members),
        "summary": e.summary,
        "embedding": e.embedding.values.tolist() if e.embedding is not None else None,
        "external": e.external,
        "cluster_id": e.cluster_id,
    }


def dumps_ssckg(kg: SsckgGraph) -> str:
    """Canonical serialization: the bytes ``errors.dumps_json`` writes for
    the graph's document."""
    return "".join(ssckg_chunks(kg))


def ssckg_chunks(kg: SsckgGraph) -> Iterator[str]:
    """The text of ``dumps_ssckg`` in chunks, for ``pipeline.write_atomic``."""
    cols = kg.relation_columns
    entities = kg.entities

    def relations(lo: int, hi: int) -> list[str]:
        dst = cols.dst[lo:hi].tolist()
        for row in np.flatnonzero(cols.type_code[lo:hi] == VULN_CODE).tolist():
            dst[row] = encode_basestring_ascii(cols.cve[lo + row])
        return [_RELATION_TEMPLATES[c] % (d, s, w) for c, d, s, w in zip(
            cols.type_code[lo:hi].tolist(), dst, cols.src[lo:hi].tolist(),
            cols.weight[lo:hi].tolist())]

    def entity_rows(lo: int, hi: int) -> list[str]:
        return [json_value(_entity_doc(e), 2) for e in entities[lo:hi]]

    # The keys in sorted order: clustering, entities, relations, source_binary.
    yield '{\n  "clustering": ' + json_value(kg.clustering, 1) + ',\n  "entities": '
    yield from json_chunks(entity_rows, len(entities), _ENTITY_BLOCK, 1)
    yield ',\n  "relations": '
    yield from json_chunks(relations, len(cols), _RELATION_BLOCK, 1)
    yield ',\n  "source_binary": ' + encode_basestring_ascii(kg.source_binary) + "\n}\n"


def load_ssckg(path: str | Path) -> SsckgGraph:
    """Read and validate a KG file.

    ``errors.read_rows`` reads the file in windows: each chunk of entity
    rows becomes ``Entity`` objects, and each chunk of relation rows a
    part of the relation columns, before the next chunk is decoded, for a
    faulty file too.  The error names the first fault: a syntax fault
    anywhere in the file, then the entities, the relations, the
    clustering and the graph.  A missing array is an empty one.
    """
    try:
        with collector_paused():
            with open(path, encoding="utf-8") as source:
                try:
                    doc, rows = read_rows(source, _KG_ARRAYS)
                except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                    raise ParseError(f"KG file {path} is not valid JSON: {exc}") from None
            for key in _KG_ARRAYS:
                if key in doc:
                    raise SchemaError(f"'{key}' must be a list")
                if isinstance(rows.get(key), Exception):  # the first faulty row
                    raise rows[key]
            relations = rows["relations"] if "relations" in rows else _relations([])
            return _ssckg(rows.get("entities", []), relations, doc)
    except SchemaError as exc:
        raise SchemaError(f"KG file {path}: {exc}") from None


def _entities(raw_rows: list, start: int = 0) -> list[Entity]:
    """The entities of a KG file's rows; a SchemaError names the first
    faulty row (by its index in the array, start being that of the first
    row here) and field."""
    return [_entity(raw, pos) for pos, raw in enumerate(raw_rows, start)]


def _entity(raw, pos: int) -> Entity:
    if type(raw) is not dict:
        raise SchemaError(f"entity at index {pos} must be an object")
    try:
        entity_id, name, label = raw["id"], raw["name"], raw["label"]
    except KeyError as exc:
        raise SchemaError(f"entity at index {pos} is missing required field {exc}") from None
    summary, members, emb = raw.get("summary", ""), raw.get("members", []), raw.get("embedding")
    external, cluster_id = raw.get("external", False), raw.get("cluster_id")
    for key, value in (("name", name), ("summary", summary)):
        if type(value) is not str:
            raise SchemaError(f"entity at index {pos} has non-string {key} {value!r}")
    if type(external) is not bool:
        raise SchemaError(f"entity at index {pos} has non-boolean external {external!r}")
    if cluster_id is not None and type(cluster_id) is not int:
        raise SchemaError(f"entity at index {pos} has cluster_id {cluster_id!r}, "
                          "which is neither an integer nor null")
    if type(label) is not str:
        raise SchemaError(f"entity at index {pos} has non-string label {label!r}")
    if type(members) is not list:
        raise SchemaError(f"entity at index {pos} has members {members!r}, which is not a list")
    try:
        members = frozenset(members)
    except TypeError:  # a list or an object among them; other types are the core's to name
        member = next(m for m in members if isinstance(m, (list, dict)))
        raise SchemaError(f"entity at index {pos} has non-integer member {member!r}") from None
    if emb is not None:
        if type(emb) is not list or not set(map(type, emb)) <= {int, float}:
            raise SchemaError(f"entity at index {pos} has an embedding that is not "
                              "a flat list of numbers")
        try:
            emb = EmbeddingVector(emb)
        except (OverflowError, ValueError):  # NaN, +-inf, or an int past the float range
            raise SchemaError(f"entity at index {pos} has an embedding with "
                              "a non-finite value") from None
    return Entity(id=entity_id, name=name, label=Label.parse(label), members=members,
                  summary=summary, embedding=emb, external=external, cluster_id=cluster_id)


def _relations(raw_rows: list, start: int = 0) -> RelationColumns:
    """The typed columns of JSON-shaped relation rows; a fault raises the
    SchemaError of the first faulty row, named as by ``_entities``."""
    try:
        srcs, types, dsts, weights = (list(map(itemgetter(key), raw_rows))
                                      for key in ("src", "rel_type", "dst", "weight"))
    except (KeyError, TypeError):  # a row is no object or lacks a field
        _raise_first_fault(raw_rows, start, _check_relation)
    src, code, weight = _int64(srcs), _codes(types, _TYPE_CODES), _floats(weights)
    dst, cve = None, {}
    if code is not None:
        vuln = code == VULN_CODE
        cve = {row: dsts[row] for row in np.flatnonzero(vuln).tolist()}
        if not cve:
            dst = _int64(dsts)
        elif set(map(type, cve.values())) <= {str}:
            entity_dst = _int64(list(compress(dsts, (~vuln).tolist())))
            if entity_dst is not None:
                dst = np.zeros(len(dsts), dtype=np.int64)
                dst[~vuln] = entity_dst
    if src is None or code is None or dst is None or weight is None:
        _raise_first_fault(raw_rows, start, _check_relation)
    return RelationColumns(src, code, dst, weight, cve)


# The arrays of a KG file, as read_rows takes them, (convert, join), in the
# order their faults are named.
_KG_ARRAYS = {"entities": (_entities, lambda parts: list(chain.from_iterable(parts))),
              "relations": (_relations, RelationColumns.joined)}


def _ssckg(entities: list[Entity], relations: RelationColumns, doc: Mapping) -> SsckgGraph:
    """The graph of a KG file's entities and relations and the small
    values of its document."""
    clustering = doc.get("clustering")
    if clustering is not None and type(clustering) is not dict:
        raise SchemaError(f"'clustering' must be an object or null, got {clustering!r}")
    return SsckgGraph(entities, relations, source_binary=doc.get("source_binary", ""),
                      clustering=clustering)


_BAND_COLORS = {"high": "firebrick", "medium": "orange", "low": "gray70"}
_DOT_EDGE_TEMPLATES = ['  e%d -> "cve_%s" [label="vulnerable_to"];'
                       if t is RelationType.VULNERABLE_TO
                       else '  e%d -> e%d [label="' + t.value + '"];' for t in RELATION_TYPES]


def to_dot(kg: SsckgGraph, risk: Mapping[int, float] | None = None,
           bands: Mapping[str, float] | None = None) -> str:
    """Render the graph as DOT; risk scores color entities by band."""
    bands = dict(bands or {"high": 0.7, "medium": 0.4})
    lines = ["digraph ssckg {", "  rankdir=LR;", "  node [shape=box];"]
    for e in kg.entities:
        color = "gray90"
        extra = ""
        if risk is not None and e.id in risk:
            score = risk[e.id]
            band = "low"
            if score >= bands["high"]:
                band = "high"
            elif score >= bands["medium"]:
                band = "medium"
            color = _BAND_COLORS[band]
            extra = f"\\nrisk={score:.3f}"
        lines.append(
            f'  e{e.id} [label="{e.name}\\n{e.label}{extra}", style=filled, fillcolor="{color}"];')
    cols = kg.relation_columns
    lines += [_DOT_EDGE_TEMPLATES[c] % (s, d) for c, s, d in zip(
        cols.type_code.tolist(), cols.src.tolist(), cols.dst_values())]
    for cve_id in dict.fromkeys(cols.cve.values()):
        lines.append(f'  "cve_{cve_id}" [shape=ellipse, label="{cve_id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
