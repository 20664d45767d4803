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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cpg import AST_CODE, PDG_CODE, CpgGraph, group_rows
from .embedding import EmbeddingVector, cosine, stack
from .errors import SchemaError, ZeroVector, dumps_json, read_json
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


_RELATION_TYPES = {t.value: t for t in RelationType}


def relation_type(name) -> RelationType:
    """The relation type named name; ValueError when there is none."""
    try:
        return _RELATION_TYPES[name]
    except (KeyError, TypeError):
        raise ValueError(f"{name!r} is not a valid RelationType") from None


# Stable index used for model bias tables.
RELATION_INDEX: dict[RelationType, int] = {t: i for i, t in enumerate(RelationType)}

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
    """The weight rule of Relation; SchemaError when weight is not positive."""
    if weight <= 0:
        raise SchemaError(f"relation weight must be positive, got {weight}")


@dataclass(frozen=True)
class Relation:
    src: int
    rel_type: RelationType
    dst: int | str  # entity id, or CVE id for vulnerable_to
    weight: float

    def __post_init__(self):
        check_relation_weight(self.weight)
        if (self.rel_type is RelationType.VULNERABLE_TO) != isinstance(self.dst, str):
            raise SchemaError("only vulnerable_to relations may target a CVE id")


@dataclass(frozen=True)
class CveRecord:
    cve_id: str
    description: str
    embedding: EmbeddingVector


class SsckgGraph:
    """Entity-level knowledge graph, immutable after construction."""

    def __init__(self, entities: Sequence[Entity], relations: Sequence[Relation],
                 source_binary: str = "", clustering: Mapping | None = None):
        by_id: dict[int, Entity] = {}
        for ent in entities:
            if ent.id in by_id:
                raise SchemaError(f"duplicate entity id {ent.id}")
            by_id[ent.id] = ent
        for rel in relations:
            if rel.src not in by_id:
                raise SchemaError(f"relation source {rel.src} is not an entity")
            if isinstance(rel.dst, int) and rel.dst not in by_id:
                raise SchemaError(f"relation target {rel.dst} is not an entity")
        self.entities: tuple[Entity, ...] = tuple(sorted(entities, key=lambda e: e.id))
        self.relations: tuple[Relation, ...] = tuple(relations)
        self.source_binary = source_binary
        self.clustering = dict(clustering) if clustering else None
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.entities)

    def entity(self, entity_id: int) -> Entity:
        return self._by_id[entity_id]

    def entity_relations(self) -> list[Relation]:
        """Relations between two entities (everything but CVE links)."""
        return [r for r in self.relations if isinstance(r.dst, int)]


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
    if eps < 0:
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

    def _under_any(self, label: Label, paths: Iterable[str]) -> bool:
        return any(leq(label, Label.parse(p)) for p in paths)


def _closure(adj: Mapping[int, set[int]], start: int) -> set[int]:
    """Every node reachable from start by at least one edge."""
    seen: set[int] = set()
    queue = deque(adj.get(start, ()))
    seen.update(adj.get(start, ()))
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def extract_relations(g: CpgGraph, entities: Sequence[Entity],
                      cves: Sequence[CveRecord] = (),
                      cve_match_threshold: float = 0.85,
                      config: RelationConfig | None = None) -> list[Relation]:
    """Derive the typed relation set connecting the given entities.

    Structural relations come from syntax edges whose label is mapped
    in the config; data-flow relations from inter-entity
    data-dependence edges and the read/write action sets; taints from
    inter-entity data-dependence reachability between taint sources
    and sinks; reaches from reachability over everything extracted so
    far plus raw inter-entity data dependence; vulnerable_to from
    summary-to-CVE cosine at or above the threshold.  Edges interior
    to one entity never produce relations.
    """
    cfg = config or RelationConfig()
    by_id = {e.id: e for e in entities}
    # The entity id of each node row that some entity lists; a node
    # listed twice belongs to the later entity.
    member_rows = g.rows_of(chain.from_iterable(e.members for e in entities))
    owner = np.repeat(np.array([e.id for e in entities], dtype=np.int64),
                      [len(e.members) for e in entities])
    listed = member_rows >= 0
    rows, last = np.unique(member_rows[listed][::-1], return_index=True)
    entity_of_row = np.zeros(len(g), dtype=np.int64)
    entity_of_row[rows] = owner[listed][::-1][last]
    owned = np.zeros(len(g), dtype=bool)
    owned[rows] = True
    src_entity = entity_of_row[g.edge_src_row]
    dst_entity = entity_of_row[g.edge_dst_row]
    between = owned[g.edge_src_row] & owned[g.edge_dst_row] & (src_entity != dst_entity)

    found: dict[tuple[int, RelationType, int | str], Relation] = {}

    def emit(src: int, rel_type: RelationType, dst: int | str):
        key = (src, rel_type, dst)
        if key not in found:
            found[key] = Relation(src=src, rel_type=rel_type, dst=dst,
                                  weight=cfg.weights[rel_type])

    # Structural relations from mapped syntax-edge labels.
    label_types = [cfg.structural_edge_labels.get(label) for label in g.labels]
    mapped = [code for code, rel_type in enumerate(label_types) if rel_type is not None]
    ast = between & (g.edge_kind == AST_CODE) & np.isin(g.edge_label, mapped)
    for src, code, dst in zip(src_entity[ast].tolist(), g.edge_label[ast].tolist(),
                              dst_entity[ast].tolist()):
        emit(src, label_types[code], dst)

    # Inter-entity data dependence, and data-flow relations over it.
    pdg = between & (g.edge_kind == PDG_CODE)
    pairs = sorted(set(zip(src_entity[pdg].tolist(), dst_entity[pdg].tolist())))
    pdg_adj: dict[int, set[int]] = {}
    for src, dst in pairs:
        pdg_adj.setdefault(src, set()).add(dst)
        if cfg._under_any(by_id[dst].label, cfg.write_actions):
            emit(src, RelationType.WRITES_TO, dst)
        if cfg._under_any(by_id[src].label, cfg.read_actions):
            emit(dst, RelationType.READS_FROM, src)

    sources = [e.id for e in entities if cfg._under_any(e.label, cfg.taint_sources)]
    sinks = {e.id for e in entities if cfg._under_any(e.label, cfg.taint_sinks)}

    # Taints: data-dependence reachability from an input-bearing entity
    # to a sensitive one.
    for src in sources:
        reachable = _closure(pdg_adj, src)
        for dst in reachable & sinks:
            emit(src, RelationType.TAINTS, dst)

    # Reaches: any directed path over structural relations, data-flow
    # relations, and raw inter-entity data dependence.  Every taint
    # path is also a reaches path by construction.
    combined: dict[int, set[int]] = {k: set(v) for k, v in pdg_adj.items()}
    for rel in found.values():
        if isinstance(rel.dst, int):
            combined.setdefault(rel.src, set()).add(rel.dst)
    for src in sources:
        reachable = _closure(combined, src)
        for dst in reachable & sinks:
            emit(src, RelationType.REACHES, dst)

    # CVE matches on summary embeddings.
    if cves:
        for ent in entities:
            if ent.embedding is None or ent.embedding.norm == 0.0:
                continue
            for cve in cves:
                if cosine(ent.embedding, cve.embedding) >= cve_match_threshold:
                    emit(ent.id, RelationType.VULNERABLE_TO, cve.cve_id)

    return sorted(found.values(),
                  key=lambda r: (r.src, r.rel_type.value, str(r.dst)))


VULN_RELATION_TYPES = {RelationType.TAINTS, RelationType.REACHES,
                       RelationType.VULNERABLE_TO}


def construction_stats(g: CpgGraph, kg: SsckgGraph) -> dict:
    """Compression and composition summary for one built graph."""
    n_nodes = len(g)
    n_entities = len(kg)
    n_rel = len(kg.relations)
    n_vuln = sum(1 for r in kg.relations if r.rel_type in VULN_RELATION_TYPES)
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
        desc = str(raw["description"])
        out.append(CveRecord(cve_id=str(raw["cve_id"]), description=desc,
                             embedding=provider.embed(desc)))
    return out


# --- serialization ---------------------------------------------------------------

def dumps_ssckg(kg: SsckgGraph) -> str:
    doc = {
        "source_binary": kg.source_binary,
        "clustering": kg.clustering,
        "entities": [
            {
                "id": e.id,
                "name": e.name,
                "label": str(e.label),
                "members": sorted(e.members),
                "summary": e.summary,
                "embedding": e.embedding.values.tolist() if e.embedding is not None else None,
                "external": e.external,
                "cluster_id": e.cluster_id,
            }
            for e in kg.entities
        ],
        "relations": [
            {"src": r.src, "rel_type": r.rel_type, "dst": r.dst, "weight": r.weight}
            for r in kg.relations
        ],
    }
    return dumps_json(doc)


def load_ssckg(path: str | Path) -> SsckgGraph:
    doc = read_json(path, "KG file")
    if not isinstance(doc, dict):
        raise SchemaError(f"KG file {path}: top-level document must be an object")
    try:
        return _ssckg_from_doc(doc)
    except KeyError as exc:
        raise SchemaError(f"KG file {path}: an entry is missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"KG file {path}: {exc}") from None


def _ssckg_from_doc(doc: Mapping) -> SsckgGraph:
    entities = []
    for raw in doc.get("entities", ()):
        emb = raw.get("embedding")
        entities.append(Entity(
            id=int(raw["id"]),
            name=str(raw["name"]),
            label=Label.parse(raw["label"]),
            members=frozenset(raw.get("members", ())),
            summary=str(raw.get("summary", "")),
            embedding=EmbeddingVector(emb) if emb is not None else None,
            external=bool(raw.get("external", False)),
            cluster_id=raw.get("cluster_id"),
        ))
    relations = []
    for raw in doc.get("relations", ()):
        rel_type = relation_type(raw["rel_type"])
        dst = raw["dst"]
        relations.append(Relation(
            src=int(raw["src"]), rel_type=rel_type,
            dst=str(dst) if rel_type is RelationType.VULNERABLE_TO else int(dst),
            weight=float(raw["weight"]),
        ))
    return SsckgGraph(entities, relations,
                      source_binary=str(doc.get("source_binary", "")),
                      clustering=doc.get("clustering"))


_BAND_COLORS = {"high": "firebrick", "medium": "orange", "low": "gray70"}


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
    seen_cves = []
    for r in kg.relations:
        if isinstance(r.dst, str):
            if r.dst not in seen_cves:
                seen_cves.append(r.dst)
            lines.append(f'  e{r.src} -> "cve_{r.dst}" [label="{r.rel_type.value}"];')
        else:
            lines.append(f'  e{r.src} -> e{r.dst} [label="{r.rel_type.value}"];')
    for cve_id in seen_cves:
        lines.append(f'  "cve_{cve_id}" [shape=ellipse, label="{cve_id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
