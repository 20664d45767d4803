"""The columnar relation stages against row-by-row references.

Each reference below is the loop the columnar code replaced: relation
extraction with one BFS per taint source and one ``emit`` per row,
sorted by ``(src, type name, str(dst))``; weight normalization over a
dict; the serialized document built row by row; the DOT text built
line by line (``oracles.to_dot_ref``) and the model's edge list read
off relation rows.  The CVE links come from the per-pair
``oracles.cosine``.  The columnar stages must
give the same rows, the same floats and the same bytes.
"""

from collections import deque
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import numpy as np

from binrisk.cpg import EdgeKind, NodeKind
from binrisk.embedding import HashEmbedder
from binrisk.jsonio import dumps_json
from binrisk.lattice import TOP, Label, leq
from binrisk.ssckg import (
    RELATION_INDEX,
    CveRecord,
    Entity,
    Granularity,
    RelationConfig,
    RelationType,
    _reach,
    _strong_components,
    dot_chunks,
    dumps_ssckg,
    extract_relations,
    structural_collapse,
    to_dot,
)

from oracles import (CpgEdge, CpgNode, Relation, coefficient_dict, cosine, edge_rows,
                     kg_document, node_ids, relation_edges, relation_rows, row_cpg, row_kg,
                     to_dot_ref)

PROPERTY = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# "Memory" is a source and a sink, a read and a write action at once.
CONFIG = RelationConfig(taint_sources=("Network/Protocol_Parse", "Memory"),
                        taint_sinks=("Hardware/Coil_Write", "Memory"))
LABELS = [TOP, Label.parse("Network/Protocol_Parse"), Label.parse("Hardware/Coil_Write"),
          Label.parse("Hardware/Register_Read"), Label.parse("Memory"),
          Label.parse("FileSystem")]
WORDS = ["modbus", "coil", "write", "firmware", "overflow", "parse", "register", "socket"]
EMBEDDER = HashEmbedder(dimension=16, seed=3)
# Data dependence drawn most often, so that paths and cycles form.
EDGE_KINDS = [(EdgeKind.PDG, "")] * 4 + [(EdgeKind.AST, "call"), (EdgeKind.AST, "import"),
                                         (EdgeKind.AST, "depends_on"), (EdgeKind.AST, "arg"),
                                         (EdgeKind.CFG, "")]


# --- row-by-row references ------------------------------------------------------

def closure_ref(adj, start):
    """Every node reachable from start by at least one edge."""
    seen = set(adj.get(start, ()))
    queue = deque(seen)
    while queue:
        for nxt in adj.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def under_any_ref(label, paths):
    return any(leq(label, Label.parse(p)) for p in paths)


def extract_relations_ref(g, entities, cves=(), cve_match_threshold=0.85, config=None):
    cfg = config or RelationConfig()
    by_id = {e.id: e for e in entities}
    owner = {}
    for e in entities:  # a node listed twice belongs to the later entity
        for m in e.members.tolist():
            owner[m] = e.id
    found = {}

    def emit(src, rel_type, dst):
        if (src, rel_type, dst) not in found:
            found[src, rel_type, dst] = Relation(src, rel_type, dst, cfg.weights[rel_type])

    pdg_adj = {}
    for edge in edge_rows(g):
        a, b = owner.get(edge.src), owner.get(edge.dst)
        if a is None or b is None or a == b:
            continue
        if edge.kind is EdgeKind.AST and edge.label in cfg.structural_edge_labels:
            emit(a, cfg.structural_edge_labels[edge.label], b)
        if edge.kind is EdgeKind.PDG:
            pdg_adj.setdefault(a, set()).add(b)
    for a in sorted(pdg_adj):
        for b in sorted(pdg_adj[a]):
            if under_any_ref(by_id[b].label, cfg.write_actions):
                emit(a, RelationType.WRITES_TO, b)
            if under_any_ref(by_id[a].label, cfg.read_actions):
                emit(b, RelationType.READS_FROM, a)
    sources = [e.id for e in entities if under_any_ref(e.label, cfg.taint_sources)]
    sinks = {e.id for e in entities if under_any_ref(e.label, cfg.taint_sinks)}
    for src in sources:
        for dst in closure_ref(pdg_adj, src) & sinks:
            emit(src, RelationType.TAINTS, dst)
    combined = {k: set(v) for k, v in pdg_adj.items()}
    for r in found.values():
        if isinstance(r.dst, int):
            combined.setdefault(r.src, set()).add(r.dst)
    for src in sources:
        for dst in closure_ref(combined, src) & sinks:
            emit(src, RelationType.REACHES, dst)
    for ent in entities:
        if ent.embedding is None or np.linalg.norm(ent.embedding) == 0.0:
            continue
        for cve in cves:
            if cosine(ent.embedding, cve.embedding) >= cve_match_threshold:
                emit(ent.id, RelationType.VULNERABLE_TO, cve.cve_id)
    return sorted(found.values(), key=lambda r: (r.src, r.rel_type.value, str(r.dst)))


def normalize_weights_ref(kg):
    incoming = {}
    for r in relation_rows(kg):
        if isinstance(r.dst, int) and r.src != r.dst:
            incoming.setdefault(r.dst, {}).setdefault(r.src, 0.0)
            incoming[r.dst][r.src] += r.weight
    out = {}
    for dst, weights in incoming.items():
        total = sum(weights.values())
        out[dst] = {src: w / total for src, w in weights.items()}
    return out


def relation_edges_ref(kg):
    index = {e.id: i for i, e in enumerate(kg.entities)}
    return [(index[r.src], index[r.dst], RELATION_INDEX[r.rel_type], r.weight)
            for r in relation_rows(kg) if isinstance(r.dst, int)]


# --- generated inputs -----------------------------------------------------------

@st.composite
def relation_inputs(draw):
    """A small graph, its entities under fresh ids, CVEs and a threshold."""
    nodes, rows = [], 0
    for function in range(draw(st.integers(1, 6))):
        for block in range(draw(st.integers(1, 2))):
            for _ in range(draw(st.integers(1, 2))):
                nodes.append(CpgNode(rows, NodeKind.INSTRUCTION, "mov", function, block))
                rows += 1
    ends = st.integers(0, rows - 1)
    edges = [CpgEdge(a, b, kind, label) for a, b, (kind, label) in draw(st.lists(
        st.tuples(ends, ends, st.sampled_from(EDGE_KINDS)), max_size=4 * rows))]
    g = row_cpg(nodes, edges)  # duplicates stay: parallel edges
    granularity = draw(st.sampled_from(list(Granularity)))
    entities = structural_collapse(g, granularity)
    ids = draw(st.lists(st.integers(0, 30), min_size=len(entities), max_size=len(entities),
                        unique=True))  # ids past 9 sort "10" before "9"
    summary = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
    entities = [replace(e, id=i, label=draw(st.sampled_from(LABELS)),
                        embedding=draw(st.none() | summary.map(EMBEDDER.embed)))
                for e, i in zip(entities, ids)]
    entities = draw(st.permutations(entities))
    # CVE ids may repeat, and may end in what a DOT string escapes.
    tails = st.sampled_from(["", '"', "\\"])
    cves = [CveRecord(f"CVE-{draw(st.integers(1, 12))}{draw(tails)}", text, EMBEDDER.embed(text))
            for text in draw(st.lists(summary, max_size=4))]
    threshold = draw(st.sampled_from([0.2, 0.5, 0.85]))
    return g, entities, cves, threshold


@settings(PROPERTY, max_examples=200)
@given(relation_inputs())
def test_columnar_extraction_equals_row_reference(inputs):
    g, entities, cves, threshold = inputs
    got = extract_relations(g, entities, cves, threshold, CONFIG)
    want = extract_relations_ref(g, entities, cves, threshold, CONFIG)
    assert relation_rows(got) == want
    assert len(got) == len(want)


@PROPERTY
@given(relation_inputs(), st.randoms(use_true_random=False))
def test_relation_consumers_equal_row_references(inputs, rnd):
    g, entities, cves, threshold = inputs
    rows = relation_rows(extract_relations(g, entities, cves, threshold, CONFIG))
    # Shuffled rows with fresh weights: parallel pairs and first-seen
    # order then differ from the extraction order.
    rows += rnd.sample(rows, len(rows) // 2)
    rnd.shuffle(rows)
    rows = [replace(r, weight=rnd.choice([0.1, 0.3, 1 / 3, 0.7, 2.5])) for r in rows]
    kg = row_kg(entities, rows, source_binary="b", clustering={"points": 1})
    assert dumps_ssckg(kg) == dumps_json(kg_document(kg))
    assert coefficient_dict(kg) == normalize_weights_ref(kg)
    risk = {e.id: rnd.choice([0.0, 0.39999, 0.4, 0.7, 0.9996, 1.0])
            for e in entities if rnd.random() < 0.7}
    assert to_dot(kg) == to_dot_ref(kg)
    assert "".join(dot_chunks(kg, risk)) == to_dot(kg, risk) == to_dot_ref(kg, risk)
    assert relation_edges(kg) == relation_edges_ref(kg)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(
    st.integers(0, n - 1), st.sampled_from(list(RelationType)), st.integers(0, n - 1),
    st.floats(min_value=1e-3, max_value=1e3)), max_size=30)))
@example([(3, RelationType.CALLS, 0, 0.3), (2, RelationType.CALLS, 0, 0.2),
          (1, RelationType.CALLS, 0, 0.1)])  # 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
def test_normalize_weights_equals_dict_reference(draws):
    # Few entities and many relations: parallel pairs, and targets with
    # several sources whose sums round differently in another order.
    entities = [Entity(i, f"e{i}", TOP, node_ids(i)) for i in range(4)]
    rows = [Relation(a, t, "CVE-1" if t is RelationType.VULNERABLE_TO else b, w)
            for a, t, b, w in draws]
    kg = row_kg(entities, rows)
    assert coefficient_dict(kg) == normalize_weights_ref(kg)


def chain_graph(n, pdg_pairs):
    nodes = [CpgNode(i, NodeKind.INSTRUCTION, "mov", i, 0) for i in range(n)]
    return row_cpg(nodes, [CpgEdge(a, b, EdgeKind.PDG) for a, b in pdg_pairs])


def test_a_source_and_sink_taints_itself_only_around_a_cycle():
    memory = Label.parse("Memory")
    ents = [Entity(i, f"e{i}", memory if i == 0 else TOP, node_ids(i)) for i in range(2)]
    acyclic = relation_rows(extract_relations(chain_graph(2, [(0, 1)]), ents, config=CONFIG))
    assert (0, RelationType.TAINTS, 0) not in {(r.src, r.rel_type, r.dst) for r in acyclic}
    cyclic = relation_rows(extract_relations(chain_graph(2, [(0, 1), (1, 0)]), ents,
                                             config=CONFIG))
    assert {(r.src, r.dst) for r in cyclic if r.rel_type is RelationType.TAINTS} == {(0, 0)}
    assert cyclic == extract_relations_ref(chain_graph(2, [(0, 1), (1, 0)]), ents,
                                           config=CONFIG)


def test_targets_sort_as_strings():
    coil = Label.parse("Hardware/Coil_Write")
    ents = [Entity(2, "src", Label.parse("Network/Protocol_Parse"), node_ids(0)),
            Entity(9, "a", coil, node_ids(1)), Entity(10, "b", coil, node_ids(2))]
    rels = relation_rows(extract_relations(chain_graph(3, [(0, 1), (0, 2)]), ents))
    assert [(r.src, r.rel_type.value, r.dst) for r in rels] == [
        (2, "reaches", 10), (2, "reaches", 9), (2, "taints", 10), (2, "taints", 9),
        (2, "writes_to", 10), (2, "writes_to", 9)]


def reach_ref(n, edges, sources, sinks):
    """(source, sink) pairs joined by at least one edge, source-major."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    pairs = []
    for s in sources:
        seen = closure_ref(adj, s)
        pairs += [(s, t) for t in sinks if t in seen]
    return pairs


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
    st.lists(st.integers(0, n - 1), max_size=6, unique=True),
    st.lists(st.integers(0, n - 1), max_size=6, unique=True))))
def test_reach_equals_closure_reference(case):
    n, edges, sources, sinks = case
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    got_src, got_dst = _reach(n, src, dst, np.array(sources, dtype=np.int64),
                              np.array(sinks, dtype=np.int64))
    assert list(zip(got_src.tolist(), got_dst.tolist())) == reach_ref(n, edges, sources, sinks)
    count, component = _strong_components(n, src, dst)
    assert sorted(set(component.tolist())) == list(range(count))
    # each component is numbered after every component it reaches
    assert all(component[a] >= component[b] for a, b in edges)


def test_reach_takes_long_chains_and_cycles_without_recursion():
    chain = np.arange(5000, dtype=np.int64)
    got = _reach(5000, chain[:-1], chain[1:], np.array([0, 2500, 4999]),
                 np.array([4999, 0, 2500]))
    assert [a.tolist() for a in got] == [[0, 0, 2500], [4999, 2500, 4999]]
    ring = np.arange(2000, dtype=np.int64)
    got = _reach(2000, ring, (ring + 1) % 2000, np.array([1999, 0]), np.array([0, 1000, 1999]))
    assert [a.tolist() for a in got] == [[1999] * 3 + [0] * 3, [0, 1000, 1999] * 2]
    count, component = _strong_components(2000, ring, (ring + 1) % 2000)
    assert count == 1 and not component.any()
