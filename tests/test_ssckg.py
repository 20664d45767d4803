"""Entity collapse, density clustering, and typed relation extraction."""

import json
import math
import re

import numpy as np
import pytest

from binrisk.config import PipelineConfig
from binrisk.cpg import EdgeKind, load_cpg
from binrisk.embedding import HashEmbedder
from binrisk.errors import ConfigError, SchemaError
from binrisk.lattice import TOP, Label, Lattice
from binrisk.lifting import Annotation, RuleAnnotator, build_corpus, load_rules
from binrisk.pipeline import (build_annotator, build_cves, build_kg, build_lattice, build_provider,
                              write_atomic)
from binrisk.ssckg import (
    Entity,
    Granularity,
    RelationConfig,
    RelationType,
    SsckgGraph,
    construction_stats,
    dbscan,
    dot_chunks,
    dumps_ssckg,
    embed_entities,
    extract_relations,
    load_cves,
    load_ssckg,
    semantic_clustering,
    structural_collapse,
    to_dot,
)

from oracles import (CpgEdge, Relation, frozen, inst, node_ids, pdg, relation_rows, row_cpg,
                     row_kg, row_relations, to_dot_ref)


def call(a, b):
    return CpgEdge(src=a, dst=b, kind=EdgeKind.AST, label="call")


def toy_graph(fixtures_dir):
    return load_cpg(fixtures_dir / "toy_modbus.cpg.json")


def toy_corpus(fixtures_dir, g):
    ann = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), Lattice.default())
    return build_corpus(g, g.function_ids, ann)


def label(path):
    return Label.parse(path)


# --- structural collapse --------------------------------------------------------

def test_collapse_toy_partition(fixtures_dir):
    g = toy_graph(fixtures_dir)
    corpus = toy_corpus(fixtures_dir, g)
    ents = structural_collapse(g, Granularity.FUNCTION, corpus)
    assert [e.id for e in ents] == [0, 1, 2, 3, 4]
    assert [e.name for e in ents] == [
        "main", "recv_frame", "parse_modbus", "read_register", "write_coil"]
    # members partition the node set
    union = set()
    for e in ents:
        assert not (union & set(e.members.tolist()))
        union |= set(e.members.tolist())
    assert union == set(g.node_id.tolist())
    assert ents[2].members.tolist() == list(range(8, 13))
    assert not any(e.external for e in ents)


def test_collapse_toy_labels_and_summaries(fixtures_dir):
    g = toy_graph(fixtures_dir)
    ents = structural_collapse(g, Granularity.FUNCTION, toy_corpus(fixtures_dir, g))
    got = {e.name: str(e.label) for e in ents}
    assert got == {
        "main": "TOP",
        "recv_frame": "Network/Socket_Init",
        "parse_modbus": "Network/Protocol_Parse",
        "read_register": "Hardware/Register_Read",
        "write_coil": "Hardware/Coil_Write",
    }
    by_name = {e.name: e for e in ents}
    assert by_name["write_coil"].summary == (
        "hardware coil write routine using cmp mmio_write param ret")


def test_collapse_without_corpus_everything_top(fixtures_dir):
    ents = structural_collapse(toy_graph(fixtures_dir))
    assert all(e.label is TOP for e in ents)
    assert all(e.summary == "" for e in ents)


def test_collapse_block_granularity_groups_by_block():
    nodes = [inst(0, fn=0, block=3), inst(1, fn=0, block=3),
             inst(2, fn=0, block=5), inst(3, fn=1, block=9)]
    ents = structural_collapse(row_cpg(nodes, []), Granularity.BLOCK)
    # ids follow ascending block key
    assert [(e.id, e.members.tolist()) for e in ents] == [
        (0, [0, 1]), (1, [2]), (2, [3])]
    assert [e.name for e in ents] == ["block_3", "block_5", "block_9"]


def test_collapse_block_spanning_functions_joins_labels():
    # one block id shared by two functions: the entity label must be the
    # join over every covered function
    nodes = [inst(0, fn=0, block=7), inst(1, fn=1, block=7)]
    corpus = {
        0: Annotation("0", label("Network/Socket_Init"), "a"),
        1: Annotation("1", label("Hardware/Coil_Write"), "b"),
    }
    ents = structural_collapse(row_cpg(nodes, []), Granularity.BLOCK, corpus)
    assert len(ents) == 1
    assert ents[0].label is TOP
    assert ents[0].summary == "a b"


def test_collapse_top_annotation_dominates_fold():
    # regression: a TOP label first in the fold must not be ignored
    nodes = [inst(0, fn=0, block=7), inst(1, fn=1, block=7)]
    corpus = {0: Annotation("0", TOP, "x"),
              1: Annotation("1", label("Hardware/Coil_Write"), "y")}
    ents = structural_collapse(row_cpg(nodes, []), Granularity.BLOCK, corpus)
    assert ents[0].label is TOP


def test_collapse_names_from_first_node_with_name():
    nodes = [inst(0, fn=4), inst(1, fn=4, function_name="handler")]
    ents = structural_collapse(row_cpg(nodes, []))
    assert ents[0].name == "handler"
    assert structural_collapse(row_cpg([inst(0, fn=4)], []))[0].name == "func_4"


def test_collapse_external_flag_any_member():
    nodes = [inst(0, fn=0), inst(1, fn=0, external="true"), inst(2, fn=1)]
    ents = structural_collapse(row_cpg(nodes, []))
    assert ents[0].external and not ents[1].external


def test_embed_entities_fills_vectors(fixtures_dir):
    ents = structural_collapse(toy_graph(fixtures_dir))
    out = embed_entities(ents, HashEmbedder(dimension=32, seed=1))
    assert all(e.embedding is not None for e in out)
    assert all(abs(np.linalg.norm(e.embedding) - 1.0) < 1e-12 for e in out)
    # input list is not mutated
    assert all(e.embedding is None for e in ents)


# --- density clustering -----------------------------------------------------------

def cluster_oracle(mat, eps, min_samples):
    """Reference clustering: neighborhoods, core flags, components of the
    core-core adjacency in input order, then borders joining the adjacent
    component with the smallest id.  Same contract, different algorithm."""
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    nbrs = [set(int(j) for j in np.flatnonzero(dist[i] <= eps)) for i in range(n)]
    core = [len(nbrs[i]) >= min_samples for i in range(n)]
    comp = {}
    n_comp = 0
    for i in range(n):
        if not core[i] or i in comp:
            continue
        stack = [i]
        comp[i] = n_comp
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if core[v] and v not in comp:
                    comp[v] = n_comp
                    stack.append(v)
        n_comp += 1
    labels = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        if core[i]:
            labels[i] = comp[i]
        else:
            adjacent = [comp[j] for j in nbrs[i] if core[j]]
            if adjacent:
                labels[i] = min(adjacent)
    return labels


def on_circle(degrees):
    return np.array([[math.cos(math.radians(a)), math.sin(math.radians(a))]
                     for a in degrees])


def test_dbscan_hand_case_with_border():
    # eps 0.016 admits pairs up to 10 degrees apart (1 - cos 10deg = 0.0152).
    # Point 6 at 20deg has only one neighbor besides itself, so it is a
    # border point adopted by the first cluster.
    pts = on_circle([0, 5, 10, 40, 45, 50, 20])
    got = dbscan(pts, eps=0.016, min_samples=3)
    assert got.tolist() == [0, 0, 0, 1, 1, 1, 0]
    assert np.array_equal(got, cluster_oracle(pts, 0.016, 3))


def test_dbscan_border_bridges_never_merge_clusters():
    # two cores joined only through a shared non-core point stay separate
    pts = on_circle([0, 9, 18])
    got = dbscan(pts, eps=0.016, min_samples=2)
    # all three are cores here (each has a neighbor), forming one chain
    assert got.tolist() == [0, 0, 0]
    got = dbscan(on_circle([0, 9, 18, 70, 79, 88]), eps=0.016, min_samples=3)
    # middle points have 3 neighbors (core); ends have 2 (border)
    assert got.tolist() == [0, 0, 0, 1, 1, 1]


def test_dbscan_all_noise_and_singleton():
    pts = on_circle([0, 90, 180])
    assert dbscan(pts, eps=0.01, min_samples=2).tolist() == [-1, -1, -1]
    assert dbscan(on_circle([33]), eps=0.5, min_samples=1).tolist() == [0]
    assert dbscan(np.empty((0, 3)), eps=0.5, min_samples=1).size == 0


def test_dbscan_accepts_embedding_vectors():
    # A list of 1-D arrays, as the providers hand them out, clusters as
    # its stacked matrix does.
    pts = on_circle([0, 5, 10, 40, 45, 50, 20])
    vecs = [frozen(row) for row in pts]
    labels = dbscan(pts, 0.016, 3).tolist()
    assert labels == [0, 0, 0, 1, 1, 1, 0]
    assert dbscan(vecs, 0.016, 3).tolist() == labels
    assert dbscan([], 0.016, 3).size == 0
    with pytest.raises(SchemaError,
                       match="^vectors of mixed dimension cannot be stacked$"):
        dbscan([frozen([1.0, 0.0]), frozen([1.0, 0.0, 0.0])], 0.016, 1)


def test_dbscan_input_validation():
    pts = on_circle([0, 5])
    with pytest.raises(ConfigError, match="eps must be non-negative, got -0.1"):
        dbscan(pts, eps=-0.1, min_samples=2)
    with pytest.raises(ConfigError, match="eps must be non-negative, got nan"):
        dbscan(pts, eps=float("nan"), min_samples=2)
    with pytest.raises(ConfigError, match="min_samples must be at least 1, got 0"):
        dbscan(pts, eps=0.1, min_samples=0)
    with pytest.raises(SchemaError, match="cosine distance undefined for zero-norm points"):
        dbscan(np.array([[0.0, 0.0], [1.0, 0.0]]), eps=0.1, min_samples=1)


def test_dbscan_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(1905)
    for _ in range(150):
        n = int(rng.integers(1, 40))
        dim = int(rng.choice([2, 3, 8]))
        pts = rng.standard_normal((n, dim))
        # duplicate a few rows to force dense spots
        for _ in range(int(rng.integers(0, 4))):
            pts[int(rng.integers(n))] = pts[int(rng.integers(n))]
        eps = float(rng.uniform(0.05, 0.6))
        min_samples = int(rng.integers(1, 6))
        got = dbscan(pts, eps=eps, min_samples=min_samples)
        want = cluster_oracle(pts, eps, min_samples)
        assert np.array_equal(got, want), (n, dim, eps, min_samples)


# --- semantic merge over external entities -------------------------------------

def firmware_entities(fixtures_dir):
    g = load_cpg(fixtures_dir / "firmware_update.cpg.json")
    corpus = toy_corpus(fixtures_dir, g)
    return g, structural_collapse(g, Granularity.FUNCTION, corpus)


def test_semantic_clustering_merges_socket_wrappers(fixtures_dir):
    _, ents = firmware_entities(fixtures_dir)
    provider = HashEmbedder(dimension=384, seed=42)
    out = semantic_clustering(embed_entities(ents, provider), provider,
                              eps=0.3, min_samples=2)
    assert len(out) == 5
    merged = next(e for e in out if e.cluster_id == 0)
    assert merged.id == 1
    assert merged.name == "net_fetch.c0"
    assert merged.external
    assert merged.members.tolist() == sorted(set(ents[1].members.tolist())
                                             | set(ents[2].members.tolist()))
    assert str(merged.label) == "Network/Socket_Init"
    noise = next(e for e in out if e.cluster_id == -1)
    assert noise.name == "cfg_load"
    # non-external entities pass through untouched
    untouched = [e for e in out if e.cluster_id is None]
    assert sorted(e.name for e in untouched) == ["flash_write", "key_check", "main"]


def test_semantic_clustering_no_externals_is_identity(fixtures_dir):
    ents = structural_collapse(toy_graph(fixtures_dir))
    provider = HashEmbedder(dimension=64, seed=0)
    out = semantic_clustering(ents, provider)
    assert out == sorted(ents, key=lambda e: e.id)


def test_semantic_clustering_merged_label_is_join():
    provider = HashEmbedder(dimension=64, seed=0)
    shared = "identical summary text for both"
    a = Entity(id=3, name="zeta", label=label("Network/Socket_Init"),
               members=node_ids(0), summary=shared, external=True)
    b = Entity(id=7, name="alpha", label=label("Hardware/Coil_Write"),
               members=node_ids(1), summary=shared, external=True)
    out = semantic_clustering([a, b], provider, eps=0.05, min_samples=2)
    assert len(out) == 1
    merged = out[0]
    assert merged.id == 3
    assert merged.name == "alpha.c0"  # smallest name, not smallest id
    assert merged.label is TOP
    assert merged.members.tolist() == [0, 1]
    assert merged.summary == f"{shared} {shared}"


# --- relation extraction -----------------------------------------------------------

def rel_tuples(relations):
    return {(r.src, r.rel_type, r.dst, r.weight) for r in relation_rows(relations)}


def toy_kg_inputs(fixtures_dir, dim=384):
    g = toy_graph(fixtures_dir)
    corpus = toy_corpus(fixtures_dir, g)
    provider = HashEmbedder(dimension=dim, seed=42)
    ents = embed_entities(structural_collapse(g, Granularity.FUNCTION, corpus),
                          provider)
    return g, ents, provider


def test_extract_relations_toy_exact_set(fixtures_dir):
    g, ents, _ = toy_kg_inputs(fixtures_dir)
    rels = extract_relations(g, ents)
    assert rel_tuples(rels) == {
        (0, RelationType.CALLS, 1, 0.3),
        (0, RelationType.CALLS, 2, 0.3),
        (2, RelationType.CALLS, 3, 0.3),
        (2, RelationType.CALLS, 4, 0.3),
        (2, RelationType.READS_FROM, 3, 0.4),
        (2, RelationType.WRITES_TO, 4, 0.6),
        (2, RelationType.TAINTS, 4, 1.0),
        (2, RelationType.REACHES, 4, 0.8),
    }
    # output is sorted and stable
    rows = relation_rows(rels)
    assert rows == sorted(rows, key=lambda r: (r.src, r.rel_type.value, str(r.dst)))


def test_extract_relations_toy_cve_link(fixtures_dir):
    g, ents, provider = toy_kg_inputs(fixtures_dir)
    cves = load_cves(fixtures_dir / "cves.json", provider)
    rels = relation_rows(extract_relations(g, ents, cves, cve_match_threshold=0.85))
    vuln = [r for r in rels if r.rel_type is RelationType.VULNERABLE_TO]
    assert [(r.src, r.dst) for r in vuln] == [(4, "CVE-TEST-0001")]
    assert len(rels) == 9


def test_reads_and_writes_directions():
    # entity 0: read action, entity 1: Memory (read and write), entity 2: top
    nodes = [inst(0, fn=0), inst(1, fn=1), inst(2, fn=2)]
    g = row_cpg(nodes, [pdg(0, 1), pdg(2, 0)])
    ents = [
        Entity(0, "a", label("Hardware/Register_Read"), node_ids(0)),
        Entity(1, "b", label("Memory"), node_ids(1)),
        Entity(2, "c", TOP, node_ids(2)),
    ]
    rels = rel_tuples(extract_relations(g, ents))
    # 0 -> 1 flows into a write action and out of a read action; the
    # 2 -> 0 edge produces nothing (top sits under no action path and
    # Register_Read is not a write action)
    assert rels == {(0, RelationType.WRITES_TO, 1, 0.6),
                    (1, RelationType.READS_FROM, 0, 0.4)}


def test_intra_entity_edges_produce_nothing():
    nodes = [inst(0, fn=0), inst(1, fn=0)]
    g = row_cpg(nodes, [pdg(0, 1), call(0, 1)])
    ents = [Entity(0, "a", label("Memory"), node_ids(0, 1))]
    assert relation_rows(extract_relations(g, ents)) == []


def test_taints_requires_data_dependence_path():
    # source --calls--> middle --pdg--> sink: reachable over the combined
    # graph but not over data dependence alone, so reaches without taints
    nodes = [inst(0, fn=0), inst(1, fn=1), inst(2, fn=2)]
    g = row_cpg(nodes, [call(0, 1), pdg(1, 2)])
    ents = [
        Entity(0, "src", label("Network/Protocol_Parse"), node_ids(0)),
        Entity(1, "mid", TOP, node_ids(1)),
        Entity(2, "sink", label("Hardware/Coil_Write"), node_ids(2)),
    ]
    rels = rel_tuples(extract_relations(g, ents))
    assert (0, RelationType.REACHES, 2, 0.8) in rels
    assert not any(r[1] is RelationType.TAINTS for r in rels)


def test_taints_transitive_over_data_dependence():
    nodes = [inst(0, fn=0), inst(1, fn=1), inst(2, fn=2)]
    g = row_cpg(nodes, [pdg(0, 1), pdg(1, 2)])
    ents = [
        Entity(0, "src", label("FileSystem"), node_ids(0)),
        Entity(1, "mid", TOP, node_ids(1)),
        Entity(2, "sink", label("Hardware/Firmware_Update"), node_ids(2)),
    ]
    rels = rel_tuples(extract_relations(g, ents))
    assert (0, RelationType.TAINTS, 2, 1.0) in rels
    assert (0, RelationType.REACHES, 2, 0.8) in rels


def test_taints_subset_of_reaches_on_random_graphs():
    rng = np.random.default_rng(77)
    pool = [TOP, label("Network/Protocol_Parse"), label("FileSystem"),
            label("Hardware/Coil_Write"), label("Hardware/Firmware_Update"),
            label("Memory"), label("Network/Socket_Init")]
    for _ in range(60):
        k = int(rng.integers(2, 9))
        nodes = [inst(2 * i + off, fn=i) for i in range(k) for off in (0, 1)]
        edges = []
        for _ in range(int(rng.integers(1, 3 * k))):
            a, b = rng.integers(0, k, size=2)
            if a == b:
                continue
            kind = rng.choice(["pdg", "call"])
            e = pdg(2 * int(a), 2 * int(b)) if kind == "pdg" else call(
                2 * int(a) + 1, 2 * int(b))
            edges.append(e)
        g = row_cpg(nodes, edges)
        ents = [Entity(i, f"f{i}", pool[int(rng.integers(len(pool)))],
                       node_ids(2 * i, 2 * i + 1)) for i in range(k)]
        rels = relation_rows(extract_relations(g, ents))
        reaches = {(r.src, r.dst) for r in rels if r.rel_type is RelationType.REACHES}
        taints = {(r.src, r.dst) for r in rels if r.rel_type is RelationType.TAINTS}
        assert taints <= reaches


def test_parallel_pdg_edges_deduplicate():
    nodes = [inst(0, fn=0), inst(1, fn=0), inst(2, fn=1)]
    g = row_cpg(nodes, [pdg(0, 2), pdg(1, 2)])
    ents = [Entity(0, "a", TOP, node_ids(0, 1)),
            Entity(1, "b", label("Memory"), node_ids(2))]
    rels = extract_relations(g, ents)
    assert rel_tuples(rels) == {(0, RelationType.WRITES_TO, 1, 0.6)}


def test_structural_label_map_and_weight_override():
    nodes = [inst(0, fn=0), inst(1, fn=1)]
    g = row_cpg(nodes, [CpgEdge(src=0, dst=1, kind=EdgeKind.AST, label="import")])
    ents = [Entity(0, "a", TOP, node_ids(0)),
            Entity(1, "b", TOP, node_ids(1))]
    rels = extract_relations(g, ents)
    assert rel_tuples(rels) == {(0, RelationType.IMPORTS, 1, 0.2)}

    cfg = RelationConfig()
    cfg.weights[RelationType.IMPORTS] = 0.9
    rels = extract_relations(g, ents, config=cfg)
    assert rel_tuples(rels) == {(0, RelationType.IMPORTS, 1, 0.9)}


def test_unmapped_syntax_labels_ignored():
    nodes = [inst(0, fn=0), inst(1, fn=1)]
    g = row_cpg(nodes, [CpgEdge(src=0, dst=1, kind=EdgeKind.AST, label="arg")])
    ents = [Entity(0, "a", TOP, node_ids(0)),
            Entity(1, "b", TOP, node_ids(1))]
    assert relation_rows(extract_relations(g, ents)) == []


# --- relation and graph validation ----------------------------------------------

def ent(eid, lab=None):
    return Entity(eid, f"e{eid}", lab or TOP, node_ids(eid))


def test_relation_weight_must_be_positive():
    with pytest.raises(SchemaError):
        row_kg([ent(0), ent(1)], [Relation(0, RelationType.CALLS, 1, 0.0)])
    with pytest.raises(SchemaError):
        row_kg([ent(0), ent(1)], [Relation(0, RelationType.CALLS, 1, -0.5)])


def test_cve_relations_take_string_targets_only():
    with pytest.raises(SchemaError):
        row_relations([Relation(0, RelationType.VULNERABLE_TO, 1, 1.0)])
    with pytest.raises(SchemaError):
        row_relations([Relation(0, RelationType.CALLS, "CVE-X", 0.3)])
    row_relations([Relation(0, RelationType.VULNERABLE_TO, "CVE-X", 1.0)])


def test_graph_rejects_duplicate_entities_and_dangling_relations():
    with pytest.raises(SchemaError, match="duplicate entity id"):
        row_kg([ent(0), ent(0)], [])
    with pytest.raises(SchemaError, match="source"):
        row_kg([ent(0)], [Relation(5, RelationType.CALLS, 0, 0.3)])
    with pytest.raises(SchemaError, match="target"):
        row_kg([ent(0)], [Relation(0, RelationType.CALLS, 5, 0.3)])
    # CVE targets need no entity
    row_kg([ent(0)], [Relation(0, RelationType.VULNERABLE_TO, "CVE-X", 1.0)])


def test_graph_sorts_entities_and_filters_cve_links():
    kg = row_kg([ent(2), ent(0)], [
        Relation(0, RelationType.CALLS, 2, 0.3),
        Relation(2, RelationType.VULNERABLE_TO, "CVE-X", 1.0),
    ])
    assert [e.id for e in kg.entities] == [0, 2]
    assert len(kg) == 2
    assert [e.name for e in kg.entities] == ["e0", "e2"]
    cols = kg.relation_columns
    assert cols.dst[cols.entity_rows()].tolist() == [2]


# --- serialization and reporting -------------------------------------------------

def toy_kg(fixtures_dir):
    g, ents, provider = toy_kg_inputs(fixtures_dir)
    cves = load_cves(fixtures_dir / "cves.json", provider)
    rels = extract_relations(g, ents, cves)
    return g, SsckgGraph(ents, rels, source_binary=g.binary_id)


def assert_members_ascend(kg):
    for e in kg.entities:
        assert type(e.members) is np.ndarray and e.members.dtype == np.int64
        assert (np.diff(e.members) > 0).all()  # ascending, no id listed twice


def test_members_are_ascending_int64_arrays(fixtures_dir, tmp_path):
    cfg = PipelineConfig.from_file(fixtures_dir / "config_firmware.json")
    provider = build_provider(cfg)
    annotator = build_annotator(cfg, build_lattice(cfg))
    merged = 0
    for name in ("firmware_update", "diamond"):
        g = load_cpg(fixtures_dir / f"{name}.cpg.json")
        kg = build_kg(g, build_corpus(g, g.function_ids, annotator), cfg, provider,
                      build_cves(cfg, provider))
        merged += sum(e.cluster_id is not None and e.cluster_id >= 0 for e in kg.entities)
        assert_members_ascend(kg)
        path = tmp_path / f"{name}.kg.json"
        write_atomic(path, dumps_ssckg(kg))
        assert_members_ascend(load_ssckg(path))
    assert merged  # the cluster merge ran

    # A file may list members in any order and more than once.
    def kg_file(members):
        path = tmp_path / "members.kg.json"
        path.write_text(json.dumps({"entities": [
            {"id": 0, "name": "a", "label": "TOP", "members": [0]},
            {"id": 1, "name": "b", "label": "TOP", "members": members}]}), encoding="utf-8")
        return path

    kg = load_ssckg(kg_file([10, 2, 2]))
    assert_members_ascend(kg)
    assert kg.entities[1].members.tolist() == [2, 10]
    assert '"members": [\n        2,\n        10\n      ],' in dumps_ssckg(kg)
    for member in (2 ** 63, "a"):
        with pytest.raises(SchemaError, match=re.escape(
                f"entity at index 1 has non-integer member {member!r}")):
            load_ssckg(kg_file([3, member]))
    with pytest.raises(SchemaError, match="entity 0 has members that are not an int64 array"):
        SsckgGraph([Entity(0, "a", TOP, frozenset({0}))], row_relations([]))


def test_ssckg_round_trip(fixtures_dir, tmp_path):
    _, kg = toy_kg(fixtures_dir)
    path = tmp_path / "kg.json"
    write_atomic(path, dumps_ssckg(kg))
    back = load_ssckg(path)
    assert back.source_binary == kg.source_binary
    assert back.clustering == kg.clustering
    assert len(back) == len(kg)
    for orig, got in zip(kg.entities, back.entities):
        assert (got.id, got.name, str(got.label), got.members.tolist(), got.summary,
                got.external, got.cluster_id) == (
            orig.id, orig.name, str(orig.label), orig.members.tolist(), orig.summary,
            orig.external, orig.cluster_id)
        assert np.array_equal(got.embedding, orig.embedding)
    assert relation_rows(back) == relation_rows(kg)
    # serialization is deterministic
    assert dumps_ssckg(back) == dumps_ssckg(kg)


def test_ssckg_round_trip_without_embeddings(tmp_path):
    kg = row_kg([ent(0)], [], source_binary="x")
    path = tmp_path / "kg.json"
    write_atomic(path, dumps_ssckg(kg))
    back = load_ssckg(path)
    assert back.entities[0].embedding is None
    assert back.source_binary == "x"


def test_construction_stats_toy(fixtures_dir):
    g, kg = toy_kg(fixtures_dir)
    stats = construction_stats(g, kg)
    assert stats["cpg_nodes"] == 20
    assert stats["entities"] == 5
    assert stats["compression_ratio"] == 4.0
    assert stats["relation_count"] == 9
    assert stats["vuln_relation_fraction"] == 3 / 9
    assert stats["noise_fraction"] == 0.0


def test_construction_stats_with_clustering(fixtures_dir):
    g, ents = firmware_entities(fixtures_dir)
    provider = HashEmbedder(dimension=384, seed=42)
    merged = semantic_clustering(embed_entities(ents, provider), provider,
                                 eps=0.3, min_samples=2)
    kg = row_kg(merged, [], clustering={"points": 3, "noise": 1, "clusters": 1})
    stats = construction_stats(g, kg)
    assert stats["entities"] == 5
    assert stats["noise_fraction"] == pytest.approx(1 / 3)


def test_to_dot_renders_entities_and_cves(fixtures_dir):
    _, kg = toy_kg(fixtures_dir)
    dot = to_dot(kg)
    assert dot.startswith("digraph ssckg {")
    assert dot.rstrip().endswith("}")
    for e in kg.entities:
        assert f'e{e.id} [label="{e.name}' in dot
    assert 'e2 -> e4 [label="taints"]' in dot
    assert '"cve_CVE-TEST-0001" [shape=ellipse' in dot
    assert to_dot(kg) == dot  # deterministic


def test_to_dot_escapes_quotes_and_backslashes():
    ents = [Entity(0, 'pump"ctl\\x', label("Memory"), node_ids(0)),
            Entity(1, "plain", TOP, node_ids(1))]
    kg = row_kg(ents, [Relation(0, RelationType.CALLS, 1, 0.3),
                       Relation(0, RelationType.VULNERABLE_TO, 'CVE-"9\\', 1.0)])
    lines = to_dot(kg, risk={0: 0.5}).splitlines()
    assert lines[3] == ('  e0 [label="pump\\"ctl\\\\x\\nMemory\\nrisk=0.500", style=filled, '
                        'fillcolor="orange"];')
    assert lines[4] == '  e1 [label="plain\\nTOP", style=filled, fillcolor="gray90"];'
    assert lines[5:] == ['  e0 -> e1 [label="calls"];',
                         '  e0 -> "cve_CVE-\\"9\\\\" [label="vulnerable_to"];',
                         '  "cve_CVE-\\"9\\\\" [shape=ellipse, label="CVE-\\"9\\\\"];', "}"]


def test_to_dot_risk_bands(fixtures_dir):
    _, kg = toy_kg(fixtures_dir)
    dot = to_dot(kg, risk={0: 0.1, 3: 0.5, 4: 0.9})
    assert "firebrick" in dot and "orange" in dot and "gray70" in dot
    assert "risk=0.900" in dot
    # unscored entities keep the neutral fill
    assert 'fillcolor="gray90"' in dot


def test_dot_chunks_join_to_the_line_by_line_text_across_blocks():
    # 60 x 59 calls plus CVE links: the relations span several blocks,
    # and CVE rows fall on both sides of a block edge.
    ents = [Entity(i, f'f"{i}', label("Memory") if i % 3 else TOP, node_ids(i))
            for i in range(60)]
    rels = [Relation(a, RelationType.CALLS, b, 0.3) for a in range(60) for b in range(60)
            if a != b]
    rels += [Relation(a, RelationType.VULNERABLE_TO, f"CVE-{a % 7}\\", 1.0)
             for a in range(0, 60, 4)]
    kg = row_kg(ents, rels)
    risk = {i: i / 59 for i in range(0, 60, 2)}
    chunks = list(dot_chunks(kg, risk, {"high": 0.8, "medium": 0.3}))
    assert len(chunks) > 60 + 3
    assert "".join(chunks) == to_dot_ref(kg, risk, {"high": 0.8, "medium": 0.3})
    assert "".join(dot_chunks(kg)) == to_dot(kg) == to_dot_ref(kg)


def test_load_cves_validation(fixtures_dir, tmp_path):
    provider = HashEmbedder(dimension=16, seed=0)
    records = load_cves(fixtures_dir / "cves.json", provider)
    assert [r.cve_id for r in records] == [
        "CVE-TEST-0001", "CVE-TEST-0002", "CVE-TEST-0003",
        "CVE-TEST-0004", "CVE-TEST-0005"]
    assert all(abs(np.linalg.norm(r.embedding) - 1.0) < 1e-12 for r in records)

    bad = tmp_path / "bad.json"
    bad.write_text('{"cve_id": "X"}', encoding="utf-8")
    with pytest.raises(SchemaError, match="list"):
        load_cves(bad, provider)
    bad.write_text('[{"cve_id": "X"}]', encoding="utf-8")
    with pytest.raises(SchemaError, match="description"):
        load_cves(bad, provider)
