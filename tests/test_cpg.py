"""Graph parsing, validation, claim verification, and hop distances."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from binrisk.cpg import (
    DataFlowClaim,
    EdgeKind,
    cpg_chunks,
    dumps_cpg,
    load_cpg,
    loads_cpg,
    shortest_path_matrix,
    verify_claims,
)
from binrisk.errors import ParseError, SchemaError, UnknownNode
from binrisk.lifting import function_subgraph
from binrisk.pipeline import write_atomic

from oracles import CpgEdge, inst, pdg, row_cpg


# --- parsing and validation ---------------------------------------------------

def test_load_toy_fixture(fixtures_dir):
    g = load_cpg(fixtures_dir / "toy_modbus.cpg.json")
    assert g.binary_id == "toy_modbus"
    assert len(g) == 20
    assert g.function_ids == [0, 1, 2, 3, 4]


def test_duplicate_node_id_rejected():
    with pytest.raises(SchemaError, match="duplicate node id 7"):
        row_cpg([inst(7), inst(7)], [])


def test_dangling_edge_rejected():
    with pytest.raises(SchemaError, match="missing node 9"):
        row_cpg([inst(0), inst(1)], [pdg(0, 9)])


def test_negative_function_id_rejected():
    with pytest.raises(SchemaError):
        row_cpg([inst(0, fn=-1)], [])


def test_bad_json_is_parse_error():
    with pytest.raises(ParseError):
        loads_cpg("{not json")


def test_unknown_kind_names_offender():
    doc = {"binary_id": "x", "nodes": [
        {"id": 0, "kind": "Widget", "opcode": "", "function_id": 0, "block_id": 0}
    ], "edges": []}
    with pytest.raises(SchemaError, match="Widget"):
        loads_cpg(json.dumps(doc))


def test_missing_field_names_location():
    doc = {"nodes": [{"id": 0, "kind": "Instruction"}], "edges": []}
    with pytest.raises(SchemaError, match="node 0"):
        loads_cpg(json.dumps(doc))


def test_round_trip_preserves_graph(fixtures_dir):
    g = load_cpg(fixtures_dir / "toy_modbus.cpg.json")
    text = dumps_cpg(g)
    again = loads_cpg(text)
    assert dumps_cpg(again) == text
    assert len(again) == len(g)
    assert len(again.edge_src) == len(g.edge_src)


def generated_cpg_text(n: int) -> str:
    """A compact CPG of n nodes in functions of 25 and a chain of n - 1
    Cfg edges, written the way the benchmark's generator writes one."""
    nodes = [{"id": i, "kind": "Call" if i % 7 == 6 else "Instruction",
              "opcode": ("mov", "add", "call")[i % 3], "function_id": i // 25,
              "block_id": i // 5, "attrs": {"callee": "recv"} if i % 7 == 6 else {}}
             for i in range(n)]
    edges = [{"src": i, "dst": i + 1, "kind": "Cfg", "label": ""} for i in range(n - 1)]
    return json.dumps({"binary_id": "guard", "nodes": nodes, "edges": edges},
                      separators=(",", ":"))


def traced_peak(fn, *args):
    """(the tracemalloc peak while fn runs, fn's result)"""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_load_and_write_hold_no_whole_file_structure(tmp_path):
    # The reader decodes a chunk of rows at a time, so it never holds the
    # JSON tree of the whole graph, and it reads the file through a window
    # of about two chunks, so reading a file takes no more than parsing
    # text already in memory, plus the window: not the file's text (which
    # reading it whole would hold, twice over for a moment).  The writer
    # holds one block of rows.
    text = generated_cpg_text(20_000)
    path = tmp_path / "in.cpg.json"
    path.write_text(text, encoding="utf-8")
    tree_peak, _ = traced_peak(json.loads, text)
    text_peak, _ = traced_peak(loads_cpg, text)
    load_peak, g = traced_peak(load_cpg, path)
    assert load_peak < tree_peak / 3
    assert load_peak < text_peak + len(text) / 2
    out = tmp_path / "out.cpg.json"
    write_peak, _ = traced_peak(write_atomic, out, cpg_chunks(g))
    assert write_peak < os.path.getsize(out)
    assert out.read_text(encoding="utf-8") == dumps_cpg(loads_cpg(text))


def test_canonical_form_sorts_nodes_and_edges():
    g = row_cpg([inst(3), inst(1), inst(2)],
                 [pdg(3, 1), pdg(1, 2), pdg(1, 3)])
    doc = json.loads(dumps_cpg(g))
    assert [n["id"] for n in doc["nodes"]] == [1, 2, 3]
    assert [(e["src"], e["dst"]) for e in doc["edges"]] == [(1, 2), (1, 3), (3, 1)]


def test_function_view_keeps_only_internal_pdg_edges():
    nodes = [inst(0, fn=0), inst(1, fn=0), inst(2, fn=1)]
    g = row_cpg(nodes, [pdg(0, 1), pdg(1, 2), CpgEdge(src=0, dst=1, kind=EdgeKind.CFG)])
    indptr, succ = g.pdg_csr
    assert (indptr.tolist(), succ.tolist()) == ([0, 1, 2, 2], [1, 2])
    assert function_subgraph(g, 0).pdg_edges == [(0, 1)]
    assert function_subgraph(g, 1).pdg_edges == []


# --- claim verification ---------------------------------------------------------

def graph_with_chain():
    # data dependence 0 -> 1 -> 2, control flow 0 -> 3 only
    nodes = [inst(i) for i in range(4)]
    edges = [pdg(0, 1), pdg(1, 2),
             CpgEdge(src=0, dst=3, kind=EdgeKind.CFG)]
    return row_cpg(nodes, edges)


def test_direct_and_transitive_claims_hold():
    g = graph_with_chain()
    res = verify_claims(g, [DataFlowClaim(0, 1), DataFlowClaim(0, 2)])
    assert res.sat and res.failing_claim is None


def test_reflexive_claim_holds():
    g = graph_with_chain()
    assert verify_claims(g, [DataFlowClaim(2, 2)]).sat


def test_control_flow_does_not_carry_data_claims():
    g = graph_with_chain()
    res = verify_claims(g, [DataFlowClaim(0, 3)])
    assert not res.sat
    assert res.failing_claim == DataFlowClaim(0, 3)


def test_reverse_direction_fails():
    g = graph_with_chain()
    assert not verify_claims(g, [DataFlowClaim(2, 0)]).sat


def test_claim_on_missing_node_raises():
    g = graph_with_chain()
    with pytest.raises(UnknownNode):
        verify_claims(g, [DataFlowClaim(0, 99)])


def test_first_failing_claim_reported():
    g = graph_with_chain()
    res = verify_claims(g, [DataFlowClaim(0, 2), DataFlowClaim(1, 0),
                            DataFlowClaim(2, 0)])
    assert res.failing_claim == DataFlowClaim(1, 0)


# --- hop distance matrix ----------------------------------------------------------

def floyd_warshall(n, edges, max_dist):
    """Independent check: textbook all-pairs relaxation, then clamp."""
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in edges:
        if a != b:
            d[a][b] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            out[i, j] = max_dist + 1 if d[i][j] == inf else min(int(d[i][j]), max_dist)
    return out


def test_distance_matrix_hand_case():
    # 0 -> 1 -> 2, 3 isolated
    got = shortest_path_matrix(4, [(0, 1), (1, 2)], max_dist=5)
    want = np.array([
        [0, 1, 2, 6],
        [6, 0, 1, 6],
        [6, 6, 0, 6],
        [6, 6, 6, 0],
    ], dtype=np.int64)
    assert np.array_equal(got, want)


def test_distance_clamps_but_stays_reachable():
    # chain of 6 hops with max_dist 3: far nodes clamp to 3, not sentinel
    edges = [(i, i + 1) for i in range(6)]
    got = shortest_path_matrix(7, edges, max_dist=3)
    assert got[0, 3] == 3
    assert got[0, 6] == 3  # reachable, clamped
    assert got[6, 0] == 4  # sentinel: truly unreachable


def test_distance_matrix_matches_floyd_warshall_fuzz():
    rng = np.random.default_rng(1812)
    for _ in range(150):
        n = int(rng.integers(1, 13))
        density = rng.uniform(0.05, 0.4)
        edges = [(int(i), int(j)) for i in range(n) for j in range(n)
                 if i != j and rng.random() < density]
        max_dist = int(rng.integers(1, 6))
        got = shortest_path_matrix(n, edges, max_dist=max_dist)
        want = floyd_warshall(n, edges, max_dist)
        assert np.array_equal(got, want)


def test_distance_matrix_matches_floyd_warshall_larger_multigraphs():
    # up to 80 nodes, edges drawn with replacement (duplicates) and with
    # self-loops allowed; some graphs have no edges at all
    rng = np.random.default_rng(2024)
    for trial in range(30):
        n = int(rng.integers(1, 81))
        if trial % 6 == 0:
            edges = []
        else:
            drawn = rng.integers(0, n, size=(int(rng.integers(1, 3 * n + 1)), 2))
            edges = [(int(a), int(b)) for a, b in drawn]
            edges += edges[:len(edges) // 4]  # duplicates
            edges += [(v, v) for v in rng.integers(0, n, size=3).tolist()]
        max_dist = int(rng.integers(1, 12))
        got = shortest_path_matrix(n, edges, max_dist=max_dist)
        assert got.dtype == np.min_scalar_type(max_dist + 1)
        assert np.array_equal(got, floyd_warshall(n, edges, max_dist))


def test_distance_matrix_matches_floyd_warshall_on_long_paths_and_cycles():
    path = [(i, i + 1) for i in range(29)]  # 29 hops, past every budget below
    cycle = [(i, (i + 1) % 9) for i in range(9)] + [(0, 0), (4, 4), (4, 4)]
    cases = [(30, path), (30, path[::-1]), (9, cycle), (12, cycle + [(8, 9), (10, 11)]),
             (1, []), (1, [(0, 0)])]
    for n, edges in cases:
        for max_dist in (1, 2, 3, 5, 20, 40, 300):  # 300 needs uint16 for its sentinel
            got = shortest_path_matrix(n, edges, max_dist=max_dist)
            assert got.dtype == np.min_scalar_type(max_dist + 1)
            assert np.array_equal(got, floyd_warshall(n, edges, max_dist)), (n, max_dist)


def test_distance_matrix_holds_no_index_pairs_or_wide_result():
    # n^2 bytes each for the result, seen and a frontier, 4 n^2 for the
    # float32 adjacency and about as much per operand of a level's product:
    # about 20 n^2 in all.  int64 index pairs of a level's frontiers or an
    # int64 result would add 8 n^2 or more.
    rng = np.random.default_rng(3)
    n = 300
    edges = rng.integers(0, n, size=(2700, 2))
    shortest_path_matrix(n, edges)  # first-call allocations stay out of the peak
    peak, _ = traced_peak(shortest_path_matrix, n, edges)
    assert peak < 24 * n * n


def test_distance_matrix_rejects_empty_and_bad_budget():
    with pytest.raises(ValueError):
        shortest_path_matrix(0, [])
    with pytest.raises(ValueError):
        shortest_path_matrix(3, [], max_dist=0)
    for bad in ([(0, 3)], [(-1, 0)]):
        with pytest.raises(ValueError):
            shortest_path_matrix(3, bad)
