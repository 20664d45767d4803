"""Graph parsing, validation, claim verification, and hop distances."""

import json

import numpy as np
import pytest

from binrisk.cpg import (
    CpgEdge,
    CpgGraph,
    CpgNode,
    DataFlowClaim,
    EdgeKind,
    NodeKind,
    dumps_cpg,
    load_cpg,
    loads_cpg,
    shortest_path_matrix,
    verify_claims,
)
from binrisk.errors import ParseError, SchemaError, UnknownNode
from binrisk.lifting import function_subgraph


def inst(nid, fn=0, block=0, opcode="mov", **attrs):
    return CpgNode(id=nid, kind=NodeKind.INSTRUCTION, opcode=opcode,
                   function_id=fn, block_id=block, attrs=attrs)


def pdg(a, b):
    return CpgEdge(src=a, dst=b, kind=EdgeKind.PDG)


# --- parsing and validation ---------------------------------------------------

def test_load_toy_fixture(fixtures_dir):
    g = load_cpg(fixtures_dir / "toy_modbus.cpg.json")
    assert g.binary_id == "toy_modbus"
    assert len(g.nodes) == 20
    assert g.function_ids == [0, 1, 2, 3, 4]


def test_duplicate_node_id_rejected():
    with pytest.raises(SchemaError, match="duplicate node id 7"):
        CpgGraph([inst(7), inst(7)], [])


def test_dangling_edge_rejected():
    with pytest.raises(SchemaError, match="missing node 9"):
        CpgGraph([inst(0), inst(1)], [pdg(0, 9)])


def test_negative_function_id_rejected():
    bad = CpgNode(id=0, kind=NodeKind.INSTRUCTION, opcode="mov",
                  function_id=-1, block_id=0, attrs={})
    with pytest.raises(SchemaError):
        CpgGraph([bad], [])


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
    assert len(again.nodes) == len(g.nodes)
    assert len(again.edges) == len(g.edges)


def test_canonical_form_sorts_nodes_and_edges():
    g = CpgGraph([inst(3), inst(1), inst(2)],
                 [pdg(3, 1), pdg(1, 2), pdg(1, 3)])
    doc = json.loads(dumps_cpg(g))
    assert [n["id"] for n in doc["nodes"]] == [1, 2, 3]
    assert [(e["src"], e["dst"]) for e in doc["edges"]] == [(1, 2), (1, 3), (3, 1)]


def test_function_view_keeps_only_internal_pdg_edges():
    nodes = [inst(0, fn=0), inst(1, fn=0), inst(2, fn=1)]
    g = CpgGraph(nodes, [pdg(0, 1), pdg(1, 2), CpgEdge(src=0, dst=1, kind=EdgeKind.CFG)])
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
    return CpgGraph(nodes, edges)


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
        assert got.dtype == np.int64
        assert np.array_equal(got, floyd_warshall(n, edges, max_dist))


def test_distance_matrix_matches_floyd_warshall_on_long_paths_and_cycles():
    path = [(i, i + 1) for i in range(29)]  # 29 hops, past every budget below
    cycle = [(i, (i + 1) % 9) for i in range(9)] + [(0, 0), (4, 4), (4, 4)]
    cases = [(30, path), (30, path[::-1]), (9, cycle), (12, cycle + [(8, 9), (10, 11)]),
             (1, []), (1, [(0, 0)])]
    for n, edges in cases:
        for max_dist in (1, 2, 3, 5, 20, 40):
            got = shortest_path_matrix(n, edges, max_dist=max_dist)
            assert got.dtype == np.int64
            assert np.array_equal(got, floyd_warshall(n, edges, max_dist)), (n, max_dist)


def test_distance_matrix_rejects_empty_and_bad_budget():
    with pytest.raises(ValueError):
        shortest_path_matrix(0, [])
    with pytest.raises(ValueError):
        shortest_path_matrix(3, [], max_dist=0)
    for bad in ([(0, 3)], [(-1, 0)]):
        with pytest.raises(ValueError):
            shortest_path_matrix(3, bad)
