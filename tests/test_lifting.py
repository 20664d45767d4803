"""Annotators, the verification gate, and corpus serialization."""

import json
import re
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binrisk import cpg
from binrisk.cpg import (
    DataFlowClaim,
    EdgeKind,
    NodeKind,
    failing_claims,
    load_cpg,
)
from binrisk.errors import AnnotatorFailure, ConfigError, ParseError, SchemaError
from binrisk.lattice import Label, Lattice, TOP
from binrisk.lifting import (
    Annotation,
    CommandAnnotator,
    ReplayAnnotator,
    RuleAnnotator,
    build_corpus,
    dumps_corpus,
    function_subgraph,
    function_views,
    load_corpus,
    load_rules,
)
from binrisk.pipeline import write_atomic

import oracles
from oracles import CpgEdge, CpgNode, claim_array, inst, pdg, row_cpg

LAT = Lattice.default()


def toy(fixtures_dir):
    return load_cpg(fixtures_dir / "toy_modbus.cpg.json")


# --- function views ----------------------------------------------------------

def test_subgraph_contains_only_own_nodes_and_edges(fixtures_dir):
    g = toy(fixtures_dir)
    view = function_subgraph(g, 2)
    assert view.node_ids == [8, 9, 10, 11, 12]
    assert view.pdg_edges.dtype == np.int64
    assert view.pdg_edges.tolist() == [[8, 9], [9, 10], [9, 11]]
    # Every Pdg edge leaving the function's nodes that ends inside it.
    indptr, succ = g.pdg_csr
    ids = g.node_id.tolist()
    assert view.pdg_edges.tolist() == [
        [ids[r], ids[s]] for r in g.rows_of(view.node_ids).tolist()
        for s in succ[indptr[r]:indptr[r + 1]].tolist() if 8 <= ids[s] <= 12]


def test_unknown_function_raises(fixtures_dir):
    with pytest.raises(SchemaError, match="no nodes with function id 99"):
        function_subgraph(toy(fixtures_dir), 99)


# --- rule annotator -------------------------------------------------------------

def test_rule_labels_on_fixture(fixtures_dir):
    annotator = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), LAT)
    g = toy(fixtures_dir)
    got = {fid: str(annotator.annotate(function_subgraph(g, fid), {}).label)
           for fid in g.function_ids}
    assert got == {
        0: "TOP",
        1: "Network/Socket_Init",
        2: "Network/Protocol_Parse",
        3: "Hardware/Register_Read",
        4: "Hardware/Coil_Write",
    }


def test_rule_order_decides():
    rules = [("mov", "Memory"), ("socket*", "Network/Socket_Init")]
    annotator = RuleAnnotator(rules, LAT)
    nodes = [inst(0, opcode="socket_open"), inst(1)]
    view = function_subgraph(row_cpg(nodes, []), 0)
    # both rules match some node; the earlier one wins
    assert str(annotator.annotate(view, {}).label) == "Memory"


def test_rules_match_callee_attribute():
    annotator = RuleAnnotator([("memcpy", "Memory")], LAT)
    nodes = [CpgNode(id=0, kind=NodeKind.CALL, opcode="call",
                     function_id=0, block_id=0, attrs={"callee": "memcpy"})]
    view = function_subgraph(row_cpg(nodes, []), 0)
    assert str(annotator.annotate(view, {}).label) == "Memory"


def first_rule_ref(rules, names):
    """The label of the first rule matching any name, each pattern a
    literal or, ending in '*', a prefix."""
    for pattern, label in rules:
        for name in names:
            if name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern:
                return label
    return TOP


# Regex metacharacters, a newline and '*' inside a pattern are literal text.
RULE_TEXT = st.text(alphabet="ab.*+\\()[]^$\n|?", max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(RULE_TEXT.filter(bool), st.sampled_from(LAT.labels())), max_size=5),
       st.lists(RULE_TEXT, max_size=4), st.lists(RULE_TEXT, max_size=3))
def test_rule_alternation_picks_the_first_matching_rule(rules, opcodes, callees):
    annotator = RuleAnnotator([(p, str(label)) for p, label in rules], LAT)
    nodes = [inst(i, opcode=o) for i, o in enumerate(opcodes)]
    nodes += [CpgNode(len(opcodes) + i, NodeKind.CALL, "call", 0, 0, {"callee": c})
              for i, c in enumerate(callees)]
    if not nodes:
        return
    view = function_subgraph(row_cpg(nodes, []), 0)
    names = set(opcodes) | {"call" for _ in callees} | (set(callees) - {""})
    assert annotator.annotate(view, {}).label == first_rule_ref(rules, names)


def test_rule_claims_are_internal_data_edges(fixtures_dir):
    annotator = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), LAT)
    g = toy(fixtures_dir)
    ann = annotator.annotate(function_subgraph(g, 2), {})
    assert ann.claims.dtype == np.int64
    assert ann.claims.tolist() == [[8, 9], [9, 10], [9, 11]]


def test_rule_summary_is_deterministic_text(fixtures_dir):
    annotator = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), LAT)
    g = toy(fixtures_dir)
    ann = annotator.annotate(function_subgraph(g, 4), {})
    assert ann.summary == "hardware coil write routine using cmp mmio_write param ret"


def test_rule_file_validation(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"pattern": "x"}]), encoding="utf-8")
    with pytest.raises(SchemaError, match="rule 0 needs 'pattern' and 'label'"):
        load_rules(path)
    with pytest.raises(SchemaError, match="empty pattern"):
        RuleAnnotator([("", "Memory")], LAT)
    with pytest.raises(SchemaError, match="rule 'x' -> 'Not/A/Label/Here'"):
        RuleAnnotator([("x", "Not/A/Label/Here")], LAT)


# --- corpus gate -----------------------------------------------------------------

class ScriptedAnnotator:
    """Emits a fixed annotation per function id; raises where told."""

    def __init__(self, table, boom=()):
        self.table = table
        self.boom = set(boom)

    def annotate(self, view, context):
        if view.function_id in self.boom:
            raise RuntimeError("annotator crashed")
        label, claims = self.table[view.function_id]
        return Annotation(function_id=str(view.function_id), label=label,
                          summary=f"fn {view.function_id}", claims=claims)


def gate_graph():
    nodes = [inst(0, opcode="a"), inst(1, opcode="b"), inst(2, fn=1, block=1, opcode="c"),
             inst(3, fn=2, block=2, opcode="d")]
    return row_cpg(nodes, [pdg(0, 1)])


def test_gate_accepts_rejects_and_fails():
    g = gate_graph()
    annotator = ScriptedAnnotator({
        0: (TOP, claim_array((0, 1))),   # verifiable
        1: (TOP, claim_array((2, 0))),   # no such flow: rejected
    }, boom={2})
    corpus = build_corpus(g, [0, 1, 2], annotator)
    assert [a.function_id for a in corpus.accepted] == ["0"]
    assert corpus.rejected_count == 1
    assert corpus.failed_count == 1
    assert corpus.total == 2
    assert corpus.rejection_rate == pytest.approx(0.5)


def test_hallucinated_node_id_rejects_annotation():
    g = gate_graph()
    annotator = ScriptedAnnotator({0: (TOP, claim_array((0, 404)))})
    corpus = build_corpus(g, [0], annotator)
    assert corpus.accepted == []
    assert corpus.rejected_count == 1
    assert corpus.failed_count == 0


def test_one_bad_claim_rejects_whole_annotation():
    g = gate_graph()
    annotator = ScriptedAnnotator({
        0: (TOP, claim_array((0, 1), (1, 0))),
    })
    corpus = build_corpus(g, [0], annotator)
    assert corpus.accepted == []
    assert corpus.rejected_count == 1


def test_claimless_annotation_is_accepted():
    g = gate_graph()
    annotator = ScriptedAnnotator({1: (Label.parse("Memory"), claim_array())})
    corpus = build_corpus(g, [1], annotator)
    assert len(corpus.accepted) == 1


# --- replay and command annotators ------------------------------------------------

def test_replay_annotator(tmp_path, fixtures_dir):
    doc = {"0": {"label": "Memory", "summary": "copies things", "claims": []}}
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    annotator = ReplayAnnotator(path, LAT)
    g = toy(fixtures_dir)
    ann = annotator.annotate(function_subgraph(g, 0), {})
    assert str(ann.label) == "Memory"
    with pytest.raises(SchemaError, match="replay file has no annotation for function 1"):
        annotator.annotate(function_subgraph(g, 1), {})


ECHO_ANNOTATOR = r"""
import json, sys
req = json.load(sys.stdin)
print(json.dumps({
    "label": "Memory",
    "summary": "echoed %d" % req["function_id"],
    "claims": [[e[0], e[1]] for e in req["pdg_edges"]],
}))
"""


def test_command_annotator_round_trip(fixtures_dir):
    annotator = CommandAnnotator([sys.executable, "-c", ECHO_ANNOTATOR], LAT)
    g = toy(fixtures_dir)
    corpus = build_corpus(g, [1], annotator)
    assert len(corpus.accepted) == 1
    ann = corpus.accepted[0]
    assert str(ann.label) == "Memory"
    assert ann.claims.tolist() == [[4, 5], [5, 6]]


# Claims every data edge it is sent and, for function 1, one from an id past int64.
PAST_INT64_ANNOTATOR = r"""
import json, sys
req = json.load(sys.stdin)
extra = [[2 ** 64, 4]] if req["function_id"] == 1 else []
print(json.dumps({"label": "Memory", "summary": "", "claims": req["pdg_edges"] + extra}))
"""


def test_claims_past_int64_are_rejected_not_raised(fixtures_dir, tmp_path):
    """A claim naming an id outside int64, which no node can have, fails
    at the gate as a claim on a missing node does, whether it comes from a
    replay file or from an external annotator."""
    g = toy(fixtures_dir)
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({
        "1": {"label": "Memory", "summary": "", "claims": [[4, 5], [2 ** 63, 5]]},
        "2": {"label": "Memory", "summary": "", "claims": [[-2 ** 63 - 1, 8], [8, 9]]},
        "3": {"label": "Memory", "summary": "", "claims": []}}), encoding="utf-8")
    annotator = ReplayAnnotator(replay, LAT)
    corpus = build_corpus(g, [1, 2, 3], annotator)
    assert [a.function_id for a in corpus.accepted] == ["3"]
    assert (corpus.rejected_count, corpus.failed_count) == (2, 0)
    claims = [annotator.annotate(function_subgraph(g, f), {}).claims for f in (1, 2)]
    assert failing_claims(g, claims) == [DataFlowClaim(2 ** 63, 5),
                                         DataFlowClaim(-2 ** 63 - 1, 8)]
    command = CommandAnnotator([sys.executable, "-c", PAST_INT64_ANNOTATOR], LAT)
    corpus = build_corpus(g, [1, 2], command)
    assert [a.function_id for a in corpus.accepted] == ["2"]
    assert (corpus.rejected_count, corpus.failed_count) == (1, 0)


def test_command_annotator_rejects_one_string_command():
    with pytest.raises(ConfigError, match="list of arguments"):
        CommandAnnotator(f"{sys.executable} -c pass", LAT)


def test_command_annotator_failure_counts_as_failed(fixtures_dir):
    annotator = CommandAnnotator([sys.executable, "-c", "raise SystemExit(3)"], LAT)
    g = toy(fixtures_dir)
    corpus = build_corpus(g, [0], annotator)
    assert corpus.failed_count == 1
    with pytest.raises(AnnotatorFailure):
        annotator.annotate(function_subgraph(g, 0), {"binary_id": "x"})


# --- corpus files -------------------------------------------------------------------

def test_corpus_round_trip(fixtures_dir, tmp_path):
    g = toy(fixtures_dir)
    annotator = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), LAT)
    corpus = build_corpus(g, g.function_ids, annotator)
    assert len(corpus.accepted) == 5 and corpus.rejected_count == 0

    path = tmp_path / "corpus.jsonl"
    write_atomic(path, dumps_corpus(corpus))
    again = load_corpus(path, LAT)
    assert dumps_corpus(again) == dumps_corpus(corpus)
    assert [a.function_id for a in again.accepted] == [a.function_id for a in corpus.accepted]


def test_corpus_loader_requires_trailer(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"function_id": "0", "label": "TOP", "summary": "", "claims": []}\n',
                    encoding="utf-8")
    with pytest.raises(SchemaError):
        load_corpus(path, LAT)


TRAILER = '{"trailer": {"accepted": 1, "failed": 0, "rejected": 0, "total": 1}}'


@pytest.mark.parametrize("lines", [
    ['{"trailer": 5}'],
    ['{"trailer": {"rejected": -1}}'],
    ['{"trailer": {"failed": 1.0}}'],
    ['[1, 2]', TRAILER],
    ['{"function_id": "0", "label": "TOP", "summary": "", "claims": [[true, 1]]}', TRAILER],
    ['{"function_id": "0", "label": "TOP", "summary": "", "claims": [[1.0, 2]]}', TRAILER],
    ['{"function_id": "0", "label": "TOP", "summary": "", "claims": [[1, 2, 3]]}', TRAILER],
    ['{"function_id": "0", "label": "TOP", "summary": "", "claims": "x"}', TRAILER],
], ids=["trailer_number", "negative_rejected", "float_failed", "list_line", "boolean_claim",
        "float_claim", "triple_claim", "string_claims"])
def test_corpus_loader_names_the_bad_line(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{re.escape(str(path))} line 1"):
        load_corpus(path, LAT)


@pytest.mark.parametrize("claims, shown", [
    ("[true]", "True"), ("[[true, 1]]", "[True, 1]"), ("[[1, false]]", "[1, False]"),
    ("[1.5]", "1.5"), ("[[1.0, 2]]", "[1.0, 2]"), ("[[1, 2, 3]]", "[1, 2, 3]"),
    ('["x"]', "'x'"), ('[[0, 1], [1, "2"]]', "[1, '2']"), ("[[0, 1], [2]]", "[2]"),
])
def test_corpus_loader_names_the_bad_claim(tmp_path, claims, shown):
    """The claims are type-checked all at once, and the first bad one is named."""
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"function_id": "0", "label": "TOP", "summary": "", "claims": %s}\n%s\n'
                    % (claims, TRAILER), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_corpus(path, LAT)
    assert str(info.value) == (f"corpus file {path} line 1: annotation for function 0 has "
                               f"claim {shown}, not a [source, sink] pair of integer node ids")


# Node ids over all of int64, and integers past it, which a corpus file may hold.
CORPUS_IDS = (st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(2 ** 63, 2 ** 70)
              | st.integers(-2 ** 70, -2 ** 63 - 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), st.sampled_from(LAT.labels()), st.text(),
                          st.lists(st.tuples(CORPUS_IDS, CORPUS_IDS), max_size=4)),
                max_size=5), st.integers(0, 2 ** 40), st.integers(0, 2 ** 40))
def test_corpus_text_round_trips_byte_for_byte(tmp_path_factory, rows, rejected, failed):
    """dumps_corpus(load_corpus(f)) is f, for any text dumps_corpus writes."""
    compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    lines = [compact({"function_id": fid, "label": str(label), "summary": summary,
                      "claims": [list(pair) for pair in claims]})
             for fid, label, summary, claims in rows]
    lines.append(compact({"trailer": {"accepted": len(rows), "rejected": rejected,
                                      "failed": failed, "total": len(rows) + rejected}}))
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    corpus = load_corpus(path, LAT)
    assert dumps_corpus(corpus) == text
    assert {a.claims.dtype for a in corpus.accepted} <= {np.dtype(np.int64), np.dtype(object)}
    assert [a.claims.shape for a in corpus.accepted] == [(len(r[3]), 2) for r in rows]


def test_corpus_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("{oops\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_corpus(path, LAT)


# --- one-pass corpus against the per-function oracle ----------------------------------

OPCODES = ["mov", "socket_open", "mmio_write", "", "é"]
ATTRS = [{}, {"callee": "memcpy"}, {"callee": ""}, {"callee": "mmio_read", "function_name": "f"}]


@st.composite
def lifting_cases(draw):
    """A graph of a few functions; the functions to annotate, out of order
    and some twice; per function the claims an annotator makes (direct,
    multi-hop, unreachable, self and missing-node ones) and whether it
    raises instead."""
    ids = draw(st.lists(st.integers(-2 ** 40, 2 ** 40) | st.sampled_from([-2 ** 63, 2 ** 63 - 1]),
                        unique=True, min_size=1, max_size=14))
    nodes = [CpgNode(i, draw(st.sampled_from(list(NodeKind))), draw(st.sampled_from(OPCODES)),
                     draw(st.integers(0, 4)), draw(st.integers(0, 3)),
                     draw(st.sampled_from(ATTRS))) for i in ids]
    # Mostly Pdg edges, so that paths of several hops form within and
    # across functions; parallel edges too.
    edge_kind = st.sampled_from([EdgeKind.PDG] * 4 + [EdgeKind.CFG, EdgeKind.AST])
    edges = draw(st.lists(st.builds(CpgEdge, st.sampled_from(ids), st.sampled_from(ids),
                                    edge_kind, st.sampled_from(["", "call"])), max_size=30))
    g = row_cpg(draw(st.permutations(nodes)), draw(st.permutations(edges)))
    pdg_pairs = [(e.src, e.dst) for e in edges if e.kind is EdgeKind.PDG]
    absent = max(ids) + 1
    end = st.sampled_from(ids) | st.sampled_from([absent, 2 ** 63, -2 ** 63 - 1, 2 ** 70, "x"])
    claim = (st.tuples(end, end) | st.sampled_from(ids).map(lambda i: (i, i))
             | (st.sampled_from(pdg_pairs) if pdg_pairs else st.nothing()))
    table = {fid: (TOP, claim_array(*draw(st.lists(claim, max_size=5))))
             for fid in g.function_ids}
    boom = draw(st.sets(st.sampled_from(g.function_ids)))
    functions = draw(st.permutations(g.function_ids)) + draw(
        st.lists(st.sampled_from(g.function_ids), max_size=3))
    return g, ScriptedAnnotator(table, boom), functions


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lifting_cases())
def test_one_pass_corpus_equals_per_function_oracle(case):
    g, annotator, functions = case
    got = build_corpus(g, functions, annotator)
    assert dumps_corpus(got) == dumps_corpus(oracles.build_corpus(g, functions, annotator))
    views = [oracles.view_fields(oracles.function_subgraph(g, f)) for f in functions]
    assert list(map(oracles.view_fields, function_views(g, functions))) == views
    claim_lists = [annotator.table[f][1] for f in functions]
    expected = [oracles.first_failing_claim(g, c) for c in claim_lists]
    assert failing_claims(g, claim_lists) == expected
    assert [failing_claims(g, [c])[0] for c in claim_lists] == expected
    unknown = max(g.function_ids) + 1
    for at in (0, len(functions)):
        with pytest.raises(SchemaError, match=f"no nodes with function id {unknown}"):
            build_corpus(g, functions[:at] + [unknown] + functions[at:], annotator)


def test_claims_settle_without_a_walk_unless_they_need_one(monkeypatch):
    # 0 -> 1 -> 2 over Pdg edges, 3 alone: a direct edge and a self claim
    # hold with no graph walk; a two-hop claim walks once; a list stops
    # at its first failing claim.
    g = row_cpg([inst(0), inst(1), inst(2), inst(3, fn=1, block=1)], [pdg(0, 1), pdg(1, 2)])
    walks = []
    real = cpg._reachable
    monkeypatch.setattr(cpg, "_reachable",
                        lambda indptr, succ, s, d: walks.append((s, d)) or real(indptr, succ, s, d))
    claim_lists = [
        claim_array((0, 1), (1, 2), (2, 2)),  # direct and self
        claim_array((0, 2)),  # two hops
        claim_array((0, 1), (2, 0), (0, 2)),  # unreachable first
        claim_array((0, 404), (2, 0)),  # missing node first
        claim_array(),
    ]
    assert failing_claims(g, claim_lists) == [None, None, DataFlowClaim(2, 0),
                                              DataFlowClaim(0, 404), None]
    assert walks == [(0, 2), (2, 0)]  # rows: node ids equal rows here
