"""Annotators, the verification gate, and corpus serialization."""

import json
import re
import sys

import pytest

from binrisk.cpg import (
    DataFlowClaim,
    NodeKind,
    load_cpg,
)
from binrisk.errors import (
    AnnotatorFailure,
    InvalidRule,
    MissingAnnotation,
    ParseError,
    SchemaError,
    UnknownFunction,
)
from binrisk.lattice import Label, Lattice, TOP
from binrisk.lifting import (
    Annotation,
    CommandAnnotator,
    ReplayAnnotator,
    RuleAnnotator,
    build_corpus,
    dumps_corpus,
    function_subgraph,
    load_corpus,
    load_rules,
)
from binrisk.pipeline import write_atomic

from oracles import CpgNode, inst, pdg, row_cpg

LAT = Lattice.default()


def toy(fixtures_dir):
    return load_cpg(fixtures_dir / "toy_modbus.cpg.json")


# --- function views ----------------------------------------------------------

def test_subgraph_contains_only_own_nodes_and_edges(fixtures_dir):
    g = toy(fixtures_dir)
    view = function_subgraph(g, 2)
    assert view.node_ids == [8, 9, 10, 11, 12]
    assert view.pdg_edges == [(8, 9), (9, 10), (9, 11)]
    # Every Pdg edge leaving the function's nodes that ends inside it.
    indptr, succ = g.pdg_csr
    ids = g.node_id.tolist()
    assert view.pdg_edges == [
        (ids[r], ids[s]) for r in g.rows_of(view.node_ids).tolist()
        for s in succ[indptr[r]:indptr[r + 1]].tolist() if 8 <= ids[s] <= 12]


def test_unknown_function_raises(fixtures_dir):
    with pytest.raises(UnknownFunction):
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


def test_rule_claims_are_internal_data_edges(fixtures_dir):
    annotator = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), LAT)
    g = toy(fixtures_dir)
    ann = annotator.annotate(function_subgraph(g, 2), {})
    assert ann.claims == (DataFlowClaim(8, 9), DataFlowClaim(9, 10),
                          DataFlowClaim(9, 11))


def test_rule_summary_is_deterministic_text(fixtures_dir):
    annotator = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), LAT)
    g = toy(fixtures_dir)
    ann = annotator.annotate(function_subgraph(g, 4), {})
    assert ann.summary == "hardware coil write routine using cmp mmio_write param ret"


def test_rule_file_validation(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"pattern": "x"}]), encoding="utf-8")
    with pytest.raises(InvalidRule):
        load_rules(path)
    with pytest.raises(InvalidRule):
        RuleAnnotator([("", "Memory")], LAT)
    with pytest.raises(InvalidRule):
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
        0: (TOP, (DataFlowClaim(0, 1),)),   # verifiable
        1: (TOP, (DataFlowClaim(2, 0),)),   # no such flow: rejected
    }, boom={2})
    corpus = build_corpus(g, [0, 1, 2], annotator)
    assert [a.function_id for a in corpus.accepted] == ["0"]
    assert corpus.rejected_count == 1
    assert corpus.failed_count == 1
    assert corpus.total == 2
    assert corpus.rejection_rate == pytest.approx(0.5)


def test_hallucinated_node_id_rejects_annotation():
    g = gate_graph()
    annotator = ScriptedAnnotator({0: (TOP, (DataFlowClaim(0, 404),))})
    corpus = build_corpus(g, [0], annotator)
    assert corpus.accepted == []
    assert corpus.rejected_count == 1
    assert corpus.failed_count == 0


def test_one_bad_claim_rejects_whole_annotation():
    g = gate_graph()
    annotator = ScriptedAnnotator({
        0: (TOP, (DataFlowClaim(0, 1), DataFlowClaim(1, 0))),
    })
    corpus = build_corpus(g, [0], annotator)
    assert corpus.accepted == []
    assert corpus.rejected_count == 1


def test_claimless_annotation_is_accepted():
    g = gate_graph()
    annotator = ScriptedAnnotator({1: (Label.parse("Memory"), ())})
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
    with pytest.raises(MissingAnnotation):
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
    assert ann.claims == (DataFlowClaim(4, 5), DataFlowClaim(5, 6))


def test_command_annotator_rejects_one_string_command():
    with pytest.raises(InvalidRule, match="list of arguments"):
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


def test_corpus_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("{oops\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_corpus(path, LAT)
