"""Property tests of the file formats: the canonical JSON writer matches
the standard library byte for byte, and every format reads back what
was written."""

import json
import math
import random
import re
import subprocess
import sys
from enum import Enum
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from binrisk import errors, jsonio
from binrisk.cpg import CpgGraph, EdgeKind, NodeKind, dumps_cpg, load_cpg, loads_cpg
from binrisk.embedding import HashEmbedder
from binrisk.errors import BinriskError, ParseError, SchemaError
from binrisk.fingerprint import Fingerprint, dumps_fingerprint, load_fingerprint
from binrisk.graphormer import dumps_embeddings, embeddings_chunks, load_embeddings
from binrisk.jsonio import dumps_json, json_list, json_object, json_value
from binrisk.lattice import Lattice
from binrisk.lifting import (Annotation, VerifiedCorpus, dumps_corpus, function_subgraph,
                             load_corpus)
from binrisk.pipeline import write_atomic
from binrisk.ssckg import Entity, RelationType, dumps_ssckg, load_ssckg

import oracles
from oracles import (CpgEdge, CpgNode, Relation, claim_array, edge_rows, frozen, node_ids,
                     node_rows, relation_rows, row_cpg, row_kg)
from test_cpg import generated_cpg_text, traced_peak

LAT = Lattice.default()
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class Tone(str, Enum):
    PLAIN = "plain"
    ODD = 'é "quoted"\n\x00'


# Text drawn from the whole of Unicode and, separately, from the
# characters JSON must escape.
TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600')
FINITE = st.floats(allow_nan=False, allow_infinity=False)

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
           | st.sampled_from(list(Tone)) | st.sampled_from([-0.0, 10 ** 40, -(2 ** 70)]))
JSON_VALUES = st.recursive(
    SCALARS | st.lists(st.floats()) | st.lists(FINITE),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=25)


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@PROPERTY
@given(JSON_VALUES)
def test_dumps_json_equals_stdlib(doc):
    assert dumps_json(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"a": {}}, [float("nan"), float("inf"), -float("inf")],
    [1.5, float("nan")], [1.0, 2], [1.0, True], {"k": [0.1, -0.0, 1e300, 5e-324]},
    {2: "int", 10: "ints sort as numbers"}, {1.5: "float"}, {None: "null"}, {True: 1},
    [Tone.ODD, {"t": Tone.PLAIN}], ("tuple", 1.0),
])
def test_dumps_json_edge_cases(doc):
    assert dumps_json(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [{1: "a", "b": 2}, [object()], {(1,): 2}])
def test_dumps_json_rejects_what_stdlib_rejects(doc):
    with pytest.raises(TypeError):
        stdlib(doc)
    with pytest.raises(TypeError):
        dumps_json(doc)


def test_errors_module_holds_only_exception_classes():
    # The JSON codec is jsonio's alone: errors re-exports none of it.
    names = [name for name in vars(errors) if not name.startswith("__")]
    assert names and all(isinstance(getattr(errors, name), type)
                         and issubclass(getattr(errors, name), Exception) for name in names)


@PROPERTY
@given(st.dictionaries(TEXT, JSON_VALUES, max_size=4), st.integers(0, 3))
def test_layout_helpers_equal_dumps_json(doc, depth):
    # Each value's text given whole or in two chunks, empty documents too.
    texts = [json_value(v, depth + 1) for v in doc.values()]
    fields = {k: t if len(t) % 2 else [t[:1], t[1:]] for k, t in zip(doc, texts)}
    assert "".join(json_object(fields, depth)) == json_value(doc, depth)
    assert json_list(texts, depth) == json_value(list(doc.values()), depth)


# --- round trips: loads(dumps(x)) == x -----------------------------------------

IDS = st.integers(min_value=0, max_value=2 ** 40)
INT64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
# Small ids make functions share nodes and blocks; large ones reach the
# ends of the int64 columns.
GROUP_IDS = st.integers(min_value=0, max_value=3) | st.integers(min_value=0,
                                                                max_value=2 ** 63 - 1)
LABELS = st.sampled_from(["", "call", "é"]) | TEXT


@st.composite
def graph_rows(draw) -> tuple[list[CpgNode], list[CpgEdge], str]:
    """Shuffled node and edge rows of a valid graph, and its binary id."""
    ids = draw(st.lists(INT64, unique=True, min_size=1, max_size=12))
    nodes = [CpgNode(id=i, kind=draw(st.sampled_from(list(NodeKind))), opcode=draw(TEXT),
                     function_id=draw(GROUP_IDS), block_id=draw(GROUP_IDS),
                     attrs=draw(st.dictionaries(TEXT, TEXT, max_size=3)))
             for i in ids]
    edge = st.builds(CpgEdge, st.sampled_from(ids), st.sampled_from(ids),
                     st.sampled_from(list(EdgeKind)), LABELS)
    edges = draw(st.just([]) | st.lists(edge, max_size=20))
    return draw(st.permutations(nodes)), draw(st.permutations(edges)), draw(TEXT)


def graphs():
    return graph_rows().map(lambda rows: row_cpg(*rows))


def cpg_document(g: CpgGraph) -> dict:
    """The graph's document, from its rows."""
    return {
        "binary_id": g.binary_id,
        "nodes": [{"id": n.id, "kind": n.kind, "opcode": n.opcode, "function_id": n.function_id,
                   "block_id": n.block_id, "attrs": n.attrs} for n in node_rows(g)],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind, "label": e.label}
                  for e in edge_rows(g)],
    }


@PROPERTY
@given(graphs())
def test_cpg_round_trip(g):
    text = dumps_cpg(g)
    back = loads_cpg(text)
    assert (back.binary_id, node_rows(back), edge_rows(back)) == (
        g.binary_id, node_rows(g), edge_rows(g))
    assert dumps_cpg(back) == text


@PROPERTY
@given(graphs())
def test_dumps_cpg_equals_canonical_writer(g):
    assert dumps_cpg(g) == dumps_json(cpg_document(g))


def row_function_view(g: CpgGraph, function_id: int) -> tuple:
    """One function's node columns and inner Pdg edges, from the graph's rows."""
    nodes = [n for n in node_rows(g) if n.function_id == function_id]
    inside = {n.id for n in nodes}
    return ([n.id for n in nodes], [n.kind for n in nodes], [n.opcode for n in nodes],
            [n.attrs for n in nodes],
            [(e.src, e.dst) for e in edge_rows(g)
             if e.kind is EdgeKind.PDG and e.src in inside and e.dst in inside])


@PROPERTY
@given(graphs())
def test_function_view_equals_row_view(g):
    for fid in g.function_ids:
        view = function_subgraph(g, fid)
        assert (view.node_ids, view.kinds, view.opcodes, view.attrs,
                list(map(tuple, view.pdg_edges.tolist()))) == row_function_view(g, fid)


# JSON values where a reader wants a string (an opcode, a label or an attrs
# value), strings among them: the readers refuse the others, never coerce.
LOOSE = TEXT | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)


@st.composite
def cpg_texts(draw) -> tuple[str, list[CpgNode], list[CpgEdge], str]:
    """A CPG file with optional fields left out and loose values, and the
    rows it holds."""
    nodes, edges, binary_id = draw(graph_rows())
    values = draw(st.sampled_from([TEXT, LOOSE]))  # so that half the files are valid
    raw_nodes, loose_nodes = [], []
    for n in nodes:
        raw = {"id": n.id, "kind": n.kind.value, "function_id": n.function_id,
               "block_id": n.block_id}
        opcode = draw(st.just(n.opcode) | values)
        if opcode != "" or draw(st.booleans()):
            raw["opcode"] = opcode
        attrs = draw(st.just(n.attrs) | st.dictionaries(TEXT, values, max_size=3))
        if attrs or draw(st.booleans()):
            raw["attrs"] = attrs
        raw_nodes.append(raw)
        loose_nodes.append(CpgNode(n.id, n.kind, opcode, n.function_id, n.block_id, attrs))
    raw_edges, loose_edges = [], []
    for e in edges:
        raw = {"src": e.src, "dst": e.dst, "kind": e.kind.value}
        label = draw(st.just(e.label) | values)
        if label != "" or draw(st.booleans()):
            raw["label"] = label
        raw_edges.append(raw)
        loose_edges.append(CpgEdge(e.src, e.dst, e.kind, label))
    doc = {"binary_id": binary_id, "nodes": raw_nodes, "edges": raw_edges}
    return json.dumps(doc), loose_nodes, loose_edges, binary_id


def graph_views(g: CpgGraph) -> tuple:
    fids = g.function_ids
    return (g.binary_id, node_rows(g), edge_rows(g), fids,
            [oracles.view_fields(function_subgraph(g, f)) for f in fids],
            [column.tolist() for column in g.pdg_csr], dumps_cpg(g))


@PROPERTY
@given(cpg_texts())
def test_loads_cpg_agrees_with_row_constructor(case):
    text, nodes, edges, binary_id = case
    texts = [n.opcode for n in nodes] + [e.label for e in edges]
    texts += [v for n in nodes for v in n.attrs.values()]
    if not all(isinstance(t, str) for t in texts):
        # Both readers refuse a value that is no string, with one error.
        faults = []
        for read in (lambda: loads_cpg(text), lambda: row_cpg(nodes, edges, binary_id)):
            with pytest.raises(SchemaError, match="non-string") as info:
                read()
            faults.append(str(info.value))
        assert faults[0] == faults[1]
        return
    from_rows = row_cpg(nodes, edges, binary_id)
    assert graph_views(loads_cpg(text)) == graph_views(from_rows)
    # Canonical order: nodes by id, edges by (src, dst, kind value, label).
    assert node_rows(from_rows) == sorted(nodes, key=lambda n: n.id)
    assert edge_rows(from_rows) == sorted(
        edges, key=lambda e: (e.src, e.dst, e.kind.value, e.label))


def first_fault(doc: dict) -> str | None:
    """The error of the row-by-row reading: each node row, then each edge
    row, then node ids, then edge endpoints; None for a valid document."""
    def is_id(value):
        return type(value) is int and -2 ** 63 <= value < 2 ** 63

    node_kinds, edge_kinds = {k.value for k in NodeKind}, {k.value for k in EdgeKind}
    for pos, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict):
            return f"node at index {pos} must be an object"
        for key in ("id", "kind"):
            if key not in raw:
                return f"node at index {pos} is missing required field '{key}'"
        if not isinstance(raw["kind"], str) or raw["kind"] not in node_kinds:
            return f"node at index {pos} has unknown kind '{raw['kind']}'"
        if not is_id(raw["id"]):
            return f"node at index {pos} has non-integer id {raw['id']!r}"
        if not isinstance(raw.get("attrs", {}), dict):
            return f"node {raw['id']} attrs must be an object"
        for key in ("function_id", "block_id"):
            if key not in raw:
                return f"node {raw['id']} is missing required field '{key}'"
        for key in ("function_id", "block_id"):
            if not is_id(raw[key]):
                return f"node {raw['id']} has non-integer {key} {raw[key]!r}"
        if not isinstance(raw.get("opcode", ""), str):
            return f"node {raw['id']} has non-string opcode {raw['opcode']!r}"
        for key, value in raw.get("attrs", {}).items():
            if not isinstance(value, str):
                return f"node {raw['id']} has non-string attrs entry {key!r}: {value!r}"
    for pos, raw in enumerate(doc["edges"]):
        if not isinstance(raw, dict):
            return f"edge at index {pos} must be an object"
        if "kind" not in raw:
            return f"edge at index {pos} is missing required field 'kind'"
        if not isinstance(raw["kind"], str) or raw["kind"] not in edge_kinds:
            return f"edge at index {pos} has unknown kind '{raw['kind']}'"
        for key in ("src", "dst"):
            if key not in raw:
                return f"edge at index {pos} is missing required field '{key}'"
        if not is_id(raw["src"]) or not is_id(raw["dst"]):
            return (f"edge at index {pos} has a non-integer endpoint "
                    f"{raw['src']!r} -> {raw['dst']!r}")
        if not isinstance(raw.get("label", ""), str):
            return f"edge at index {pos} has non-string label {raw['label']!r}"
    seen = set()
    for raw in doc["nodes"]:
        if raw["id"] in seen:
            return f"duplicate node id {raw['id']}"
        if raw["function_id"] < 0 or raw["block_id"] < 0:
            return f"node {raw['id']} has negative function or block id"
        seen.add(raw["id"])
    for pos, raw in enumerate(doc["edges"]):
        for key in ("src", "dst"):
            if raw[key] not in seen:
                return f"edge {pos} references missing node {raw[key]}"
    return None


# Damage done to one row: (field, value); ... deletes the field, and a
# "row" value replaces the whole row.
NODE_FAULTS = [("id", "duplicate"), ("function_id", -1), ("id", True), ("id", 2 ** 64),
               ("id", "7"), ("block_id", False), ("function_id", "a"), ("attrs", ["x"]),
               ("attrs", None), ("kind", "Widget"), ("block_id", ...), ("id", ...),
               ("kind", ...), ("row", [1]), ("opcode", 5), ("opcode", None),
               ("attrs", {"external": True})]
EDGE_FAULTS = [("src", "dangling"), ("dst", "dangling"), ("ends", "dangling"), ("src", False),
               ("dst", -(2 ** 63) - 1), ("kind", "Data"), ("dst", ...), ("kind", ...),
               ("row", None), ("label", None), ("label", 1.5)]


@st.composite
def faulty_documents(draw) -> dict:
    g = draw(graphs())
    doc = json.loads(dumps_cpg(g))
    for _ in range(2):
        rows = draw(st.sampled_from(["edges", "nodes"] if doc["edges"] else ["nodes"]))
        pos = draw(st.integers(min_value=0, max_value=len(doc[rows]) - 1))
        key, value = draw(st.sampled_from(NODE_FAULTS if rows == "nodes" else EDGE_FAULTS))
        if value == "duplicate":
            # The first pass may have replaced a node row by a non-object.
            objects = [raw for raw in doc["nodes"] if isinstance(raw, dict)] or [{}]
            value = draw(st.sampled_from(objects)).get("id")
        elif value == "dangling":
            value = max(g.node_id.tolist()) + 1
        if key == "row":
            doc[rows][pos] = value
        elif key == "ends" and isinstance(doc[rows][pos], dict):
            doc[rows][pos].update(src=value, dst=value + 1)
        elif isinstance(doc[rows][pos], dict) and value is ...:
            doc[rows][pos].pop(key, None)
        elif isinstance(doc[rows][pos], dict):
            doc[rows][pos][key] = value
    return doc


@PROPERTY
@given(faulty_documents())
def test_first_fault_message_is_the_row_by_row_one(doc):
    expected = first_fault(doc)
    if expected is None:
        loads_cpg(json.dumps(doc))
        return
    with pytest.raises(SchemaError) as info:
        loads_cpg(json.dumps(doc))
    assert str(info.value) == expected


def whole_rows(doc: dict) -> bool:
    """Whether every row is an object that holds every required field."""
    return (all(isinstance(raw, dict) and {"id", "kind", "function_id", "block_id"} <= raw.keys()
                for raw in doc["nodes"])
            and all(isinstance(raw, dict) and {"src", "dst", "kind"} <= raw.keys()
                    for raw in doc["edges"]))


@PROPERTY
@given(faulty_documents().filter(whole_rows))
def test_row_constructor_names_the_first_fault(doc):
    # The row constructor converts its rows as the loaders do, so a faulty
    # value in a row gives the loaders' error.
    nodes = [CpgNode(**raw) for raw in doc["nodes"]]
    edges = [CpgEdge(**raw) for raw in doc["edges"]]
    expected = first_fault(doc)
    if expected is None:
        row_cpg(nodes, edges)
        return
    with pytest.raises(SchemaError) as info:
        row_cpg(nodes, edges)
    assert str(info.value) == expected


@pytest.mark.parametrize("binary_id", [None, 5, ["x"]])
def test_binary_id_must_be_a_string(binary_id):
    message = f"'binary_id' must be a string, got {binary_id!r}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        loads_cpg(json.dumps({"binary_id": binary_id, "nodes": [], "edges": []}))
    with pytest.raises(SchemaError, match=re.escape(message)):
        row_cpg([], [], binary_id)
    message = f"'source_binary' must be a string, got {binary_id!r}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        row_kg([], [], source_binary=binary_id)


# --- the streamed CPG reader against the whole-tree reader -----------------------

# Strings that hold the text the streamed reader cuts rows at.
SEPARATORS = st.sampled_from(["},{", "}]", "{", '"', "} ,\r{", "}\t]", '"},{"id": 0}'])
ROW_TEXT = SEPARATORS | TEXT


class Pairs(list):
    """An object as (key, value) pairs, so that a key may repeat."""


def spaced(rnd, value, ascii_only: bool) -> str:
    """value as JSON text with random whitespace and key order."""
    def blank() -> str:
        return "".join(rnd.choices(" \t\n\r", k=rnd.choice([0, 0, 1, 3])))

    if isinstance(value, (dict, Pairs)):
        pairs = list(value.items()) if isinstance(value, dict) else list(value)
        rnd.shuffle(pairs)
        body = ",".join(blank() + json.dumps(k, ensure_ascii=ascii_only) + blank() + ":"
                        + blank() + spaced(rnd, v, ascii_only) + blank() for k, v in pairs)
        return "{" + (body or blank()) + "}"
    if isinstance(value, list):
        body = ",".join(blank() + spaced(rnd, v, ascii_only) + blank() for v in value)
        return "[" + (body or blank()) + "]"
    return json.dumps(value, ensure_ascii=ascii_only)


@st.composite
def separator_documents(draw) -> dict:
    """A valid graph document whose opcodes, labels and attrs may hold
    row separators."""
    nodes, edges, binary_id = draw(graph_rows())
    return {
        "binary_id": binary_id,
        "nodes": [{"id": n.id, "kind": n.kind.value, "opcode": draw(ROW_TEXT),
                   "function_id": n.function_id, "block_id": n.block_id,
                   "attrs": draw(st.dictionaries(ROW_TEXT, ROW_TEXT, max_size=2))}
                  for n in nodes],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind.value, "label": draw(ROW_TEXT)}
                  for e in edges],
    }


@st.composite
def laid_out(draw, docs, arrays: tuple[str, str]) -> str:
    """A document of docs as text in any layout json.loads reads, perhaps
    with a BOM, text after it or its end cut off.  Either of the arrays
    may be missing or repeated (the last one counts)."""
    doc = draw(docs)
    dropped = draw(st.sampled_from([None] * 9 + list(arrays)))
    pairs = Pairs((key, value) for key, value in doc.items() if key != dropped)
    rarely = st.sampled_from([False] * 3 + [True])
    if draw(rarely):
        key = draw(st.sampled_from(arrays))
        rows = doc[key] if isinstance(doc.get(key), list) else []
        pairs.append((key, draw(st.sampled_from([[], 5, "x", None, rows, rows[::-1]]))))
    if draw(rarely):
        pairs.append(("meta", draw(st.sampled_from([None, [], {arrays[0]: [1]}, [{"a": "}]"}]]))))
    text = spaced(random.Random(draw(st.integers(0, 2 ** 32))), pairs, draw(st.booleans()))
    bom = draw(st.sampled_from([""] * 5 + ["\ufeff"]))
    tail = draw(st.sampled_from([""] * 12 + [" x", "{}", "]"]))
    cut = draw(st.integers(0, len(text))) if draw(st.sampled_from([0] * 5 + [1])) else None
    return (bom + text + tail)[:cut]


def streamed_texts():
    return laid_out(separator_documents() | faulty_documents()
                    | st.just({"binary_id": "", "nodes": [], "edges": []}), ("nodes", "edges"))


def whole_text_refused(text: str):
    """A patch under which json.loads refuses text: the reader under test
    decodes a chunk of rows at a time, never the whole document."""
    loads = json.loads

    def chunk_only(s, *args, **kwargs):
        assert s != text, "the whole text was decoded at once"
        return loads(s, *args, **kwargs)

    return mock.patch("json.loads", chunk_only)


def read(reader, text: str) -> tuple[str, str]:
    """("ok", the canonical text) of the graph a reader reads, or its error."""
    try:
        return "ok", dumps_cpg(reader(text))
    except (SchemaError, ParseError) as exc:
        return type(exc).__name__, str(exc)


@settings(PROPERTY, max_examples=100)
@given(streamed_texts())
def test_streamed_reader_agrees_with_whole_tree_reader(text):
    want = read(oracles.loads_tree, text)
    for chunk in (1, 7, 64):
        with mock.patch.object(jsonio, "_CHUNK", chunk), whole_text_refused(text):
            assert read(loads_cpg, text) == want


@st.composite
def knowledge_graphs(draw, text=TEXT):
    ids = draw(st.lists(st.integers(min_value=0, max_value=10 ** 6), unique=True,
                        min_size=1, max_size=8))
    dim = draw(st.integers(min_value=1, max_value=5))
    vector = st.lists(FINITE, min_size=dim, max_size=dim).map(frozen)
    entities = [Entity(id=i, name=draw(text), label=draw(st.sampled_from(LAT.labels())),
                       members=node_ids(*draw(st.frozensets(IDS, max_size=5))),
                       summary=draw(text),
                       embedding=draw(st.none() | vector), external=draw(st.booleans()),
                       cluster_id=draw(st.none() | st.integers(min_value=-1, max_value=9)))
                for i in ids]
    relations = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        rel_type = draw(st.sampled_from(list(RelationType)))
        dst = draw(text if rel_type is RelationType.VULNERABLE_TO else st.sampled_from(ids))
        relations.append(Relation(src=draw(st.sampled_from(ids)), rel_type=rel_type, dst=dst,
                                  weight=draw(st.floats(min_value=1e-9, max_value=1e9))))
    clustering = draw(st.none() | st.fixed_dictionaries(
        {"points": IDS, "noise": IDS, "clusters": IDS}))
    return row_kg(entities, relations, source_binary=draw(text), clustering=clustering)


def entity_fields(e: Entity) -> tuple:
    vector = None if e.embedding is None else e.embedding.tolist()
    return (e.id, e.name, e.label, e.members.tolist(), e.summary, vector, e.external,
            e.cluster_id)


@PROPERTY
@given(knowledge_graphs())
def test_ssckg_round_trip(tmp_path_factory, kg):
    path = tmp_path_factory.mktemp("kg") / "kg.json"
    write_atomic(path, dumps_ssckg(kg))
    back = load_ssckg(path)
    assert [entity_fields(e) for e in back.entities] == [entity_fields(e) for e in kg.entities]
    assert relation_rows(back) == relation_rows(kg)
    assert (back.source_binary, back.clustering) == (kg.source_binary, kg.clustering)
    assert dumps_ssckg(back) == dumps_ssckg(kg)


# Vector entries whose text must come out exactly: both zeros, the
# subnormals and the ends of the float range.
ODD_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                              1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
                              1 / 3])
KG_VECTORS = (st.lists(ODD_FLOATS | FINITE, max_size=9)
              | st.lists(st.sampled_from([0.0] * 6 + [1.0, -0.5]), max_size=24)
              | TEXT.map(HashEmbedder(dimension=16, seed=5).embed))


@st.composite
def odd_entity_graphs(draw):
    """Knowledge graphs whose entity rows hold what the row template must
    spell as dumps_json does: -0.0, subnormals, sparse (hash) and dense
    (file-provider) vectors, an empty vector, no embedding, no cluster
    id, no members and names from the whole of Unicode."""
    ids = draw(st.lists(INT64, unique=True, min_size=1, max_size=6))
    entities = [Entity(id=i, name=draw(TEXT), label=draw(st.sampled_from(LAT.labels())),
                       members=node_ids(*draw(st.frozensets(INT64, max_size=4))),
                       summary=draw(TEXT),
                       embedding=draw(st.none() | KG_VECTORS.map(frozen)),
                       external=draw(st.booleans()),
                       cluster_id=draw(st.none() | st.integers(-1, 2 ** 40)))
                for i in ids]
    relations = [Relation(draw(st.sampled_from(ids)), RelationType.CALLS,
                          draw(st.sampled_from(ids)), 0.3)
                 for _ in range(draw(st.integers(0, 3)))]
    clustering = draw(st.none() | st.just({"points": 2, "noise": 1, "clusters": 1}))
    return row_kg(entities, relations, source_binary=draw(TEXT), clustering=clustering)


@PROPERTY
@given(odd_entity_graphs())
def test_dumps_ssckg_equals_the_documents_json(kg):
    assert dumps_ssckg(kg) == dumps_json(oracles.kg_document(kg))
    assert dumps_ssckg(kg) == stdlib(oracles.kg_document(kg))


def test_entity_rows_spell_zeros_and_subnormals_as_the_document():
    vector = frozen([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0])
    kg = row_kg([Entity(0, "é\u00a0名 \"q\"", LAT.labels()[1], node_ids(), "", vector),
                 Entity(1, "", LAT.labels()[0], node_ids(3, -2 ** 63), "s", None,
                        cluster_id=-1),
                 Entity(2, "x", LAT.labels()[0], node_ids(1), embedding=frozen([]))],
                [])
    text = dumps_ssckg(kg)
    assert text == dumps_json(oracles.kg_document(kg))
    assert ('"embedding": [\n        0.0,\n        -0.0,\n        5e-324,\n        -5e-324,'
            '\n        2.2250738585072014e-308,\n        0.0\n      ]') in text
    assert '"members": [],' in text and '"embedding": [],' in text
    assert '"cluster_id": -1,\n      "embedding": null,' in text


def entity_row_fault(raw) -> str | None:
    """What is wrong with an entity row on its own, for the faults
    faulty_knowledge_graphs makes, in the order the reader checks them."""
    if not isinstance(raw, dict):
        return "must be an object"
    for key in ("id", "name", "label"):
        if key not in raw:
            return f"is missing required field '{key}'"
    if not isinstance(raw["label"], str):
        return f"has non-string label {raw['label']!r}"
    members = raw.get("members", [])
    if not isinstance(members, list):
        return f"has members {members!r}, which is not a list"
    for member in members:
        if type(member) is not int or not -2 ** 63 <= member < 2 ** 63:
            return f"has non-integer member {member!r}"
    vector = raw.get("embedding")
    if vector is not None:
        if not isinstance(vector, list) or any(type(v) not in (int, float) for v in vector):
            return "has an embedding that is not a flat list of numbers"
        if not all(map(math.isfinite, vector)):
            return "has an embedding with a non-finite value"
    return None


def first_kg_fault(doc: dict) -> str | None:
    """The error of reading a KG row by row: the entities list and each
    entity row on its own, each relation row's types, the clustering,
    then entity ids and duplicates, then each relation's weight
    and ends; None for a valid document."""
    def is_id(value):
        return type(value) is int and -2 ** 63 <= value < 2 ** 63

    def is_float(value):
        try:
            return float(value) is not None
        except OverflowError:
            return False

    if not isinstance(doc["entities"], list):
        return "'entities' must be a list"
    for pos, raw in enumerate(doc["entities"]):
        fault = entity_row_fault(raw)
        if fault is not None:
            return f"entity at index {pos} {fault}"
    names = {t.value for t in RelationType}
    for pos, raw in enumerate(doc["relations"]):
        if not isinstance(raw, dict):
            return f"relation at index {pos} must be an object"
        for key in ("src", "rel_type", "dst", "weight"):
            if key not in raw:
                return f"relation at index {pos} is missing required field '{key}'"
        if not isinstance(raw["rel_type"], str) or raw["rel_type"] not in names:
            return f"relation at index {pos} has unknown rel_type {raw['rel_type']!r}"
        if not is_id(raw["src"]):
            return f"relation at index {pos} has non-integer src {raw['src']!r}"
        if raw["rel_type"] == "vulnerable_to" and not isinstance(raw["dst"], str):
            return (f"relation at index {pos} is vulnerable_to, whose dst must be a CVE id "
                    f"string, got {raw['dst']!r}")
        if raw["rel_type"] != "vulnerable_to" and not is_id(raw["dst"]):
            return f"relation at index {pos} has non-integer dst {raw['dst']!r}"
        weight = raw["weight"]
        if type(weight) not in (int, float) or not is_float(weight):
            return f"relation at index {pos} has weight {weight!r}, which is no float"
    if doc["clustering"] is not None and not isinstance(doc["clustering"], dict):
        return f"'clustering' must be an object or null, got {doc['clustering']!r}"
    for pos, raw in enumerate(doc["entities"]):
        if not is_id(raw["id"]):
            return f"entity at index {pos} has non-integer id {raw['id']!r}"
    ids = [raw["id"] for raw in doc["entities"]]
    for pos, entity_id in enumerate(ids):
        if entity_id in ids[:pos]:
            return f"duplicate entity id {entity_id}"
    for pos, raw in enumerate(doc["relations"]):
        if not (math.isfinite(raw["weight"]) and raw["weight"] > 0):
            return (f"relation at index {pos}: relation weight must be finite and positive, "
                    f"got {float(raw['weight'])}")
        if raw["src"] not in ids:
            return f"relation at index {pos}: source {raw['src']} is not an entity"
        if raw["rel_type"] != "vulnerable_to" and raw["dst"] not in ids:
            return f"relation at index {pos}: target {raw['dst']} is not an entity"
    return None


# Damage done to one row, as for the CPG above, or to the document.
ENTITY_FAULTS = [("id", 0.5), ("id", True), ("id", "3"), ("id", "duplicate"),
                 ("members", ["a"]), ("members", [1.5]), ("members", [[1]]), ("members", 5),
                 ("members", [2 ** 63]),
                 ("label", 5), ("name", ...), ("embedding", [[0.5]]),
                 ("embedding", [float("nan")]), ("row", 3)]
RELATION_FAULTS = [("src", True), ("src", 0.5), ("src", "dangling"), ("src", ...),
                   ("dst", "1"), ("dst", "dangling"), ("dst", 2 ** 63), ("weight", 0.0),
                   ("weight", -2), ("weight", float("nan")), ("weight", float("-inf")),
                   ("weight", "x"), ("weight", 10 ** 400), ("rel_type", "bogus"),
                   ("rel_type", "vulnerable_to"), ("row", [1])]
DOCUMENT_FAULTS = [("entities", {"0": {}}), ("clustering", 5), ("clustering", [1])]


@st.composite
def faulty_knowledge_graphs(draw, text=TEXT) -> dict:
    doc = json.loads(dumps_ssckg(draw(knowledge_graphs(text))))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        rows = draw(st.sampled_from(["entities", "relations", "document"]))
        if rows == "document":
            key, value = draw(st.sampled_from(DOCUMENT_FAULTS))
            doc[key] = value
            continue
        if not isinstance(doc[rows], list) or not doc[rows]:
            continue
        pos = draw(st.integers(min_value=0, max_value=len(doc[rows]) - 1))
        key, value = draw(st.sampled_from(ENTITY_FAULTS if rows == "entities"
                                          else RELATION_FAULTS))
        if value == "duplicate":
            # The first pass may have replaced an entity row by a non-object.
            objects = [raw for raw in doc["entities"] if isinstance(raw, dict)] or [{}]
            value = draw(st.sampled_from(objects)).get("id")
        elif value == "dangling":
            value = 10 ** 6 + 1  # past every generated entity id
        if key == "row":
            doc[rows][pos] = value
        elif isinstance(doc[rows][pos], dict) and value is ...:
            doc[rows][pos].pop(key, None)
        elif isinstance(doc[rows][pos], dict):
            doc[rows][pos][key] = value
    return doc


@settings(PROPERTY, max_examples=150)
@given(faulty_knowledge_graphs())
def test_kg_first_fault_message_is_the_row_by_row_one(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("kg") / "kg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = first_kg_fault(doc)
    if expected is None:
        load_ssckg(path)
        return
    with pytest.raises(SchemaError) as info:
        load_ssckg(path)
    assert str(info.value) == f"KG file {path}: {expected}"


# --- the streamed file readers against the whole-tree readers --------------------

@st.composite
def input_files(draw, texts) -> bytes:
    """The bytes of a text of texts, perhaps with a byte that is no UTF-8
    put in."""
    data = draw(texts).encode("utf-8")
    if draw(st.sampled_from([False] * 9 + [True])):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def read_file(load, dump, path: Path) -> tuple[str, str]:
    """("ok", the canonical text) of what load reads from path, or its error."""
    try:
        return "ok", dump(load(path))
    except BinriskError as exc:
        return type(exc).__name__, str(exc)


def file_read_whole_refused():
    """A patch under which a file cannot be read whole, as the whole-tree
    readers read it."""
    return mock.patch.object(Path, "read_text", side_effect=AssertionError)


def check_file_reader(path: Path, data: bytes, load, dump, whole_tree) -> None:
    """load reads path as whole_tree, its whole-tree reader, does, through
    any window, and without reading the file whole."""
    path.write_bytes(data)
    want = read_file(whole_tree, dump, path)
    for chunk in (1, 7, 64):
        with mock.patch.object(jsonio, "_CHUNK", chunk), file_read_whole_refused():
            assert read_file(load, dump, path) == want


@settings(PROPERTY, max_examples=100)
@given(input_files(streamed_texts()))
def test_cpg_file_reader_agrees_with_whole_tree_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cpg") / "in.cpg.json"
    check_file_reader(path, data, load_cpg, dumps_cpg, oracles.load_cpg_tree)


KG_TEXTS = laid_out((knowledge_graphs() | knowledge_graphs(ROW_TEXT)).map(
    lambda kg: json.loads(dumps_ssckg(kg))) | faulty_knowledge_graphs(ROW_TEXT),
                    ("entities", "relations"))


@settings(PROPERTY, max_examples=100)
@given(input_files(KG_TEXTS))
def test_kg_file_reader_agrees_with_whole_tree_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("kg") / "in.kg.json"
    check_file_reader(path, data, load_ssckg, dumps_ssckg, oracles.load_ssckg_tree)


# Escapes, multi-byte characters (one outside the BMP, a surrogate pair
# when escaped) and numbers, for a window to cut inside of.
CUT_CPG = ('{"binary_id": "caf\\u00e9 \u00e9\U0001f600", "nodes": [\n'
           ' {"id": 10, "kind": "Call", "function_id": 0, "block_id": 0, "opcode": "\\u00e9",'
           ' "attrs": {"k\\u00e9y": "\u00e9\\ud83d\\ude00"}},\n'
           ' {"id": 2, "kind": "Return", "function_id": 12345, "block_id": 1}],\n'
           ' "edges": [{"src": 10, "dst": 2, "kind": "Pdg", "label": "\U0001f600"}]}')
CUT_KG = ('{"clustering": {"points": 2}, "entities": [\n'
          ' {"id": 0, "name": "\\u00e9\u00e9", "label": "TOP", "members": [10, 2],'
          ' "embedding": [0.125, -1e-300, 3]},\n'
          ' {"id": 71, "name": "\U0001f600", "label": "TOP", "summary": "\\ud83d\\ude00"}],\n'
          ' "relations": [{"src": 0, "rel_type": "vulnerable_to", "dst": "CVE-\u00e9",'
          ' "weight": 1.0},\n {"src": 71, "rel_type": "calls", "dst": 0, "weight": 0.3}],'
          ' "source_binary": "b\u00e9"}')


def test_window_may_cut_anywhere(tmp_path):
    cases = [(CUT_CPG, load_cpg, dumps_cpg, oracles.load_cpg_tree),
             (CUT_KG, load_ssckg, dumps_ssckg, oracles.load_ssckg_tree)]
    for text, load, dump, whole_tree in cases:
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        want = dump(whole_tree(path))
        for chunk in range(1, len(text) + 1):
            with mock.patch.object(jsonio, "_CHUNK", chunk), file_read_whole_refused():
                assert dump(load(path)) == want, chunk


def guard_kg_text() -> str:
    rng = np.random.default_rng(0)
    entities = [Entity(id=i, name=f"fn_{i}", label=LAT.labels()[i % 5],
                       members=node_ids(*range(5 * i, 5 * i + 5)), summary="reads a frame",
                       embedding=frozen(rng.standard_normal(64)))
                for i in range(400)]
    relations = [Relation(int(a), RelationType.REACHES, int(b), 0.8)
                 for a, b in rng.integers(0, 400, (20_000, 2))]
    return dumps_ssckg(row_kg(entities, relations))


def test_kg_load_holds_less_than_the_json_tree(tmp_path):
    # The reader turns each chunk of rows into entities or relation
    # columns before it decodes the next, through a window of the file,
    # so its peak stays well below the JSON tree of the file: holding the
    # tree, or the file's text beside the graph, would not.
    text = guard_kg_text()
    path = tmp_path / "in.kg.json"
    path.write_text(text, encoding="utf-8")
    load_peak, kg = traced_peak(load_ssckg, path)
    tree_peak, _ = traced_peak(json.loads, text)
    assert load_peak < tree_peak * 0.75
    assert dumps_ssckg(kg) == text


def test_faulty_and_odd_files_load_within_a_window(tmp_path):
    # A fault in the last row, or a string holding the characters rows
    # are cut at, costs the reader a chunk scanned row by row (or, when
    # every row holds them, every chunk): no file is read again as one
    # tree, so the peak stays well below the JSON tree of the file, and
    # the error is the whole-tree reader's.
    text = generated_cpg_text(12_000)
    last = text.rindex('"kind":"Cfg"')
    cases = [(text[:last] + '"kind":"Bogus"' + text[last + len('"kind":"Cfg"'):], load_cpg,
              dumps_cpg, oracles.load_cpg_tree,
              "CPG file {}: edge at index 11998 has unknown kind 'Bogus'"),
             (text.replace('"label":""', '"label":"}]"', 1), load_cpg, dumps_cpg,
              oracles.load_cpg_tree, None),
             (text.replace('"label":""', '"label":"},{}]"'), load_cpg, dumps_cpg,
              oracles.load_cpg_tree, None)]
    text = guard_kg_text()
    last = text.rindex('"weight": 0.8')
    cases.append((text[:last] + '"weight": "x"' + text[last + len('"weight": 0.8'):],
                  load_ssckg, dumps_ssckg, oracles.load_ssckg_tree,
                  "KG file {}: relation at index 19999 has weight 'x', which is no float"))
    path = tmp_path / "in.json"
    for text, load, dump, whole_tree, fault in cases:
        path.write_text(text, encoding="utf-8")
        tree_peak, _ = traced_peak(json.loads, text)
        load_peak, got = traced_peak(read_file, load, dump, path)
        assert got == read_file(whole_tree, dump, path)
        assert got[0] == "ok" if fault is None else got[1] == fault.format(path)
        assert load_peak < tree_peak * 0.75


# A document's vectors share one dimension.
MATRIX_ROWS = st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(FINITE, min_size=dim, max_size=dim), min_size=1, max_size=6))


@PROPERTY
@given(st.lists(INT64, min_size=6, max_size=6, unique=True), MATRIX_ROWS)
def test_embeddings_round_trip(tmp_path_factory, ids, rows):
    ids, vectors = np.array(sorted(ids[:len(rows)])), np.array(rows)
    path = tmp_path_factory.mktemp("emb") / "emb.json"
    write_atomic(path, dumps_embeddings(ids, vectors))
    back_ids, back = load_embeddings(path)
    assert back_ids.tolist() == ids.tolist() and back.tolist() == vectors.tolist()


# (id, vector) rows: negative and multi-digit ids, whose string order is
# not their numeric order ("10" sorts before "9"), enough of them to span
# several chunks, and vectors with both zeros, subnormals and large exponents.
EMBEDDING_ROWS = st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(st.integers(-120, 120) | INT64,
              st.lists(ODD_FLOATS | FINITE, min_size=dim, max_size=dim)),
    min_size=1, max_size=40))


@PROPERTY
@given(EMBEDDING_ROWS)
@example([(i, [-0.0 if i % 2 else 5e-324, 7.0 ** (15 * i)]) for i in range(-20, 21)]
         + [(-2 ** 63, [-1e-310, 1e308]), (2 ** 63 - 1, [0.1, 1 / 3])])
def test_written_embeddings_equal_stdlib(tmp_path_factory, rows):
    ids = np.array([i for i, _ in rows], dtype=np.int64)
    vectors = np.array([row for _, row in rows], dtype=np.float64)
    path = tmp_path_factory.mktemp("emb") / "emb.json"
    write_atomic(path, embeddings_chunks(ids, vectors))
    want = stdlib({str(i): row.tolist() for i, row in zip(ids.tolist(), vectors)})
    assert path.read_text(encoding="utf-8") == want == dumps_embeddings(ids, vectors)


@PROPERTY
@given(TEXT, TEXT, st.lists(INT64, min_size=6, max_size=6), MATRIX_ROWS)
def test_fingerprint_round_trip(tmp_path_factory, name, provenance, ids, rows):
    fp = Fingerprint(name=name, provenance=provenance, entity_ids=np.array(ids[:len(rows)]),
                     vectors=np.array(rows))
    path = tmp_path_factory.mktemp("fp") / "fp.json"
    write_atomic(path, dumps_fingerprint(fp))
    back = load_fingerprint(path)
    assert (back.name, back.provenance) == (fp.name, fp.provenance)
    assert back.entity_ids.tolist() == fp.entity_ids.tolist()
    assert back.vectors.tolist() == fp.vectors.tolist()


ANNOTATIONS = st.builds(
    Annotation, function_id=TEXT, label=st.sampled_from(LAT.labels()), summary=TEXT,
    claims=st.lists(st.tuples(IDS, IDS), max_size=3).map(lambda pairs: claim_array(*pairs)))


@PROPERTY
@given(st.lists(ANNOTATIONS, max_size=5), IDS, IDS)
def test_corpus_round_trip(tmp_path_factory, accepted, rejected, failed):
    corpus = VerifiedCorpus(accepted=accepted, rejected_count=rejected, failed_count=failed)
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_atomic(path, dumps_corpus(corpus))
    back = load_corpus(path, LAT)
    assert corpus_fields(back) == corpus_fields(corpus)


def corpus_fields(corpus: VerifiedCorpus) -> tuple:
    return (corpus.rejected_count, corpus.failed_count,
            [(a.function_id, a.label, a.summary, a.claims.dtype, a.claims.tolist())
             for a in corpus.accepted])


# --- the suite's warning filters ------------------------------------------------

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_failing_property_is_reported_as_a_failure(tmp_path):
    """Under the suite's warning filters a failing @given test fails like
    any other test, and the tests after it still run."""
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path), "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "test_probe.py::test_fails FAILED" in proc.stdout
    assert "test_probe.py::test_after PASSED" in proc.stdout
