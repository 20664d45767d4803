"""Property tests of the file formats: the canonical JSON writer matches
the standard library byte for byte, and every format reads back what
was written."""

import json
from enum import Enum

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binrisk.cpg import (CpgEdge, CpgGraph, CpgNode, DataFlowClaim, EdgeKind, NodeKind,
                         dumps_cpg, loads_cpg)
from binrisk.embedding import EmbeddingVector
from binrisk.errors import dumps_json
from binrisk.fingerprint import Fingerprint, dumps_fingerprint, load_fingerprint
from binrisk.graphormer import NodeEmbedding, dumps_embeddings, load_embeddings
from binrisk.lattice import Lattice
from binrisk.lifting import Annotation, VerifiedCorpus, dumps_corpus, load_corpus
from binrisk.pipeline import write_atomic
from binrisk.ssckg import Entity, Relation, RelationType, SsckgGraph, dumps_ssckg, load_ssckg

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


# --- round trips: loads(dumps(x)) == x -----------------------------------------

IDS = st.integers(min_value=0, max_value=2 ** 40)


@st.composite
def graphs(draw):
    ids = draw(st.lists(IDS, unique=True, min_size=1, max_size=12))
    nodes = [CpgNode(id=i, kind=draw(st.sampled_from(list(NodeKind))), opcode=draw(TEXT),
                     function_id=draw(IDS), block_id=draw(IDS),
                     attrs=draw(st.dictionaries(TEXT, TEXT, max_size=3)))
             for i in ids]
    edges = draw(st.lists(st.builds(CpgEdge, st.sampled_from(ids), st.sampled_from(ids),
                                    st.sampled_from(list(EdgeKind)), TEXT), max_size=20))
    return CpgGraph(draw(st.permutations(nodes)), edges, binary_id=draw(TEXT))


@PROPERTY
@given(graphs())
def test_cpg_round_trip(g):
    text = dumps_cpg(g)
    back = loads_cpg(text)
    assert (back.binary_id, back.nodes, back.edges) == (g.binary_id, g.nodes, g.edges)
    assert dumps_cpg(back) == text


VECTORS = st.lists(FINITE, min_size=1, max_size=6)


@st.composite
def knowledge_graphs(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=10 ** 6), unique=True,
                        min_size=1, max_size=8))
    dim = draw(st.integers(min_value=1, max_value=5))
    # Bounded so that the norm EmbeddingVector caches stays finite.
    values = st.floats(min_value=-1e100, max_value=1e100)
    vector = st.lists(values, min_size=dim, max_size=dim).map(EmbeddingVector)
    entities = [Entity(id=i, name=draw(TEXT), label=draw(st.sampled_from(LAT.labels())),
                       members=draw(st.frozensets(IDS, max_size=5)), summary=draw(TEXT),
                       embedding=draw(st.none() | vector), external=draw(st.booleans()),
                       cluster_id=draw(st.none() | st.integers(min_value=-1, max_value=9)))
                for i in ids]
    relations = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        rel_type = draw(st.sampled_from(list(RelationType)))
        dst = draw(TEXT if rel_type is RelationType.VULNERABLE_TO else st.sampled_from(ids))
        relations.append(Relation(src=draw(st.sampled_from(ids)), rel_type=rel_type, dst=dst,
                                  weight=draw(st.floats(min_value=1e-9, max_value=1e9))))
    clustering = draw(st.none() | st.fixed_dictionaries(
        {"points": IDS, "noise": IDS, "clusters": IDS}))
    return SsckgGraph(entities, relations, source_binary=draw(TEXT), clustering=clustering)


def entity_fields(e: Entity) -> tuple:
    vector = None if e.embedding is None else e.embedding.values.tolist()
    return (e.id, e.name, e.label, e.members, e.summary, vector, e.external, e.cluster_id)


@PROPERTY
@given(knowledge_graphs())
def test_ssckg_round_trip(tmp_path_factory, kg):
    path = tmp_path_factory.mktemp("kg") / "kg.json"
    write_atomic(path, dumps_ssckg(kg))
    back = load_ssckg(path)
    assert [entity_fields(e) for e in back.entities] == [entity_fields(e) for e in kg.entities]
    assert back.relations == kg.relations
    assert (back.source_binary, back.clustering) == (kg.source_binary, kg.clustering)
    assert dumps_ssckg(back) == dumps_ssckg(kg)


@PROPERTY
@given(st.dictionaries(IDS, VECTORS, max_size=6))
def test_embeddings_round_trip(tmp_path_factory, vectors):
    embeddings = [NodeEmbedding(i, np.asarray(v)) for i, v in sorted(vectors.items())]
    path = tmp_path_factory.mktemp("emb") / "emb.json"
    write_atomic(path, dumps_embeddings(embeddings))
    back = load_embeddings(path)
    assert [(e.entity_id, e.vector.tolist()) for e in back] == [
        (e.entity_id, e.vector.tolist()) for e in embeddings]


@PROPERTY
@given(TEXT, TEXT, st.lists(st.tuples(st.integers(), VECTORS), min_size=1, max_size=5))
def test_fingerprint_round_trip(tmp_path_factory, name, provenance, rows):
    fp = Fingerprint(name=name, provenance=provenance, node_embeddings=tuple(
        NodeEmbedding(i, np.asarray(v)) for i, v in rows))
    path = tmp_path_factory.mktemp("fp") / "fp.json"
    write_atomic(path, dumps_fingerprint(fp))
    back = load_fingerprint(path)
    assert (back.name, back.provenance) == (fp.name, fp.provenance)
    assert [(e.entity_id, e.vector.tolist()) for e in back.node_embeddings] == [
        (e.entity_id, e.vector.tolist()) for e in fp.node_embeddings]


ANNOTATIONS = st.builds(
    Annotation, function_id=TEXT, label=st.sampled_from(LAT.labels()), summary=TEXT,
    claims=st.lists(st.builds(DataFlowClaim, IDS, IDS), max_size=3).map(tuple))


@PROPERTY
@given(st.lists(ANNOTATIONS, max_size=5), IDS, IDS)
def test_corpus_round_trip(tmp_path_factory, accepted, rejected, failed):
    corpus = VerifiedCorpus(accepted=accepted, rejected_count=rejected, failed_count=failed)
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_atomic(path, dumps_corpus(corpus))
    back = load_corpus(path, LAT)
    assert back == corpus
