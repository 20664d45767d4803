"""Deterministic text embeddings and cosine arithmetic."""

import hashlib
import json
import re

import numpy as np
import pytest

from binrisk.embedding import FileEmbeddings, HashEmbedder
from binrisk.errors import SchemaError
from binrisk.lattice import TOP
from binrisk.ssckg import CveRecord, Entity, cve_similarity, embed_entities, load_cves, load_ssckg

from oracles import node_ids


def summary(vector):
    return Entity(0, "e", TOP, node_ids(0), embedding=vector)


def cve(vector):
    return CveRecord("CVE-1", "", vector)


def test_same_text_same_vector():
    emb = HashEmbedder(dimension=64, seed=0)
    a = emb.embed("coil write routine")
    b = emb.embed("coil write routine")
    assert np.array_equal(a, b)


def test_seed_changes_vectors():
    a = HashEmbedder(dimension=64, seed=0).embed("coil write")
    b = HashEmbedder(dimension=64, seed=1).embed("coil write")
    assert not np.array_equal(a, b)


def test_output_is_unit_norm():
    v = HashEmbedder(dimension=128, seed=3).embed("socket recv store")
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_tokenization_ignores_case_and_punctuation():
    emb = HashEmbedder(dimension=64, seed=0)
    a = emb.embed("Coil_Write, param!")
    b = emb.embed("coil write param")
    assert np.array_equal(a, b)


def test_empty_text_falls_back_to_basis_vector():
    emb = HashEmbedder(dimension=16, seed=0)
    v = emb.embed("   ")
    want = np.zeros(16)
    want[0] = 1.0
    assert np.array_equal(v, want)


def test_token_multiplicity_matters():
    emb = HashEmbedder(dimension=256, seed=0)
    once = emb.embed("write coil")
    twice = emb.embed("write write coil")
    assert not np.array_equal(once, twice)


def test_vector_is_write_protected():
    v = HashEmbedder(dimension=8, seed=0).embed("x")
    with pytest.raises(ValueError):
        v[0] = 5.0


def test_non_finite_values_rejected(tmp_path):
    path = tmp_path / "vectors.json"
    path.write_text('{"a": [1.0, 0.0], "b": [1.0, NaN]}', encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^embedding file {re.escape(str(path))}: "
                       "key 'b': embedding contains non-finite values$"):
        FileEmbeddings(path)


def assert_handed_out(vector):
    """A summary or CVE vector as the library hands it out: a finite 1-D
    float64 array that no caller can write."""
    assert type(vector) is np.ndarray
    assert vector.dtype == np.float64 and vector.ndim == 1
    assert np.isfinite(vector).all()
    with pytest.raises(ValueError, match="read-only"):
        vector[0] = 5.0


def test_every_vector_handed_out_is_a_finite_read_only_array(tmp_path, fixtures_dir):
    embedder = HashEmbedder(dimension=16, seed=0)
    for text in ("coil write routine", "", " ,, "):
        assert_handed_out(embedder.embed(text))
    assert embedder.embed("").tolist() == [1.0] + [0.0] * 15  # the basis vector

    # Two entities with one summary get the provider's one stored vector,
    # and neither can change it for the other or for later calls.
    path = tmp_path / "vectors.json"
    path.write_text('{"shared": [3, 4.0], "other": [0.0, 1.0]}', encoding="utf-8")
    provider = FileEmbeddings(path)
    ents = embed_entities([Entity(i, f"e{i}", TOP, node_ids(i), summary="shared")
                           for i in range(2)], provider)
    for ent in ents:
        assert_handed_out(ent.embedding)
    assert provider.embed("shared").tolist() == [3.0, 4.0]

    kg_path = tmp_path / "kg.json"
    kg_path.write_text(json.dumps({
        "source_binary": "b", "clustering": None, "relations": [],
        "entities": [{"id": 0, "name": "a", "label": "TOP", "embedding": [1, -0.5, 0]},
                     {"id": 1, "name": "b", "label": "TOP", "embedding": None}]}),
        encoding="utf-8")
    kg = load_ssckg(kg_path)
    assert_handed_out(kg.entities[0].embedding)
    assert kg.entities[0].embedding.tolist() == [1.0, -0.5, 0.0]
    assert kg.entities[1].embedding is None

    for record in load_cves(fixtures_dir / "cves.json", embedder):
        assert_handed_out(record.embedding)


def test_cosine_bounds_and_identity():
    emb = HashEmbedder(dimension=64, seed=0)
    a = emb.embed("alpha beta gamma")
    b = emb.embed("delta epsilon")
    sims = cve_similarity([summary(a), summary(b)], [cve(a), cve(b)])
    assert sims[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sims[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all((-1.0 <= sims) & (sims <= 1.0))


def test_cosine_dimension_and_zero_checks():
    a = np.ones(4)
    b = np.ones(5)
    with pytest.raises(SchemaError, match=r"dimensions \[4, 5\] cannot be compared"):
        cve_similarity([summary(a)], [cve(b)])
    with pytest.raises(SchemaError, match="cosine with a zero-norm vector is undefined"):
        cve_similarity([summary(a)], [cve(np.zeros(4))])
    # A zero or missing summary vector is a row of -1, and no error.
    sims = cve_similarity([summary(np.zeros(4)), summary(None)], [cve(b)])
    assert sims.tolist() == [[-1.0], [-1.0]]


def test_file_provider_round_trip(tmp_path):
    doc = {"hello": [1.0, 0.0, 0.0], "world": [0.0, 1.0, 0.0]}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    provider = FileEmbeddings(path)
    assert provider.dimension() == 3
    assert provider.embed("hello").tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(SchemaError, match="no embedding stored for key 'absent'"):
        provider.embed("absent")


def test_file_provider_rejects_mixed_dimensions(tmp_path):
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps({"a": [1.0], "b": [1.0, 2.0]}), encoding="utf-8")
    with pytest.raises(SchemaError, match="key 'b' has dimension 2, expected 1"):
        FileEmbeddings(path)


def hash_embedding_ref(text: str, dimension: int, seed: int) -> np.ndarray:
    """Feature hashing with every token hashed where it occurs."""
    acc = np.zeros(dimension)
    tokens = [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
    for token in tokens:
        h = int.from_bytes(hashlib.blake2b(f"{seed}:{token}".encode("utf-8"),
                                           digest_size=16).digest(), "big")
        acc[h % dimension] += 1.0 if (h >> 127) & 1 == 0 else -1.0
    if not tokens or np.linalg.norm(acc) == 0.0:
        acc[:] = 0.0
        acc[0] = 1.0
        return acc
    return acc / np.linalg.norm(acc)


TEXTS = ["coil write routine using mmio_write", "", "  ,,", "é unicode Ω tokens 42",
         "a a a b", "Coil_Write, param!", "x"]


@pytest.mark.parametrize("order", [TEXTS, TEXTS[::-1], TEXTS + TEXTS])
def test_warm_embedder_writes_the_cold_bits(order):
    # Token slots are kept per instance: whatever was embedded before, a
    # text gets the bits of a cold embedder and of the hash-per-token
    # reference.
    warm = HashEmbedder(dimension=16, seed=7)
    for text in order:
        got = warm.embed(text)
        assert got.tobytes() == HashEmbedder(dimension=16, seed=7).embed(text).tobytes()
        assert got.tobytes() == hash_embedding_ref(text, 16, 7).tobytes()
