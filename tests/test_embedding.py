"""Deterministic text embeddings and cosine arithmetic."""

import hashlib
import json
import re

import numpy as np
import pytest

from binrisk.embedding import (
    EmbeddingVector,
    FileEmbeddings,
    HashEmbedder,
    stack,
)
from binrisk.errors import DimensionMismatch, MissingEmbedding, ZeroVector
from binrisk.lattice import TOP
from binrisk.ssckg import CveRecord, Entity, cve_similarity

from oracles import node_ids


def summary(vector):
    return Entity(0, "e", TOP, node_ids(0), embedding=vector)


def cve(vector):
    return CveRecord("CVE-1", "", vector)


def test_same_text_same_vector():
    emb = HashEmbedder(dimension=64, seed=0)
    a = emb.embed("coil write routine")
    b = emb.embed("coil write routine")
    assert np.array_equal(a.values, b.values)


def test_seed_changes_vectors():
    a = HashEmbedder(dimension=64, seed=0).embed("coil write")
    b = HashEmbedder(dimension=64, seed=1).embed("coil write")
    assert not np.array_equal(a.values, b.values)


def test_output_is_unit_norm():
    v = HashEmbedder(dimension=128, seed=3).embed("socket recv store")
    assert v.norm == pytest.approx(1.0, abs=1e-12)


def test_tokenization_ignores_case_and_punctuation():
    emb = HashEmbedder(dimension=64, seed=0)
    a = emb.embed("Coil_Write, param!")
    b = emb.embed("coil write param")
    assert np.array_equal(a.values, b.values)


def test_empty_text_falls_back_to_basis_vector():
    emb = HashEmbedder(dimension=16, seed=0)
    v = emb.embed("   ")
    want = np.zeros(16)
    want[0] = 1.0
    assert np.array_equal(v.values, want)


def test_token_multiplicity_matters():
    emb = HashEmbedder(dimension=256, seed=0)
    once = emb.embed("write coil")
    twice = emb.embed("write write coil")
    assert not np.array_equal(once.values, twice.values)


def test_vector_is_write_protected():
    v = HashEmbedder(dimension=8, seed=0).embed("x")
    with pytest.raises(ValueError):
        v.values[0] = 5.0


def test_non_finite_values_rejected():
    with pytest.raises(ValueError):
        EmbeddingVector(np.array([1.0, float("nan")]))


def test_cosine_bounds_and_identity():
    emb = HashEmbedder(dimension=64, seed=0)
    a = emb.embed("alpha beta gamma")
    b = emb.embed("delta epsilon")
    sims = cve_similarity([summary(a), summary(b)], [cve(a), cve(b)])
    assert sims[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sims[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all((-1.0 <= sims) & (sims <= 1.0))


def test_cosine_dimension_and_zero_checks():
    a = EmbeddingVector(np.ones(4))
    b = EmbeddingVector(np.ones(5))
    with pytest.raises(DimensionMismatch, match=r"dimensions \[4, 5\] cannot be compared"):
        cve_similarity([summary(a)], [cve(b)])
    with pytest.raises(ZeroVector):
        cve_similarity([summary(a)], [cve(EmbeddingVector(np.zeros(4)))])
    # A zero or missing summary vector is a row of -1, and no error.
    sims = cve_similarity([summary(EmbeddingVector(np.zeros(4))), summary(None)], [cve(b)])
    assert sims.tolist() == [[-1.0], [-1.0]]


def test_file_provider_round_trip(tmp_path):
    doc = {"hello": [1.0, 0.0, 0.0], "world": [0.0, 1.0, 0.0]}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    provider = FileEmbeddings(path)
    assert provider.dimension() == 3
    assert provider.embed("hello").values.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(MissingEmbedding):
        provider.embed("absent")


def test_file_provider_rejects_mixed_dimensions(tmp_path):
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps({"a": [1.0], "b": [1.0, 2.0]}), encoding="utf-8")
    with pytest.raises(DimensionMismatch):
        FileEmbeddings(path)


def test_stack_shape():
    emb = HashEmbedder(dimension=32, seed=0)
    mat = stack([emb.embed("a"), emb.embed("b"), emb.embed("c")])
    assert mat.shape == (3, 32)


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
        got = warm.embed(text).values
        assert got.tobytes() == HashEmbedder(dimension=16, seed=7).embed(text).values.tobytes()
        assert got.tobytes() == hash_embedding_ref(text, 16, 7).tobytes()
