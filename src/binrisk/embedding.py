"""Text embedding providers.

Two providers ship with the library.  The default is a seeded
feature-hashing embedder: it needs no external model, runs anywhere,
and is deterministic across processes and platforms, which the
downstream scoring stages rely on.  The second reads a precomputed
JSON map, so deployments can plug in sentence-encoder vectors exported
offline.

Both return EmbeddingVector objects: fixed-length float64 vectors with
the Euclidean norm cached at construction.
"""

from __future__ import annotations

import hashlib
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .cpg import _floats
from .errors import DimensionMismatch, MissingEmbedding, SchemaError, read_json

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


class EmbeddingVector:
    """Immutable 1-D float64 vector with a cached norm."""

    __slots__ = ("values", "norm")

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("embedding contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        self.values = v
        self.norm = float(np.linalg.norm(v))

    @property
    def dimension(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:
        return f"EmbeddingVector(dim={self.dimension}, norm={self.norm:.4f})"


class HashEmbedder:
    """Feature hashing into a fixed number of signed buckets.

    Text is lowercased and split on non-alphanumeric runs.  Each token
    is hashed (keyed by the seed) to a bucket index and a +/-1 sign;
    token contributions accumulate and the result is L2-normalized.
    Text with no tokens maps to the first standard basis vector, so
    every output has unit norm.

    A token's (bucket, sign) depends only on the seed and the dimension,
    so each instance hashes a token once and keeps its slot.  The bucket
    sums are small integers, exact in any order, so a vector's bits do
    not depend on which tokens were seen before.
    """

    def __init__(self, dimension: int = 384, seed: int = 0):
        if dimension < 2:
            raise DimensionMismatch("hash embedder needs dimension >= 2")
        if dimension > sys.maxsize // 8:  # numpy makes no array that large
            raise DimensionMismatch(f"hash embedder dimension {dimension} is larger than any array")
        self._dim = dimension
        self._seed = seed
        self._slots: dict[str, tuple[int, float]] = {}  # token -> (bucket, sign)

    def dimension(self) -> int:
        return self._dim

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(
            f"{self._seed}:{token}".encode("utf-8"), digest_size=16
        ).digest()
        h = int.from_bytes(digest, "big")
        slot = self._slots[token] = (h % self._dim, 1.0 if (h >> 127) & 1 == 0 else -1.0)
        return slot

    def embed(self, text: str) -> EmbeddingVector:
        acc = np.zeros(self._dim, dtype=np.float64)
        slots = self._slots
        any_token = False
        for token in _TOKEN_SPLIT.split(text.lower()):
            if not token:
                continue
            any_token = True
            bucket, sign = slots.get(token) or self._slot(token)
            acc[bucket] += sign
        if not any_token:
            acc[0] = 1.0
            return EmbeddingVector(acc)
        norm = np.linalg.norm(acc)
        if norm == 0.0:
            # Possible only when signed counts cancel in every bucket.
            acc[0] = 1.0
            return EmbeddingVector(acc)
        return EmbeddingVector(acc / norm)


class FileEmbeddings:
    """Exact-match lookup over a JSON map {key: [floats, ...]}."""

    def __init__(self, path: str | Path):
        doc = read_json(path, "embedding file")
        if not isinstance(doc, dict) or not doc:
            raise MissingEmbedding(f"embedding file {path} is empty or not a map")
        self._table: dict[str, EmbeddingVector] = {}
        dim: int | None = None
        for key, values in doc.items():
            floats = _floats(values)
            if floats is None:
                raise SchemaError(f"embedding file {path}: key '{key}' must map to a flat "
                                  "list of numbers")
            try:
                vec = EmbeddingVector(floats)
            except ValueError as exc:
                raise SchemaError(f"embedding file {path}: key '{key}': {exc}") from None
            if dim is None:
                dim = vec.dimension
            elif vec.dimension != dim:
                raise DimensionMismatch(
                    f"key '{key}' has dimension {vec.dimension}, expected {dim}")
            self._table[key] = vec
        self._dim = int(dim)

    def dimension(self) -> int:
        return self._dim

    def embed(self, text: str) -> EmbeddingVector:
        try:
            return self._table[text]
        except KeyError:
            raise MissingEmbedding(f"no embedding stored for key '{text}'") from None


def stack(vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Stack same-dimension vectors into an (n, d) matrix."""
    if not vectors:
        return np.zeros((0, 0), dtype=np.float64)
    dim = vectors[0].dimension
    for v in vectors:
        if v.dimension != dim:
            raise DimensionMismatch("vectors of mixed dimension cannot be stacked")
    return np.stack([v.values for v in vectors])
