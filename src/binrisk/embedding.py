"""Text embedding providers.

Two providers ship with the library.  The default is a seeded
feature-hashing embedder: it needs no external model, runs anywhere,
and is deterministic across processes and platforms, which the
downstream scoring stages rely on.  The second reads a precomputed
JSON map, so deployments can plug in sentence-encoder vectors exported
offline.

Both return plain 1-D float64 numpy arrays, finite and read-only: the
hash embedder sets each one read-only where it makes it, and the file
provider checks and freezes each stored vector when it reads the file,
so no caller can change a vector another holds.
"""

from __future__ import annotations

import hashlib
import re
import sys
from pathlib import Path

import numpy as np

from .cpg import _floats
from .errors import ConfigError, SchemaError
from .jsonio import read_json

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


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
            raise ConfigError("hash embedder needs dimension >= 2")
        if dimension > sys.maxsize // 8:  # numpy makes no array that large
            raise ConfigError(f"hash embedder dimension {dimension} is larger than any array")
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

    def embed(self, text: str) -> np.ndarray:
        acc = np.zeros(self._dim, dtype=np.float64)
        slots = self._slots
        for token in _TOKEN_SPLIT.split(text.lower()):
            if token:
                bucket, sign = slots.get(token) or self._slot(token)
                acc[bucket] += sign
        norm = np.linalg.norm(acc)
        if norm == 0.0:
            # No tokens, or signed counts that cancel in every bucket.
            acc[0] = 1.0
        else:
            acc /= norm
        acc.setflags(write=False)
        return acc


class FileEmbeddings:
    """Exact-match lookup over a JSON map {key: [floats, ...]}."""

    def __init__(self, path: str | Path):
        doc = read_json(path, "embedding file")
        if not isinstance(doc, dict) or not doc:
            raise SchemaError(f"embedding file {path} is empty or not a map")
        self._table: dict[str, np.ndarray] = {}
        dim: int | None = None
        for key, values in doc.items():
            vec = _floats(values)
            if vec is None:
                raise SchemaError(f"embedding file {path}: key '{key}' must map to a flat "
                                  "list of numbers")
            if not len(vec):
                raise SchemaError(f"embedding file {path}: key '{key}' maps to an empty vector")
            if not np.isfinite(vec).all():
                raise SchemaError(f"embedding file {path}: key '{key}': "
                                  "embedding contains non-finite values")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise SchemaError(f"key '{key}' has dimension {len(vec)}, expected {dim}")
            vec.setflags(write=False)  # embed hands out this one array for every call
            self._table[key] = vec
        self._dim = int(dim)

    def dimension(self) -> int:
        return self._dim

    def embed(self, text: str) -> np.ndarray:
        try:
            return self._table[text]
        except KeyError:
            raise SchemaError(f"no embedding stored for key '{text}'") from None

