"""Deterministic graph-transformer forward pass over entity graphs.

This is inference only, in plain numpy, so embeddings are reproducible
bit-for-bit given the same weights.  Attention is dense (every entity
attends to every entity) with two additive structure biases per head:

  * a spatial bias indexed by clamped directed hop distance, with a
    dedicated sentinel bucket for unreachable pairs, and
  * an edge-type bias: for each directed relation i -> j the bias table
    entry for the relation's type, scaled by the relation weight, with
    parallel relations summed.

Both biases depend only on the graph and the head, never on the layer
or the state, so ``forward`` builds them once per pass: the hop matrix
through a breadth-first search from every entity at once, and each
head's edge term as values at the distinct related pairs, which every
layer adds onto its scores.  The hop matrix is one byte per pair up to
max_dist 254 (its clamped values fit), and the spatial bias is gathered
from it a block of rows at a time, so no n x n bias or index array is made.

Each layer applies multi-head attention, then a position-wise
feed-forward expansion, with a single residual connection and a single
layer norm wrapping both:

    z_next = layer_norm(z + ffn(attention(z)))

The feed-forward activation is the exact GELU, x/2 (1 + erf(x/sqrt 2)).
Its ``erf`` is a port of the Cephes rational approximation (S. L.
Moshier's ndtr.c, the one scipy ships), so it gives the same bits as
``scipy.special.erf`` without importing scipy.

``forward`` takes the tensors as one stream, in draw order.  Given a
``ModelConfig`` (what ``report`` and ``forward`` use when the config has
no ``params_path``) it draws the seeded weights as the pass needs them
and holds each tensor from its first use to its last, so the pass holds
the spatial bias table, a layer's tensors while they are in use and,
per head, O(n^2) scores for n entities.  ``init_params`` draws the same
values and holds them all, by container name, for callers that index a
tensor or save the weights.  Scores, softmax, GELU and layer norm
overwrite arrays the pass made itself, with the same operations in the
same order, so the bits do not change.

Input features are the entity summary embeddings through a learned
projection, plus a label-tier embedding (top, category, action, risk
context).  There is no centrality term: degree information already
reaches the model through the bias tables.

A set of entity embeddings has one form: the ascending int64 entity ids
beside one read-only (n, d) float64 matrix.  ``forward`` returns the
graph's ids and its last layer in that form, ``load_embeddings`` reads a
file into it, and ``embeddings_chunks`` writes it.
"""

from __future__ import annotations

import io
import json
import math
import sys
import zipfile
from dataclasses import asdict, dataclass
from itertools import islice, zip_longest
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .cpg import _floats, _is_id, _matrix, shortest_path_matrix
from .errors import (
    ConfigError,
    CorruptFile,
    EmptyGraph,
    SchemaError,
    ShapeMismatch,
    VersionMismatch,
    json_chunks,
    json_value,
    read_json,
)
from .ssckg import RELATION_INDEX, SsckgGraph

PARAMS_FORMAT = "entity-transformer-v1"


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 6
    heads: int = 8
    hidden_dim: int = 256
    max_dist: int = 20
    edge_types: int = 8
    input_dim: int = 384
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError("need at least one layer")
        if self.heads < 1 or self.hidden_dim % self.heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} must divide evenly into {self.heads} heads")
        if self.max_dist < 1:
            raise ConfigError("max_dist must be at least 1")
        if self.edge_types != len(RELATION_INDEX):
            raise ConfigError(f"edge_types must be {len(RELATION_INDEX)}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # numpy makes no array of more bytes than an index counts ("array is
        # too big"); every layer has the first layer's shapes.
        for name, shape, _ in islice(_tensor_specs(self), 4 + len(_LAYER_TENSORS)):
            if math.prod(shape) > sys.maxsize // 8:
                raise ConfigError(f"model tensor '{name}' of shape {shape} is larger than "
                                  "any array")


# One layer's tensors in draw order: container name after "layer{i}.",
# shape in units of hidden_dim, and the fan-in of its uniform draw in units
# of hidden_dim (an int) or its constant fill (a float).
_LAYER_TENSORS = (
    ("w_q", (1, 1), 1), ("w_k", (1, 1), 1), ("w_v", (1, 1), 1), ("w_o", (1, 1), 1),
    ("ffn_w1", (1, 4), 1), ("ffn_b1", (4,), 0.0), ("ffn_w2", (4, 1), 4), ("ffn_b2", (1,), 0.0),
    ("ln_gain", (1,), 1.0), ("ln_offset", (1,), 0.0),
)


@dataclass
class ModelParams:
    """The weights: every tensor of ``_tensor_specs(config)`` by its
    container name, in draw order."""
    config: ModelConfig
    tensors: dict[str, np.ndarray]


def _tensor_specs(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], int | float]]:
    """Every tensor in draw order: container name, shape, and the fan-in
    of its uniform draw (an int) or its constant fill (a float)."""
    h = cfg.hidden_dim
    yield ("w_input", (cfg.input_dim, h), cfg.input_dim)
    yield ("tier_embed", (4, h), h)
    yield ("spatial_bias", (cfg.heads, cfg.max_dist + 2), cfg.max_dist + 2)
    yield ("edge_bias", (cfg.heads, cfg.edge_types), cfg.edge_types)
    for i in range(cfg.layers):
        for name, shape, init in _LAYER_TENSORS:
            yield (f"layer{i}.{name}", tuple(h * k for k in shape),
                   h * init if isinstance(init, int) else init)


def _drawn_tensors(cfg: ModelConfig) -> Iterator[tuple[str, np.ndarray]]:
    """Every tensor of ``_tensor_specs(cfg)`` as (name, tensor), drawn in
    that order from one generator seeded with ``cfg.seed``.

    Weight matrices and embedding tables draw uniform values scaled by
    the inverse square root of their fan-in (first axis for matrices,
    bucket count for the bias tables).  Additive vectors (feed-forward
    biases, norm offsets) start at zero; norm gains at one.  No local
    keeps a tensor once it is yielded, so a consumer that drops it frees
    it.
    """
    rng = np.random.default_rng(cfg.seed)
    for name, shape, init in _tensor_specs(cfg):
        if isinstance(init, int):
            bound = 1.0 / np.sqrt(init)
            yield name, rng.uniform(-bound, bound, size=shape)
        else:
            yield name, np.full(shape, init)


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded initialization: every tensor of ``_drawn_tensors``, held at once."""
    return ModelParams(cfg, dict(_drawn_tensors(cfg)))


# Cephes ndtr.c (S. L. Moshier): erf(x) = x T(x^2) / U(x^2) for |x| <= 1,
# and 1 - exp(-x^2) P(|x|) / Q(|x|), with its sign, for 1 < |x| < 8.  U
# and Q have a leading coefficient of 1, left out here.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_BLOCK = 32768  # values per block: 256 KB of float64


def _horner(x: np.ndarray, coefs: Sequence[float], monic: bool) -> np.ndarray:
    """The polynomial with these coefficients (highest power first) at x.

    ``monic`` puts an unlisted leading coefficient of 1 in front, as
    Cephes' p1evl does; otherwise this is its polevl.
    """
    out = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function, bit for bit as Cephes (and so scipy) computes it.

    |x| >= 8 gives +-1, NaN stays NaN and -0.0 keeps its sign.  The
    exponential is libm's (``math.exp``), whose last bit numpy's own
    ``exp`` does not always match.  Blocks keep the Horner passes in
    cache.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # |x| > 1 is redone below
        for lo in range(0, x.size, _ERF_BLOCK):
            v, o = flat_x[lo:lo + _ERF_BLOCK], flat_out[lo:lo + _ERF_BLOCK]
            z = v * v
            np.multiply(_horner(z, _ERF_T, monic=False), v, out=o)
            o /= _horner(z, _ERF_U, monic=True)
            if np.abs(v).max() <= 1.0:
                continue
            wide = np.flatnonzero(~(np.abs(v) <= 1.0))  # NaN included
            w = v[wide]
            a = np.abs(w)
            tail = np.where(np.isnan(w), w, np.copysign(1.0, w))
            mid = np.flatnonzero(a < 8.0)
            a = a[mid]
            e = np.fromiter(map(math.exp, np.negative(a * a).tolist()), np.float64, len(a))
            tail[mid] = np.copysign(
                1.0 - e * _horner(a, _ERF_P, monic=False) / _horner(a, _ERF_Q, monic=True),
                w[mid])
            o[wide] = tail
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """The exact GELU, x/2 (1 + erf(x/sqrt 2)), written over ``x``.

    ``x`` must be C-contiguous.  It is taken ``_ERF_BLOCK`` values at a
    time, so the erf temporaries stay one block long.
    """
    if not x.flags.c_contiguous:
        raise ValueError("GELU is written over a C-contiguous array")
    flat = x.reshape(-1)  # a view, since x is C-contiguous
    for lo in range(0, flat.size, _ERF_BLOCK):
        b = flat[lo:lo + _ERF_BLOCK]
        e = _erf(b / np.sqrt(2.0))
        e += 1.0
        b *= 0.5
        b *= e
    return x


def _layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray,
                eps: float = 1e-12) -> np.ndarray:
    """Each row of ``x`` to zero mean and unit variance, then scaled by
    ``gain`` and shifted by ``offset``, written over ``x``."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    x -= mean
    x /= np.sqrt(var + eps)
    x *= gain
    x += offset
    return x


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """The softmax of each row of ``scores``, written over ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _edge_bias_terms(n: int, src: np.ndarray, dst: np.ndarray, type_index: np.ndarray,
                     weight: np.ndarray, edge_bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge-type bias of every head at the distinct related pairs.

    The relations are the columns ``_relation_arrays`` returns: int64
    ``src``, ``dst`` and ``type_index``, float64 ``weight``.  Returns the
    flat indices ``i * n + j`` of the distinct pairs with at least one
    relation i -> j (i != j), and a (heads, pairs) array with each
    head's term there: the bias entry for each relation's type times its
    weight, summed from 0.0 in relation order.  ``edge_bias`` is the
    (heads, edge_types) table, or any subset of its rows.
    """
    keep = src != dst
    flat, pair = np.unique(src[keep] * n + dst[keep], return_inverse=True)
    # (relations, heads): one row of per-head contributions per relation
    contrib = edge_bias[:, type_index[keep]].T * weight[keep, None]
    vals = np.zeros((len(flat), edge_bias.shape[0]))
    np.add.at(vals, pair, contrib)  # unbuffered, in relation order
    return flat, np.ascontiguousarray(vals.T)


_BIAS_ROWS = 64  # score rows per spatial-bias gather


def _attention(q: np.ndarray, k: np.ndarray, dist: np.ndarray, flat: np.ndarray,
               edge_vals: np.ndarray, spatial_bias: np.ndarray) -> np.ndarray:
    """Softmax of q.k / sqrt(d) + spatial bias, plus ``edge_vals`` at ``flat``.

    ``q`` and ``k`` are one head's projections and ``spatial_bias`` is
    that head's row of the table.  The bias is gathered ``_BIAS_ROWS``
    rows of ``dist`` at a time; the sum is elementwise, so the bits are
    those of one whole-matrix gather.  Only the fresh score matrix is
    written to.
    """
    scores = q @ k.T  # a fresh C-order array, so ravel below is a view
    scores /= np.sqrt(q.shape[1])
    for lo in range(0, len(scores), _BIAS_ROWS):
        scores[lo:lo + _BIAS_ROWS] += np.take(spatial_bias, dist[lo:lo + _BIAS_ROWS])
    scores.ravel()[flat] += edge_vals
    return _softmax_rows(scores)


def _relation_arrays(kg: SsckgGraph) -> tuple[np.ndarray, ...]:
    """The relations between two entities as columns: src and dst
    positions in ``kg.entities``, type index and weight."""
    cols = kg.relation_columns
    between = cols.entity_rows()
    return (kg.positions(cols.src[between]), kg.positions(cols.dst[between]),
            cols.type_code[between].astype(np.int64), cols.weight[between])


def _layer(z: np.ndarray, tensors: Iterator[np.ndarray], dist: np.ndarray, flat: np.ndarray,
           edge_vals: np.ndarray, spatial_bias: np.ndarray, heads: int) -> np.ndarray:
    """One layer, layer_norm(z + ffn(attention(z))), as a fresh array.

    ``tensors`` gives the layer's weights in ``_LAYER_TENSORS`` order.
    Each is taken when first needed and dropped after its last use, and
    each head's attention matrix once its product is taken, so one
    head's O(n^2) arrays are live at a time.
    """
    d = z.shape[1] // heads
    w_q, w_k, w_v = next(tensors), next(tensors), next(tensors)
    heads_out = []
    for head in range(heads):
        cols = slice(head * d, (head + 1) * d)
        heads_out.append(_attention(z @ w_q[:, cols], z @ w_k[:, cols], dist, flat,
                                    edge_vals[head], spatial_bias[head]) @ (z @ w_v[:, cols]))
    del w_q, w_k, w_v
    mixed = np.concatenate(heads_out, axis=1) @ next(tensors)  # w_o
    del heads_out
    h = mixed @ next(tensors)  # ffn_w1
    del mixed
    h += next(tensors)  # ffn_b1
    expanded = _gelu(h) @ next(tensors)  # ffn_w2
    del h
    expanded += next(tensors)  # ffn_b2
    expanded += z
    return _layer_norm(expanded, next(tensors), next(tensors))  # ln_gain, ln_offset


def forward(kg: SsckgGraph, params: ModelParams | ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the full stack: ``(kg.entity_ids, z)``, the ascending int64 ids
    and the last layer's read-only (n, hidden_dim) matrix, row i entity i's.

    ``params`` is the weights, or a ``ModelConfig`` whose seeded weights
    (``init_params``'s values) are drawn as the pass needs them.  Either
    way the pass reads the tensors once, in draw order.  Weights must
    hold the config's tensors by name, in draw order and each of its
    shape; anything else raises ShapeMismatch before the pass starts.
    """
    if isinstance(params, ModelConfig):  # nothing is drawn before the first next()
        cfg, tensors = params, map(itemgetter(1), _drawn_tensors(params))
    else:
        cfg, tensors = params.config, iter(params.tensors.values())
        specs = _tensor_specs(cfg)
        for i, (held, spec) in enumerate(zip_longest(params.tensors, specs)):
            drawn, shape = spec[:2] if spec else (None, None)
            if held != drawn:
                raise ShapeMismatch(f"params tensor {i} is {held!r}, config draws {drawn!r}")
            if np.shape(params.tensors[held]) != shape:
                raise ShapeMismatch(f"params tensor '{held}' has shape "
                                    f"{np.shape(params.tensors[held])}, config draws {shape}")
    if len(kg) == 0:
        raise EmptyGraph("forward pass needs at least one entity")
    feats, tiers = [], []
    for ent in kg.entities:
        if ent.embedding is None:
            raise ShapeMismatch(f"entity {ent.id} has no summary embedding")
        if len(ent.embedding) != cfg.input_dim:
            raise ShapeMismatch(
                f"entity {ent.id} embedding has dimension {len(ent.embedding)}, "
                f"model expects {cfg.input_dim}")
        feats.append(ent.embedding)
        tiers.append(ent.label.tier)
    src, dst, type_index, weight = _relation_arrays(kg)
    dist = shortest_path_matrix(len(kg), np.column_stack((src, dst)),
                                max_dist=cfg.max_dist)
    z = np.stack(feats) @ next(tensors)  # w_input
    z += next(tensors)[np.array(tiers)]  # tier_embed
    spatial_bias = next(tensors)
    flat, edge_vals = _edge_bias_terms(len(kg), src, dst, type_index, weight,
                                       next(tensors))  # edge_bias
    del src, dst, type_index, weight
    for _ in range(cfg.layers):
        z = _layer(z, tensors, dist, flat, edge_vals, spatial_bias, cfg.heads)
    z.setflags(write=False)
    return kg.entity_ids, z


# --- weight container -------------------------------------------------------

def dumps_params(params: ModelParams) -> bytes:
    """A versioned weight container (bitwise round-trip safe): every
    tensor by name, plus the ``__meta__`` format marker and config echo."""
    meta = {"format": PARAMS_FORMAT, "config": asdict(params.config)}
    buf = io.BytesIO()
    np.savez(buf, **params.tensors, __meta__=np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8))
    return buf.getvalue()


def save_params(params: ModelParams, path: str | Path) -> None:
    """Write ``dumps_params(params)`` through ``pipeline.write_atomic``."""
    from .pipeline import write_atomic  # pipeline imports this module
    write_atomic(path, dumps_params(params))


def load_params(path: str | Path, expected: ModelConfig | None = None) -> ModelParams:
    """Read a weight container; optionally enforce an expected config."""
    try:
        with np.load(Path(path), allow_pickle=False) as archive:
            names = set(archive.files)
            raw = {name: np.asarray(archive[name]) for name in names}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CorruptFile(f"cannot read weight file {path}: {exc}") from None
    if "__meta__" not in names:
        raise VersionMismatch(f"weight file {path} carries no format marker")
    try:
        meta = json.loads(bytes(raw["__meta__"]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise CorruptFile(f"weight file {path}: unreadable metadata: {exc}") from None
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != PARAMS_FORMAT:
        raise VersionMismatch(f"weight file {path}: format '{fmt}' != '{PARAMS_FORMAT}'")
    config = meta.get("config")
    if not isinstance(config, dict):
        raise CorruptFile(f"weight file {path}: metadata 'config' must be an object")
    # Older files name how parallel relations fold; "sum" is the one fold.
    config = dict(config)
    combine = config.pop("edge_combine", "sum")
    if combine != "sum":
        raise VersionMismatch(f"weight file {path} combines parallel relations by "
                              f"{combine!r}; only 'sum' is supported")
    try:
        cfg = ModelConfig(**config)
    except (TypeError, ConfigError) as exc:
        raise CorruptFile(f"weight file {path}: metadata config is invalid: {exc}") from None
    if expected is not None:
        for fld in ("layers", "heads", "hidden_dim", "max_dist",
                    "edge_types", "input_dim"):
            if getattr(cfg, fld) != getattr(expected, fld):
                raise ShapeMismatch(
                    f"weight file {path} has {fld}={getattr(cfg, fld)}, "
                    f"expected {getattr(expected, fld)}")
    tensors = {}
    for name, shape, _ in _tensor_specs(cfg):
        if name not in names:
            raise CorruptFile(f"weight file {path} is missing tensor '{name}'")
        tensors[name] = np.asarray(raw[name], dtype=np.float64)
        if tensors[name].shape != shape:
            raise ShapeMismatch(f"weight file {path}: tensor '{name}' has shape "
                                f"{tensors[name].shape}, expected {shape}")
        if not np.isfinite(tensors[name]).all():
            raise CorruptFile(f"weight file {path}: tensor '{name}' holds a non-finite value")
    return ModelParams(cfg, tensors)


_EMBEDDING_BLOCK = 16  # vectors per chunk embeddings_chunks yields


def dumps_embeddings(ids: np.ndarray, vectors: np.ndarray) -> str:
    """The flat ``{entity_id: [...]}`` document, as ``dumps_json`` writes it."""
    return "".join(embeddings_chunks(ids, vectors))


def embeddings_chunks(ids: np.ndarray, vectors: np.ndarray) -> Iterator[str]:
    """``dumps_embeddings`` in chunks for ``write_atomic``: row i under ``ids[i]``."""
    rows = {str(i): row for row, i in enumerate(ids.tolist())}  # a repeated id keeps its last
    keys = sorted(rows)

    def items(lo: int, hi: int) -> list[str]:
        return [encode_basestring_ascii(k) + ": " + json_value(vectors[rows[k]].tolist(), 1)
                for k in keys[lo:hi]]

    yield from json_chunks(items, len(keys), _EMBEDDING_BLOCK, 0, "{}")
    yield "\n"


def load_embeddings(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a flat ``{entity_id: [...]}`` file as ``forward`` returns it:
    ascending int64 ids and one read-only matrix of their vectors."""
    doc = read_json(path, "embeddings file")
    if not isinstance(doc, dict):
        raise SchemaError(f"embeddings file {path}: top-level document must be an object")
    vectors = {}
    for key, value in doc.items():
        try:
            entity_id = int(key)
        except ValueError:
            entity_id = None
        # One spelling per id: int() also reads "03" and " 3" as entity 3.
        if entity_id is None or str(entity_id) != key:
            raise SchemaError(f"embeddings file {path}: key {key!r} is not an entity id")
        if not _is_id(entity_id):
            raise SchemaError(f"embeddings file {path}: entity id {key} does not fit in int64")
        vectors[entity_id] = value
    ids = sorted(vectors)
    rows = []
    for entity_id in ids:
        vector = _floats(vectors[entity_id])
        if vector is None:
            raise SchemaError(f"embeddings file {path}: entity {entity_id} vector "
                              "must be a flat list of numbers")
        if not np.isfinite(vector).all():
            raise SchemaError(f"embeddings file {path}: entity {entity_id} vector "
                              "holds a non-finite value")
        rows.append(vector)
    return np.array(ids, dtype=np.int64), _matrix(rows, f"embeddings file {path}")
