"""Deterministic graph-transformer forward pass over entity graphs.

This is inference only, in plain numpy, so embeddings are reproducible
bit-for-bit given the same weights.  Attention is dense (every entity
attends to every entity) with two additive structure biases per head:

  * a spatial bias indexed by clamped directed hop distance, with a
    dedicated sentinel bucket for unreachable pairs, and
  * an edge-type bias: for each directed relation i -> j the bias table
    entry for the relation's type, scaled by the relation weight, with
    parallel relations summed (or maxed, per config).

Both biases depend only on the graph and the head, never on the layer
or the state, so ``forward`` builds them once per pass: the hop matrix
through a breadth-first search from every entity at once, and each
head's edge term as values at the distinct related pairs, which every
layer adds onto its scores.

Each layer applies multi-head attention, then a position-wise
feed-forward expansion, with a single residual connection and a single
layer norm wrapping both:

    z_next = layer_norm(z + ffn(attention(z)))

The feed-forward activation is the exact GELU, x/2 (1 + erf(x/sqrt 2)).
Its ``erf`` is a port of the Cephes rational approximation (S. L.
Moshier's ndtr.c, the one scipy ships), so it gives the same bits as
``scipy.special.erf`` without importing scipy.

Input features are the entity summary embeddings through a learned
projection, plus a label-tier embedding (top, category, action, risk
context).  There is no centrality term: degree information already
reaches the model through the bias tables.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cpg import shortest_path_matrix
from .errors import (
    ConfigError,
    CorruptFile,
    EmptyGraph,
    SchemaError,
    ShapeMismatch,
    VersionMismatch,
    dumps_json,
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
    edge_combine: str = "sum"  # how parallel relations fold into one bias

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
        if self.edge_combine not in ("sum", "max"):
            raise ConfigError("edge_combine must be 'sum' or 'max'")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads


@dataclass
class LayerParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ln_gain: np.ndarray
    ln_offset: np.ndarray


@dataclass
class ModelParams:
    config: ModelConfig
    w_input: np.ndarray    # (input_dim, hidden)
    tier_embed: np.ndarray  # (4, hidden): top, category, action, risk context
    spatial_bias: np.ndarray  # (heads, max_dist + 2); last bucket = unreachable
    edge_bias: np.ndarray     # (heads, edge_types)
    layers: list[LayerParams] = field(default_factory=list)


@dataclass(frozen=True)
class NodeEmbedding:
    entity_id: int
    vector: np.ndarray


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded initialization.

    Weight matrices and embedding tables draw uniform values scaled by
    the inverse square root of their fan-in (first axis for matrices,
    bucket count for the bias tables), drawn in a fixed order so the
    same seed always gives identical parameters.  Additive vectors
    (feed-forward biases, norm offsets) start at zero; norm gains at
    one.
    """
    rng = np.random.default_rng(cfg.seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    h = cfg.hidden_dim
    params = ModelParams(
        config=cfg,
        w_input=uniform((cfg.input_dim, h), cfg.input_dim),
        tier_embed=uniform((4, h), h),
        spatial_bias=uniform((cfg.heads, cfg.max_dist + 2), cfg.max_dist + 2),
        edge_bias=uniform((cfg.heads, cfg.edge_types), cfg.edge_types),
    )
    for _ in range(cfg.layers):
        params.layers.append(LayerParams(
            w_q=uniform((h, h), h),
            w_k=uniform((h, h), h),
            w_v=uniform((h, h), h),
            w_o=uniform((h, h), h),
            ffn_w1=uniform((h, 4 * h), h),
            ffn_b1=np.zeros(4 * h),
            ffn_w2=uniform((4 * h, h), 4 * h),
            ffn_b2=np.zeros(h),
            ln_gain=np.ones(h),
            ln_offset=np.zeros(h),
        ))
    return params


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
            e = np.array([math.exp(-t * t) for t in a.tolist()])
            tail[mid] = np.copysign(
                1.0 - e * _horner(a, _ERF_P, monic=False) / _horner(a, _ERF_Q, monic=True),
                w[mid])
            o[wide] = tail
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)))


def _layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray,
                eps: float = 1e-12) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + offset


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _edge_bias_terms(n: int, edges: Sequence[tuple[int, int, int, float]],
                     edge_bias: np.ndarray, combine: str) -> tuple[np.ndarray, np.ndarray]:
    """Edge-type bias of every head at the distinct related pairs.

    Returns the flat indices ``i * n + j`` of the distinct pairs with at
    least one relation i -> j (i != j), and a (heads, pairs) array with
    each head's combined term there: the bias entry for each relation's
    type times its weight, folded in relation order by ``combine``
    ("sum" starting from 0.0, or "max").  ``edge_bias`` is the
    (heads, edge_types) table, or any subset of its rows.
    """
    rows = np.array(edges, dtype=np.float64).reshape(-1, 4)
    src, dst = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    keep = src != dst
    flat, pair = np.unique(src[keep] * n + dst[keep], return_inverse=True)
    # (relations, heads): one row of per-head contributions per relation
    contrib = edge_bias[:, rows[keep, 2].astype(np.int64)].T * rows[keep, 3:4]
    fold, start = (np.add, 0.0) if combine == "sum" else (np.maximum, -np.inf)
    vals = np.full((len(flat), edge_bias.shape[0]), start)
    fold.at(vals, pair, contrib)  # unbuffered, in relation order
    return flat, np.ascontiguousarray(vals.T)


def _attention(z: np.ndarray, dist: np.ndarray, flat: np.ndarray,
               edge_vals: np.ndarray, params: ModelParams, layer: int,
               head: int) -> np.ndarray:
    """Softmax of q.k / sqrt(d) + spatial bias, plus ``edge_vals`` at ``flat``."""
    d = params.config.head_dim
    lp = params.layers[layer]
    cols = slice(head * d, (head + 1) * d)
    q = z @ lp.w_q[:, cols]
    k = z @ lp.w_k[:, cols]
    scores = (q @ k.T) / np.sqrt(d)
    scores = scores + params.spatial_bias[head][dist]
    scores.ravel()[flat] += edge_vals  # a fresh C-order array, so ravel is a view
    return _softmax_rows(scores)


def attention_matrix(z: np.ndarray, dist: np.ndarray,
                     edges: Sequence[tuple[int, int, int, float]],
                     params: ModelParams, layer: int, head: int) -> np.ndarray:
    """Row-stochastic attention for one head of one layer.

    Pre-softmax score (i, j) is the scaled query-key product plus the
    spatial bias for the hop-distance bucket from i to j plus, when
    directed relations i -> j exist, their type-bias entries scaled by
    the relation weights and combined per config.  The diagonal uses
    distance bucket 0 and never takes an edge term.
    """
    cfg = params.config
    n = z.shape[0]
    if z.ndim != 2 or z.shape[1] != cfg.hidden_dim:
        raise ShapeMismatch(f"state must be (n, {cfg.hidden_dim}), got {z.shape}")
    if dist.shape != (n, n):
        raise ShapeMismatch(f"distance matrix must be {(n, n)}, got {dist.shape}")
    flat, vals = _edge_bias_terms(n, edges, params.edge_bias[head:head + 1],
                                  cfg.edge_combine)
    return _attention(z, dist, flat, vals[0], params, layer, head)


def _entity_order(kg: SsckgGraph) -> list[int]:
    return [e.id for e in kg.entities]


def relation_edges(kg: SsckgGraph) -> list[tuple[int, int, int, float]]:
    """Entity-to-entity relations as (src_index, dst_index, type_index, weight)."""
    return list(zip(*(column.tolist() for column in _relation_arrays(kg))))


def _relation_arrays(kg: SsckgGraph) -> tuple[np.ndarray, ...]:
    """The columns of ``relation_edges``: src and dst positions, type index, weight."""
    cols = kg.relation_columns
    between = cols.entity_rows()
    return (kg.positions(cols.src[between]), kg.positions(cols.dst[between]),
            cols.type_code[between].astype(np.int64), cols.weight[between])


def forward(kg: SsckgGraph, params: ModelParams) -> list[NodeEmbedding]:
    """Run the full stack and return one vector per entity, in id order."""
    cfg = params.config
    if len(kg) == 0:
        raise EmptyGraph("forward pass needs at least one entity")
    order = _entity_order(kg)
    feats = []
    tiers = []
    for ent in kg.entities:
        if ent.embedding is None:
            raise ShapeMismatch(f"entity {ent.id} has no summary embedding")
        if ent.embedding.dimension != cfg.input_dim:
            raise ShapeMismatch(
                f"entity {ent.id} embedding has dimension {ent.embedding.dimension}, "
                f"model expects {cfg.input_dim}")
        feats.append(ent.embedding.values)
        tiers.append(ent.label.tier)
    src, dst, type_index, weight = _relation_arrays(kg)
    dist = shortest_path_matrix(len(order), np.column_stack((src, dst)),
                                max_dist=cfg.max_dist)
    edges = np.column_stack((src, dst, type_index, weight))

    z = np.stack(feats) @ params.w_input + params.tier_embed[np.array(tiers)]
    flat, edge_vals = _edge_bias_terms(len(order), edges, params.edge_bias,
                                       cfg.edge_combine)
    d = cfg.head_dim
    for layer in range(cfg.layers):
        lp = params.layers[layer]
        heads_out = []
        for head in range(cfg.heads):
            attn = _attention(z, dist, flat, edge_vals[head], params, layer, head)
            cols = slice(head * d, (head + 1) * d)
            heads_out.append(attn @ (z @ lp.w_v[:, cols]))
        mixed = np.concatenate(heads_out, axis=1) @ lp.w_o
        expanded = _gelu(mixed @ lp.ffn_w1 + lp.ffn_b1) @ lp.ffn_w2 + lp.ffn_b2
        z = _layer_norm(z + expanded, lp.ln_gain, lp.ln_offset)
    return [NodeEmbedding(entity_id=eid, vector=z[i].copy())
            for i, eid in enumerate(order)]


# --- weight container -------------------------------------------------------

def _tensor_map(params: ModelParams) -> dict[str, np.ndarray]:
    tensors = {
        "w_input": params.w_input,
        "tier_embed": params.tier_embed,
        "spatial_bias": params.spatial_bias,
        "edge_bias": params.edge_bias,
    }
    for i, lp in enumerate(params.layers):
        for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1",
                     "ffn_w2", "ffn_b2", "ln_gain", "ln_offset"):
            tensors[f"layer{i}.{name}"] = getattr(lp, name)
    return tensors


def _expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    h = cfg.hidden_dim
    shapes = {
        "w_input": (cfg.input_dim, h),
        "tier_embed": (4, h),
        "spatial_bias": (cfg.heads, cfg.max_dist + 2),
        "edge_bias": (cfg.heads, cfg.edge_types),
    }
    for i in range(cfg.layers):
        shapes.update({
            f"layer{i}.w_q": (h, h),
            f"layer{i}.w_k": (h, h),
            f"layer{i}.w_v": (h, h),
            f"layer{i}.w_o": (h, h),
            f"layer{i}.ffn_w1": (h, 4 * h),
            f"layer{i}.ffn_b1": (4 * h,),
            f"layer{i}.ffn_w2": (4 * h, h),
            f"layer{i}.ffn_b2": (h,),
            f"layer{i}.ln_gain": (h,),
            f"layer{i}.ln_offset": (h,),
        })
    return shapes


def save_params(params: ModelParams, path: str | Path) -> None:
    """Write a versioned weight container (bitwise round-trip safe)."""
    cfg = params.config
    meta = {"format": PARAMS_FORMAT, "config": {
        "layers": cfg.layers, "heads": cfg.heads, "hidden_dim": cfg.hidden_dim,
        "max_dist": cfg.max_dist, "edge_types": cfg.edge_types,
        "input_dim": cfg.input_dim, "seed": cfg.seed,
        "edge_combine": cfg.edge_combine,
    }}
    tensors = dict(_tensor_map(params))
    tensors["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **tensors)
    Path(path).write_bytes(buf.getvalue())


def load_params(path: str | Path, expected: ModelConfig | None = None) -> ModelParams:
    """Read a weight container; optionally enforce an expected config."""
    try:
        with np.load(Path(path), allow_pickle=False) as archive:
            names = set(archive.files)
            raw = {name: np.asarray(archive[name]) for name in names}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CorruptFile(f"cannot read weight file {path}: {exc}") from None
    if "__meta__" not in names:
        raise VersionMismatch("weight file carries no format marker")
    try:
        meta = json.loads(bytes(raw["__meta__"]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"unreadable weight metadata: {exc}") from None
    if meta.get("format") != PARAMS_FORMAT:
        raise VersionMismatch(
            f"weight format '{meta.get('format')}' != '{PARAMS_FORMAT}'")
    try:
        cfg = ModelConfig(**meta["config"])
    except (KeyError, TypeError) as exc:
        raise CorruptFile(f"weight metadata incomplete: {exc}") from None
    if expected is not None:
        for fld in ("layers", "heads", "hidden_dim", "max_dist",
                    "edge_types", "input_dim"):
            if getattr(cfg, fld) != getattr(expected, fld):
                raise ShapeMismatch(
                    f"weight file has {fld}={getattr(cfg, fld)}, "
                    f"expected {getattr(expected, fld)}")
    shapes = _expected_shapes(cfg)
    tensors = {}
    for name, shape in shapes.items():
        if name not in names:
            raise CorruptFile(f"weight file is missing tensor '{name}'")
        arr = np.asarray(raw[name], dtype=np.float64)
        if arr.shape != shape:
            raise ShapeMismatch(
                f"tensor '{name}' has shape {arr.shape}, expected {shape}")
        tensors[name] = arr
    layers = [
        LayerParams(**{fld: tensors[f"layer{i}.{fld}"]
                       for fld in ("w_q", "w_k", "w_v", "w_o", "ffn_w1",
                                   "ffn_b1", "ffn_w2", "ffn_b2",
                                   "ln_gain", "ln_offset")})
        for i in range(cfg.layers)
    ]
    return ModelParams(
        config=cfg,
        w_input=tensors["w_input"],
        tier_embed=tensors["tier_embed"],
        spatial_bias=tensors["spatial_bias"],
        edge_bias=tensors["edge_bias"],
        layers=layers,
    )


def dumps_embeddings(embeddings: Sequence[NodeEmbedding]) -> str:
    return dumps_json({str(e.entity_id): e.vector.tolist() for e in embeddings})


def load_embeddings(path: str | Path) -> list[NodeEmbedding]:
    """Read a flat ``{entity_id: [...]}`` file, in id order."""
    doc = read_json(path, "embeddings file")
    if not isinstance(doc, dict):
        raise SchemaError(f"embeddings file {path}: top-level document must be an object")
    out = []
    try:
        for k, v in sorted(doc.items(), key=lambda kv: int(kv[0])):
            vector = np.asarray(v, dtype=np.float64)
            if vector.ndim != 1:
                raise SchemaError(f"embeddings file {path}: entity {k} vector "
                                  "must be a flat list of numbers")
            out.append(NodeEmbedding(entity_id=int(k), vector=vector))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"embeddings file {path}: {exc}") from None
    return out
