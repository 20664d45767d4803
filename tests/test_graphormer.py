"""Deterministic transformer forward pass: attention math, equivariance, IO."""

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from binrisk.cpg import shortest_path_matrix
from binrisk.errors import (
    ConfigError,
    CorruptFile,
    EmptyGraph,
    SchemaError,
    ShapeMismatch,
    VersionMismatch,
)
from binrisk.graphormer import (
    _ERF_BLOCK,
    _erf,
    _gelu,
    _layer_norm,
    ModelConfig,
    ModelParams,
    dumps_embeddings,
    forward,
    init_params,
    load_embeddings,
    load_params,
    save_params,
)
from binrisk import graphormer
from binrisk.config import PipelineConfig
from binrisk.lattice import TOP, Label
from binrisk.pipeline import transform, write_atomic
from binrisk.ssckg import Entity, RelationType

from oracles import (Relation, attention_matrix, frozen, layer_tensors, node_ids,
                     relation_edges, relation_rows, row_kg)

SMALL = ModelConfig(layers=1, heads=2, hidden_dim=8, max_dist=4,
                    edge_types=8, input_dim=6, seed=3)


# --- reference computations ------------------------------------------------------

def attention_oracle(z, dist, edges, params, layer, head):
    """Scalar re-derivation of one head's attention, no matrix ops."""
    cfg = params.config
    n = z.shape[0]
    d = cfg.hidden_dim // cfg.heads
    lp = layer_tensors(params, layer)
    lo = head * d
    rows = []
    for i in range(n):
        scores = []
        for j in range(n):
            q = [sum(z[i][a] * lp["w_q"][a][lo + c] for a in range(cfg.hidden_dim))
                 for c in range(d)]
            k = [sum(z[j][a] * lp["w_k"][a][lo + c] for a in range(cfg.hidden_dim))
                 for c in range(d)]
            s = sum(qq * kk for qq, kk in zip(q, k)) / math.sqrt(d)
            s += params.tensors["spatial_bias"][head][dist[i][j]]
            if i != j:
                terms = [params.tensors["edge_bias"][head, t] * w
                         for (a, b, t, w) in edges if a == i and b == j]
                s += sum(terms)
            scores.append(s)
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        rows.append([e / total for e in exps])
    return np.array(rows)


def hop_oracle(n, pairs, max_dist):
    """Directed BFS hop counts, clamped, with a sentinel for unreachable."""
    out = np.full((n, n), max_dist + 1, dtype=np.int64)
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
    for s in range(n):
        out[s, s] = 0
        seen = {s}
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        out[s, v] = min(depth, max_dist)
                        nxt.append(v)
            frontier = nxt
    return out


def gelu_ref(x):
    flat = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.ravel()]
    return np.array(flat).reshape(x.shape)


def test_erf_equals_scipy_bit_for_bit():
    from scipy.special import erf

    rng = np.random.default_rng(1995)
    edges = [0.0, 1.0, 8.0, 5e-324, 2.2250738585072014e-308]
    points = [0.0, 1.0, 8.0, np.inf, np.nan, 5e-324, 1e-310, 2.2250738585072014e-308,
              1e-300, 26.6, 27.0, 40.0]
    points += [np.nextafter(v, toward) for v in edges for toward in (-np.inf, np.inf)]
    x = np.concatenate([
        rng.uniform(-40.0, 40.0, size=1_000_000),
        rng.uniform(-8.5, 8.5, size=200_000),
        rng.normal(0.0, 1.0, size=200_000),
        np.array(points), -np.array(points),
    ])
    got, want = _erf(x), erf(x)
    # the bit patterns, so the sign of zero counts; every NaN is the same NaN
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])
    assert _erf(np.array([np.inf, -np.inf])).tolist() == [1.0, -1.0]
    assert math.copysign(1.0, _erf(np.array([-0.0]))[0]) == -1.0
    # a strided 2-d view and a 0-d input read the values, not the buffer
    grid = x[:1_400_000].reshape(2000, 700)[:, ::3]
    assert _erf(grid).shape == grid.shape
    assert np.array_equal(_erf(grid).view(np.int64), erf(grid).view(np.int64))
    assert _erf(np.float64(0.5)).shape == ()
    assert _erf(np.float64(0.5)) == erf(0.5)


def test_gelu_in_blocks_equals_the_whole_array_formula():
    # Each value goes through the same ufuncs in the same order as in one
    # pass over the whole array, so the bits agree across block edges too.
    x = np.random.default_rng(1996).normal(0.0, 3.0, size=(3, _ERF_BLOCK + 17))
    e = _erf(x / np.sqrt(2.0))
    e += 1.0
    want = x * 0.5
    want *= e
    assert np.array_equal(_gelu(x.copy()).view(np.int64), want.view(np.int64))
    with pytest.raises(ValueError, match="C-contiguous"):
        _gelu(x[:, ::2])


def layer_norm_ref(x, gain, offset):
    out = np.empty_like(x)
    for i, row in enumerate(x):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        scale = math.sqrt(var + 1e-12)
        out[i] = [(v - mu) / scale * g + o for v, g, o in zip(row, gain, offset)]
    return out


def forward_oracle(kg, params):
    """End-to-end reference: oracle attention plus explicit layer algebra."""
    cfg = params.config
    ents = list(kg.entities)
    feats = np.stack([e.embedding for e in ents])
    tiers = [e.label.tier for e in ents]
    edges = relation_edges(kg)
    dist = hop_oracle(len(ents), [(i, j) for i, j, _, _ in edges], cfg.max_dist)
    z = feats @ params.tensors["w_input"] + params.tensors["tier_embed"][np.array(tiers)]
    d = cfg.hidden_dim // cfg.heads
    for layer in range(cfg.layers):
        lp = layer_tensors(params, layer)
        heads = []
        for h in range(cfg.heads):
            attn = attention_oracle(z, dist, edges, params, layer, h)
            heads.append(attn @ (z @ lp["w_v"][:, h * d:(h + 1) * d]))
        mixed = np.concatenate(heads, axis=1) @ lp["w_o"]
        expanded = gelu_ref(mixed @ lp["ffn_w1"] + lp["ffn_b1"]) @ lp["ffn_w2"] + lp["ffn_b2"]
        z = layer_norm_ref(z + expanded, lp["ln_gain"], lp["ln_offset"])
    return z


# --- fixture graphs -----------------------------------------------------------

def unit(rng, dim):
    v = rng.standard_normal(dim)
    return frozen(v / np.linalg.norm(v))


def entity(eid, lab, emb):
    return Entity(id=eid, name=f"e{eid}", label=lab, members=node_ids(eid),
                  summary="", embedding=emb)


def three_node_kg(dim=6, seed=11):
    rng = np.random.default_rng(seed)
    labs = [TOP, Label.parse("Network"), Label.parse("Hardware/Coil_Write")]
    ents = [entity(i, labs[i], unit(rng, dim)) for i in range(3)]
    rels = [
        Relation(0, RelationType.CALLS, 1, 0.3),
        Relation(0, RelationType.TAINTS, 1, 1.0),  # parallel pair on (0, 1)
        Relation(1, RelationType.REACHES, 2, 0.8),
    ]
    return row_kg(ents, rels)


def random_kg(rng, n, dim, with_parallel=True):
    cats = [TOP, Label.parse("Network"), Label.parse("Memory"),
            Label.parse("Hardware/Coil_Write"),
            Label.parse("Network/Protocol_Parse/Unbounded_Protocol_Parse")]
    ents = [entity(i, cats[int(rng.integers(len(cats)))], unit(rng, dim))
            for i in range(n)]
    types = [t for t in RelationType if t is not RelationType.VULNERABLE_TO]
    rels = []
    seen = set()
    for _ in range(int(rng.integers(1, 2 * n + 2))):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        t = types[int(rng.integers(len(types)))]
        if a == b or (a, t, b) in seen:
            continue
        seen.add((a, t, b))
        rels.append(Relation(a, t, b, float(rng.uniform(0.1, 1.0))))
    if not with_parallel:
        rels = rels[:1]
    return row_kg(ents, rels)


# --- attention ----------------------------------------------------------------

def test_attention_matches_oracle_on_hand_instance():
    kg = three_node_kg()
    params = init_params(SMALL)
    edges = relation_edges(kg)
    dist = hop_oracle(3, [(i, j) for i, j, _, _ in edges], SMALL.max_dist)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, SMALL.hidden_dim))
    for head in range(SMALL.heads):
        got = attention_matrix(z, dist, edges, params, 0, head)
        want = attention_oracle(z, dist, edges, params, 0, head)
        assert np.max(np.abs(got - want)) < 1e-10


def test_attention_rows_are_stochastic():
    rng = np.random.default_rng(19)
    cfg = ModelConfig(layers=2, heads=4, hidden_dim=16, max_dist=6,
                      edge_types=8, input_dim=5, seed=2)
    params = init_params(cfg)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        kg = random_kg(rng, n, cfg.input_dim)
        edges = relation_edges(kg)
        dist = hop_oracle(n, [(i, j) for i, j, _, _ in edges], cfg.max_dist)
        z = rng.standard_normal((n, cfg.hidden_dim))
        for layer in range(cfg.layers):
            for head in range(cfg.heads):
                attn = attention_matrix(z, dist, edges, params, layer, head)
                assert np.all(attn > 0)
                assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-9


def test_attention_distance_buckets_clamp_and_sentinel():
    # unreachable pairs use the extra bucket, far pairs clamp to max_dist
    cfg = SMALL
    params = init_params(cfg)
    n = 3
    edges = [(0, 1, 0, 0.3)]  # only 0 -> 1
    dist = hop_oracle(n, [(0, 1)], cfg.max_dist)
    assert dist[1, 0] == cfg.max_dist + 1  # sentinel survives
    z = np.random.default_rng(0).standard_normal((n, cfg.hidden_dim))
    got = attention_matrix(z, dist, edges, params, 0, 0)
    want = attention_oracle(z, dist, edges, params, 0, 0)
    assert np.max(np.abs(got - want)) < 1e-10


def test_attention_shape_validation():
    params = init_params(SMALL)
    z = np.zeros((2, SMALL.hidden_dim + 1))
    with pytest.raises(ShapeMismatch):
        attention_matrix(z, np.zeros((2, 2), dtype=int), [], params, 0, 0)
    z = np.zeros((2, SMALL.hidden_dim))
    with pytest.raises(ShapeMismatch):
        attention_matrix(z, np.zeros((3, 3), dtype=int), [], params, 0, 0)


# --- forward pass ---------------------------------------------------------------

def test_forward_matches_oracle_on_hand_instance():
    kg = three_node_kg()
    params = init_params(SMALL)
    ids, got = forward(kg, params)
    want = forward_oracle(kg, params)
    assert ids.tolist() == [0, 1, 2]
    assert np.max(np.abs(got - want)) < 1e-10


def test_forward_single_node_closed_form():
    rng = np.random.default_rng(23)
    cfg = ModelConfig(layers=3, heads=2, hidden_dim=8, max_dist=4,
                      edge_types=8, input_dim=6, seed=9)
    params = init_params(cfg)
    ent = entity(0, Label.parse("Memory"), unit(rng, 6))
    kg = row_kg([ent], [])
    got = forward(kg, params)[1][0]

    # a lone node attends only to itself, so each layer reduces to
    # layer_norm(z + ffn((z Wv) Wo))
    z = ent.embedding @ params.tensors["w_input"] + params.tensors["tier_embed"][1]
    for lp in (layer_tensors(params, layer) for layer in range(cfg.layers)):
        mixed = (z @ lp["w_v"]) @ lp["w_o"]
        y = gelu_ref(mixed @ lp["ffn_w1"] + lp["ffn_b1"]) @ lp["ffn_w2"] + lp["ffn_b2"]
        z = layer_norm_ref((z + y)[None, :], lp["ln_gain"], lp["ln_offset"])[0]
    assert np.max(np.abs(got - z)) < 1e-10


def test_forward_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(31)
    cfg = ModelConfig(layers=2, heads=2, hidden_dim=8, max_dist=5,
                      edge_types=8, input_dim=4, seed=1)
    params = init_params(cfg)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        kg = random_kg(rng, n, cfg.input_dim)
        got = forward(kg, params)[1]
        want = forward_oracle(kg, params)
        assert np.max(np.abs(got - want)) < 1e-9


def multigraph_kg(rng, n, dim):
    """Random KG with parallel, duplicated and self relations."""
    base = random_kg(rng, n, dim)
    rels = relation_rows(base)
    rels += rels[:len(rels) // 3]
    types = [t for t in RelationType if t is not RelationType.VULNERABLE_TO]
    for v in rng.integers(0, n, size=2).tolist():
        rels.append(Relation(v, types[int(rng.integers(len(types)))], v,
                             float(rng.uniform(0.1, 1.0))))
    order = rng.permutation(len(rels))
    return row_kg(list(base.entities), [rels[int(k)] for k in order])


def per_head_reference(kg, params):
    """forward's layer algebra around one attention_matrix call per head."""
    cfg = params.config
    ents = list(kg.entities)
    edges = relation_edges(kg)
    dist = shortest_path_matrix(len(ents), [(i, j) for i, j, _, _ in edges],
                                max_dist=cfg.max_dist)
    z = (np.stack([e.embedding for e in ents]) @ params.tensors["w_input"]
         + params.tensors["tier_embed"][np.array([e.label.tier for e in ents])])
    d = cfg.hidden_dim // cfg.heads
    for layer in range(cfg.layers):
        lp = layer_tensors(params, layer)
        heads = [attention_matrix(z, dist, edges, params, layer, h)
                 @ (z @ lp["w_v"][:, h * d:(h + 1) * d]) for h in range(cfg.heads)]
        mixed = np.concatenate(heads, axis=1) @ lp["w_o"]
        expanded = _gelu(mixed @ lp["ffn_w1"] + lp["ffn_b1"]) @ lp["ffn_w2"] + lp["ffn_b2"]
        z = _layer_norm(z + expanded, lp["ln_gain"], lp["ln_offset"])
    return z


# Parallel relations' edge terms are summed.  The one-value "sum" parameter
# keeps these tests' ids from when a "max" fold existed beside it.
@pytest.mark.parametrize("combine", ["sum"])
def test_forward_is_bit_identical_to_per_head_attention(combine):
    rng = np.random.default_rng(53)
    cfg = ModelConfig(layers=2, heads=4, hidden_dim=16, max_dist=3,
                      edge_types=8, input_dim=5, seed=8)
    params = init_params(cfg)
    for _ in range(10):
        kg = multigraph_kg(rng, int(rng.integers(1, 25)), cfg.input_dim)
        got = forward(kg, params)[1]
        assert np.array_equal(got, per_head_reference(kg, params))


@pytest.mark.parametrize("combine", ["sum"])
def test_attention_matches_oracle_with_self_and_duplicate_relations(combine):
    rng = np.random.default_rng(59)
    cfg = ModelConfig(layers=1, heads=2, hidden_dim=8, max_dist=4,
                      edge_types=8, input_dim=4, seed=5)
    params = init_params(cfg)
    for _ in range(6):
        n = int(rng.integers(1, 7))
        kg = multigraph_kg(rng, n, cfg.input_dim)
        edges = relation_edges(kg)
        dist = hop_oracle(n, [(i, j) for i, j, _, _ in edges], cfg.max_dist)
        z = rng.standard_normal((n, cfg.hidden_dim))
        for head in range(cfg.heads):
            got = attention_matrix(z, dist, edges, params, 0, head)
            want = attention_oracle(z, dist, edges, params, 0, head)
            assert np.max(np.abs(got - want)) < 1e-10


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layers=st.integers(1, 3), heads=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), graph_seed=st.integers(0, 2**32 - 1))
@example(layers=3, heads=4, seed=0, n=1, graph_seed=0)
@example(layers=2, heads=1, seed=5, n=2, graph_seed=1)
def test_seeded_forward_equals_init_params_forward(layers, heads, seed, n, graph_seed):
    cfg = ModelConfig(layers=layers, heads=heads, hidden_dim=16, max_dist=4,
                      edge_types=8, input_dim=5, seed=seed)
    kg = multigraph_kg(np.random.default_rng(graph_seed), n, cfg.input_dim)
    want_ids, want = forward(kg, init_params(cfg))
    got_ids, got = forward(kg, cfg)
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got, want)


def test_forward_from_config_draws_every_init_params_value_once(monkeypatch):
    # A pass given a ModelConfig draws each tensor of init_params, in draw
    # order and with the same values, and gives init_params' embeddings.
    cfg = ModelConfig(layers=3, heads=2, hidden_dim=8, max_dist=4,
                      edge_types=8, input_dim=6, seed=21)
    kg = multigraph_kg(np.random.default_rng(67), 7, cfg.input_dim)
    params = init_params(cfg)
    want = forward(kg, params)
    draw, drawn = graphormer._drawn_tensors, []

    def recorded(model_cfg):
        for name, t in draw(model_cfg):
            drawn.append((name, t.copy()))
            yield name, t

    monkeypatch.setattr(graphormer, "_drawn_tensors", recorded)
    got = forward(kg, cfg)
    assert [name for name, _ in drawn] == list(params.tensors)
    for name, t in drawn:
        assert np.array_equal(t, params.tensors[name]), name
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# sha256 over each (name, tensor bytes) of ``init_params(cfg).tensors``,
# as the draws were when every layer was drawn up front.
INIT_DIGESTS = {
    0: "91de39136211ae9952fea31a966b6ab3a4752e58a67d659de0fc9e8fddf54315",
    7: "fa32a07d1d09fb7c8bb241a723ea84eab371024e3764a43234ddfe26b4b9a8d6",
    2**32 - 1: "8507c00d4f6a638c07bf84685140d60446834b2bfc73e752d0449e7a8e80a6ab",
}


@pytest.mark.parametrize("seed", sorted(INIT_DIGESTS))
def test_init_params_values_are_pinned(seed):
    cfg = ModelConfig(layers=3, heads=4, hidden_dim=16, max_dist=5,
                      edge_types=8, input_dim=6, seed=seed)
    digest = hashlib.sha256()
    for name, t in init_params(cfg).tensors.items():
        digest.update(name.encode())
        digest.update(t.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[seed]


def transform_peak(kg, layers):
    """Peak traced bytes of the seeded ``transform`` with this many layers."""
    cfg = PipelineConfig(model_layers=layers, model_heads=2, model_hidden_dim=64,
                         model_max_dist=6, seed=4)
    tracemalloc.start()
    try:
        transform(kg, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seeded_transform_holds_one_layer_at_a_time():
    # tracemalloc sees numpy's buffers.  Drawing every layer up front adds
    # one layer's weights to the peak per layer, and keeping a layer while
    # the next is drawn adds almost one; holding one at a time adds neither.
    kg = multigraph_kg(np.random.default_rng(61), 6, 16)
    layer = layer_tensors(init_params(ModelConfig(layers=1, heads=2, hidden_dim=64,
                                                  input_dim=16)), 0)
    layer_bytes = sum(t.nbytes for t in layer.values())
    transform_peak(kg, 1)  # first-call allocations stay out of the comparison
    assert transform_peak(kg, 8) - transform_peak(kg, 1) < layer_bytes / 2


def test_seeded_forward_drops_each_query_weight_before_the_ffn_output_weight(monkeypatch):
    # Each tensor of a seeded pass lives from its first use to its last:
    # a layer's w_q is dead by the time that layer's ffn_w2 is drawn.
    cfg = ModelConfig(layers=3, heads=2, hidden_dim=16, max_dist=4, input_dim=6, seed=2)
    kg = multigraph_kg(np.random.default_rng(71), 6, cfg.input_dim)
    draw, refs, checked = graphormer._drawn_tensors, {}, []

    def recorded(model_cfg):
        for name, t in draw(model_cfg):
            layer, _, field_name = name.partition(".")
            if field_name == "ffn_w2":
                assert refs[f"{layer}.w_q"]() is None, f"{layer}.w_q is live at its ffn_w2"
                checked.append(layer)
            refs[name] = weakref.ref(t)
            yield name, t

    monkeypatch.setattr(graphormer, "_drawn_tensors", recorded)
    forward(kg, cfg)
    assert checked == ["layer0", "layer1", "layer2"]


def permuted_copy(kg, perm):
    """Relabel entity ids through perm, keeping everything else."""
    from dataclasses import replace
    ents = [replace(e, id=perm[e.id], members=node_ids(perm[e.id]))
            for e in kg.entities]
    rels = [Relation(perm[r.src], r.rel_type,
                     perm[r.dst] if isinstance(r.dst, int) else r.dst, r.weight)
            for r in relation_rows(kg)]
    return row_kg(ents, rels)


def test_forward_is_permutation_equivariant():
    rng = np.random.default_rng(47)
    cfg = ModelConfig(layers=2, heads=4, hidden_dim=16, max_dist=6,
                      edge_types=8, input_dim=5, seed=12)
    params = init_params(cfg)
    for _ in range(5):
        n = int(rng.integers(2, 10))
        kg = random_kg(rng, n, cfg.input_dim)
        perm = {i: int(p) for i, p in enumerate(rng.permutation(n))}
        base = dict(zip(*forward(kg, params)))
        moved = dict(zip(*forward(permuted_copy(kg, perm), params)))
        for i in range(n):
            assert np.max(np.abs(base[i] - moved[perm[i]])) < 1e-6


def test_forward_input_validation():
    params = init_params(SMALL)
    with pytest.raises(EmptyGraph):
        forward(row_kg([], []), params)
    bare = Entity(0, "x", TOP, node_ids(0))  # no embedding
    with pytest.raises(ShapeMismatch, match="no summary embedding"):
        forward(row_kg([bare], []), params)
    wrong = entity(0, TOP, frozen(np.ones(SMALL.input_dim + 2)))
    with pytest.raises(ShapeMismatch, match="dimension"):
        forward(row_kg([wrong], []), params)
    # The params must hold exactly the tensors the config draws, in draw order.
    names = list(params.tensors)
    names[4], names[5] = names[5], names[4]  # layer0.w_q and layer0.w_k
    swapped = {n: params.tensors[n] for n in names}
    missing_layer = {n: t for n, t in params.tensors.items() if not n.startswith("layer0.")}
    extra = {**params.tensors, "layer1.w_q": params.tensors["layer0.w_q"]}
    for tensors, message in [
            (missing_layer, "params tensor 4 is None, config draws 'layer0.w_q'"),
            (extra, f"params tensor {len(names)} is 'layer1.w_q', config draws None"),
            (swapped, "params tensor 4 is 'layer0.w_k', config draws 'layer0.w_q'")]:
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            forward(three_node_kg(), ModelParams(SMALL, tensors))
    # ... and each of the shape the config draws it in.
    h = SMALL.hidden_dim
    for name, shape in [("layer0.w_q", (3, 3)), ("tier_embed", (h, 4)), ("layer0.ffn_b1", ())]:
        wrong = {**params.tensors, name: np.zeros(shape)}
        message = f"params tensor '{name}' has shape {shape}, config draws "
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            forward(three_node_kg(), ModelParams(SMALL, wrong))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(heads=3, hidden_dim=8)
    with pytest.raises(ConfigError):
        ModelConfig(edge_types=4)
    with pytest.raises(ConfigError):
        ModelConfig(max_dist=0)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        ModelConfig(seed=-1)


# --- initialization and persistence ----------------------------------------------

def all_tensors(params):
    yield from params.tensors.values()


def test_init_is_seeded_and_deterministic():
    a, b = init_params(SMALL), init_params(SMALL)
    for ta, tb in zip(all_tensors(a), all_tensors(b)):
        assert np.array_equal(ta, tb)
    other = init_params(ModelConfig(layers=1, heads=2, hidden_dim=8, max_dist=4,
                                    edge_types=8, input_dim=6, seed=4))
    assert not np.array_equal(a.tensors["w_input"], other.tensors["w_input"])
    # additive vectors start neutral
    assert np.all(a.tensors["layer0.ffn_b1"] == 0)
    assert np.all(a.tensors["layer0.ln_gain"] == 1)
    assert np.all(a.tensors["layer0.ln_offset"] == 0)


def test_model_params_are_the_named_tensors():
    # One form for the weights: the config and the container's tensors by name.
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["config", "tensors"]
    gone = {"LayerParams", "_layer_tensor", "_params_from", "_tensor_map"}
    assert not gone & set(vars(graphormer))


def test_save_params_failed_overwrite_keeps_the_old_container(tmp_path, monkeypatch):
    path = tmp_path / "w.npz"
    save_params(init_params(SMALL), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_params(init_params(dataclasses.replace(SMALL, seed=4)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]


def test_params_round_trip_is_bitwise(tmp_path):
    params = init_params(SMALL)
    path = tmp_path / "weights.npz"
    save_params(params, path)
    back = load_params(path, expected=SMALL)
    assert back.config == SMALL
    for ta, tb in zip(all_tensors(params), all_tensors(back)):
        assert np.array_equal(ta, tb)
    # loaded weights drive the exact same forward pass
    kg = three_node_kg()
    assert np.array_equal(forward(kg, params)[1], forward(kg, back)[1])


def test_params_file_version_and_corruption_errors(tmp_path):
    path = tmp_path / "w.npz"
    np.savez(path, foo=np.ones(3))
    with pytest.raises(VersionMismatch, match="format marker"):
        load_params(path)

    meta = {"format": "something-else", "config": {}}
    np.savez(path, __meta__=np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8))
    with pytest.raises(VersionMismatch, match="something-else"):
        load_params(path)

    path.write_bytes(b"definitely not a zip archive")
    with pytest.raises(CorruptFile):
        load_params(path)


def write_container(path, params, config):
    """A weight container holding ``params``' tensors under a hand-written config."""
    meta = {"format": "entity-transformer-v1", "config": config}
    tensors = dict(params.tensors)
    tensors["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **tensors)


SMALL_META = {"layers": 1, "heads": 2, "hidden_dim": 8, "max_dist": 4,
              "edge_types": 8, "input_dim": 6, "seed": 3}


def test_params_with_legacy_sum_fold_load(tmp_path):
    path = tmp_path / "w.npz"
    params = init_params(SMALL)
    write_container(path, params, {**SMALL_META, "edge_combine": "sum"})
    back = load_params(path, expected=SMALL)
    assert back.config == SMALL
    for ta, tb in zip(all_tensors(params), all_tensors(back), strict=True):
        assert np.array_equal(ta, tb)


@pytest.mark.parametrize("combine", ["max", "median", None])
def test_params_with_other_legacy_fold_are_rejected(tmp_path, combine):
    path = tmp_path / "w.npz"
    write_container(path, init_params(SMALL), {**SMALL_META, "edge_combine": combine})
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}.*only 'sum'"):
        load_params(path)


@pytest.mark.parametrize("config", [[1, 2], "sum", None, 5])
def test_params_config_must_be_an_object(tmp_path, config):
    path = tmp_path / "w.npz"
    write_container(path, init_params(SMALL), config)
    with pytest.raises(CorruptFile, match="'config' must be an object"):
        load_params(path)


def test_params_meta_must_be_an_object(tmp_path):
    path = tmp_path / "w.npz"
    np.savez(path, __meta__=np.frombuffer(b'["entity-transformer-v1"]', dtype=np.uint8))
    with pytest.raises(VersionMismatch, match="format 'None'"):
        load_params(path)


def test_params_meta_nested_too_deep_is_corrupt(tmp_path):
    path = tmp_path / "w.npz"
    nested = b"[" * 100_000 + b"]" * 100_000
    np.savez(path, __meta__=np.frombuffer(nested, dtype=np.uint8))
    with pytest.raises(CorruptFile, match=f"{re.escape(str(path))}: unreadable metadata"):
        load_params(path)


def test_params_expected_config_mismatch(tmp_path):
    path = tmp_path / "w.npz"
    save_params(init_params(SMALL), path)
    bigger = ModelConfig(layers=1, heads=2, hidden_dim=16, max_dist=4,
                         edge_types=8, input_dim=6, seed=3)
    with pytest.raises(ShapeMismatch, match="hidden_dim"):
        load_params(path, expected=bigger)


def test_params_tensor_shape_tampering_detected(tmp_path):
    path = tmp_path / "w.npz"
    save_params(init_params(SMALL), path)
    with np.load(path, allow_pickle=False) as archive:
        tensors = {name: archive[name] for name in archive.files}
    tensors["layer0.w_q"] = np.zeros((3, 3))
    buf = io.BytesIO()
    np.savez(buf, **tensors)
    path.write_bytes(buf.getvalue())
    with pytest.raises(ShapeMismatch, match="layer0.w_q"):
        load_params(path)

    del tensors["layer0.w_q"]
    buf = io.BytesIO()
    np.savez(buf, **tensors)
    path.write_bytes(buf.getvalue())
    with pytest.raises(CorruptFile, match="missing tensor"):
        load_params(path)


def test_embeddings_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ids, vectors = np.array([4, 0, 11]), rng.standard_normal((3, 16))
    path = tmp_path / "emb.json"
    write_atomic(path, dumps_embeddings(ids, vectors))
    back_ids, back = load_embeddings(path)
    assert back_ids.dtype == np.int64 and back_ids.tolist() == [0, 4, 11]
    assert back.dtype == np.float64 and not back.flags.writeable
    assert np.array_equal(back, vectors[[1, 0, 2]])
    assert dumps_embeddings(back_ids, back) == dumps_embeddings(ids, vectors)


def test_forward_returns_the_graph_ids_beside_one_read_only_matrix():
    kg = three_node_kg()
    ids, z = forward(kg, init_params(SMALL))
    assert ids is kg.entity_ids and ids.dtype == np.int64
    assert z.shape == (len(kg), SMALL.hidden_dim) and z.dtype == np.float64
    assert z.flags.c_contiguous and not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 1.0


def test_embeddings_file_rejects_mixed_dimensions_and_ids_past_int64(tmp_path):
    path = tmp_path / "emb.json"
    for text, fault in [
            ('{"3": [0.1, 0.2], "4": [0.3]}', "vectors have mixed dimensions [1, 2]"),
            ('{"3": [0.1], "9223372036854775808": [0.3]}',
             "entity id 9223372036854775808 does not fit in int64"),
            ('{"-9223372036854775809": [0.3]}',
             "entity id -9223372036854775809 does not fit in int64")]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_embeddings(path)
        assert str(info.value) == f"embeddings file {path}: {fault}"
    path.write_text('{"9223372036854775807": [1.0], "-9223372036854775808": [2.0]}',
                    encoding="utf-8")
    ids, vectors = load_embeddings(path)
    assert ids.tolist() == [-2 ** 63, 2 ** 63 - 1] and vectors.tolist() == [[2.0], [1.0]]
    path.write_text("{}", encoding="utf-8")
    ids, vectors = load_embeddings(path)
    assert ids.shape == (0,) and vectors.shape == (0, 0)


@pytest.mark.parametrize("key", ["03", " 4", "3.0", "+3", "-0", "1_0", "x", ""])
def test_embeddings_key_must_spell_an_entity_id(tmp_path, key):
    # int() reads "03" as 3: loading {"3": ..., "03": ...} would give
    # entity 3 twice.
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"3": [0.1, 0.2], key: [0.3, 0.4]}), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_embeddings(path)
    assert str(info.value) == f"embeddings file {path}: key {key!r} is not an entity id"


def test_embeddings_keys_are_signed_integers(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text('{"12": [1.0], "-1": [2.0], "0": [3.0]}', encoding="utf-8")
    ids, vectors = load_embeddings(path)
    assert list(zip(ids.tolist(), vectors.tolist())) == [(-1, [2.0]), (0, [3.0]), (12, [1.0])]
