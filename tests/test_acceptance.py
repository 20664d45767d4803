"""Acceptance gate: one test per shipped guarantee, run after the unit suite.

Each test prints a `criterion NN PASS` line (visible with -s or in the
captured output), and the pytest -v listing doubles as the per-criterion
pass/fail report.  Tolerances are stated inline next to each assertion.
"""

import itertools
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import binrisk
from binrisk.cli import EXIT_ALERTS, EXIT_OK, main
from binrisk.cpg import EdgeKind, NodeKind, failing_claims
from binrisk.fingerprint import (BENIGN, MALICIOUS, Fingerprint, match_and_alert,
                                 select_threshold)
from binrisk.graphormer import ModelConfig, forward, init_params
from binrisk.lattice import TOP, EvrMode, GoldenRecord, Label, Lattice, evr, join, leq
from binrisk.lifting import Annotation, build_corpus
from binrisk.metrics import ConfusionCounts, classification_metrics, cohen_kappa
from binrisk.risk import PropagationConfig, propagate
from binrisk.ssckg import Granularity, construction_stats, dbscan, structural_collapse

from conftest import SESSION_T0
from oracles import (CpgEdge, CpgNode, attention_matrix, layer_tensors, relation_edges,
                     row_cpg, row_kg)
from test_fingerprint import similarity_oracle, threshold_oracle
from test_graphormer import (
    forward_oracle,
    gelu_ref,
    hop_oracle,
    layer_norm_ref,
    permuted_copy,
    random_kg as random_model_kg,
    three_node_kg,
    unit,
)
from test_graphormer import entity as model_entity
from test_risk import random_kg as random_risk_kg
from test_risk import solve_oracle
from test_ssckg import cluster_oracle


def test_criterion_01_lattice_laws_exhaustive():
    started = time.perf_counter()
    lat = Lattice.default()
    universe = list(lat.labels())  # 14 named labels plus top
    assert len(universe) == 15 and TOP in universe
    for a in universe:
        assert leq(a, a)
        assert leq(a, TOP)
        assert join(a, a) == a        # idempotent
        assert join(a, TOP) is TOP    # top absorbs
    for a, b in itertools.product(universe, repeat=2):
        if leq(a, b) and leq(b, a):
            assert a == b             # antisymmetric
        assert join(a, b) == join(b, a)  # commutative
        assert leq(a, join(a, b)) and leq(b, join(a, b))  # upper bound
    for a, b, c in itertools.product(universe, repeat=3):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)          # transitive
        assert join(join(a, b), c) == join(a, join(b, c))  # associative
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 01 PASS: partial order and join laws over all "
          f"{len(universe)} labels in {elapsed:.2f}s")


def test_criterion_02_violation_rate_exact():
    truth = Label.parse("Hardware/Coil_Write")
    records = []
    # 471 exact agreements
    records += [GoldenRecord(str(i), truth, truth) for i in range(471)]
    # 14 coarser predictions: still cover the truth, but miss the tier
    records += [GoldenRecord(f"c{i}", truth, Label.parse("Hardware"))
                for i in range(14)]
    # 7 fully unresolved predictions: top covers everything
    records += [GoldenRecord(f"t{i}", truth, TOP) for i in range(7)]
    # 8 cross-category predictions: violate both modes
    records += [GoldenRecord(f"x{i}", truth, Label.parse("Network/DNS_Resolve"))
                for i in range(8)]
    assert len(records) == 500
    exact = evr(records, EvrMode.EXACT_TIER_MATCH)
    cover = evr(records, EvrMode.LATTICE_COVER)
    assert exact == 0.058   # 29/500, exact float equality
    assert cover == 0.016   # 8/500, exact float equality
    assert cover <= exact
    print("criterion 02 PASS: EVR 29/500 == 0.058 exactly "
          "(cover mode 8/500 == 0.016)")


class _FlowAnnotator:
    """Claims each function's single data flow; flips it for the first k."""

    def __init__(self, flip_below: int):
        self.flip_below = flip_below

    def annotate(self, view, context):
        fid = view.function_id
        a, b = 2 * fid, 2 * fid + 1
        src, dst = (b, a) if fid < self.flip_below else (a, b)
        return Annotation(function_id=str(fid), label=TOP, summary="",
                          claims=np.array([[src, dst]], dtype=np.int64))


def test_criterion_03_verifier_gate_rejection_rate():
    n_functions, n_bad = 17_814, 2_814
    attrs: dict = {}
    nodes = []
    edges = []
    for f in range(n_functions):
        nodes.append(CpgNode(id=2 * f, kind=NodeKind.INSTRUCTION, opcode="mov",
                             function_id=f, block_id=0, attrs=attrs))
        nodes.append(CpgNode(id=2 * f + 1, kind=NodeKind.INSTRUCTION, opcode="mov",
                             function_id=f, block_id=0, attrs=attrs))
        edges.append(CpgEdge(src=2 * f, dst=2 * f + 1, kind=EdgeKind.PDG))
    g = row_cpg(nodes, edges)
    corpus = build_corpus(g, range(n_functions), _FlowAnnotator(n_bad))
    assert corpus.rejected_count == n_bad
    assert len(corpus.accepted) == n_functions - n_bad
    assert corpus.failed_count == 0
    assert round(corpus.rejection_rate, 3) == 0.158
    # re-verify: the gate let nothing unreachable through
    assert failing_claims(g, [ann.claims for ann in corpus.accepted]) == [None] * len(
        corpus.accepted)
    print(f"criterion 03 PASS: rejection rate {corpus.rejection_rate:.6f} "
          f"rounds to 0.158; {len(corpus.accepted)} accepted annotations "
          f"re-verified clean")


def test_criterion_04_clustering_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(42_000)
    cases = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        dim = int(rng.choice([2, 3, 4, 8]))
        pts = rng.standard_normal((n, dim))
        for _ in range(int(rng.integers(0, 6))):  # densify with duplicates
            pts[int(rng.integers(n))] = pts[int(rng.integers(n))]
        eps = float(rng.uniform(0.02, 0.7))
        min_samples = int(rng.integers(1, 7))
        got = dbscan(pts, eps=eps, min_samples=min_samples)
        want = cluster_oracle(pts, eps, min_samples)
        assert np.array_equal(got, want), (n, dim, eps, min_samples)
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 200 and elapsed < 10.0
    print(f"criterion 04 PASS: 200 fuzzed instances match the "
          f"components oracle exactly in {elapsed:.2f}s")


def test_criterion_05_compression_at_scale():
    started = time.perf_counter()
    big, small = 2_260, 1_160
    per_big, per_small = 248, 247
    attrs: dict = {}
    nodes = []
    nid = 0
    for f in range(big + small):
        count = per_big if f < big else per_small
        for _ in range(count):
            nodes.append(CpgNode(id=nid, kind=NodeKind.INSTRUCTION, opcode="",
                                 function_id=f, block_id=0, attrs=attrs))
            nid += 1
    assert nid == 847_000
    g = row_cpg(nodes, [])
    entities = structural_collapse(g, Granularity.FUNCTION)
    assert len(entities) == 3_420
    stats = construction_stats(g, row_kg(entities, []))
    assert stats["cpg_nodes"] == 847_000
    assert stats["entities"] == 3_420
    assert abs(stats["compression_ratio"] - 247.7) <= 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 05 PASS: 847,000 nodes -> 3,420 entities, ratio "
          f"{stats['compression_ratio']:.2f} (247.7 +/- 0.1) in {elapsed:.1f}s")


def test_criterion_06_propagation_matches_dense_solve():
    rng = np.random.default_rng(60_606)
    for case in range(100):
        n = int(rng.integers(1, 13))
        kg = random_risk_kg(rng, n)
        inherent = {i: float(rng.uniform(0, 1)) for i in range(n)}
        beta = float(rng.uniform(0.05, 1.0))
        cfg = PropagationConfig(beta=beta, tolerance=1e-10, max_iterations=2000)
        got = propagate(kg, inherent, cfg).scores
        want = solve_oracle(kg, inherent, beta)
        l1 = sum(abs(got[i] - want[i]) for i in want)
        assert l1 <= 1e-8, (case, n, beta, l1)
    # the reported residual is the L1 change of one extra sweep
    kg = random_risk_kg(np.random.default_rng(7), 8)
    result = propagate(kg, {i: 0.5 for i in range(8)})  # default tolerance 1e-6
    assert result.residual < 1e-6
    # beta = 1 disables propagation entirely
    inherent = {i: float(v) for i, v in enumerate([0.9, 0.2, 0.7, 0.0])}
    kg = random_risk_kg(np.random.default_rng(8), 4)
    exact = propagate(kg, inherent, PropagationConfig(beta=1.0)).scores
    assert exact == inherent
    print("criterion 06 PASS: 100 random graphs within 1e-8 L1 of the "
          "dense solve; residual < 1e-6; beta=1 returns inherent exactly")


def test_criterion_07_transformer_invariants():
    # (a) permutation equivariance on 50 random 12-entity graphs, 1e-6
    cfg = ModelConfig(layers=2, heads=4, hidden_dim=16, max_dist=6,
                      edge_types=8, input_dim=5, seed=12)
    params = init_params(cfg)
    rng = np.random.default_rng(70_707)
    worst = 0.0
    for _ in range(50):
        kg = random_model_kg(rng, 12, cfg.input_dim)
        perm = {i: int(p) for i, p in enumerate(rng.permutation(12))}
        base = dict(zip(*forward(kg, params)))
        moved = dict(zip(*forward(permuted_copy(kg, perm), params)))
        for i in range(12):
            worst = max(worst, float(np.max(np.abs(base[i] - moved[perm[i]]))))
    assert worst <= 1e-6

    # (b) attention rows sum to one within 1e-9
    row_err = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 10))
        kg = random_model_kg(rng, n, cfg.input_dim)
        edges = relation_edges(kg)
        dist = hop_oracle(n, [(i, j) for i, j, _, _ in edges], cfg.max_dist)
        z = rng.standard_normal((n, cfg.hidden_dim))
        for layer in range(cfg.layers):
            for head in range(cfg.heads):
                attn = attention_matrix(z, dist, edges, params, layer, head)
                row_err = max(row_err, float(np.max(np.abs(attn.sum(axis=1) - 1))))
    assert row_err <= 1e-9

    # (c) the 3-node hand instance matches the scalar oracle within 1e-10
    hand_cfg = ModelConfig(layers=1, heads=2, hidden_dim=8, max_dist=4,
                           edge_types=8, input_dim=6, seed=3)
    hand_params = init_params(hand_cfg)
    kg = three_node_kg()
    got = forward(kg, hand_params)[1]
    want = forward_oracle(kg, hand_params)
    hand_err = float(np.max(np.abs(got - want)))
    assert hand_err <= 1e-10

    # (d) single-node closed form within 1e-10
    lone = model_entity(0, Label.parse("Memory"), unit(np.random.default_rng(2), 6))
    got1 = forward(row_kg([lone], []), hand_params)[1][0]
    z = (lone.embedding @ hand_params.tensors["w_input"]
         + hand_params.tensors["tier_embed"][1])
    for lp in (layer_tensors(hand_params, layer) for layer in range(hand_cfg.layers)):
        mixed = (z @ lp["w_v"]) @ lp["w_o"]
        y = gelu_ref(mixed @ lp["ffn_w1"] + lp["ffn_b1"]) @ lp["ffn_w2"] + lp["ffn_b2"]
        z = layer_norm_ref((z + y)[None, :], lp["ln_gain"], lp["ln_offset"])[0]
    assert float(np.max(np.abs(got1 - z))) <= 1e-10
    print(f"criterion 07 PASS: equivariance {worst:.1e} <= 1e-6, row sums "
          f"{row_err:.1e} <= 1e-9, hand instance {hand_err:.1e} <= 1e-10, "
          f"single node <= 1e-10")


def test_criterion_08_similarity_oracle_equivalence():
    rng = np.random.default_rng(80_808)
    worst = 0.0
    for case in range(500):
        dim = int(rng.integers(2, 9))
        n_target = int(rng.integers(1, 11))
        n_fp = int(rng.integers(1, 11))
        target = rng.standard_normal((n_target, dim))
        pattern = Fingerprint(name=f"f{case}", entity_ids=np.arange(n_fp),
                              vectors=rng.standard_normal((n_fp, dim)))
        got = match_and_alert(np.arange(n_target), target, [pattern], 0.0)[0].similarity
        worst = max(worst, abs(got - similarity_oracle(list(enumerate(target)), pattern)))
        assert worst <= 1e-12
        # superset monotonicity on every fuzz case
        extra = np.concatenate([target, rng.standard_normal((int(rng.integers(1, 4)), dim))])
        assert match_and_alert(np.arange(len(extra)), extra, [pattern],
                               0.0)[0].similarity >= got - 1e-12
    # self similarity on unit-norm sets
    vecs = rng.standard_normal((8, 16))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    self_fp = Fingerprint(name="self", entity_ids=np.arange(len(vecs)), vectors=vecs)
    [match] = match_and_alert(np.arange(len(vecs)), vecs, [self_fp], 0.0)
    assert abs(match.similarity - 1.0) <= 1e-12
    print(f"criterion 08 PASS: 500 fuzzed pairs within {worst:.1e} <= 1e-12 "
          f"of the double-loop oracle; Sim(G,G)=1; superset monotonicity held")


def test_criterion_09_threshold_selection(fixtures_dir):
    doc = json.loads((fixtures_dir / "threshold_scores.json").read_text())
    scores = [(row["score"], row["label"]) for row in doc]
    report = select_threshold(scores)
    assert report.tau == 0.78
    assert report.tpr == 0.720
    assert report.fpr == 0.038
    assert report.fpr_cap_satisfied

    rng = np.random.default_rng(90_909)
    for _ in range(100):
        n_mal, n_ben = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        quantize = rng.random() < 0.5
        def draw(k, lab):
            vals = rng.uniform(0, 1, size=k)
            if quantize:
                vals = np.round(vals, 2)
            return [(float(v), lab) for v in vals]
        sample = draw(n_mal, MALICIOUS) + draw(n_ben, BENIGN)
        cap = float(rng.choice([0.02, 0.05, 0.2]))
        got = select_threshold(sample, fpr_cap=cap)
        (tau, tpr, fpr, _), feasible = threshold_oracle(sample, cap=cap)
        assert (got.tau, got.tpr, got.fpr) == (tau, tpr, fpr)
        assert got.fpr_cap_satisfied is feasible
        if feasible:
            assert got.fpr <= cap  # the cap is never violated when feasible
    print("criterion 09 PASS: fixture tau=0.78 TPR=0.720 FPR=0.038; 100 "
          "fuzzed sets match exhaustive enumeration; cap held when feasible")


def test_criterion_10_metric_formulas():
    m = classification_metrics(ConfusionCounts(tp=6, fp=2, tn=9, fn=3))
    assert m.f1 == 12 / 17
    assert m.mcc == pytest.approx(0.4923659639173309, abs=1e-15)
    assert cohen_kappa(list("xxyy"), list("xxyx")) == pytest.approx(0.5)
    rng = np.random.default_rng(10_101)
    for _ in range(60):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 25, size=4))
        a = classification_metrics(ConfusionCounts(tp, fp, tn, fn))
        b = classification_metrics(ConfusionCounts(tn, fn, tp, fp))
        if "mcc" not in a.flagged:
            assert a.mcc == pytest.approx(b.mcc, abs=1e-12)
        n = int(rng.integers(1, 25))
        seq_a = [int(v) for v in rng.integers(0, 3, size=n)]
        seq_b = [int(v) for v in rng.integers(0, 3, size=n)]
        relabel = {0: "x", 1: "y", 2: "z"}
        assert cohen_kappa(seq_a, seq_b) == pytest.approx(
            cohen_kappa([relabel[v] for v in seq_a],
                        [relabel[v] for v in seq_b]), abs=1e-12)
    print("criterion 10 PASS: hand-computed F1/MCC/kappa exact; MCC swap "
          "symmetry and kappa relabel invariance held on fuzz cases")


def test_criterion_11_end_to_end_determinism(fixtures_dir, tmp_path, capsys):
    cfg = str(fixtures_dir / "config_toy.json")
    toy = str(fixtures_dir / "toy_modbus.cpg.json")
    runs = []
    for d in (tmp_path / "r1", tmp_path / "r2"):
        code = main(["report", "--config", cfg, "--cpg", toy, "--outdir", str(d)])
        capsys.readouterr()
        assert code == EXIT_OK
        runs.append((d / "toy_modbus.report.json").read_bytes())
    assert runs[0] == runs[1]  # byte-identical reports

    report = json.loads(runs[0])
    ranking = report["risk"]["ranking"]
    assert ranking[0]["name"] == "write_coil"  # hand-solved fixed point
    assert ranking[0]["score"] > ranking[1]["score"]

    code = main(["report", "--config", str(fixtures_dir / "config_firmware.json"),
                 "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
                 "--outdir", str(tmp_path / "fw")])
    capsys.readouterr()
    assert code == EXIT_ALERTS
    fw = json.loads((tmp_path / "fw" / "firmware_update.report.json").read_text())
    assert fw["fingerprints"]["alerts"] == ["planted_apt"]  # exactly one
    sims = {m["fingerprint"]: m["similarity"] for m in fw["fingerprints"]["matches"]}
    assert sims["planted_apt"] == pytest.approx(0.94, abs=1e-6)
    print("criterion 11 PASS: byte-identical repeat reports; sink ranked "
          "first; planted fingerprint raised exactly one alert at 0.94 > 0.78")


def test_criterion_12_suite_budget_and_isolation():
    elapsed = time.monotonic() - SESSION_T0
    assert elapsed < 300.0, f"suite exceeded its budget: {elapsed:.0f}s"
    # no network-capable imports anywhere in the shipped package
    pkg_dir = Path(binrisk.__file__).resolve().parent
    banned = re.compile(
        r"^\s*(?:import|from)\s+(?:socket|ssl|urllib|http|requests|ftplib)\b",
        re.MULTILINE)
    for source in sorted(pkg_dir.glob("*.py")):
        match = banned.search(source.read_text(encoding="utf-8"))
        assert match is None, f"{source.name} imports {match.group(0)!r}"
    print(f"criterion 12 PASS: suite at {elapsed:.1f}s of the 300s budget "
          f"(final figure printed at session end); no network imports")
