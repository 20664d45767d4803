"""Match behavior fingerprints in embedding space and pick the alert cutoff.

A fingerprint is a bag of entity vectors captured from a known campaign.
Matching runs the deterministic transformer over a new binary's
knowledge graph, then scores mean-over-fingerprint-nodes of the best
clamped cosine against any target entity.  A match alerts only when the
score strictly exceeds tau; tau itself comes from a labeled score set
by maximizing TPR - FPR on a fixed grid under a false-positive cap.

Run from anywhere:  python3 demos/05_fingerprints_and_thresholds.py
"""

import json
from pathlib import Path

from binrisk import (
    ConfusionCounts,
    Granularity,
    HashEmbedder,
    Lattice,
    ModelConfig,
    build_corpus,
    classification_metrics,
    extract_relations,
    forward,
    init_params,
    load_cpg,
    load_repository,
    match_and_alert,
    roc_auc,
    load_rules,
    RuleAnnotator,
    select_threshold,
    semantic_clustering,
    structural_collapse,
    SsckgGraph,
)
from binrisk.ssckg import embed_entities

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def embeddings_for(cpg_name):
    g = load_cpg(FIXTURES / cpg_name)
    lat = Lattice.from_file(FIXTURES / "lattice.json")
    provider = HashEmbedder(dimension=384, seed=42)
    corpus = build_corpus(g, g.function_ids, RuleAnnotator(load_rules(FIXTURES / "rules.json"), lat))
    entities = embed_entities(structural_collapse(g, Granularity.FUNCTION, corpus),
                              provider)
    if any(e.external for e in entities):
        entities = semantic_clustering(entities, provider, eps=0.3, min_samples=2)
    kg = SsckgGraph(entities, extract_relations(g, entities))
    cfg = ModelConfig(layers=2, heads=4, hidden_dim=64, max_dist=6,
                      edge_types=8, input_dim=384, seed=42)
    return forward(kg, init_params(cfg))


def main():
    # pick the operating point from a labeled score set first
    rows = json.loads((FIXTURES / "threshold_scores.json").read_text())
    scores = [(row["score"], row["label"]) for row in rows]
    report = select_threshold(scores, fpr_cap=0.05)
    print(f"threshold sweep over {len(scores)} labeled scores:")
    print(f"  tau = {report.tau}  TPR = {report.tpr:.3f}  FPR = {report.fpr:.3f}"
          f"  (J = {report.j_statistic:.3f}, cap satisfied: {report.fpr_cap_satisfied})")
    auc = roc_auc([s for s, _ in scores], [lab for _, lab in scores])
    print(f"  ranking quality, AUC = {auc:.3f}")

    # the same cutoff as a confusion matrix, for reporting
    tp = sum(1 for s, lab in scores if lab == "malicious" and s > report.tau)
    fn = sum(1 for s, lab in scores if lab == "malicious" and s <= report.tau)
    fp = sum(1 for s, lab in scores if lab == "benign" and s > report.tau)
    tn = sum(1 for s, lab in scores if lab == "benign" and s <= report.tau)
    m = classification_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
    print(f"  at tau: precision {m.precision:.3f}, recall {m.recall:.3f}, "
          f"F1 {m.f1:.3f}, MCC {m.mcc:.3f}")

    repo = load_repository(FIXTURES / "fingerprints")
    print(f"\nloaded {len(repo)} stored fingerprints: "
          f"{', '.join(f.name for f in repo)}")

    for name in ("toy_modbus.cpg.json", "firmware_update.cpg.json"):
        ids, vectors = embeddings_for(name)
        results = match_and_alert(ids, vectors, repo, tau=report.tau)
        print(f"\n{name}:")
        for r in results:
            mark = "ALERT" if r.alert else "ok"
            print(f"  {r.fingerprint:<12} similarity {r.similarity:.3f}  {mark}")
            if r.alert:
                pairs = ", ".join(f"fp node {a} ~ entity {b} ({s:.2f})"
                                  for a, b, s in r.pairs)
                print(f"    matched pairs: {pairs}")


if __name__ == "__main__":
    main()
