"""Score entity risk: CVE-seeded inherent values plus damped propagation.

Inherent risk is the best cosine match between an entity's summary and
any CVE description.  Risk then flows along the typed relations with a
damping mix: each sweep replaces an entity's score with
beta * inherent + (1 - beta) * (convex combination of in-neighbors).
The fixed point rewards entities that are both suspicious on their own
and downstream of other suspicious code.

Run from anywhere:  python3 demos/04_risk_scoring.py
"""

from pathlib import Path

from binrisk import (
    Granularity,
    HashEmbedder,
    Lattice,
    NonConvergence,
    PropagationConfig,
    SsckgGraph,
    build_corpus,
    extract_relations,
    inherent_risk,
    load_cpg,
    propagate,
    load_rules,
    RuleAnnotator,
    structural_collapse,
)
from binrisk.ssckg import embed_entities, load_cves

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def build_kg():
    g = load_cpg(FIXTURES / "toy_modbus.cpg.json")
    lat = Lattice.from_file(FIXTURES / "lattice.json")
    provider = HashEmbedder(dimension=384, seed=42)
    corpus = build_corpus(g, g.function_ids, RuleAnnotator(load_rules(FIXTURES / "rules.json"), lat))
    entities = embed_entities(structural_collapse(g, Granularity.FUNCTION, corpus),
                              provider)
    cves = load_cves(FIXTURES / "cves.json", provider)
    relations = extract_relations(g, entities, cves, cve_match_threshold=0.85)
    return SsckgGraph(entities, relations, source_binary=g.binary_id), cves


def main():
    kg, cves = build_kg()
    names = {e.id: e.name for e in kg.entities}

    inherent = inherent_risk(kg, cves)
    print("inherent risk (best CVE description match per summary):")
    for eid, val in inherent.items():
        print(f"  {names[eid]:<14} {val:.3f}")

    cfg = PropagationConfig(beta=0.15, tolerance=1e-9, max_iterations=500)
    result = propagate(kg, inherent, cfg)
    print(f"\nconverged in {result.iterations} sweeps "
          f"(final L1 change {result.residual:.2e})")

    # composite = beta * inherent + (1 - beta) * upstream mix, so raw
    # inherent scores shrink unless in-neighbors keep feeding risk
    ranked = sorted(result.scores.items(), key=lambda kv: -kv[1])
    print("composite ranking (inherent -> converged):")
    for eid, score in ranked:
        print(f"  {names[eid]:<14} {inherent[eid]:.3f} -> {score:.3f}")

    # write_coil stays on top: suspicious wording of its own (the
    # planted CVE match) plus a tainted parser directly upstream

    full_damping = propagate(kg, inherent, PropagationConfig(beta=1.0))
    print("\nbeta = 1 switches propagation off; scores equal inherent:",
          all(full_damping.scores[i] == inherent[i] for i in inherent))

    try:
        propagate(kg, inherent, PropagationConfig(beta=0.15, tolerance=1e-15,
                                                  max_iterations=2))
    except NonConvergence as exc:
        print(f"tight budgets fail loudly: {exc}")


if __name__ == "__main__":
    main()
