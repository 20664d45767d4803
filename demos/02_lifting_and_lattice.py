"""Lift stripped functions onto the behavior lattice, with a verifier gate.

Labels live in a three-tier containment hierarchy (category, action,
risk context) under a top element meaning "unknown behavior".  An
annotator proposes a label, a summary, and data-flow claims per
function; the corpus builder keeps an annotation only when every claim
checks out against the graph.  The point of the gate is that a wrong
claim costs the whole annotation, so the accepted corpus is clean by
construction.

Run from anywhere:  python3 demos/02_lifting_and_lattice.py
"""

from pathlib import Path

import numpy as np

from binrisk import (
    TOP,
    Annotation,
    EvrMode,
    GoldenRecord,
    Label,
    Lattice,
    build_corpus,
    evr,
    join,
    leq,
    load_cpg,
    load_rules,
    RuleAnnotator,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show_order(lat):
    coil = lat.parse("Hardware/Coil_Write")
    unauth = lat.parse("Hardware/Coil_Write/Unauthenticated_Coil_Write")
    sock = lat.parse("Network/Socket_Init")
    print(f"labels: {lat.counts[0]} categories, {lat.counts[1]} actions, "
          f"{lat.counts[2]} risk contexts, plus TOP")
    print(f"  {unauth} <= {coil}: {leq(unauth, coil)}")
    print(f"  {coil} <= {sock}: {leq(coil, sock)}")
    print(f"  join({unauth}, {coil}) = {join(unauth, coil)}")
    print(f"  join({coil}, {sock}) = {join(coil, sock)}  (nearest common ancestor)")


class OverclaimingAnnotator:
    """Copies the rule annotator but invents a backwards flow for one function."""

    def __init__(self, inner):
        self.inner = inner

    def annotate(self, view, context):
        ann = self.inner.annotate(view, context)
        if view.function_id == 4:  # the coil writer: claim it feeds the parser
            return Annotation(ann.function_id, ann.label, ann.summary,
                              claims=np.array([[17, 9]], dtype=np.int64))
        return ann


def main():
    lat = Lattice.from_file(FIXTURES / "lattice.json")
    show_order(lat)

    g = load_cpg(FIXTURES / "toy_modbus.cpg.json")
    honest = RuleAnnotator(load_rules(FIXTURES / "rules.json"), lat)

    corpus = build_corpus(g, g.function_ids, honest)
    print(f"\nhonest annotator: {len(corpus.accepted)} accepted, "
          f"{corpus.rejected_count} rejected")
    for ann in corpus.accepted:
        claims = ", ".join(f"{src}->{dst}" for src, dst in ann.claims.tolist()) or "none"
        print(f"  function {ann.function_id}: {ann.label}  claims: {claims}")

    gated = build_corpus(g, g.function_ids, OverclaimingAnnotator(honest))
    print(f"\noverclaiming annotator: {len(gated.accepted)} accepted, "
          f"{gated.rejected_count} rejected "
          f"(rejection rate {gated.rejection_rate:.2f})")

    # measuring label quality against a reference set: cover mode only
    # counts predictions that fail to contain the truth; exact mode also
    # counts coarser-than-truth predictions
    records = [
        GoldenRecord("a", lat.parse("Hardware/Coil_Write"), lat.parse("Hardware/Coil_Write")),
        GoldenRecord("b", lat.parse("Hardware/Coil_Write"), lat.parse("Hardware")),
        GoldenRecord("c", lat.parse("Network/Socket_Init"), TOP),
        GoldenRecord("d", lat.parse("Memory"), lat.parse("Network")),
    ]
    print(f"\nviolation rate, cover mode:      "
          f"{evr(records, EvrMode.LATTICE_COVER):.2f}  (only the cross-category miss)")
    print(f"violation rate, exact-match mode: "
          f"{evr(records, EvrMode.EXACT_TIER_MATCH):.2f}  (coarse and top count too)")


if __name__ == "__main__":
    main()
