"""Compress a program graph into a small typed knowledge graph.

Three moves, in order.  Structural collapse folds every function's
nodes into one entity carrying the lifted label and summary.  Semantic
clustering then merges externally-linked entities whose summaries land
in the same density cluster, which is how the same shared routine seen
from several call sites becomes one node.  Relation extraction finally
derives typed, weighted edges (calls, reads_from, writes_to, taints,
reaches, vulnerable_to) from the underlying graph plus a CVE corpus.

Run from anywhere:  python3 demos/03_knowledge_graph.py
"""

from pathlib import Path

from binrisk import (
    Granularity,
    HashEmbedder,
    Lattice,
    build_corpus,
    construction_stats,
    extract_relations,
    load_cpg,
    load_rules,
    RuleAnnotator,
    semantic_clustering,
    structural_collapse,
    SsckgGraph,
)
from binrisk.ssckg import RELATION_TYPES, embed_entities, load_cves, to_dot

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
OUT = Path(__file__).resolve().parent.parent / "build" / "demo_out"


def main():
    g = load_cpg(FIXTURES / "firmware_update.cpg.json")
    lat = Lattice.from_file(FIXTURES / "lattice.json")
    provider = HashEmbedder(dimension=384, seed=42)

    corpus = build_corpus(g, g.function_ids, RuleAnnotator(load_rules(FIXTURES / "rules.json"), lat))
    print(f"'{g.binary_id}': {len(g)} nodes, "
          f"{len(corpus.accepted)} lifted functions")

    entities = structural_collapse(g, Granularity.FUNCTION, corpus)
    entities = embed_entities(entities, provider)
    print(f"\nafter structural collapse: {len(entities)} entities")
    for e in entities:
        flag = "external" if e.external else "local"
        print(f"  [{e.id}] {e.name:<14} {str(e.label):<28} {flag}")

    eligible = sum(1 for e in entities if e.external)
    entities = semantic_clustering(entities, provider, eps=0.3, min_samples=2)
    print(f"\nafter semantic clustering: {len(entities)} entities")
    for e in entities:
        members = ",".join(map(str, e.members.tolist()))
        cl = {None: "untouched", -1: "noise"}.get(e.cluster_id, f"cluster {e.cluster_id}")
        print(f"  [{e.id}] {e.name:<14} {str(e.label):<28} members {members:<9} {cl}")
    clustering = {"points": eligible,
                  "noise": sum(1 for e in entities if e.cluster_id == -1),
                  "clusters": len({e.cluster_id for e in entities
                                   if e.cluster_id is not None and e.cluster_id >= 0})}

    cves = load_cves(FIXTURES / "cves.json", provider)
    relations = extract_relations(g, entities, cves, cve_match_threshold=0.85)
    print(f"\nextracted {len(relations)} relations against {len(cves)} CVE records:")
    types = [RELATION_TYPES[code].value for code in relations.type_code.tolist()]
    for src, rel_type, dst, weight in zip(relations.src.tolist(), types,
                                          relations.dst_values(), relations.weight.tolist()):
        print(f"  {src} -{rel_type}-> {dst}  (weight {weight})")

    kg = SsckgGraph(entities, relations, source_binary=g.binary_id,
                    clustering=clustering)
    stats = construction_stats(g, kg)
    print("\nconstruction stats:")
    for key, val in stats.items():
        print(f"  {key}: {val:.3f}" if isinstance(val, float) else f"  {key}: {val}")

    OUT.mkdir(parents=True, exist_ok=True)
    dot_path = OUT / "firmware_update.dot"
    dot_path.write_text(to_dot(kg), encoding="utf-8")
    print(f"\nwrote graphviz source to {dot_path}")
    print("render with: dot -Tsvg -O", dot_path)


if __name__ == "__main__":
    main()
