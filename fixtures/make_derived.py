"""Regenerate the derived fixtures in this directory.

Produces fingerprints/planted_apt.json, fingerprints/decoy_apt.json,
and threshold_scores.json, and re-checks every number the fixture
README quotes (entity labels, relation sets, risk ranking, cluster
assignment, fingerprint similarities).  Run from the repo root after
installing the package:

    python3 fixtures/make_derived.py

The planted fingerprint is built by blending unit vectors at a fixed
cosine of 0.94 against the transformer outputs of two entities of the
firmware_update fixture, so matching it against that binary always
scores well above the 0.78 alert threshold.  The decoy uses seeded
random directions, which in 64 dimensions stay near-orthogonal to
everything.
"""

import json
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from binrisk.config import PipelineConfig
from binrisk.fingerprint import Fingerprint, dumps_fingerprint, load_repository, match_and_alert
from binrisk.graphormer import load_embeddings
from binrisk.cpg import load_cpg
from binrisk.lifting import build_corpus
from binrisk.pipeline import (
    build_annotator,
    build_cves,
    build_kg,
    build_lattice,
    build_provider,
    run_pipeline,
    write_atomic,
)
from binrisk.ssckg import RELATION_TYPES, load_ssckg

HERE = Path(__file__).resolve().parent
SEED = 42
PLANT_COSINE = 0.94
TAU = 0.78


def blend_at_cosine(target: np.ndarray, rng: np.random.Generator, c: float) -> np.ndarray:
    """Unit vector whose cosine against target is exactly c."""
    z = target / np.linalg.norm(target)
    w = rng.standard_normal(target.shape[0])
    w = w - (w @ z) * z
    w = w / np.linalg.norm(w)
    return c * z + np.sqrt(1.0 - c * c) * w


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}" + (f": {detail}" if detail else ""))
    if not ok:
        raise SystemExit(f"fixture invariant broken: {name} {detail}")


def relation_triples(kg):
    cols = kg.relation_columns
    types = [RELATION_TYPES[c].value for c in cols.type_code.tolist()]
    return sorted(zip(cols.src.tolist(), types, map(str, cols.dst_values())))


def main() -> None:
    # The repo may not exist yet; it is built below.
    cfg = replace(PipelineConfig.from_file(HERE / "config_firmware.json"), fingerprints_dir=None)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        print("toy_modbus checks")
        toy_cfg = PipelineConfig.from_file(HERE / "config_toy.json")
        [report] = run_pipeline(toy_cfg, [HERE / "toy_modbus.cpg.json"], tmp / "toy")
        toy_report = json.loads((tmp / "toy" / "toy_modbus.report.json").read_text("utf-8"))
        kg = load_ssckg(tmp / "toy" / "toy_modbus.kg.json")
        labels = {e.id: str(e.label) for e in kg.entities}
        check("entity labels", labels == {
            0: "TOP",
            1: "Network/Socket_Init",
            2: "Network/Protocol_Parse",
            3: "Hardware/Register_Read",
            4: "Hardware/Coil_Write",
        }, str(labels))
        triples = relation_triples(kg)
        expected = sorted([
            (0, "calls", "1"), (0, "calls", "2"),
            (2, "calls", "3"), (2, "calls", "4"),
            (2, "reads_from", "3"), (2, "writes_to", "4"),
            (2, "taints", "4"), (2, "reaches", "4"),
            (4, "vulnerable_to", "CVE-TEST-0001"),
        ], key=lambda t: (t[0], t[1], t[2]))
        check("relation set (9 incl CVE link)", triples == expected, str(triples))
        ranking = toy_report["risk"]["ranking"]
        check("taint sink ranks first", ranking[0]["name"] == "write_coil",
              json.dumps([(r["name"], round(r["score"], 4)) for r in ranking]))
        inh = {r["name"]: r["inherent"] for r in ranking}
        check("coil CVE match dominates", inh["write_coil"] >= 0.85
              and all(v < 0.6 for k, v in inh.items() if k != "write_coil"),
              json.dumps({k: round(v, 3) for k, v in inh.items()}))
        check("no alerts without a repo", report.alerts == ())

        print("firmware_update checks")
        g = load_cpg(HERE / "firmware_update.cpg.json")
        corpus = build_corpus(g, g.function_ids, build_annotator(cfg, build_lattice(cfg)))
        provider = build_provider(cfg)
        kg = build_kg(g, corpus, cfg, provider, build_cves(cfg, provider))
        check("clustering merged the socket pair",
              kg.clustering == {"points": 3, "noise": 1, "clusters": 1},
              str(kg.clustering))
        names = {e.id: e.name for e in kg.entities}
        check("merged entity id and name", names.get(1) == "net_fetch.c0", str(names))
        check("cfg_load left as noise singleton",
              next(e.cluster_id for e in kg.entities if e.name == "cfg_load") == -1)
        triples = relation_triples(kg)
        expected = sorted([
            (0, "calls", "1"), (0, "calls", "3"),
            (0, "calls", "4"), (0, "calls", "5"),
            (1, "writes_to", "4"), (3, "writes_to", "4"),
            (3, "taints", "4"), (3, "reaches", "4"),
            (4, "vulnerable_to", "CVE-TEST-0002"),
        ], key=lambda t: (t[0], t[1], t[2]))
        check("relation set (9 incl CVE link)", triples == expected, str(triples))

        [fw_report] = run_pipeline(cfg, [HERE / "firmware_update.cpg.json"], tmp / "fw_run")
        ids, vectors = load_embeddings(tmp / "fw_run" / "firmware_update.embeddings.json")
        by_id = dict(zip(ids.tolist(), vectors))

        print("fingerprint construction")
        rng = np.random.default_rng(SEED)
        plant_ids = [4, 3]  # flash_write entity, cfg_load entity
        planted = Fingerprint(
            name="planted_apt", entity_ids=np.arange(len(plant_ids)),
            vectors=np.stack([blend_at_cosine(by_id[eid], rng, PLANT_COSINE) for eid in plant_ids]),
            provenance="synthetic fixture: 0.94-cosine blend against firmware_update entities 4 and 3")
        decoy = Fingerprint(
            name="decoy_apt", entity_ids=np.arange(2),
            vectors=np.stack([v / np.linalg.norm(v) for v in rng.standard_normal((2, cfg.model_hidden_dim))]),
            provenance="synthetic fixture: seeded random directions")
        repo_dir = HERE / "fingerprints"
        repo_dir.mkdir(exist_ok=True)
        write_atomic(repo_dir / "planted_apt.json", dumps_fingerprint(planted))
        write_atomic(repo_dir / "decoy_apt.json", dumps_fingerprint(decoy))

        repo = load_repository(repo_dir)
        matches = match_and_alert(ids, vectors, repo, TAU)
        by_name = {m.fingerprint: m for m in matches}
        check("planted similarity above threshold",
              by_name["planted_apt"].similarity > TAU,
              f"sim={by_name['planted_apt'].similarity:.4f}")
        check("planted similarity near design value",
              abs(by_name["planted_apt"].similarity - PLANT_COSINE) < 0.05,
              f"sim={by_name['planted_apt'].similarity:.4f}")
        check("decoy stays cold", by_name["decoy_apt"].similarity < 0.5,
              f"sim={by_name['decoy_apt'].similarity:.4f}")
        check("exactly one alert",
              [m.fingerprint for m in matches if m.alert] == ["planted_apt"])
        pair_hits = {p[0]: p[1] for p in by_name["planted_apt"].pairs}
        check("blend nodes hit their intended entities",
              pair_hits == {0: 4, 1: 3}, str(pair_hits))
        check("firmware run itself stays alert-free without repo wiring",
              fw_report.alerts == ())

    print("threshold score fixture")
    rows = ([{"score": 0.30, "label": "benign"}] * 949
            + [{"score": 0.775, "label": "benign"}] * 13
            + [{"score": 0.785, "label": "benign"}] * 38
            + [{"score": 0.40, "label": "malicious"}] * 280
            + [{"score": 0.90, "label": "malicious"}] * 620
            + [{"score": 0.785, "label": "malicious"}] * 100)
    rng = np.random.default_rng(SEED)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    counts = Counter(r["label"] for r in rows)
    check("class sizes", counts == Counter(benign=1000, malicious=1000), str(counts))

    from binrisk.fingerprint import select_threshold
    report = select_threshold([(r["score"], r["label"]) for r in rows])
    check("selected tau", abs(report.tau - 0.78) < 1e-12, f"tau={report.tau}")
    check("tpr", abs(report.tpr - 0.720) < 1e-12, f"tpr={report.tpr}")
    check("fpr", abs(report.fpr - 0.038) < 1e-12, f"fpr={report.fpr}")
    check("cap satisfied", report.fpr_cap_satisfied)

    out = HERE / "threshold_scores.json"
    out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(HERE.parent)}")
    print("all fixture invariants hold")


if __name__ == "__main__":
    main()
