"""Output checks that need no stored copy of an earlier run.

Every expected value is either recomputed here from the generator's
ground truth and the program's own input files, or is a property the
method must have.  Each check returns a list of problems; empty means
the outputs hold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

# Files that `report` and the seven stage subcommands both write.
SHARED_SUFFIXES = (".cpg.json", ".corpus.jsonl", ".kg.json", ".embeddings.json",
                   ".risk.json", ".alerts.json", ".dot")


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_binary(outdir: Path, truth: dict, cfg: dict, fingerprints: dict) -> list[str]:
    """Check every file `report` wrote for one binary."""
    bid = truth["binary_id"]
    problems: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{bid}: {what}")

    report = load_json(outdir / f"{bid}.report.json")
    kg = load_json(outdir / f"{bid}.kg.json")
    n_nodes, n_fns = truth["nodes"], truth["functions"]

    need(report["stats"]["cpg_nodes"] == n_nodes,
         f"stats.cpg_nodes {report['stats']['cpg_nodes']} != generated {n_nodes}")
    need(report["stats"]["entities"] == len(kg["entities"]), "stats.entities != kg entities")

    trailer = json.loads(
        (outdir / f"{bid}.corpus.jsonl").read_text(encoding="utf-8").splitlines()[-1])["trailer"]
    for doc, where in ((trailer, "corpus trailer"), (report["corpus"], "report corpus")):
        need((doc["accepted"], doc["rejected"], doc["failed"]) == (n_fns, 0, 0),
             f"{where} {doc} != accepted {n_fns}, rejected 0, failed 0")

    # Entity members partition the node ids, each entity a union of whole functions.
    entity_of = np.full(n_nodes, -1)
    k = truth["nodes_per_function"]
    for ent in kg["entities"]:
        members = np.asarray(ent["members"], dtype=np.int64)
        need(len(members) > 0 and members.min() >= 0 and members.max() < n_nodes,
             f"entity {ent['id']} has members outside the generated ids")
        need(bool(np.all(entity_of[members] == -1)), f"entity {ent['id']} overlaps another")
        entity_of[members] = ent["id"]
        need(len(members) % k == 0 and len(set((members // k).tolist())) * k == len(members),
             f"entity {ent['id']} is not a union of whole functions")
    need(bool(np.all(entity_of >= 0)), "entity members miss generated nodes")
    if problems:
        return problems

    # `calls` relations: the generated call edges mapped through membership.
    expected_calls = {(int(entity_of[s]), int(entity_of[d])) for s, d in truth["call_edges"]
                      if entity_of[s] != entity_of[d]}
    got_calls = {(r["src"], r["dst"]) for r in kg["relations"] if r["rel_type"] == "calls"}
    need(got_calls == expected_calls,
         f"calls relations: {len(got_calls)} found, {len(expected_calls)} expected, "
         f"{len(got_calls ^ expected_calls)} differ")

    # One finite, model-width vector per entity, mean 0 and variance 1 by
    # the last layer norm (gain 1, offset 0 at seeded init).
    emb = load_json(outdir / f"{bid}.embeddings.json")
    ids = sorted(e["id"] for e in kg["entities"])
    need(sorted(int(key) for key in emb) == ids, "embeddings do not cover the entities")
    mat = np.asarray([emb[str(i)] for i in ids], dtype=np.float64)
    need(mat.shape == (len(ids), cfg["model_hidden_dim"]), f"embedding shape {mat.shape}")
    need(bool(np.all(np.isfinite(mat))), "non-finite embedding values")
    need(float(np.abs(mat.mean(axis=1)).max()) < 1e-9, "embedding row mean is not 0")
    need(float(np.abs(mat.var(axis=1) - 1.0).max()) < 1e-6, "embedding row variance is not 1")

    problems += check_risk(load_json(outdir / f"{bid}.risk.json"), kg, cfg, bid)
    problems += check_alerts(load_json(outdir / f"{bid}.alerts.json"), ids, mat, cfg,
                             fingerprints, bid)

    dot = (outdir / f"{bid}.dot").read_text(encoding="utf-8").splitlines()
    need(dot[0] == "digraph ssckg {" and dot[-1] == "}", "DOT is not one digraph")
    need(sum(1 for line in dot if " -> " in line) == len(kg["relations"]),
         "DOT edge count != relation count")
    return problems


def check_risk(risk: dict, kg: dict, cfg: dict, bid: str) -> list[str]:
    """Scores against a sparse solve of the damped fixed point."""
    problems = []
    ranking = risk["ranking"]
    ids = sorted(e["id"] for e in kg["entities"])
    index = {eid: i for i, eid in enumerate(ids)}
    if sorted(r["entity_id"] for r in ranking) != ids:
        return [f"{bid}: risk ranking does not cover the entities"]
    scores = np.array([r["score"] for r in ranking])
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        problems.append(f"{bid}: risk score outside [0, 1]")
    keys = [(-r["score"], r["entity_id"]) for r in ranking]
    if keys != sorted(keys):
        problems.append(f"{bid}: ranking is not sorted")
    if not (risk["residual"] < cfg["tolerance"] and risk["iterations"] <= cfg["max_iterations"]):
        problems.append(f"{bid}: propagation did not stop within tolerance")

    inherent = np.zeros(len(ids))
    for r in ranking:
        inherent[index[r["entity_id"]]] = r["inherent"]
    weights: dict[tuple[int, int], float] = {}
    for r in kg["relations"]:
        if r["rel_type"] == "vulnerable_to" or r["src"] == r["dst"]:
            continue
        key = (index[r["dst"]], index[r["src"]])
        weights[key] = weights.get(key, 0.0) + r["weight"]
    n = len(ids)
    rows = np.array([k[0] for k in weights], dtype=np.int64)
    cols = np.array([k[1] for k in weights], dtype=np.int64)
    vals = np.array(list(weights.values()))
    totals = np.bincount(rows, weights=vals, minlength=n)
    beta = cfg["beta"]
    connected = totals > 0
    trans = csr_matrix(((1.0 - beta) * vals / totals[rows], (rows, cols)), shape=(n, n))
    rhs = np.where(connected, beta * inherent, inherent)
    exact = spsolve((identity(n, format="csr") - trans).tocsc(), rhs)
    got = np.zeros(n)
    for r in ranking:
        got[index[r["entity_id"]]] = r["score"]
    # The synchronous update contracts by (1 - beta) in the max norm, so an
    # iterate whose L1 step is below tol lies within tol * (1 - beta) / beta.
    bound = cfg["tolerance"] * (1.0 - beta) / beta + 1e-12
    err = float(np.abs(got - exact).max())
    if err > bound:
        problems.append(f"{bid}: risk scores differ from the sparse solve by {err:.3g} > {bound:.3g}")
    return problems


def check_alerts(alerts: dict, ids: list[int], mat: np.ndarray, cfg: dict,
                 fingerprints: dict, bid: str) -> list[str]:
    """Similarities recomputed from the vectors; planted hits, decoy stays cold."""
    problems = []
    tau = cfg["tau"]
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    by_name = {m["fingerprint"]: m for m in alerts["matches"]}
    if sorted(by_name) != sorted(fingerprints):
        return [f"{bid}: matched {sorted(by_name)}, repository holds {sorted(fingerprints)}"]
    for name, fp in fingerprints.items():
        vecs = np.asarray(fp["vectors"])
        cos = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)) @ unit.T
        sim = float(np.clip(cos, 0.0, None).max(axis=1).mean())
        got = by_name[name]
        if abs(got["similarity"] - sim) > 1e-9 or got["alert"] != (sim > tau):
            problems.append(f"{bid}: {name} similarity {got['similarity']} != {sim}")
        if fp.get("target") == bid and not (abs(sim - 1.0) < 1e-9 and got["alert"]):
            problems.append(f"{bid}: planted fingerprint {name} scored {sim}, no alert")
        if fp.get("decoy") and sim >= tau:
            problems.append(f"{bid}: decoy {name} reached {sim} >= tau {tau}")
    expected = sorted(m["fingerprint"] for m in alerts["matches"] if m["alert"])
    if alerts["alerts"] != expected:
        problems.append(f"{bid}: alert list {alerts['alerts']} != {expected}")
    return problems
