"""Pipeline stages and the end-to-end runner.

Each stage is a core over in-memory objects (``lift``, ``build_kg``,
``transform``, ``score``, ``match``, ``render_dot``) plus a ``stage_*``
wrapper that loads the stage's input files, runs the core and writes
its output, which is what each CLI subcommand calls.  ``report``
(``run_pipeline``) takes the binaries one at a time: it parses each
CPG once, ``run_one`` chains the cores in memory, and the graph is
dropped before the next CPG is parsed.  Files are its outputs, not the
transport between its stages.  It writes every intermediate through the
same serializer the wrapper uses, so running the subcommands by hand
against the same config writes the same bytes.  Its files go to a
staging directory first and are moved into the output directory only
once every binary is done, so ``report`` writes every binary's files or
none.  ``write_atomic`` (temp file + rename) is the one write path, and
all serialization is canonical (sorted keys, no timestamps), so a
repeated run over the same inputs reproduces every byte.  The CPG,
knowledge-graph and embeddings files are written from their chunk
generators, so no whole file's text is held at once.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .config import PipelineConfig
from .cpg import CpgGraph, _is_id, cpg_chunks, load_cpg
from .embedding import FileEmbeddings, HashEmbedder
from .errors import ConfigError, SchemaError, dumps_json, read_json
from .fingerprint import load_repository, match_and_alert, select_threshold
from .graphormer import (
    ModelConfig,
    NodeEmbedding,
    embeddings_chunks,
    forward,
    load_embeddings,
    load_params,
    seeded_params,
)
from .lattice import Lattice
from .lifting import (
    CommandAnnotator,
    ReplayAnnotator,
    RuleAnnotator,
    VerifiedCorpus,
    build_corpus,
    dumps_corpus,
    load_corpus,
    load_rules,
)
from .risk import PropagationConfig, inherent_risk, propagate
from .ssckg import (
    Granularity,
    RelationConfig,
    RelationType,
    SsckgGraph,
    construction_stats,
    embed_entities,
    extract_relations,
    load_cves,
    load_ssckg,
    semantic_clustering,
    ssckg_chunks,
    structural_collapse,
    to_dot,
)


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or the concatenation of an iterable of text chunks, to
    path: to a temporary file beside it, renamed over it once complete.

    The file gets the mode ``open`` would give a new file under the
    process umask, not the owner-only mode of the temporary file.
    """
    if isinstance(text, str):
        text = (text,)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    umask = os.umask(0)  # reading the umask means setting it; it is put back at once
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- component builders -------------------------------------------------------

def build_lattice(cfg: PipelineConfig) -> Lattice:
    if cfg.lattice_path:
        return Lattice.from_file(cfg.lattice_path)
    return Lattice.default()


def build_provider(cfg: PipelineConfig):
    if cfg.embedding_type == "file":
        if not cfg.embedding_path:
            raise ConfigError("embedding_type 'file' needs embedding_path")
        return FileEmbeddings(cfg.embedding_path)
    return HashEmbedder(dimension=cfg.embedding_dimension, seed=cfg.seed)


def build_annotator(cfg: PipelineConfig, lattice: Lattice):
    if cfg.annotator_type == "rules":
        return RuleAnnotator(load_rules(cfg.rules_path) if cfg.rules_path else [], lattice)
    if cfg.annotator_type == "replay":
        if not cfg.replay_path:
            raise ConfigError("annotator 'replay' needs replay_path")
        return ReplayAnnotator(cfg.replay_path, lattice)
    if not cfg.annotator_cmd:
        raise ConfigError("annotator 'cmd' needs annotator_cmd")
    return CommandAnnotator(cfg.annotator_cmd, lattice)


def build_relation_config(cfg: PipelineConfig) -> RelationConfig:
    rel_cfg = RelationConfig()
    if cfg.structural_edge_labels:
        rel_cfg.structural_edge_labels = {
            label: RelationType(value)
            for label, value in cfg.structural_edge_labels.items()}
    if cfg.read_actions:
        rel_cfg.read_actions = tuple(cfg.read_actions)
    if cfg.write_actions:
        rel_cfg.write_actions = tuple(cfg.write_actions)
    if cfg.taint_sources:
        rel_cfg.taint_sources = tuple(cfg.taint_sources)
    if cfg.taint_sinks:
        rel_cfg.taint_sinks = tuple(cfg.taint_sinks)
    if cfg.relation_weights:
        weights = dict(rel_cfg.weights)
        for name, value in cfg.relation_weights.items():
            weights[RelationType(name)] = float(value)
        rel_cfg.weights = weights
    return rel_cfg


# --- stage cores -----------------------------------------------------------------

def lift(g: CpgGraph, cfg: PipelineConfig) -> VerifiedCorpus:
    """Annotate every function and keep the verifier-approved corpus."""
    annotator = build_annotator(cfg, build_lattice(cfg))
    return build_corpus(g, g.function_ids, annotator)


def build_kg(g: CpgGraph, corpus: VerifiedCorpus, cfg: PipelineConfig) -> SsckgGraph:
    """Collapse the graph to entities, cluster, and extract relations."""
    provider = build_provider(cfg)
    entities = structural_collapse(g, Granularity(cfg.granularity), corpus)
    entities = embed_entities(entities, provider)
    eligible = sum(1 for e in entities if e.external)
    clustering = None
    if eligible:
        entities = semantic_clustering(entities, provider,
                                       eps=cfg.dbscan_eps,
                                       min_samples=cfg.dbscan_min_samples)
        noise = sum(1 for e in entities if e.cluster_id == -1)
        clusters = len({e.cluster_id for e in entities
                        if e.cluster_id is not None and e.cluster_id >= 0})
        clustering = {"points": eligible, "noise": noise, "clusters": clusters}
    cves = load_cves(cfg.cves_path, provider) if cfg.cves_path else []
    relations = extract_relations(
        g, entities, cves, cve_match_threshold=cfg.cve_match_threshold,
        config=build_relation_config(cfg))
    return SsckgGraph(entities, relations, source_binary=g.binary_id,
                      clustering=clustering)


def transform(kg: SsckgGraph, cfg: PipelineConfig) -> list[NodeEmbedding]:
    """Run the graph transformer: one vector per entity."""
    dims = {e.embedding.dimension for e in kg.entities if e.embedding is not None}
    model_cfg = ModelConfig(
        layers=cfg.model_layers, heads=cfg.model_heads,
        hidden_dim=cfg.model_hidden_dim, max_dist=cfg.model_max_dist,
        input_dim=dims.pop() if len(dims) == 1 else cfg.embedding_dimension,
        seed=cfg.seed)
    if cfg.params_path:
        return forward(kg, load_params(cfg.params_path, expected=model_cfg))
    return forward(kg, seeded_params(model_cfg))


def score(kg: SsckgGraph, cfg: PipelineConfig) -> dict:
    """Inherent risk from CVE matching, then damped propagation."""
    provider = build_provider(cfg)
    cves = load_cves(cfg.cves_path, provider) if cfg.cves_path else []
    inherent = {e.id: inherent_risk(e, cves) for e in kg.entities}
    result = propagate(kg, inherent, PropagationConfig(
        beta=cfg.beta, tolerance=cfg.tolerance,
        max_iterations=cfg.max_iterations))
    ranking = []
    for ent in kg.entities:
        value = result.scores[ent.id]
        inh = inherent[ent.id]
        # Split the converged score into its damped inherent part and
        # what arrived over relations; isolated entities are all inherent.
        if ent.id in result.connected:
            inherent_part = cfg.beta * inh
            propagated = value - inherent_part
        else:
            inherent_part = inh
            propagated = 0.0
        ranking.append({
            "entity_id": ent.id,
            "name": ent.name,
            "label": str(ent.label),
            "score": value,
            "inherent": inh,
            "inherent_contribution": inherent_part,
            "propagated_contribution": propagated,
        })
    ranking.sort(key=lambda row: (-row["score"], row["entity_id"]))
    return {
        "beta": cfg.beta,
        "iterations": result.iterations,
        "residual": result.residual,
        "ranking": ranking,
    }


def match(embeddings: Sequence[NodeEmbedding], repo_dir: str | Path, tau: float) -> dict:
    """Score the fingerprint repository against target embeddings."""
    matches = match_and_alert(embeddings, load_repository(repo_dir), tau)
    return {
        "tau": tau,
        "matches": [
            {
                "fingerprint": m.fingerprint,
                "similarity": m.similarity,
                "alert": m.alert,
                "pairs": [list(p) for p in m.pairs],
            }
            for m in matches
        ],
        "alerts": sorted(m.fingerprint for m in matches if m.alert),
    }


def render_dot(kg: SsckgGraph, risk_doc: Mapping | None, cfg: PipelineConfig) -> str:
    """DOT text of the graph, colored by the risk document's scores if given."""
    risk_scores = None
    if risk_doc is not None:
        risk_scores = {row["entity_id"]: row["score"] for row in risk_doc["ranking"]}
    return to_dot(kg, risk=risk_scores, bands=cfg.risk_bands)


def load_risk(path: str | Path) -> dict:
    """A risk file, as ``score`` writes it: its ``ranking`` is a list of
    objects, each with an integer ``entity_id`` and a finite ``score``."""
    doc = read_json(path, "risk file")
    ranking = doc.get("ranking") if isinstance(doc, dict) else None
    if not isinstance(ranking, list):
        raise SchemaError(f"risk file {path} must be an object with a 'ranking' list")
    for pos, row in enumerate(ranking):
        if not (isinstance(row, dict) and _is_id(row.get("entity_id"))
                and _finite_number(row.get("score"))):
            raise SchemaError(f"risk file {path}: ranking row {pos} needs an integer "
                              "'entity_id' and a finite numeric 'score'")
    return doc


def _finite_number(value) -> bool:
    # abs() <= max is False for NaN, for +-inf and for an int past the float range.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# --- stages: load the input files, run the core, write the output ---------------

def stage_ingest(cpg_path: str | Path, out_path: str | Path) -> CpgGraph:
    """Validate a graph file and write its canonical form."""
    g = load_cpg(cpg_path)
    write_atomic(out_path, cpg_chunks(g))
    return g


def stage_lift(cpg_path: str | Path, cfg: PipelineConfig,
               out_path: str | Path) -> VerifiedCorpus:
    corpus = lift(load_cpg(cpg_path), cfg)
    write_atomic(out_path, dumps_corpus(corpus))
    return corpus


def stage_build_kg(cpg_path: str | Path, corpus_path: str | Path,
                   cfg: PipelineConfig, out_path: str | Path) -> SsckgGraph:
    corpus = load_corpus(corpus_path, build_lattice(cfg))
    kg = build_kg(load_cpg(cpg_path), corpus, cfg)
    write_atomic(out_path, ssckg_chunks(kg))
    return kg


def stage_forward(kg_path: str | Path, cfg: PipelineConfig,
                  out_path: str | Path) -> list[NodeEmbedding]:
    embeddings = transform(load_ssckg(kg_path), cfg)
    write_atomic(out_path, embeddings_chunks(embeddings))
    return embeddings


def stage_score(kg_path: str | Path, cfg: PipelineConfig,
                out_path: str | Path) -> dict:
    doc = score(load_ssckg(kg_path), cfg)
    write_atomic(out_path, dumps_json(doc))
    return doc


def stage_match(embeddings_path: str | Path, repo_dir: str | Path, tau: float,
                out_path: str | Path) -> dict:
    doc = match(load_embeddings(embeddings_path), repo_dir, tau)
    write_atomic(out_path, dumps_json(doc))
    return doc


def stage_threshold(scores_path: str | Path, cfg: PipelineConfig,
                    out_path: str | Path) -> dict:
    """Pick the alert threshold from a JSON list of {score, label} rows."""
    doc = read_json(scores_path, "scores file")
    if not isinstance(doc, list):
        raise SchemaError(f"scores file {scores_path} must be a JSON list")
    for pos, row in enumerate(doc):
        if not (isinstance(row, dict) and _finite_number(row.get("score"))
                and type(row.get("label")) is str):
            raise SchemaError(f"scores file {scores_path}: row {pos} needs a finite numeric "
                              "'score' and a string 'label'")
    scores = [(float(row["score"]), row["label"]) for row in doc]
    report = select_threshold(scores, grid_lo=cfg.grid_lo, grid_hi=cfg.grid_hi,
                              grid_step=cfg.grid_step, fpr_cap=cfg.fpr_cap)
    out = {
        "tau": report.tau,
        "j_statistic": report.j_statistic,
        "tpr": report.tpr,
        "fpr": report.fpr,
        "fpr_cap": report.fpr_cap,
        "fpr_cap_satisfied": report.fpr_cap_satisfied,
        "grid": [{"tau": p.tau, "tpr": p.tpr, "fpr": p.fpr, "j": p.j}
                 for p in report.grid],
    }
    write_atomic(out_path, dumps_json(out))
    return out


def stage_export_dot(kg_path: str | Path, risk_path: str | Path | None,
                     cfg: PipelineConfig, out_path: str | Path) -> str:
    risk_doc = load_risk(risk_path) if risk_path else None
    text = render_dot(load_ssckg(kg_path), risk_doc, cfg)
    write_atomic(out_path, text)
    return text


# --- end-to-end runner ------------------------------------------------------------

@dataclass(frozen=True)
class RiskReport:
    binary_id: str
    document: dict
    alerts: tuple[str, ...]

    @property
    def has_alerts(self) -> bool:
        return bool(self.alerts)


def binary_id(g: CpgGraph, cpg_path: str | Path) -> str:
    """The id a binary's outputs are named by: its binary_id, else the file
    stem.  It must name a file directly inside the output directory."""
    bid = g.binary_id or Path(cpg_path).stem
    if bid in (".", "..") or any(sep in bid for sep in (os.sep, os.altsep, "\0") if sep):
        raise SchemaError(f"CPG file {cpg_path} has binary id {bid!r}, which cannot name "
                          "a file directly inside the output directory")
    return bid


def run_one(cfg: PipelineConfig, cpg_path: str | Path, outdir: str | Path,
            g: CpgGraph) -> RiskReport:
    """Run every stage core for one binary, writing each stage's file.

    g is the graph parsed from cpg_path.
    """
    bid = binary_id(g, cpg_path)

    def write(suffix: str, text: str | Iterable[str]) -> None:
        write_atomic(Path(outdir) / f"{bid}.{suffix}", text)

    write("cpg.json", cpg_chunks(g))
    corpus = lift(g, cfg)
    write("corpus.jsonl", dumps_corpus(corpus))
    kg = build_kg(g, corpus, cfg)
    write("kg.json", ssckg_chunks(kg))
    embeddings = transform(kg, cfg)
    write("embeddings.json", embeddings_chunks(embeddings))
    risk_doc = score(kg, cfg)
    write("risk.json", dumps_json(risk_doc))
    match_doc = None
    if cfg.fingerprints_dir:
        match_doc = match(embeddings, cfg.fingerprints_dir, cfg.tau)
        write("alerts.json", dumps_json(match_doc))
    write("dot", render_dot(kg, risk_doc, cfg))

    report = {
        "binary_id": bid,
        "version": __version__,
        "config": cfg.to_dict(),
        "corpus": {
            "accepted": len(corpus.accepted),
            "rejected": corpus.rejected_count,
            "failed": corpus.failed_count,
            "total": corpus.total,
            "rejection_rate": corpus.rejection_rate,
        },
        "stats": construction_stats(g, kg),
        "risk": risk_doc,
        "fingerprints": match_doc,
    }
    write("report.json", dumps_json(report))
    alerts = tuple(match_doc["alerts"]) if match_doc else ()
    return RiskReport(binary_id=bid, document=report, alerts=alerts)


def run_pipeline(cfg: PipelineConfig, cpg_paths: Sequence[str | Path],
                 outdir: str | Path) -> list[RiskReport]:
    """Process binaries through the full chain, one at a time, in input order.

    Each CPG is parsed when its turn comes and its graph is dropped
    before the next is parsed, so one input graph is live at a time.
    Every binary's files are written to a staging directory inside
    outdir and moved into outdir only after the last binary is done, so
    the run writes every binary's files or none: a bad input, a failing
    stage, or two inputs with the same binary id (whose outputs would
    overwrite each other) leave outdir as it was.
    """
    outdir = Path(outdir)
    made = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=outdir, prefix=".staging-"))
    try:
        reports = []
        seen: dict[str, str | Path] = {}
        for path in cpg_paths:
            g = load_cpg(path)
            bid = binary_id(g, path)
            if bid in seen:
                raise ConfigError(f"inputs {seen[bid]} and {path} have the same binary id "
                                  f"'{bid}', so their outputs would overwrite each other")
            seen[bid] = path
            reports.append(run_one(cfg, path, staging, g))
            del g
        for name in sorted(os.listdir(staging)):
            os.replace(staging / name, outdir / name)
        return reports
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if made and not os.listdir(outdir):
            os.rmdir(outdir)
