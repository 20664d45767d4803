"""Pipeline stage cores and the end-to-end runner.

The stage cores (``build_kg``, ``transform``, ``score``, ``match``,
``threshold``, ``render_dot``) are functions over in-memory objects;
none reads a file but ``transform``'s weight container.  I/O is the
callers': each CLI subcommand loads its inputs, calls its core and
writes the result, reaching every loader, core and writer by its name
in this module.  ``report`` (``run_pipeline``) builds the annotator,
the embedding provider, the CVE list and the fingerprints once per run,
before the first binary, then takes the binaries one at a time:
``run_one`` parses each CPG once, chains the cores in memory, and drops
the graph and the corpus once the knowledge graph is built; ``transform``
hands ``match`` and the embeddings writer one (ids, matrix) pair.  It writes
every intermediate through the serializer its subcommand uses, so the
subcommands run by hand against the same config write the same bytes.
Its files go to a staging directory and move into the output directory
once every binary is done, so ``report`` writes every binary's files
or none.  ``write_atomic`` (temp file + rename) is the one write path,
and all serialization is canonical (sorted keys, no timestamps); the
CPG, knowledge-graph, embeddings and DOT files are written from their
chunk generators, so no whole file's text is held at once.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .config import PipelineConfig, _finite_number
from .cpg import CpgGraph, _is_id, cpg_chunks, load_cpg
from .embedding import FileEmbeddings, HashEmbedder
from .errors import ConfigError, SchemaError
from .jsonio import dumps_json, read_json
from .fingerprint import Fingerprint, load_repository, match_and_alert, select_threshold
from .graphormer import embeddings_chunks, forward, load_embeddings, load_params
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
from .risk import inherent_risk, propagate
from .ssckg import (
    CveRecord,
    Granularity,
    SsckgGraph,
    construction_stats,
    dot_chunks,
    embed_entities,
    extract_relations,
    load_cves,
    load_ssckg,
    semantic_clustering,
    ssckg_chunks,
    structural_collapse,
)

# load_corpus, load_embeddings and load_ssckg are unused here: they are
# imported for the CLI, which calls every loader through this module.


def write_atomic(path: str | Path, text: str | bytes | Iterable[str]) -> None:
    """Write text, the concatenation of an iterable of text chunks, or
    bytes to path: to a temporary file beside it, renamed over it once
    complete.

    The file gets the mode ``open`` would give a new file under the
    process umask, not the owner-only mode of the temporary file.
    """
    mode, encoding = ("wb", None) if isinstance(text, bytes) else ("w", "utf-8")
    if isinstance(text, (str, bytes)):
        text = (text,)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    umask = os.umask(0)  # reading the umask means setting it; it is put back at once
    os.umask(umask)
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
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


def build_cves(cfg: PipelineConfig, provider) -> list[CveRecord]:
    """The config's CVE corpus, embedded by provider; empty without cves_path."""
    return load_cves(cfg.cves_path, provider) if cfg.cves_path else []


# --- stage cores -----------------------------------------------------------------

def build_kg(g: CpgGraph, corpus: VerifiedCorpus, cfg: PipelineConfig, provider,
             cves: Sequence[CveRecord]) -> SsckgGraph:
    """Collapse the graph to entities, cluster, and extract relations."""
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
    relations = extract_relations(
        g, entities, cves, cve_match_threshold=cfg.cve_match_threshold,
        config=cfg.relations)
    return SsckgGraph(entities, relations, source_binary=g.binary_id,
                      clustering=clustering)


def transform(kg: SsckgGraph, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the graph transformer: ``forward``'s (ids, matrix), a row per entity.

    The model's input width is the dimension of the knowledge graph's own
    entity embeddings (``forward --kg`` reads them from the KG file), so
    a ``params_path`` container, the one file this core reads, must
    match it.
    """
    dims = {len(e.embedding) for e in kg.entities if e.embedding is not None}
    model_cfg = replace(cfg.model,
                        input_dim=dims.pop() if len(dims) == 1 else cfg.embedding_dimension)
    if cfg.params_path:
        return forward(kg, load_params(cfg.params_path, expected=model_cfg))
    return forward(kg, model_cfg)


def score(kg: SsckgGraph, cfg: PipelineConfig, cves: Sequence[CveRecord]) -> dict:
    """Inherent risk from CVE matching, then damped propagation."""
    inherent = inherent_risk(kg, cves)
    result = propagate(kg, inherent, cfg.propagation)
    ranking = []
    for ent in kg.entities:
        value = result.scores[ent.id]
        inh = inherent[ent.id]
        # Split the converged score into its damped inherent part and what
        # arrived over relations; an isolated entity keeps its inherent
        # score exactly, so nothing arrived.
        inherent_part = cfg.beta * inh if ent.id in result.connected else inh
        ranking.append({
            "entity_id": ent.id,
            "name": ent.name,
            "label": str(ent.label),
            "score": value,
            "inherent": inh,
            "inherent_contribution": inherent_part,
            "propagated_contribution": value - inherent_part,
        })
    ranking.sort(key=lambda row: (-row["score"], row["entity_id"]))
    return {
        "beta": cfg.beta,
        "iterations": result.iterations,
        "residual": result.residual,
        "ranking": ranking,
    }


def match(ids: np.ndarray, vectors: np.ndarray, fingerprints: Sequence[Fingerprint],
          tau: float) -> dict:
    """Score the fingerprints against target embeddings, ids beside a matrix."""
    matches = match_and_alert(ids, vectors, fingerprints, tau)
    return {"tau": tau, "matches": [asdict(m) for m in matches],
            "alerts": sorted(m.fingerprint for m in matches if m.alert)}


def threshold(scores: Sequence[tuple[float, str]], cfg: PipelineConfig) -> dict:
    """Pick the alert threshold over the config's grid from (score, label) rows."""
    return asdict(select_threshold(scores, grid_lo=cfg.grid_lo, grid_hi=cfg.grid_hi,
                                   grid_step=cfg.grid_step, fpr_cap=cfg.fpr_cap))


def render_dot(kg: SsckgGraph, risk_doc: Mapping | None, cfg: PipelineConfig) -> Iterator[str]:
    """DOT text chunks of the graph, colored by the risk document's scores if given."""
    risk_scores = None
    if risk_doc is not None:
        risk_scores = {row["entity_id"]: row["score"] for row in risk_doc["ranking"]}
    return dot_chunks(kg, risk=risk_scores, bands=cfg.risk_bands)


# --- loaders of the files only the CLI reads --------------------------------------

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


def load_scores(path: str | Path) -> list[tuple[float, str]]:
    """A scores file: a JSON list of {score, label} rows, each with a
    finite numeric ``score`` and a string ``label``."""
    doc = read_json(path, "scores file")
    if not isinstance(doc, list):
        raise SchemaError(f"scores file {path} must be a JSON list")
    for pos, row in enumerate(doc):
        if not (isinstance(row, dict) and _finite_number(row.get("score"))
                and type(row.get("label")) is str):
            raise SchemaError(f"scores file {path}: row {pos} needs a finite numeric "
                              "'score' and a string 'label'")
    return [(float(row["score"]), row["label"]) for row in doc]


# --- end-to-end runner ------------------------------------------------------------

@dataclass(frozen=True)
class RiskReport:
    binary_id: str
    alerts: tuple[str, ...]


def binary_id(g: CpgGraph, cpg_path: str | Path) -> str:
    """The id a binary's outputs are named by: its binary_id, else the file
    stem.  It must name a file directly inside the output directory."""
    bid = g.binary_id or Path(cpg_path).stem
    if bid in (".", "..") or any(sep in bid for sep in (os.sep, os.altsep, "\0") if sep):
        raise SchemaError(f"CPG file {cpg_path} has binary id {bid!r}, which cannot name "
                          "a file directly inside the output directory")
    return bid


def run_one(cfg: PipelineConfig, cpg_path: str | Path, outdir: str | Path,
            seen: dict[str, str | Path], *, annotator, provider,
            cves: Sequence[CveRecord],
            fingerprints: Sequence[Fingerprint] | None) -> RiskReport:
    """Parse cpg_path and run every stage core on it, writing each stage's file.

    ``seen`` maps each binary id already run to its input path; a
    repeated id is rejected before anything is written.  The annotator,
    the embedding provider, the CVE list and the fingerprints (None when
    the config names no repository) are the run's, built once.  The
    graph and the corpus are dropped once the knowledge graph is built,
    since no later stage reads them.
    """
    g = load_cpg(cpg_path)
    bid = binary_id(g, cpg_path)
    if bid in seen:
        raise ConfigError(f"inputs {seen[bid]} and {cpg_path} have the same binary id "
                          f"'{bid}', so their outputs would overwrite each other")
    seen[bid] = cpg_path

    def write(suffix: str, text: str | Iterable[str]) -> None:
        write_atomic(Path(outdir) / f"{bid}.{suffix}", text)

    write("cpg.json", cpg_chunks(g))
    corpus = build_corpus(g, g.function_ids, annotator)
    write("corpus.jsonl", dumps_corpus(corpus))
    kg = build_kg(g, corpus, cfg, provider, cves)
    stats = construction_stats(g, kg)
    counts = {"accepted": len(corpus.accepted), "rejected": corpus.rejected_count,
              "failed": corpus.failed_count, "total": corpus.total,
              "rejection_rate": corpus.rejection_rate}
    del g, corpus
    write("kg.json", ssckg_chunks(kg))
    ids, vectors = transform(kg, cfg)
    write("embeddings.json", embeddings_chunks(ids, vectors))
    risk_doc = score(kg, cfg, cves)
    write("risk.json", dumps_json(risk_doc))
    match_doc = None
    if fingerprints is not None:
        match_doc = match(ids, vectors, fingerprints, cfg.tau)
        write("alerts.json", dumps_json(match_doc))
    write("dot", render_dot(kg, risk_doc, cfg))

    write("report.json", dumps_json({
        "binary_id": bid,
        "version": __version__,
        "config": asdict(cfg),
        "corpus": counts,
        "stats": stats,
        "risk": risk_doc,
        "fingerprints": match_doc,
    }))
    return RiskReport(binary_id=bid, alerts=tuple(match_doc["alerts"]) if match_doc else ())


def run_pipeline(cfg: PipelineConfig, cpg_paths: Sequence[str | Path],
                 outdir: str | Path) -> list[RiskReport]:
    """Process binaries through the full chain, one at a time, in input order.

    The annotator, the embedding provider, the CVE list and the
    fingerprint repository are built once, before the first CPG is
    parsed, so each file the config names is read once per run and a
    bad one ends the run before any graph is read.  Each CPG is parsed
    when its turn comes (by ``run_one``) and its graph is dropped before
    ``transform``, so at most one input graph is live.  Every binary's
    files are written to a staging directory inside outdir and moved
    into outdir only after the last binary is done, so the run writes
    every binary's files or none: a bad input, a failing stage, or two
    inputs with the same binary id (whose outputs would overwrite each
    other) leave outdir as it was.
    """
    annotator = build_annotator(cfg, build_lattice(cfg))
    provider = build_provider(cfg)
    cves = build_cves(cfg, provider)
    fingerprints = load_repository(cfg.fingerprints_dir) if cfg.fingerprints_dir else None
    outdir = Path(outdir)
    made = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=outdir, prefix=".staging-"))
    try:
        reports = []
        seen: dict[str, str | Path] = {}
        for path in cpg_paths:
            reports.append(run_one(cfg, path, staging, seen, annotator=annotator,
                                   provider=provider, cves=cves, fingerprints=fingerprints))
        for name in sorted(os.listdir(staging)):
            os.replace(staging / name, outdir / name)
        return reports
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if made and not os.listdir(outdir):
            os.rmdir(outdir)
