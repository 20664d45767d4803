"""Command line interface.

Subcommands mirror the pipeline stages one to one; ``report`` chains
them.  Each handler loads its inputs, calls one stage core and writes
its output, calling every loader, core and writer through
``binrisk.pipeline``.  Every pipeline knob comes from the checked
``--config`` file, which only the commands that read a knob take; the
other flags name input and output files.  Exit codes: 0 success, 2
when fingerprint alerts were raised (for CI gating), 1 on any error,
143 on SIGTERM, which unwinds a command as Ctrl-C does.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from . import __version__, pipeline
from .config import PipelineConfig
from .errors import BinriskError, ConfigError, SchemaError, dumps_json, read_json
from .fingerprint import Fingerprint, dumps_fingerprint
from .metrics import ConfusionCounts, classification_metrics

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALERTS = 2


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.from_file(args.config)
    return PipelineConfig()


def _emit(doc) -> None:
    sys.stdout.write(dumps_json(doc))


# --- handlers ----------------------------------------------------------------

def _cmd_ingest(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    g = pipeline.load_cpg(args.cpg)
    pipeline.write_atomic(args.out, pipeline.cpg_chunks(g))
    _emit({"binary_id": g.binary_id, "nodes": len(g),
           "edges": len(g.edge_kind), "functions": len(g.function_ids)})
    return EXIT_OK


def _cmd_lift(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    g = pipeline.load_cpg(args.cpg)
    annotator = pipeline.build_annotator(cfg, pipeline.build_lattice(cfg))
    corpus = pipeline.build_corpus(g, g.function_ids, annotator)
    pipeline.write_atomic(args.out, pipeline.dumps_corpus(corpus))
    _emit({"accepted": len(corpus.accepted), "rejected": corpus.rejected_count,
           "failed": corpus.failed_count,
           "rejection_rate": corpus.rejection_rate})
    return EXIT_OK


def _cmd_build_ssckg(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    corpus = pipeline.load_corpus(args.corpus, pipeline.build_lattice(cfg))
    g = pipeline.load_cpg(args.cpg)
    provider = pipeline.build_provider(cfg)
    kg = pipeline.build_kg(g, corpus, cfg, provider, pipeline.build_cves(cfg, provider))
    pipeline.write_atomic(args.out, pipeline.ssckg_chunks(kg))
    _emit({"entities": len(kg.entities), "relations": len(kg.relation_columns)})
    return EXIT_OK


def _cmd_embed(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    provider = pipeline.build_provider(cfg)
    doc = read_json(args.texts, "texts file")
    if not isinstance(doc, dict):
        raise ConfigError("--texts must be a JSON object of name -> text")
    for key, text in doc.items():
        if not isinstance(text, str):
            raise SchemaError(f"texts file {args.texts}: key {key!r} has non-string "
                              f"text {text!r}")
    out = {key: provider.embed(text).tolist() for key, text in doc.items()}
    pipeline.write_atomic(args.out, dumps_json(out))
    _emit({"embedded": len(out), "dimension": provider.dimension()})
    return EXIT_OK


def _cmd_forward(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    ids, vectors = pipeline.transform(pipeline.load_ssckg(args.kg), cfg)
    pipeline.write_atomic(args.out, pipeline.embeddings_chunks(ids, vectors))
    _emit({"entities": len(ids), "dimension": vectors.shape[1]})
    return EXIT_OK


def _cmd_score(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    kg = pipeline.load_ssckg(args.kg)
    doc = pipeline.score(kg, cfg, pipeline.build_cves(cfg, pipeline.build_provider(cfg)))
    pipeline.write_atomic(args.out, dumps_json(doc))
    top = doc["ranking"][0] if doc["ranking"] else None
    _emit({"iterations": doc["iterations"], "residual": doc["residual"],
           "top": top})
    return EXIT_OK


def _cmd_fingerprint_extract(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    ids, vectors = pipeline.load_embeddings(args.embeddings)
    row = {entity_id: i for i, entity_id in enumerate(ids.tolist())}
    try:
        wanted = [int(tok) for tok in args.ids.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--ids must be comma-separated integers, got {args.ids!r}")
    if not wanted:
        raise ConfigError("--ids selected no entities")
    missing = [i for i in wanted if i not in row]
    if missing:
        raise ConfigError(f"entity ids not in embeddings file: {missing}")
    rows = [row[i] for i in wanted]
    fp = Fingerprint(name=args.name, entity_ids=ids[rows], vectors=vectors[rows],
                     provenance=args.provenance or "")
    pipeline.write_atomic(args.out, dumps_fingerprint(fp))
    _emit({"name": fp.name, "nodes": len(wanted)})
    return EXIT_OK


def _cmd_match(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    ids, vectors = pipeline.load_embeddings(args.kg_embeddings)
    doc = pipeline.match(ids, vectors, pipeline.load_repository(args.repo), cfg.tau)
    pipeline.write_atomic(args.out, dumps_json(doc))
    _emit({"tau": doc["tau"], "alerts": doc["alerts"],
           "matches": len(doc["matches"])})
    return EXIT_ALERTS if doc["alerts"] else EXIT_OK


def _cmd_threshold(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    doc = pipeline.threshold(pipeline.load_scores(args.scores), cfg)
    pipeline.write_atomic(args.out, dumps_json(doc))
    _emit({k: doc[k] for k in
           ("tau", "j_statistic", "tpr", "fpr", "fpr_cap_satisfied")})
    return EXIT_OK


def _cmd_report(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError("workers must be at least 1")
    reports = pipeline.run_pipeline(cfg, args.cpg, args.outdir)
    summary = [{"binary_id": r.binary_id, "alerts": list(r.alerts)}
               for r in reports]
    _emit(summary)
    return EXIT_ALERTS if any(r.alerts for r in reports) else EXIT_OK


def _cmd_export_dot(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    risk_doc = pipeline.load_risk(args.risk) if args.risk else None
    pipeline.write_atomic(args.out, pipeline.render_dot(pipeline.load_ssckg(args.kg),
                                                        risk_doc, cfg))
    _emit({"written": str(args.out)})
    return EXIT_OK


def _cmd_metrics(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    parts = args.confusion.split(",")
    if len(parts) != 4:
        raise ConfigError("--confusion expects tp,fp,tn,fn")
    try:
        tp, fp, tn, fn = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--confusion expects integers, got {args.confusion!r}")
    m = classification_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
    doc = {
        "precision": m.precision, "recall": m.recall, "f1": m.f1,
        "mcc": m.mcc, "fpr": m.fpr, "flagged": sorted(m.flagged),
    }
    if args.out:
        pipeline.write_atomic(args.out, dumps_json(doc))
    _emit(doc)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def _add_config(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="pipeline config JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binrisk",
        description="Vulnerability analysis over binary code property graphs")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="validate a CPG and write canonical JSON")
    p.add_argument("--cpg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ingest)

    p = subs.add_parser("lift", help="annotate functions and build the verified corpus")
    _add_config(p)
    p.add_argument("--cpg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_lift)

    p = subs.add_parser("build-ssckg", help="collapse the CPG into a knowledge graph")
    _add_config(p)
    p.add_argument("--cpg", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_build_ssckg)

    p = subs.add_parser("embed", help="embed a JSON object of name -> text")
    _add_config(p)
    p.add_argument("--texts", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_embed)

    p = subs.add_parser("forward", help="run the graph transformer over a knowledge graph")
    _add_config(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_forward)

    p = subs.add_parser("score", help="compute and propagate entity risk")
    _add_config(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_score)

    p = subs.add_parser("fingerprint", help="fingerprint repository tools")
    fp_subs = p.add_subparsers(dest="fingerprint_command", required=True)
    pe = fp_subs.add_parser("extract", help="extract a fingerprint from entity embeddings")
    pe.add_argument("--embeddings", required=True)
    pe.add_argument("--ids", required=True,
                    help="comma-separated entity ids to include")
    pe.add_argument("--name", required=True)
    pe.add_argument("--provenance", default="")
    pe.add_argument("--out", required=True)
    pe.set_defaults(handler=_cmd_fingerprint_extract)

    p = subs.add_parser("match", help="match fingerprints against entity embeddings")
    _add_config(p)
    p.add_argument("--kg-embeddings", dest="kg_embeddings", required=True)
    p.add_argument("--repo", required=True, help="directory of fingerprint JSON files")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_match)

    p = subs.add_parser("threshold", help="select an alert threshold from scored samples")
    _add_config(p)
    p.add_argument("--scores", required=True,
                   help="JSON list of {score, label} rows")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_threshold)

    p = subs.add_parser("report", help="run the full pipeline over one or more CPGs")
    _add_config(p)
    p.add_argument("--cpg", required=True, nargs="+")
    p.add_argument("--outdir", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; binaries run one at a time")
    p.set_defaults(handler=_cmd_report)

    p = subs.add_parser("export-dot", help="render a knowledge graph to DOT")
    _add_config(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--risk", help="risk JSON for band coloring")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export_dot)

    p = subs.add_parser("metrics", help="classification metrics from a confusion matrix")
    p.add_argument("--confusion", required=True, help="tp,fp,tn,fn")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_metrics)

    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Else imported at the first weight draw, where a SIGTERM's SystemExit would be lost.
    import numpy.random  # noqa: F401
    # Only the main thread may set a handler; the caller's is put back on return.
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if main_thread else None
    try:
        cfg = _load_config(args)
        return args.handler(cfg, args)
    except BinriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if main_thread:  # None: a handler not set from Python, taken as the default
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())
