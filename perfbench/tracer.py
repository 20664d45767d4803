"""Span tracing of binrisk's module functions, from outside the package.

``install`` replaces each public function in ``WRAPPED`` with a wrapper
under the name its caller looks it up by (``binrisk.pipeline.load_cpg``
is the name ``run_one`` and the ``stage_*`` functions call).  A span is
(name, start, end, parent, binary id); spans stay in memory until
``summary`` folds them into per-layer metrics.  Self time is a span's
duration minus the part its child spans cover.  A target that no longer
exists is skipped, so a function a later change deletes reads 0 calls.

Spans nest through one stack, so a traced run must use one worker.
"""

from __future__ import annotations

import importlib
import os
import time
from pathlib import Path

# (layer metric stem, module, attribute looked up by the caller).  Some
# spans are not reported (corpus_dump, embed_entities, cves, stats,
# params); they keep their time out of their caller's self time.
WRAPPED = [
    ("cpg.parse", "binrisk.pipeline", "load_cpg"),
    ("cpg.dump", "binrisk.pipeline", "dumps_cpg"),
    ("cpg.verify", "binrisk.lifting", "verify_claims"),
    ("cpg.hop_matrix", "binrisk.graphormer", "shortest_path_matrix"),
    ("lifting.corpus", "binrisk.pipeline", "build_corpus"),
    ("lifting.corpus_dump", "binrisk.pipeline", "dumps_corpus"),
    ("lifting.corpus_load", "binrisk.pipeline", "load_corpus"),
    ("embedding.embed", "binrisk.embedding", "HashEmbedder.embed"),
    ("ssckg.collapse", "binrisk.pipeline", "structural_collapse"),
    ("ssckg.embed_entities", "binrisk.pipeline", "embed_entities"),
    ("ssckg.cluster", "binrisk.pipeline", "semantic_clustering"),
    ("ssckg.cves", "binrisk.pipeline", "load_cves"),
    ("ssckg.relations", "binrisk.pipeline", "extract_relations"),
    ("ssckg.stats", "binrisk.pipeline", "construction_stats"),
    ("ssckg.kg_dump", "binrisk.pipeline", "dumps_ssckg"),
    ("ssckg.kg_load", "binrisk.pipeline", "load_ssckg"),
    ("ssckg.dot", "binrisk.pipeline", "to_dot"),
    ("graphormer.params", "binrisk.pipeline", "init_params"),
    ("graphormer.forward", "binrisk.pipeline", "forward"),
    ("graphormer.attention", "binrisk.graphormer", "attention_matrix"),
    ("graphormer.emb_dump", "binrisk.pipeline", "dumps_embeddings"),
    ("graphormer.emb_load", "binrisk.pipeline", "load_embeddings"),
    ("risk.inherent", "binrisk.pipeline", "inherent_risk"),
    ("risk.propagate", "binrisk.pipeline", "propagate"),
    ("risk.normalize", "binrisk.risk", "normalize_weights"),
    ("fingerprint.repo_load", "binrisk.pipeline", "load_repository"),
    ("fingerprint.match", "binrisk.pipeline", "match_and_alert"),
    ("pipeline.write", "binrisk.pipeline", "write_atomic"),
    ("pipeline.run_one", "binrisk.pipeline", "run_one"),
] + [
    # The stage functions count as pipeline glue, whether run_one or a
    # CLI subcommand calls them.
    ("pipeline." + stage, module, stage)
    for stage in ("stage_ingest", "stage_lift", "stage_build_kg", "stage_forward",
                  "stage_score", "stage_match", "stage_export_dot")
    for module in ("binrisk.pipeline", "binrisk.cli")
]

# Counts taken from a wrapped call: metric -> (span name, fn(args, result)).
COUNTS = {
    "lifting.accepted": ("lifting.corpus", lambda args, out: len(out.accepted)),
    "ssckg.relations": ("ssckg.relations", lambda args, out: len(out)),
    "ssckg.entities": ("ssckg.relations", lambda args, out: len(args[1])),
    "risk.iterations": ("risk.propagate", lambda args, out: out.iterations),
    "pipeline.bytes_written": ("pipeline.write", lambda args, out: os.path.getsize(args[0])),
}

TIMED = ("cpg.parse", "cpg.dump", "cpg.verify", "cpg.hop_matrix", "lifting.corpus",
         "lifting.corpus_load", "embedding.embed", "ssckg.collapse", "ssckg.cluster",
         "ssckg.dot", "ssckg.relations", "ssckg.kg_dump", "ssckg.kg_load",
         "graphormer.forward", "graphormer.attention", "graphormer.emb_dump",
         "graphormer.emb_load", "risk.inherent", "risk.propagate",
         "fingerprint.repo_load", "fingerprint.match", "pipeline.write")
CALLED = ("cpg.parse", "embedding.embed", "ssckg.kg_load", "graphormer.attention",
          "risk.normalize")


class Tracer:
    def __init__(self, binary: str = ""):
        self.spans: list[list] = []  # [name, start, end, parent, binary]
        self.stack: list[int] = []
        self.binary = binary
        self.counts = {name: 0 for name in COUNTS}

    def _wrap(self, name, fn):
        counters = [(metric, count) for metric, (span, count) in COUNTS.items()
                    if span == name]

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            binary = self.binary
            if name == "pipeline.run_one":
                binary = Path(args[1]).name.split(".")[0]
            elif parent >= 0:
                binary = self.spans[parent][4]
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, binary])
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            for metric, count in counters:
                self.counts[metric] += count(args, out)
            return out

        return traced

    def install(self) -> None:
        for name, module_name, attr in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if callable(fn):
                setattr(owner, leaf, self._wrap(name, fn))

    def summary(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        out = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED}
        out.update({f"{name}_calls": calls.get(name, 0) for name in CALLED})
        out.update(self.counts)
        out["pipeline.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith("pipeline.") and k != "pipeline.write")
        run_one = [end - start for name, start, end, _, _ in self.spans
                   if name == "pipeline.run_one"]
        out["pipeline.binary_s"] = sum(run_one) / len(run_one) if run_one else 0.0
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "binary": b}
                for n, s, e, p, b in self.spans]
