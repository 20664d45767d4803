"""Verifier-gated semantic lifting of functions to behavioral labels.

An annotator proposes, for one function at a time, a behavioral label
plus a natural-language summary plus a set of data-flow claims.  The
corpus builder replays every claim against the graph's actual
data-dependence edges and keeps the annotation only when all of its
claims check out.  Claimed flows that the graph cannot support mark
the whole annotation as rejected; nothing from a rejected annotation
is retained.  An annotator that raises is counted as a failure and
skipped, separately from rejections.

Three annotators ship here:

  * RuleAnnotator     ordered opcode/callee pattern table -> label
                      (``load_rules`` reads the table from a file)
  * ReplayAnnotator   reads previously recorded annotations from a file
  * CommandAnnotator  speaks JSON-over-stdin/stdout to an external tool

Accepted corpora serialize to JSON lines, one annotation per line,
followed by a trailer line with the gate counters.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .cpg import CpgEdge, CpgGraph, CpgNode, DataFlowClaim, EdgeKind, verify_claims
from .errors import (
    AnnotatorFailure,
    InvalidRule,
    MissingAnnotation,
    ParseError,
    SchemaError,
    UnknownFunction,
    UnknownNode,
    read_json,
)
from .lattice import TOP, Label, Lattice


@dataclass(frozen=True)
class Annotation:
    """One function's proposed label, summary, and data-flow claims."""

    function_id: str
    label: Label
    summary: str
    claims: tuple[DataFlowClaim, ...] = ()


@dataclass(frozen=True)
class FunctionSubgraph:
    """A single function's nodes and the edges induced among them."""

    function_id: int
    nodes: tuple[CpgNode, ...]
    edges: tuple[CpgEdge, ...]


@dataclass
class VerifiedCorpus:
    """Gate output: accepted annotations plus rejection bookkeeping.

    total counts annotations that reached the verifier, so
    len(accepted) + rejected_count == total always holds.  Annotator
    failures never reach the verifier and are counted separately.
    """

    accepted: list[Annotation] = field(default_factory=list)
    rejected_count: int = 0
    failed_count: int = 0

    @property
    def total(self) -> int:
        return len(self.accepted) + self.rejected_count

    @property
    def rejection_rate(self) -> float:
        return self.rejected_count / self.total if self.total else 0.0


class Annotator(Protocol):
    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation: ...


def function_subgraph(g: CpgGraph, function_id: int) -> FunctionSubgraph:
    """The row view of one function, nodes in id order, edges in canonical order."""
    nodes = g.nodes_of_function(function_id)
    if not nodes:
        raise UnknownFunction(f"no nodes with function id {function_id}")
    return FunctionSubgraph(function_id=function_id, nodes=tuple(nodes),
                            edges=tuple(g.edges_of_function(function_id)))


def build_corpus(g: CpgGraph, functions: Sequence[int],
                 annotator: Annotator) -> VerifiedCorpus:
    """Annotate functions in order and keep only verifiable annotations.

    Acceptance is all-or-nothing per annotation: one unsupported claim
    rejects the whole annotation.  A claim naming a node id that does
    not exist is an unsupported claim like any other (the annotator
    invented the endpoint), so it rejects rather than raises.
    """
    corpus = VerifiedCorpus()
    context = {"binary_id": g.binary_id}
    for fid in functions:
        view = function_subgraph(g, fid)
        try:
            ann = annotator.annotate(view, context)
        except Exception:
            corpus.failed_count += 1
            continue
        try:
            result = verify_claims(g, ann.claims)
        except UnknownNode:
            corpus.rejected_count += 1
            continue
        if result.sat:
            corpus.accepted.append(ann)
        else:
            corpus.rejected_count += 1
    return corpus


# --- rule-based annotator ---------------------------------------------------

def load_rules(path: str | Path) -> list[tuple[str, str]]:
    """Read an ordered JSON rule table [{pattern, label}, ...]."""
    doc = read_json(path, "rule file")
    if not isinstance(doc, list):
        raise InvalidRule("rule file must be a JSON list")
    out = []
    for i, raw in enumerate(doc):
        if not isinstance(raw, dict) or "pattern" not in raw or "label" not in raw:
            raise InvalidRule(f"rule {i} needs 'pattern' and 'label'")
        out.append((str(raw["pattern"]), str(raw["label"])))
    return out


def _pattern_matches(pattern: str, text: str) -> bool:
    # Literal match, or prefix match when the pattern ends with '*'.
    if pattern.endswith("*"):
        return text.startswith(pattern[:-1])
    return text == pattern


class RuleAnnotator:
    """Labels a function by the first rule matching any of its nodes.

    Patterns are matched against each node's opcode and its callee
    attribute.  Earlier rules take priority.  With no match the
    function stays at top (unknown behavior).  Claims are emitted from
    the function's actual intra-function data-dependence edges, so
    rule annotations always survive the verifier.
    """

    def __init__(self, rules: Sequence[tuple[str, str]], lattice: Lattice):
        self.rules: list[tuple[str, Label]] = []
        for pattern, label_text in rules:
            if not pattern:
                raise InvalidRule("empty pattern")
            try:
                label = lattice.parse(label_text)
            except Exception as exc:
                raise InvalidRule(f"rule '{pattern}' -> '{label_text}': {exc}") from None
            self.rules.append((pattern, label))

    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation:
        opcodes = {n.opcode for n in view.nodes}
        callees = {n.attrs["callee"] for n in view.nodes if "callee" in n.attrs}
        # A rule hits when it matches any opcode or any non-empty callee.
        names = opcodes | (callees - {""})
        label = next((candidate for pattern, candidate in self.rules
                      if any(_pattern_matches(pattern, name) for name in names)), TOP)
        claims = tuple(
            DataFlowClaim(e.src, e.dst)
            for e in sorted(view.edges, key=lambda e: (e.src, e.dst))
            if e.kind is EdgeKind.PDG
        )
        tokens = sorted((opcodes - {""}) | callees)
        behavior = "unknown behavior" if label.is_top else " ".join(label.path).replace("_", " ").lower()
        summary = f"{behavior} routine using {' '.join(tokens)}" if tokens else behavior
        return Annotation(function_id=str(view.function_id), label=label,
                          summary=summary, claims=claims)


# --- replay annotator --------------------------------------------------------

class ReplayAnnotator:
    """Replays a recorded {function_id: annotation} JSON file."""

    def __init__(self, path: str | Path, lattice: Lattice):
        doc = read_json(path, "replay file")
        if not isinstance(doc, dict):
            raise SchemaError("replay file must be a JSON object keyed by function id")
        self._table: dict[str, Annotation] = {}
        for fid, raw in doc.items():
            self._table[str(fid)] = _annotation_from_dict(str(fid), raw, lattice)

    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation:
        key = str(view.function_id)
        if key not in self._table:
            raise MissingAnnotation(f"replay file has no annotation for function {key}")
        return self._table[key]


# --- external command annotator ----------------------------------------------

class CommandAnnotator:
    """Runs an external annotator process per function.

    The request is one JSON object on stdin:

        {"function_id": 7, "binary_id": "...",
         "nodes": [{"id":..., "kind":..., "opcode":..., "attrs":...}, ...],
         "pdg_edges": [[src, dst], ...]}

    The tool must print one JSON annotation on stdout:

        {"label": "Hardware/Coil_Write", "summary": "...",
         "claims": [[src, dst], ...]}

    Non-zero exit, unparseable output, or an unknown label raise
    AnnotatorFailure (the corpus builder then counts the function as
    failed and moves on).
    """

    def __init__(self, argv: Sequence[str], lattice: Lattice, timeout: float = 60.0):
        if not argv:
            raise InvalidRule("external annotator needs a command")
        self.argv = list(argv)
        self.lattice = lattice
        self.timeout = timeout

    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation:
        request = {
            "function_id": view.function_id,
            "binary_id": context.get("binary_id", ""),
            "nodes": [
                {"id": n.id, "kind": n.kind.value, "opcode": n.opcode,
                 "attrs": dict(sorted(n.attrs.items()))}
                for n in view.nodes
            ],
            "pdg_edges": [[e.src, e.dst] for e in view.edges if e.kind is EdgeKind.PDG],
        }
        try:
            proc = subprocess.run(
                self.argv, input=json.dumps(request).encode("utf-8"),
                capture_output=True, timeout=self.timeout)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise AnnotatorFailure(view.function_id, str(exc)) from None
        if proc.returncode != 0:
            raise AnnotatorFailure(
                view.function_id, f"exit code {proc.returncode}")
        try:
            raw = json.loads(proc.stdout.decode("utf-8"))
            return _annotation_from_dict(str(view.function_id), raw, self.lattice)
        except AnnotatorFailure:
            raise
        except Exception as exc:
            raise AnnotatorFailure(view.function_id, f"bad response: {exc}") from None


def _annotation_from_dict(function_id: str, raw: Mapping, lattice: Lattice) -> Annotation:
    for key in ("label", "summary"):
        if key not in raw:
            raise SchemaError(f"annotation for function {function_id} missing '{key}'")
    claims = tuple(DataFlowClaim(int(pair[0]), int(pair[1]))
                   for pair in raw.get("claims", ()))
    return Annotation(
        function_id=function_id,
        label=lattice.parse(str(raw["label"])),
        summary=str(raw["summary"]),
        claims=claims,
    )


# --- corpus serialization -----------------------------------------------------

def dumps_corpus(corpus: VerifiedCorpus) -> str:
    """JSON lines: one accepted annotation per line, then a trailer."""
    lines = []
    for ann in corpus.accepted:
        lines.append(json.dumps({
            "function_id": ann.function_id,
            "label": str(ann.label),
            "summary": ann.summary,
            "claims": [[c.source_node, c.sink_node] for c in ann.claims],
        }, sort_keys=True, separators=(",", ":")))
    lines.append(json.dumps({
        "trailer": {
            "accepted": len(corpus.accepted),
            "rejected": corpus.rejected_count,
            "failed": corpus.failed_count,
            "total": corpus.total,
        }
    }, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def load_corpus(path: str | Path, lattice: Lattice) -> VerifiedCorpus:
    corpus = VerifiedCorpus()
    seen_trailer = False
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"corpus line {i + 1}: {exc}") from None
        if "trailer" in raw:
            t = raw["trailer"]
            corpus.rejected_count = int(t.get("rejected", 0))
            corpus.failed_count = int(t.get("failed", 0))
            seen_trailer = True
            continue
        if "function_id" not in raw:
            raise SchemaError(f"corpus line {i + 1} missing 'function_id'")
        corpus.accepted.append(
            _annotation_from_dict(str(raw["function_id"]), raw, lattice))
    if not seen_trailer:
        raise SchemaError("corpus file has no trailer line")
    return corpus
