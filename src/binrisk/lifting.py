"""Verifier-gated semantic lifting of functions to behavioral labels.

An annotator proposes, for one function at a time, a behavioral label
plus a natural-language summary plus data-flow claims, (source, sink)
rows of node ids.  The corpus builder replays every claim against the
graph's actual data-dependence edges and keeps the annotation only when
all of its claims check out.  Claimed flows that the graph cannot
support mark the whole annotation as rejected; nothing from a rejected annotation
is retained.  An annotator that raises is counted as a failure and
skipped, separately from rejections.

``build_corpus`` does its graph work over columns, once per call rather
than once per function: ``function_views`` cuts every function's view
from one stable sort of the inner data-dependence edges by function,
and one ``cpg.failing_claims`` pass looks up the ends of every claim
as one array and settles each claim whose ends are one node or one
edge by a search in the sorted edge keys; only the claims left walk the
graph.  Rule patterns compile into one regex alternation.

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
import re
import subprocess
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .cpg import NODE_KINDS, PDG_CODE, CpgGraph, NodeKind, failing_claims
from .errors import AnnotatorFailure, ConfigError, ParseError, SchemaError
from .jsonio import read_json
from .lattice import TOP, Label, Lattice


@dataclass(frozen=True, eq=False)
class Annotation:
    """One function's proposed label, summary, and data-flow claims.

    ``claims`` is an int64 array of shape (k, 2), one (source, sink) row
    of node ids per claim; an id past int64, which no node can have,
    makes it an array of Python ints (dtype object), which the gate rejects.
    """

    function_id: str
    label: Label
    summary: str
    claims: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class FunctionSubgraph:
    """What an annotator sees of one function, as columns.

    ``node_ids``, ``kinds``, ``opcodes`` and ``attrs`` are parallel
    lists over the function's nodes in id order (``{}`` for a node with
    no attrs).  ``pdg_edges`` holds the (src, dst) node ids of the
    data-dependence edges with both ends in the function, in canonical
    edge order, as an int64 (k, 2) slice of one array for all functions.
    """

    function_id: int
    node_ids: list[int]
    kinds: list[NodeKind]
    opcodes: list[str]
    attrs: list[dict[str, str]]
    pdg_edges: np.ndarray


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
    """One function's view: ``function_views`` of it alone."""
    return next(function_views(g, [function_id]))


def function_views(g: CpgGraph, functions: Sequence[int]) -> Iterator[FunctionSubgraph]:
    """The view of each function in the order given, its columns sliced
    from the graph's.

    Every id is checked before the first view is made: an id with no
    nodes raises SchemaError.  The inner Pdg edges are put in
    function order by one stable sort, which keeps each function's in
    canonical order.  Each view's lists are built from slices when its
    turn comes, so only one function's lists are held at a time.
    """
    functions = list(functions)
    rows_of = g.function_rows
    for fid in functions:
        if fid not in rows_of:
            raise SchemaError(f"no nodes with function id {fid}")
    pdg = np.flatnonzero(g.edge_kind == PDG_CODE)
    owner = g.node_function[g.edge_src_row[pdg]]
    inner = owner == g.node_function[g.edge_dst_row[pdg]]
    pdg, owner = pdg[inner], owner[inner]
    order = np.argsort(owner, kind="stable")
    pdg, owner = pdg[order], owner[order]
    pdg_edges = g.node_id[np.stack((g.edge_src_row[pdg], g.edge_dst_row[pdg]), axis=1)]
    keys = np.array([int(fid) for fid in functions], dtype=np.int64)
    los = np.searchsorted(owner, keys, side="left").tolist()
    his = np.searchsorted(owner, keys, side="right").tolist()
    del pdg, owner, inner, order, keys
    for fid, lo, hi in zip(functions, los, his):
        rows = rows_of[fid]
        row_list = rows.tolist()
        yield FunctionSubgraph(
            function_id=fid,
            node_ids=g.node_id[rows].tolist(),
            kinds=list(map(NODE_KINDS.__getitem__, g.node_kind[rows].tolist())),
            opcodes=list(map(g.opcode.__getitem__, row_list)),
            attrs=[g.attrs.get(r, {}) for r in row_list],
            pdg_edges=pdg_edges[lo:hi])


def build_corpus(g: CpgGraph, functions: Sequence[int],
                 annotator: Annotator) -> VerifiedCorpus:
    """Annotate functions in order and keep only verifiable annotations.

    Acceptance is all-or-nothing per annotation: one unsupported claim
    rejects the whole annotation.  A claim naming a node id that does
    not exist is an unsupported claim like any other (the annotator
    invented the endpoint), so it rejects rather than raises.  The
    views come from ``function_views`` and the verdicts from one
    ``failing_claims`` pass over every annotation's claims.
    """
    corpus = VerifiedCorpus()
    context = {"binary_id": g.binary_id}
    annotations = []
    for view in function_views(g, functions):
        try:
            annotations.append(annotator.annotate(view, context))
        except Exception:
            corpus.failed_count += 1
    verdicts = failing_claims(g, [ann.claims for ann in annotations])
    for ann, failing in zip(annotations, verdicts):
        if failing is None:
            corpus.accepted.append(ann)
        else:
            corpus.rejected_count += 1
    return corpus


# --- rule-based annotator ---------------------------------------------------

def load_rules(path: str | Path) -> list[tuple[str, str]]:
    """Read an ordered JSON rule table [{pattern, label}, ...]."""
    doc = read_json(path, "rule file")
    if not isinstance(doc, list):
        raise SchemaError(f"rule file {path} must be a JSON list")
    out = []
    for i, raw in enumerate(doc):
        if not isinstance(raw, dict) or "pattern" not in raw or "label" not in raw:
            raise SchemaError(f"rule file {path}: rule {i} needs 'pattern' and 'label'")
        for key in ("pattern", "label"):
            if type(raw[key]) is not str:
                raise SchemaError(f"rule file {path}: rule {i} has non-string {key} "
                                  f"{raw[key]!r}")
        out.append((raw["pattern"], raw["label"]))
    return out


def _rule_regex(pattern: str) -> str:
    # Literal match, or prefix match when the pattern ends with '*'.
    if pattern.endswith("*"):
        return "(" + re.escape(pattern[:-1]) + ")"
    return "(" + re.escape(pattern) + r"\Z)"


class RuleAnnotator:
    """Labels a function by the first rule matching any of its nodes.

    Patterns are matched against each node's opcode and its callee
    attribute.  Earlier rules take priority.  With no match the
    function stays at top (unknown behavior).  Claims are emitted from
    the function's actual intra-function data-dependence edges, so
    rule annotations always survive the verifier.

    The rules compile into one regex alternation, one group per rule in
    order, so a match's ``lastindex`` is the first rule matching a name.
    """

    def __init__(self, rules: Sequence[tuple[str, str]], lattice: Lattice):
        self.rules: list[tuple[str, Label]] = []
        for pattern, label_text in rules:
            if not pattern:
                raise SchemaError("empty pattern")
            try:
                label = lattice.parse(label_text)
            except Exception as exc:
                raise SchemaError(f"rule '{pattern}' -> '{label_text}': {exc}") from None
            self.rules.append((pattern, label))
        # "(?!)" matches nothing: no rules leave every function at top.
        self._match = re.compile("|".join(_rule_regex(p) for p, _ in self.rules) or "(?!)").match

    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation:
        opcodes = set(view.opcodes)
        callees = {attrs["callee"] for attrs in view.attrs if "callee" in attrs}
        # A rule hits when it matches any opcode or any non-empty callee.
        names = opcodes | (callees - {""})
        first = min((m.lastindex for m in map(self._match, names) if m), default=0)
        label = self.rules[first - 1][1] if first else TOP
        tokens = sorted((opcodes - {""}) | callees)
        behavior = "unknown behavior" if label.is_top else " ".join(label.path).replace("_", " ").lower()
        summary = f"{behavior} routine using {' '.join(tokens)}" if tokens else behavior
        return Annotation(function_id=str(view.function_id), label=label,
                          summary=summary, claims=view.pdg_edges)


# --- replay annotator --------------------------------------------------------

class ReplayAnnotator:
    """Replays a recorded {function_id: annotation} JSON file."""

    def __init__(self, path: str | Path, lattice: Lattice):
        doc = read_json(path, "replay file")
        if not isinstance(doc, dict):
            raise SchemaError("replay file must be a JSON object keyed by function id")
        self._table: dict[str, Annotation] = {}
        for fid, raw in doc.items():
            self._table[str(fid)] = _annotation_from_dict(str(fid), raw, lattice,
                                                          f"replay file {path}")

    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation:
        key = str(view.function_id)
        if key not in self._table:
            raise SchemaError(f"replay file has no annotation for function {key}")
        return self._table[key]


# --- external command annotator ----------------------------------------------

# Seconds one external annotator call may run before its function fails.
ANNOTATOR_TIMEOUT_S = 60.0


class CommandAnnotator:
    """Runs an external annotator process per function.

    The request is one JSON object on stdin:

        {"function_id": 7, "binary_id": "...",
         "nodes": [{"id":..., "kind":..., "opcode":..., "attrs":...}, ...],
         "pdg_edges": [[src, dst], ...]}

    The tool must print one JSON annotation on stdout:

        {"label": "Hardware/Coil_Write", "summary": "...",
         "claims": [[src, dst], ...]}

    ``nodes`` lists the function's nodes in id order and ``pdg_edges``
    its inner data-dependence edges in canonical edge order.  ``argv``
    is a list of arguments; one string is rejected, not split.
    Non-zero exit, a run past ``ANNOTATOR_TIMEOUT_S``, unparseable
    output, or an unknown label raise AnnotatorFailure (``build_corpus``
    then counts the function as failed and moves on).
    """

    def __init__(self, argv: Sequence[str], lattice: Lattice):
        if isinstance(argv, str):
            raise ConfigError(f"external annotator command {argv!r} must be a list of "
                              "arguments, not one string")
        if not argv:
            raise ConfigError("external annotator needs a command")
        self.argv = list(argv)
        self.lattice = lattice

    def annotate(self, view: FunctionSubgraph, context: Mapping) -> Annotation:
        request = {
            "function_id": view.function_id,
            "binary_id": context.get("binary_id", ""),
            "nodes": [{"id": i, "kind": kind.value, "opcode": opcode,
                       "attrs": dict(sorted(attrs.items()))}
                      for i, kind, opcode, attrs in zip(view.node_ids, view.kinds,
                                                        view.opcodes, view.attrs)],
            "pdg_edges": view.pdg_edges.tolist(),
        }
        try:
            proc = subprocess.run(
                self.argv, input=json.dumps(request).encode("utf-8"),
                capture_output=True, timeout=ANNOTATOR_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise AnnotatorFailure(view.function_id, str(exc)) from None
        if proc.returncode != 0:
            raise AnnotatorFailure(
                view.function_id, f"exit code {proc.returncode}")
        try:
            raw = json.loads(proc.stdout.decode("utf-8"))
            return _annotation_from_dict(str(view.function_id), raw, self.lattice,
                                         "annotator response")
        except AnnotatorFailure:
            raise
        except Exception as exc:
            raise AnnotatorFailure(view.function_id, f"bad response: {exc}") from None


def _annotation_from_dict(function_id: str, raw, lattice: Lattice, where: str) -> Annotation:
    """The annotation a JSON object holds; ``where`` names its source in errors.

    ``claims`` (default none) is a list of [source, sink] pairs of
    integer node ids; a boolean, a float or a string is not an id.
    """
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: annotation for function {function_id} must be an object, "
                          f"got {raw!r}")
    for key in ("label", "summary"):
        if key not in raw:
            raise SchemaError(f"{where}: annotation for function {function_id} missing '{key}'")
        if type(raw[key]) is not str:
            raise SchemaError(f"{where}: annotation for function {function_id} has "
                              f"non-string {key} {raw[key]!r}")
    claims = raw.get("claims", [])
    if not isinstance(claims, list):
        raise SchemaError(f"{where}: annotation for function {function_id} has claims "
                          f"{claims!r}, not a list")
    if not (set(map(type, claims)) <= {list} and set(map(len, claims)) <= {2}
            and set(map(type, chain.from_iterable(claims))) <= {int}):
        for pair in claims:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) is int for v in pair)):
                raise SchemaError(f"{where}: annotation for function {function_id} has claim "
                                  f"{pair!r}, not a [source, sink] pair of integer node ids")
    try:
        pairs = np.array(claims, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id past int64 names no node: the gate rejects the claim
        pairs = np.array(claims, dtype=object).reshape(-1, 2)
    return Annotation(
        function_id=function_id,
        label=lattice.parse(raw["label"]),
        summary=raw["summary"],
        claims=pairs,
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
            "claims": ann.claims.tolist(),
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"corpus file {path} is not valid UTF-8: {exc}") from None
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        where = f"corpus file {path} line {i + 1}"
        try:
            raw = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{where}: {exc}") from None
        if not isinstance(raw, dict):
            raise SchemaError(f"{where} must hold an object, got {raw!r}")
        if "trailer" in raw:
            t = raw["trailer"]
            counts = (t.get("rejected", 0), t.get("failed", 0)) if isinstance(t, dict) else (None,)
            if not all(type(n) is int and n >= 0 for n in counts):
                raise SchemaError(f"{where}: trailer {t!r} must give 'rejected' and "
                                  "'failed' as non-negative integers")
            corpus.rejected_count, corpus.failed_count = counts
            seen_trailer = True
            continue
        if "function_id" not in raw:
            raise SchemaError(f"{where} missing 'function_id'")
        if not isinstance(raw["function_id"], str):
            raise SchemaError(f"{where} has non-string function_id {raw['function_id']!r}")
        corpus.accepted.append(_annotation_from_dict(raw["function_id"], raw, lattice, where))
    if not seen_trailer:
        raise SchemaError(f"corpus file {path} has no trailer line")
    return corpus
