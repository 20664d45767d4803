"""Attack-pattern fingerprint matching and operating-point selection.

A fingerprint is a small set of entity embeddings extracted from a
previously analyzed campaign.  Similarity against a target graph is
asymmetric best-match coverage: for each fingerprint node take its
best cosine against any target entity (negative cosines clamp to
zero), then average over the fingerprint nodes.  A target only has to
CONTAIN the pattern, so adding target entities never lowers the score.

Alerts fire on strict exceedance of the decision threshold.  The
threshold itself is chosen on labeled scores over a fixed grid by
Youden's J statistic (TPR - FPR) subject to a false-positive-rate cap,
with ties broken toward the smaller threshold.  If no grid point meets
the cap, the report falls back to the minimum-FPR point and says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cpg import _floats
from .errors import (
    DimensionMismatch,
    EmptyTarget,
    LengthMismatch,
    SchemaError,
    SingleClassInput,
    dumps_json,
    read_json,
)
from .graphormer import NodeEmbedding

MALICIOUS = "malicious"
BENIGN = "benign"


@dataclass(frozen=True)
class Fingerprint:
    name: str
    node_embeddings: tuple[NodeEmbedding, ...]
    provenance: str = ""

    def __post_init__(self):
        if not self.node_embeddings:
            raise SchemaError(f"fingerprint '{self.name}' has no node embeddings")


@dataclass(frozen=True)
class MatchResult:
    fingerprint: str
    similarity: float
    # One (fingerprint node id, best target entity id, clamped cosine)
    # triple per fingerprint node.
    pairs: tuple[tuple[int, int, float], ...]
    alert: bool


@dataclass(frozen=True)
class GridPoint:
    tau: float
    tpr: float
    fpr: float
    j: float


@dataclass(frozen=True)
class ThresholdReport:
    tau: float
    j_statistic: float
    tpr: float
    fpr: float
    fpr_cap: float
    fpr_cap_satisfied: bool
    grid: tuple[GridPoint, ...] = field(repr=False)


def _best_matches(target: Sequence[NodeEmbedding], fp: Fingerprint):
    if not target:
        raise EmptyTarget("cannot match against an empty target graph")
    target = sorted(target, key=lambda e: e.entity_id)
    dim = target[0].vector.shape[0]
    for e in target:
        if e.vector.shape != (dim,):
            raise DimensionMismatch("target embeddings have mixed dimensions")
    for e in fp.node_embeddings:
        if e.vector.shape != (dim,):
            raise DimensionMismatch(
                f"fingerprint '{fp.name}' dimension {e.vector.shape[0]} != target {dim}")
    tmat = np.stack([e.vector for e in target])
    fmat = np.stack([e.vector for e in fp.node_embeddings])
    tnorm = np.linalg.norm(tmat, axis=1)
    fnorm = np.linalg.norm(fmat, axis=1)
    # Zero-norm embeddings contribute zero similarity instead of NaN.
    tsafe = np.where(tnorm == 0.0, 1.0, tnorm)
    fsafe = np.where(fnorm == 0.0, 1.0, fnorm)
    cos = (fmat / fsafe[:, None]) @ (tmat / tsafe[:, None]).T
    cos[fnorm == 0.0, :] = 0.0
    cos[:, tnorm == 0.0] = 0.0
    clamped = np.clip(cos, 0.0, None)
    pairs = []
    for row, node in enumerate(fp.node_embeddings):
        # argmax takes the first maximum; targets are in ascending
        # entity-id order, so ties resolve to the lowest entity id.
        best = int(np.argmax(clamped[row]))
        pairs.append((node.entity_id, target[best].entity_id,
                      float(clamped[row, best])))
    return pairs


def match_and_alert(target: Sequence[NodeEmbedding],
                    fingerprints: Sequence[Fingerprint],
                    tau: float) -> list[MatchResult]:
    """Score every fingerprint, its similarity being the mean best-match
    clamped cosine over its nodes; alert on similarity strictly above tau."""
    results = []
    for fp in fingerprints:
        pairs = _best_matches(target, fp)
        score = float(np.mean([p[2] for p in pairs]))
        results.append(MatchResult(
            fingerprint=fp.name,
            similarity=score,
            pairs=tuple(pairs),
            alert=score > tau,
        ))
    return results


def select_threshold(scores: Sequence[tuple[float, str]],
                     grid_lo: float = 0.50, grid_hi: float = 0.95,
                     grid_step: float = 0.01,
                     fpr_cap: float = 0.05) -> ThresholdReport:
    """Pick the operating threshold on labeled similarity scores.

    The grid runs from grid_lo to grid_hi inclusive.  Feasible points
    have FPR at or below the cap; among them the largest J
    (TPR - FPR) wins and ties go to the smaller threshold.  With no
    feasible point the minimum-FPR point is returned (ties again by
    larger J, then smaller threshold) and the report is flagged.
    """
    labels = {label for _, label in scores}
    bad = labels - {MALICIOUS, BENIGN}
    if bad:
        raise SchemaError(f"unknown labels {sorted(bad)}")
    if labels != {MALICIOUS, BENIGN}:
        raise SingleClassInput("need both malicious and benign scores")
    malicious = np.array([s for s, label in scores if label == MALICIOUS])
    benign = np.array([s for s, label in scores if label == BENIGN])

    # Integer ticks keep grid values exact (no accumulated float step).
    scale = 1_000_000
    lo, hi = round(grid_lo * scale), round(grid_hi * scale)
    step = round(grid_step * scale)
    if step <= 0 or hi < lo:
        raise SchemaError("bad threshold grid")
    points = []
    for tick in range(lo, hi + 1, step):
        tau = tick / scale
        tpr = float(np.mean(malicious > tau))
        fpr = float(np.mean(benign > tau))
        points.append(GridPoint(tau=tau, tpr=tpr, fpr=fpr, j=tpr - fpr))

    feasible = [p for p in points if p.fpr <= fpr_cap]
    if feasible:
        chosen = max(feasible, key=lambda p: (p.j, -p.tau))
        satisfied = True
    else:
        chosen = max(points, key=lambda p: (-p.fpr, p.j, -p.tau))
        satisfied = False
    return ThresholdReport(
        tau=chosen.tau, j_statistic=chosen.j, tpr=chosen.tpr, fpr=chosen.fpr,
        fpr_cap=fpr_cap, fpr_cap_satisfied=satisfied, grid=tuple(points),
    )


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x with each run of ties given its mean rank.

    The same values as ``scipy.stats.rankdata(x, method="average")``:
    a tie run at sorted positions i..j-1 gets (i + 1 + j) / 2, exact in
    float64, and any NaN makes every rank NaN.
    """
    if np.isnan(x).any():
        return np.full(len(x), np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """Probability a malicious score outranks a benign one, ties at half.

    Computed with midranks, which is exactly the pairwise concordance
    count with ties contributing one half.
    """
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    labels = list(labels)
    bad = set(labels) - {MALICIOUS, BENIGN}
    if bad:
        raise SchemaError(f"unknown labels {sorted(bad)}")
    is_mal = np.array([lab == MALICIOUS for lab in labels])
    n_mal = int(is_mal.sum())
    n_ben = len(labels) - n_mal
    if n_mal == 0 or n_ben == 0:
        raise SingleClassInput("AUC needs both classes")
    ranks = _midranks(np.asarray(scores, dtype=np.float64))
    mal_rank_sum = float(ranks[is_mal].sum())
    return (mal_rank_sum - n_mal * (n_mal + 1) / 2.0) / (n_mal * n_ben)


# --- serialization ------------------------------------------------------------

def dumps_fingerprint(fp: Fingerprint) -> str:
    doc = {
        "name": fp.name,
        "provenance": fp.provenance,
        "embeddings": [e.vector.tolist() for e in fp.node_embeddings],
    }
    ids = [e.entity_id for e in fp.node_embeddings]
    if ids != list(range(len(ids))):
        doc["entity_ids"] = ids
    return dumps_json(doc)


def load_fingerprint(path: str | Path) -> Fingerprint:
    doc = read_json(path, "fingerprint file")
    if not isinstance(doc, dict):
        raise SchemaError(f"fingerprint file {path}: top-level document must be an object")
    for key in ("name", "embeddings"):
        if key not in doc:
            raise SchemaError(f"fingerprint file {path} is missing '{key}'")
    name, provenance, rows = doc["name"], doc.get("provenance", ""), doc["embeddings"]
    for key, value in (("name", name), ("provenance", provenance)):
        if type(value) is not str:
            raise SchemaError(f"fingerprint file {path}: '{key}' must be a string, got {value!r}")
    vectors = list(map(_floats, rows if type(rows) is list else [None]))
    if not all(v is not None and np.isfinite(v).all() for v in vectors):
        raise SchemaError(f"fingerprint file {path}: every embedding must be "
                          "a flat list of finite numbers")
    ids = doc.get("entity_ids", list(range(len(vectors))))
    if not isinstance(ids, list):
        raise SchemaError(f"fingerprint file {path}: entity_ids must be a list, got {ids!r}")
    for i in ids:
        if type(i) is not int:  # not a boolean, a float or a string
            raise SchemaError(f"fingerprint file {path}: entity id {i!r} is not an integer")
    if len(ids) != len(vectors):
        raise SchemaError(f"fingerprint file {path}: entity_ids length mismatch")
    nodes = tuple(NodeEmbedding(entity_id=i, vector=v) for i, v in zip(ids, vectors))
    return Fingerprint(name=name, node_embeddings=nodes, provenance=provenance)


def load_repository(directory: str | Path) -> list[Fingerprint]:
    """Load every *.json fingerprint in the directory, by file name."""
    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"fingerprint repository {directory} is not a directory")
    return [load_fingerprint(p) for p in sorted(root.glob("*.json"))]
