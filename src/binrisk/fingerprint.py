"""Attack-pattern fingerprint matching and operating-point selection.

A fingerprint is a small set of entity embeddings extracted from a
previously analyzed campaign: a matrix of node vectors and each row's
entity id.  Similarity against a target graph (ids beside a matrix, as
``forward`` gives them) is asymmetric best-match coverage: for each
fingerprint node take its best cosine against any target entity, one
product and one argmax per row (negative cosines clamp to zero), then
average over the fingerprint nodes.  A target only has to CONTAIN the
pattern, so adding target entities never lowers the score.

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

from .cpg import _floats, _is_id, _matrix
from .errors import (
    DimensionMismatch,
    EmptyTarget,
    LengthMismatch,
    SchemaError,
    SingleClassInput,
    dumps_json,
    read_json,
)

MALICIOUS = "malicious"
BENIGN = "benign"


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """A stored pattern: a (k, d) float64 matrix of node vectors and the
    int64 id of each row, in file row order (an id may repeat)."""
    name: str
    entity_ids: np.ndarray
    vectors: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if not len(self.entity_ids):
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


def _best_matches(ids: np.ndarray, vectors: np.ndarray, fp: Fingerprint):
    if not len(ids):
        raise EmptyTarget("cannot match against an empty target graph")
    if fp.vectors.shape[1] != vectors.shape[1]:
        raise DimensionMismatch(f"fingerprint '{fp.name}' dimension {fp.vectors.shape[1]} "
                                f"!= target {vectors.shape[1]}")
    tnorm = np.linalg.norm(vectors, axis=1)
    fnorm = np.linalg.norm(fp.vectors, axis=1)
    # Zero-norm embeddings contribute zero similarity instead of NaN.
    tsafe = np.where(tnorm == 0.0, 1.0, tnorm)
    fsafe = np.where(fnorm == 0.0, 1.0, fnorm)
    cos = (fp.vectors / fsafe[:, None]) @ (vectors / tsafe[:, None]).T
    cos[fnorm == 0.0, :] = 0.0
    cos[:, tnorm == 0.0] = 0.0
    clamped = np.clip(cos, 0.0, None)
    # argmax takes the first maximum; the target ids ascend, so ties
    # resolve to the lowest entity id.
    best = np.argmax(clamped, axis=1)
    return list(zip(fp.entity_ids.tolist(), ids[best].tolist(),
                    clamped[np.arange(len(best)), best].tolist()))


def match_and_alert(ids: np.ndarray, vectors: np.ndarray,
                    fingerprints: Sequence[Fingerprint],
                    tau: float) -> list[MatchResult]:
    """Score every fingerprint against the target embeddings, ascending
    int64 ``ids`` beside the (n, d) matrix ``vectors`` (as ``forward``
    returns them), its similarity being the mean best-match clamped
    cosine over its nodes; alert on similarity strictly above tau."""
    results = []
    for fp in fingerprints:
        pairs = _best_matches(ids, vectors, fp)
        score = float(np.mean([p[2] for p in pairs]))
        results.append(MatchResult(fp.name, similarity=score, pairs=tuple(pairs),
                                   alert=score > tau))
    return results


# Grid values are whole ticks of 1 / _GRID_SCALE, so none accumulates float error.
_GRID_SCALE = 1_000_000


def check_threshold_grid(grid_lo: float, grid_hi: float, grid_step: float) -> None:
    """The grid rule of select_threshold: the similarities tau is picked
    for lie in [0, 1], and the step is at least one tick."""
    if not 0.0 <= grid_lo <= grid_hi <= 1.0:
        raise SchemaError("threshold grid needs 0 <= grid_lo <= grid_hi <= 1, got "
                          f"grid_lo {grid_lo} and grid_hi {grid_hi}")
    if round(grid_step * _GRID_SCALE) <= 0:
        raise SchemaError(f"threshold grid_step must round to at least one tick of 1e-06, "
                          f"got {grid_step}")


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
    check_threshold_grid(grid_lo, grid_hi, grid_step)
    labels = {label for _, label in scores}
    bad = labels - {MALICIOUS, BENIGN}
    if bad:
        raise SchemaError(f"unknown labels {sorted(bad)}")
    if labels != {MALICIOUS, BENIGN}:
        raise SingleClassInput("need both malicious and benign scores")
    malicious = np.array([s for s, label in scores if label == MALICIOUS])
    benign = np.array([s for s, label in scores if label == BENIGN])

    lo, hi = round(grid_lo * _GRID_SCALE), round(grid_hi * _GRID_SCALE)
    points = []
    for tick in range(lo, hi + 1, round(grid_step * _GRID_SCALE)):
        tau = tick / _GRID_SCALE
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
        "embeddings": fp.vectors.tolist(),
    }
    ids = fp.entity_ids.tolist()
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
        if not _is_id(i):
            raise SchemaError(f"fingerprint file {path}: entity id {i} does not fit in int64")
    if len(ids) != len(vectors):
        raise SchemaError(f"fingerprint file {path}: entity_ids length mismatch")
    return Fingerprint(name, np.array(ids, dtype=np.int64),
                       _matrix(vectors, f"fingerprint file {path}"), provenance)


def load_repository(directory: str | Path) -> list[Fingerprint]:
    """Load every *.json fingerprint in the directory, by file name."""
    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"fingerprint repository {directory} is not a directory")
    return [load_fingerprint(p) for p in sorted(root.glob("*.json"))]
