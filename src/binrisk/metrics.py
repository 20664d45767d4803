"""Classification and agreement metrics with explicit degenerate handling.

Any metric whose denominator is zero comes back as 0.0 and its name is
recorded in the flagged set, so callers can tell a true zero from an
undefined one without exceptions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import SchemaError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if value < 0:
                raise SchemaError(f"{name} must be non-negative")
            if value > 2**63 - 1:  # so the MCC denominator stays a float
                raise SchemaError(f"{name} does not fit in int64")


@dataclass(frozen=True)
class ClassificationMetrics:
    precision: float
    recall: float
    f1: float
    mcc: float
    fpr: float
    flagged: frozenset[str]


def classification_metrics(c: ConfusionCounts) -> ClassificationMetrics:
    flagged = set()

    def ratio(name: str, num: float, den: float) -> float:
        if den == 0:
            flagged.add(name)
            return 0.0
        return num / den

    precision = ratio("precision", c.tp, c.tp + c.fp)
    recall = ratio("recall", c.tp, c.tp + c.fn)
    f1 = ratio("f1", 2 * c.tp, 2 * c.tp + c.fp + c.fn)
    fpr = ratio("fpr", c.fp, c.fp + c.tn)
    mcc_den = ((c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn))
    if mcc_den == 0:
        flagged.add("mcc")
        mcc = 0.0
    else:
        mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(mcc_den)
    return ClassificationMetrics(
        precision=precision, recall=recall, f1=f1, mcc=mcc, fpr=fpr,
        flagged=frozenset(flagged),
    )


def cohen_kappa(rater_a: Sequence[Hashable], rater_b: Sequence[Hashable]) -> float:
    """Chance-corrected agreement between two label sequences.

    The degenerate case where expected agreement is exactly one can
    only arise when both raters use a single identical label, meaning
    full agreement, so it returns 1.0.
    """
    if len(rater_a) != len(rater_b):
        raise SchemaError(
            f"rater sequences differ: {len(rater_a)} vs {len(rater_b)}")
    n = len(rater_a)
    if n == 0:
        raise SchemaError("agreement over zero items is undefined")
    observed = sum(a == b for a, b in zip(rater_a, rater_b)) / n
    count_a = Counter(rater_a)
    count_b = Counter(rater_b)
    expected = sum(count_a[k] * count_b.get(k, 0) for k in count_a) / (n * n)
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)
