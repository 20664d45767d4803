"""Confusion-matrix metrics and chance-corrected agreement."""

import math

import numpy as np
import pytest

from binrisk.errors import SchemaError
from binrisk.metrics import ConfusionCounts, classification_metrics, cohen_kappa


def test_hand_counts_give_exact_values():
    m = classification_metrics(ConfusionCounts(tp=6, fp=2, tn=9, fn=3))
    assert m.precision == 6 / 8
    assert m.recall == 6 / 9
    assert m.f1 == 12 / 17
    assert m.fpr == 2 / 11
    assert m.mcc == (6 * 9 - 2 * 3) / math.sqrt(8 * 9 * 11 * 12)
    assert m.mcc == pytest.approx(0.4923659639173309, abs=1e-15)
    assert m.flagged == frozenset()


def test_perfect_classifier():
    m = classification_metrics(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
    assert (m.precision, m.recall, m.f1, m.mcc, m.fpr) == (1.0, 1.0, 1.0, 1.0, 0.0)


def test_zero_denominators_flagged_not_raised():
    m = classification_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.flagged == {"precision", "recall", "f1", "mcc"}
    assert m.fpr == 0.0 and "fpr" not in m.flagged

    empty = classification_metrics(ConfusionCounts(0, 0, 0, 0))
    assert empty.flagged == {"precision", "recall", "f1", "mcc", "fpr"}


def test_mcc_symmetric_under_class_swap():
    rng = np.random.default_rng(606)
    for _ in range(80):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
        a = classification_metrics(ConfusionCounts(tp, fp, tn, fn))
        # swapping the positive class maps tp<->tn and fp<->fn
        b = classification_metrics(ConfusionCounts(tn, fn, tp, fp))
        if "mcc" not in a.flagged:
            assert a.mcc == pytest.approx(b.mcc, abs=1e-12)


def test_negative_counts_rejected():
    with pytest.raises(SchemaError, match="fn"):
        ConfusionCounts(tp=1, fp=1, tn=1, fn=-1)


def test_kappa_hand_case():
    # observed agreement 0.75, expected 0.5
    assert cohen_kappa(list("xxyy"), list("xxyx")) == pytest.approx(0.5)


def test_kappa_relabel_invariance():
    rng = np.random.default_rng(11)
    labels = ["a", "b", "c"]
    for _ in range(40):
        n = int(rng.integers(1, 30))
        a = [labels[int(i)] for i in rng.integers(0, 3, size=n)]
        b = [labels[int(i)] for i in rng.integers(0, 3, size=n)]
        mapping = {"a": "z", "b": "q", "c": "m"}
        before = cohen_kappa(a, b)
        after = cohen_kappa([mapping[x] for x in a], [mapping[x] for x in b])
        assert before == pytest.approx(after, abs=1e-12)


def test_kappa_is_symmetric_in_raters():
    a = list("aabbc")
    b = list("ababc")
    assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a), abs=1e-15)


def test_kappa_degenerate_full_agreement():
    # single shared label: expected agreement 1, defined as perfect
    assert cohen_kappa(["x", "x", "x"], ["x", "x", "x"]) == 1.0


def test_kappa_no_agreement_beyond_chance():
    # marginals uniform, observed agreement equals chance
    a = list("abab")
    b = list("baba")
    assert cohen_kappa(a, b) == pytest.approx(-1.0)


def test_kappa_input_validation():
    with pytest.raises(SchemaError, match="rater sequences differ: 1 vs 2"):
        cohen_kappa(["a"], ["a", "b"])
    with pytest.raises(SchemaError, match="agreement over zero items is undefined"):
        cohen_kappa([], [])


def test_counts_past_int64_rejected():
    top = 2**63 - 1  # the MCC denominator, (2 top)^4, is still a float
    assert classification_metrics(ConfusionCounts(top, top, top, top)).mcc == 0.0
    with pytest.raises(SchemaError, match="tn does not fit in int64"):
        ConfusionCounts(tp=1, fp=1, tn=2**63, fn=1)
