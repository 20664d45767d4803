"""Fingerprint coverage scoring, threshold selection, and ranking quality."""

import json
import math

import numpy as np
import pytest

from binrisk.errors import (
    DimensionMismatch,
    EmptyTarget,
    LengthMismatch,
    SchemaError,
    SingleClassInput,
)
from binrisk.fingerprint import (
    BENIGN,
    MALICIOUS,
    Fingerprint,
    _midranks,
    dumps_fingerprint,
    load_fingerprint,
    load_repository,
    match_and_alert,
    roc_auc,
    select_threshold,
)
from binrisk.pipeline import write_atomic


def node(eid, values):
    return eid, np.asarray(values, dtype=np.float64)


def embeddings(nodes):
    """(ids, vectors) of (id, vector) rows, in row order, as forward returns them."""
    ids, vectors = zip(*nodes)
    return np.array(ids, dtype=np.int64), np.stack(vectors)


def fp(*nodes, name="fp"):
    ids, vectors = embeddings(nodes)
    return Fingerprint(name=name, entity_ids=ids, vectors=vectors)


def match_and_alert_rows(target, fingerprints, tau):
    """match_and_alert over a target given as (id, vector) rows."""
    return match_and_alert(*embeddings(target), fingerprints, tau)


# --- similarity --------------------------------------------------------------

def cos_clamped(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(0.0, sum(x * y for x, y in zip(a, b)) / (na * nb))


def similarity_oracle(target, pattern):
    per_node = [max(cos_clamped(n, t) for _, t in target) for n in pattern.vectors]
    return sum(per_node) / len(per_node)


def test_similarity_hand_case():
    target = [node(0, [1, 0]), node(1, [0, 1])]
    pattern = fp(node(0, [1, 0]), node(1, [1, 1]))
    # first node matches exactly; second is 45 degrees from both targets
    want = (1.0 + math.cos(math.pi / 4)) / 2
    [match] = match_and_alert_rows(target, [pattern], 0.0)
    assert match.similarity == pytest.approx(want, abs=1e-12)


def test_similarity_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(808)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        target = [node(i, rng.standard_normal(dim))
                  for i in range(int(rng.integers(1, 11)))]
        pattern = fp(*[node(i, rng.standard_normal(dim))
                       for i in range(int(rng.integers(1, 7)))])
        got = match_and_alert_rows(target, [pattern], 0.0)[0].similarity
        assert abs(got - similarity_oracle(target, pattern)) < 1e-12


def test_self_similarity_is_one_for_unit_norm():
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((6, 12))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    target = [node(i, v) for i, v in enumerate(vecs)]
    pattern = fp(*target)
    [match] = match_and_alert_rows(target, [pattern], 0.0)
    assert abs(match.similarity - 1.0) < 1e-12


def test_adding_target_entities_never_lowers_similarity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dim = 8
        base = [node(i, rng.standard_normal(dim)) for i in range(4)]
        extra = base + [node(9 + i, rng.standard_normal(dim)) for i in range(3)]
        pattern = fp(*[node(i, rng.standard_normal(dim)) for i in range(3)])
        [wider], [narrower] = (match_and_alert_rows(t, [pattern], 0.0) for t in (extra, base))
        assert wider.similarity >= narrower.similarity - 1e-12


def test_best_match_tie_breaks_to_lowest_entity_id():
    v = [0.6, 0.8]
    target = [node(2, v), node(5, v)]  # identical vectors, ids ascending as forward gives
    results = match_and_alert_rows(target, [fp(node(0, v))], tau=0.5)
    assert results[0].pairs == ((0, 2, pytest.approx(1.0)),)


def test_negative_cosines_clamp_to_zero():
    target = [node(0, [-1.0, 0.0])]
    pattern = fp(node(0, [1.0, 0.0]))
    assert match_and_alert_rows(target, [pattern], 0.0)[0].similarity == 0.0


def test_zero_norm_vectors_score_zero_not_nan():
    target = [node(0, [0.0, 0.0]), node(1, [1.0, 0.0])]
    pattern = fp(node(0, [1.0, 0.0]), node(1, [0.0, 0.0]))
    got = match_and_alert_rows(target, [pattern], 0.0)[0].similarity
    assert got == pytest.approx(0.5)  # only the aligned pair contributes


def test_alert_requires_strict_exceedance():
    target = [node(0, [1.0, 0.0])]
    pattern = fp(node(0, [1.0, 0.0]))
    at_tau = match_and_alert_rows(target, [pattern], tau=1.0)
    below = match_and_alert_rows(target, [pattern], tau=0.999)
    assert at_tau[0].similarity == 1.0
    assert not at_tau[0].alert
    assert below[0].alert


def test_similarity_input_validation():
    pattern = fp(node(0, [1.0, 0.0]))
    with pytest.raises(EmptyTarget):
        match_and_alert(np.empty(0, dtype=np.int64), np.empty((0, 2)), [pattern], 0.0)
    with pytest.raises(DimensionMismatch, match="fingerprint"):
        match_and_alert_rows([node(0, [1.0, 0.0, 0.0])], [pattern], 0.0)
    with pytest.raises(SchemaError, match="no node embeddings"):
        Fingerprint(name="empty", entity_ids=np.empty(0, dtype=np.int64),
                    vectors=np.empty((0, 2)))


# --- threshold selection ----------------------------------------------------------

def threshold_oracle(scores, cap=0.05):
    """Exhaustive scan of the default grid in integer hundredths."""
    malicious = [s for s, lab in scores if lab == MALICIOUS]
    benign = [s for s, lab in scores if lab == BENIGN]
    grid = []
    for tick in range(50, 96):
        tau = tick / 100
        tpr = sum(1 for s in malicious if s > tau) / len(malicious)
        fpr = sum(1 for s in benign if s > tau) / len(benign)
        grid.append((tau, tpr, fpr, tpr - fpr))
    feasible = [p for p in grid if p[2] <= cap]
    if feasible:
        return max(feasible, key=lambda p: (p[3], -p[0])), True
    return max(grid, key=lambda p: (-p[2], p[3], -p[0])), False


def load_fixture_scores(fixtures_dir):
    doc = json.loads((fixtures_dir / "threshold_scores.json").read_text())
    return [(row["score"], row["label"]) for row in doc]


def test_threshold_fixture_operating_point(fixtures_dir):
    scores = load_fixture_scores(fixtures_dir)
    report = select_threshold(scores)
    assert report.tau == 0.78
    assert report.tpr == 0.720
    assert report.fpr == 0.038
    assert report.j_statistic == pytest.approx(0.682, abs=1e-12)
    assert report.fpr_cap_satisfied
    # every smaller grid threshold violates the cap
    for p in report.grid:
        if p.tau < 0.78:
            assert p.fpr > 0.05


def test_threshold_matches_oracle(fixtures_dir):
    scores = load_fixture_scores(fixtures_dir)
    (tau, tpr, fpr, j), ok = threshold_oracle(scores)
    report = select_threshold(scores)
    assert (report.tau, report.tpr, report.fpr) == (tau, tpr, fpr)
    assert report.fpr_cap_satisfied is ok


def test_threshold_matches_oracle_on_random_scores():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_mal = int(rng.integers(1, 60))
        n_ben = int(rng.integers(1, 60))
        quantize = rng.random() < 0.5
        def draw(n, lab):
            vals = rng.uniform(0, 1, size=n)
            if quantize:  # force grid ties
                vals = np.round(vals, 2)
            return [(float(v), lab) for v in vals]
        scores = draw(n_mal, MALICIOUS) + draw(n_ben, BENIGN)
        cap = float(rng.choice([0.02, 0.05, 0.2]))
        report = select_threshold(scores, fpr_cap=cap)
        (tau, tpr, fpr, j), ok = threshold_oracle(scores, cap=cap)
        assert report.tau == tau
        assert report.tpr == tpr
        assert report.fpr == fpr
        assert report.fpr_cap_satisfied is ok
        if ok:
            assert report.fpr <= cap


def test_threshold_ties_prefer_smaller_tau():
    scores = [(0.9, MALICIOUS), (0.9, MALICIOUS), (0.1, BENIGN)]
    report = select_threshold(scores)
    # J = 1 for every tau below 0.9, so the smallest grid point wins
    assert report.tau == 0.50
    assert report.j_statistic == 1.0


def test_threshold_infeasible_cap_falls_back_flagged():
    scores = [(1.0, MALICIOUS), (1.0, BENIGN)]
    report = select_threshold(scores)
    assert not report.fpr_cap_satisfied
    assert report.fpr == 1.0
    assert report.tau == 0.50


def test_threshold_input_validation():
    with pytest.raises(SingleClassInput):
        select_threshold([(0.5, BENIGN), (0.6, BENIGN)])
    with pytest.raises(SchemaError, match="unknown labels"):
        select_threshold([(0.5, BENIGN), (0.6, "weird")])
    with pytest.raises(SchemaError, match="grid"):
        select_threshold([(0.5, BENIGN), (0.6, MALICIOUS)],
                         grid_lo=0.9, grid_hi=0.5)
    # Similarities lie in [0, 1]: a grid past them is refused, not walked.
    for bounds in ({"grid_lo": -0.5}, {"grid_hi": 1e9}, {"grid_lo": float("nan")}):
        with pytest.raises(SchemaError, match="0 <= grid_lo <= grid_hi <= 1"):
            select_threshold([(0.5, BENIGN), (0.6, MALICIOUS)], **bounds)
    with pytest.raises(SchemaError, match="grid_step"):
        select_threshold([(0.5, BENIGN), (0.6, MALICIOUS)], grid_step=1e-9)


# --- ranking quality ---------------------------------------------------------------

def auc_oracle(scores, labels):
    mal = [s for s, lab in zip(scores, labels) if lab == MALICIOUS]
    ben = [s for s, lab in zip(scores, labels) if lab == BENIGN]
    total = 0.0
    for m in mal:
        for b in ben:
            total += 1.0 if m > b else (0.5 if m == b else 0.0)
    return total / (len(mal) * len(ben))


def test_auc_perfect_reversed_and_tied():
    assert roc_auc([0.9, 0.8, 0.1, 0.2],
                   [MALICIOUS, MALICIOUS, BENIGN, BENIGN]) == 1.0
    assert roc_auc([0.1, 0.2, 0.9, 0.8],
                   [MALICIOUS, MALICIOUS, BENIGN, BENIGN]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5], [MALICIOUS, BENIGN, BENIGN]) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        labels = [MALICIOUS if rng.random() < 0.5 else BENIGN for _ in range(n)]
        if MALICIOUS not in labels:
            labels[0] = MALICIOUS
        if BENIGN not in labels:
            labels[-1] = BENIGN
        scores = np.round(rng.uniform(0, 1, size=n), 1).tolist()  # many ties
        got = roc_auc(scores, labels)
        assert abs(got - auc_oracle(scores, labels)) < 1e-12


def test_midranks_equal_scipy_rankdata_average():
    from scipy.stats import rankdata

    rng = np.random.default_rng(4242)
    cases = [[], [1.0], [2.0, 2.0, 2.0], [0.0, -0.0, 1.0, -0.0], [3.0, 1.0, 2.0],
             [1.0, np.nan, 0.5], [np.inf, -np.inf, np.inf, 0.0]]
    for _ in range(200):
        n = int(rng.integers(1, 60))
        cases.append(np.round(rng.normal(size=n), int(rng.integers(0, 3))).tolist())
    for values in cases:
        x = np.asarray(values, dtype=np.float64)
        got = _midranks(x)
        want = rankdata(x, method="average")
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True), values


def test_auc_input_validation():
    with pytest.raises(LengthMismatch):
        roc_auc([0.5], [MALICIOUS, BENIGN])
    with pytest.raises(SingleClassInput):
        roc_auc([0.5, 0.6], [MALICIOUS, MALICIOUS])
    with pytest.raises(SchemaError):
        roc_auc([0.5, 0.6], [MALICIOUS, "other"])


# --- persistence ---------------------------------------------------------------

def test_fingerprint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    pattern = Fingerprint(
        name="campaign-x", entity_ids=np.array([3, 7]),
        vectors=rng.standard_normal((2, 8)), provenance="incident 2026-02/a")
    path = tmp_path / "campaign-x.json"
    write_atomic(path, dumps_fingerprint(pattern))
    back = load_fingerprint(path)
    assert back.name == pattern.name
    assert back.provenance == pattern.provenance
    assert back.entity_ids.dtype == np.int64 and back.entity_ids.tolist() == [3, 7]
    assert np.array_equal(back.vectors, pattern.vectors)
    assert back.vectors.dtype == np.float64 and not back.vectors.flags.writeable


def test_fingerprint_default_ids_are_positional(tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({
        "name": "n", "embeddings": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
    back = load_fingerprint(path)
    assert back.entity_ids.tolist() == [0, 1]


def test_fingerprint_file_validation(tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({"embeddings": [[1.0]]}), encoding="utf-8")
    with pytest.raises(SchemaError, match="name"):
        load_fingerprint(path)
    path.write_text(json.dumps({"name": "n"}), encoding="utf-8")
    with pytest.raises(SchemaError, match="embeddings"):
        load_fingerprint(path)
    path.write_text(json.dumps({
        "name": "n", "embeddings": [[1.0]], "entity_ids": [0, 1]}),
        encoding="utf-8")
    with pytest.raises(SchemaError, match="length"):
        load_fingerprint(path)


@pytest.mark.parametrize("doc, fault", [
    ({"name": "n", "embeddings": [[1.0, 0.0], [1.0]]}, "vectors have mixed dimensions [1, 2]"),
    ({"name": "n", "embeddings": [[1.0]], "entity_ids": [2 ** 63]},
     f"entity id {2 ** 63} does not fit in int64"),
    ({"name": "n", "embeddings": [[1.0], [2.0]], "entity_ids": [0, -2 ** 63 - 1]},
     f"entity id {-2 ** 63 - 1} does not fit in int64"),
], ids=["mixed_dimensions", "id_above_int64", "id_below_int64"])
def test_fingerprint_file_rejects_mixed_dimensions_and_ids_past_int64(tmp_path, doc, fault):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_fingerprint(path)
    assert str(info.value) == f"fingerprint file {path}: {fault}"


def test_fingerprint_rows_keep_file_order_and_repeated_ids(tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({"name": "n", "embeddings": [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                                "entity_ids": [7, 7, -2 ** 63]}), encoding="utf-8")
    back = load_fingerprint(path)
    assert back.entity_ids.tolist() == [7, 7, -2 ** 63]
    [match] = match_and_alert_rows([node(1, [1.0, 0.0]), node(4, [0.0, 1.0])], [back], 0.0)
    assert [(a, b) for a, b, _ in match.pairs] == [(7, 4), (7, 1), (-2 ** 63, 1)]
    assert json.loads(dumps_fingerprint(back))["entity_ids"] == [7, 7, -2 ** 63]


def test_repository_loads_fixture_fingerprints(fixtures_dir):
    repo = load_repository(fixtures_dir / "fingerprints")
    assert [f.name for f in repo] == ["decoy_apt", "planted_apt"]  # file order
    planted = repo[1]
    assert planted.entity_ids.tolist() == [0, 1]
    assert planted.vectors.shape == (2, 64)
    assert planted.provenance != ""


def test_repository_rejects_non_directory(tmp_path):
    with pytest.raises(SchemaError, match="not a directory"):
        load_repository(tmp_path / "missing")
