"""Label order, join, coverage, and the violation-rate calculation."""

import json
import re

import pytest

from binrisk.errors import EmptyGoldenSet, SchemaError, UnknownLabel
from binrisk.lattice import (
    EvrMode,
    GoldenRecord,
    Label,
    Lattice,
    TOP,
    covers,
    evr,
    join,
    leq,
    load_golden_set,
)

L = Label.parse


def test_parse_and_str_round_trip():
    for text in ("TOP", "Network", "Network/Protocol_Parse",
                 "Hardware/Coil_Write/Unauthenticated_Coil_Write"):
        assert str(L(text)) == text


def test_tier_depths():
    assert L("TOP").tier == 0
    assert L("Memory").tier == 1
    assert L("Hardware/Register_Read").tier == 2
    assert L("Hardware/Coil_Write/Unauthenticated_Coil_Write").tier == 3


def test_overlong_path_rejected():
    with pytest.raises(SchemaError):
        L("A/B/C/D")


def test_order_examples():
    assert leq(L("Network/Protocol_Parse"), L("Network"))
    assert leq(L("Network"), TOP)
    assert leq(L("Network"), L("Network"))
    assert not leq(L("Network"), L("Network/Protocol_Parse"))
    assert not leq(L("Network/Socket_Init"), L("Hardware"))
    assert not leq(TOP, L("Network"))


def test_join_examples():
    assert join(L("Network/Socket_Init"), L("Network/DNS_Resolve")) == L("Network")
    assert join(L("Network"), L("Hardware")) == TOP
    assert join(L("Network/Protocol_Parse"), L("Network/Protocol_Parse")) == L("Network/Protocol_Parse")
    assert join(L("Memory"), TOP) == TOP
    assert join(
        L("Hardware/Coil_Write/Unauthenticated_Coil_Write"),
        L("Hardware/Coil_Write"),
    ) == L("Hardware/Coil_Write")


def test_covers_is_flipped_order():
    truth = L("Hardware/Coil_Write/Unauthenticated_Coil_Write")
    assert covers(L("Hardware/Coil_Write"), truth)
    assert covers(TOP, truth)
    assert covers(truth, truth)
    assert not covers(truth, L("Hardware/Coil_Write"))
    assert not covers(L("Network"), truth)


def test_default_lattice_membership():
    lat = Lattice.default()
    assert len(lat.labels()) == 15  # 5 categories, 7 actions, 2 contexts, top
    assert lat.parse("TOP").is_top
    with pytest.raises(UnknownLabel):
        lat.parse("Network/Carrier_Pigeon")


def test_lattice_file_matches_builtin(fixtures_dir):
    from_file = Lattice.from_file(fixtures_dir / "lattice.json")
    assert from_file.labels() == Lattice.default().labels()


@pytest.mark.parametrize("tree", [{"Hardware": 5}, {"Hardware": ["Coil_Write"]},
                                  {"Hardware": {"Coil_Write": "Unauthenticated"}},
                                  {"Hardware": {"Coil_Write": [5]}}],
                         ids=["number_category", "list_category", "string_risks",
                              "number_risk"])
def test_lattice_tree_shape_is_checked(tree):
    with pytest.raises(SchemaError, match="Hardware"):
        Lattice(tree)


def test_validated_ops_reject_foreign_labels():
    with pytest.raises(UnknownLabel, match="Plumbing/Faucet"):
        Lattice.default().parse("Plumbing/Faucet")


# --- violation rate ---------------------------------------------------------------

def rec(truth, predicted, fid="f"):
    return GoldenRecord(function_id=fid, truth=L(truth), predicted=L(predicted))


def test_evr_empty_set_raises():
    with pytest.raises(EmptyGoldenSet):
        evr([])


def test_evr_cover_mode_counts_non_covering_only():
    records = [
        rec("Hardware/Coil_Write", "Hardware/Coil_Write"),   # exact: fine
        rec("Hardware/Coil_Write", "Hardware"),              # coarser: covers
        rec("Hardware/Coil_Write", "TOP"),                   # top: covers
        rec("Hardware/Coil_Write", "Network"),               # wrong branch
    ]
    assert evr(records, EvrMode.LATTICE_COVER) == 0.25


def test_evr_exact_mode_counts_any_mismatch():
    records = [
        rec("Hardware/Coil_Write", "Hardware/Coil_Write"),
        rec("Hardware/Coil_Write", "Hardware"),
        rec("Hardware/Coil_Write", "TOP"),
        rec("Hardware/Coil_Write", "Network"),
    ]
    assert evr(records, EvrMode.EXACT_TIER_MATCH) == 0.75


def test_exact_mode_never_below_cover_mode():
    # Cover violations are a subset of exact mismatches by construction.
    labels = ["TOP", "Network", "Network/Socket_Init", "Hardware",
              "Hardware/Coil_Write", "Hardware/Coil_Write/Unauthenticated_Coil_Write"]
    import itertools
    records = [rec(t, p) for t, p in itertools.product(labels, labels)]
    assert evr(records, EvrMode.LATTICE_COVER) <= evr(records, EvrMode.EXACT_TIER_MATCH)


def test_golden_set_loader(tmp_path):
    doc = [
        {"function_id": "a", "truth": "Hardware/Coil_Write", "predicted": "Hardware"},
        {"function_id": "b", "truth": "Memory", "predicted": "Memory"},
    ]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = load_golden_set(path, Lattice.default())
    assert len(records) == 2
    assert evr(records, EvrMode.LATTICE_COVER) == 0.0
    assert evr(records, EvrMode.EXACT_TIER_MATCH) == 0.5


GOOD_RECORD = {"function_id": "a", "truth": "Memory", "predicted": "Memory"}


@pytest.mark.parametrize("record, message", [
    (5, "record 1 must be an object"),
    ({"function_id": "b", "truth": 5, "predicted": "Memory"}, "record 1 'truth' must be a string"),
    ({"function_id": "b", "truth": "Memory", "predicted": None},
     "record 1 'predicted' must be a string"),
    ({"function_id": "b", "truth": "Memory"}, "record 1 is missing 'predicted'"),
], ids=["not_an_object", "truth_int", "predicted_null", "missing_key"])
def test_golden_set_rejects_malformed_records(tmp_path, record, message):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps([GOOD_RECORD, record]), encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"golden set file {path}: {message}")):
        load_golden_set(path, Lattice.default())
