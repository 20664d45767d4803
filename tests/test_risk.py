"""Inherent scoring and damped propagation to a fixed point."""

import numpy as np
import pytest

from binrisk.cpg import load_cpg
from binrisk.embedding import EmbeddingVector, HashEmbedder
from binrisk.errors import ConfigError, EmptyGraph, NonConvergence
from binrisk.lattice import TOP, Lattice
from binrisk.lifting import RuleAnnotator, build_corpus, load_rules
from binrisk.risk import (
    PropagationConfig,
    inherent_risk,
    normalize_weights,
    propagate,
)
from binrisk.ssckg import (
    Entity,
    Granularity,
    RelationType,
    SsckgGraph,
    embed_entities,
    extract_relations,
    load_cves,
    structural_collapse,
)

from oracles import Relation, relation_rows, row_kg

TIGHT = PropagationConfig(beta=0.15, tolerance=1e-12, max_iterations=5000)


def ent(eid, lab=None):
    return Entity(eid, f"e{eid}", lab or TOP, frozenset({eid}))


def rel(a, t, b, w=None):
    from binrisk.ssckg import DEFAULT_WEIGHTS
    return Relation(a, t, b, w if w is not None else DEFAULT_WEIGHTS[t])


def solve_oracle(kg, inherent, beta):
    """Closed-form fixed point by dense linear solve.

    Connected rows satisfy (I - (1-beta) T) x = beta * inh; rows with no
    in-relations are pinned to their inherent score.
    """
    order = [e.id for e in kg.entities]
    index = {eid: i for i, eid in enumerate(order)}
    n = len(order)
    incoming = {}
    for r in relation_rows(kg):
        if not isinstance(r.dst, int) or r.src == r.dst:
            continue
        incoming.setdefault(r.dst, {})
        incoming[r.dst][r.src] = incoming[r.dst].get(r.src, 0.0) + r.weight
    a = np.eye(n)
    rhs = np.zeros(n)
    for eid in order:
        i = index[eid]
        inh = float(inherent.get(eid, 0.0))
        if eid in incoming:
            total = sum(incoming[eid].values())
            for src, w in incoming[eid].items():
                a[i, index[src]] -= (1.0 - beta) * (w / total)
            rhs[i] = beta * inh
        else:
            rhs[i] = inh
    solved = np.linalg.solve(a, rhs)
    return {eid: float(solved[index[eid]]) for eid in order}


def random_kg(rng, n):
    types = [t for t in RelationType if t is not RelationType.VULNERABLE_TO]
    rels = []
    seen = set()
    for _ in range(int(rng.integers(0, 3 * n))):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        t = types[int(rng.integers(len(types)))]
        if (a, t, b) in seen:
            continue
        seen.add((a, t, b))
        rels.append(Relation(a, t, b, float(rng.uniform(0.1, 1.0))))
    if rng.random() < 0.3:
        rels.append(Relation(0, RelationType.VULNERABLE_TO, "CVE-NOISE", 1.0))
    return row_kg([ent(i) for i in range(n)], rels)


# --- inherent scoring -----------------------------------------------------------

def test_inherent_risk_is_best_clamped_match(fixtures_dir):
    provider = HashEmbedder(dimension=384, seed=42)
    cves = load_cves(fixtures_dir / "cves.json", provider)
    e = Entity(0, "w", TOP, frozenset({0}),
               summary="hardware coil write routine using cmp mmio_write param ret",
               embedding=provider.embed(
                   "hardware coil write routine using cmp mmio_write param ret"))
    score = inherent_risk(e, cves)
    assert 0.85 < score < 1.0
    assert score == max(
        min(1.0, max(0.0, float(np.dot(e.embedding.values, c.embedding.values))))
        for c in cves)


def test_inherent_risk_edge_cases():
    vec = EmbeddingVector([1.0, 0.0])
    e = Entity(0, "a", TOP, frozenset({0}), embedding=vec)
    assert inherent_risk(e, []) == 0.0
    assert inherent_risk(ent(0), [fake_cve([0.0, 1.0])]) == 0.0  # no embedding
    # anti-aligned descriptions clamp to zero instead of going negative
    assert inherent_risk(e, [fake_cve([-1.0, 0.0])]) == 0.0
    assert inherent_risk(e, [fake_cve([-1.0, 0.0]), fake_cve([1.0, 0.0])]) == 1.0


def fake_cve(values):
    from binrisk.ssckg import CveRecord
    return CveRecord(cve_id="CVE-F", description="",
                     embedding=EmbeddingVector(values))


# --- weight normalization ----------------------------------------------------------

def test_normalize_weights_convex_rows():
    kg = row_kg([ent(0), ent(1), ent(2)], [
        rel(0, RelationType.CALLS, 2),        # 0.3
        rel(1, RelationType.WRITES_TO, 2),    # 0.6
        rel(1, RelationType.TAINTS, 2),       # 1.0, parallel with writes_to
    ])
    coeffs = normalize_weights(kg)
    assert set(coeffs) == {2}
    row = coeffs[2]
    assert row[0] == pytest.approx(0.3 / 1.9)
    assert row[1] == pytest.approx(1.6 / 1.9)
    assert sum(row.values()) == pytest.approx(1.0)


def test_normalize_weights_drops_self_loops_and_cve_links():
    kg = row_kg([ent(0), ent(1)], [
        rel(0, RelationType.CALLS, 0),
        rel(0, RelationType.VULNERABLE_TO, "CVE-X"),
        rel(0, RelationType.CALLS, 1),
    ])
    coeffs = normalize_weights(kg)
    assert coeffs == {1: {0: 1.0}}


def test_normalize_weights_respects_type_filter():
    """Every relation type but vulnerable_to bears risk."""
    types = [t for t in RelationType if t is not RelationType.VULNERABLE_TO]
    kg = row_kg([ent(i) for i in range(len(types) + 1)],
                [rel(i, t, len(types)) for i, t in enumerate(types)])
    assert set(normalize_weights(kg)) == {len(types)}
    assert set(normalize_weights(kg)[len(types)]) == set(range(len(types)))


# --- propagation --------------------------------------------------------------

def toy_kg(fixtures_dir):
    g = load_cpg(fixtures_dir / "toy_modbus.cpg.json")
    ann = RuleAnnotator(load_rules(fixtures_dir / "rules.json"), Lattice.default())
    corpus = build_corpus(g, g.function_ids, ann)
    provider = HashEmbedder(dimension=384, seed=42)
    ents = embed_entities(structural_collapse(g, Granularity.FUNCTION, corpus),
                          provider)
    cves = load_cves(fixtures_dir / "cves.json", provider)
    rels = extract_relations(g, ents, cves)
    return SsckgGraph(ents, rels), cves


def test_toy_fixed_point_matches_closed_form(fixtures_dir):
    kg, cves = toy_kg(fixtures_dir)
    inh = {e.id: inherent_risk(e, cves) for e in kg.entities}
    result = propagate(kg, inh, TIGHT)
    # main has no in-relations; each other entity has exactly one upstream
    want = {0: inh[0]}
    want[1] = 0.15 * inh[1] + 0.85 * want[0]
    want[2] = 0.15 * inh[2] + 0.85 * want[0]
    want[3] = 0.15 * inh[3] + 0.85 * want[2]
    want[4] = 0.15 * inh[4] + 0.85 * want[2]
    for eid, value in want.items():
        assert result.scores[eid] == pytest.approx(value, abs=1e-9)
    # the taint-path sink outranks everything
    ranking = sorted(result.scores, key=lambda e: -result.scores[e])
    assert ranking == [4, 3, 2, 0, 1]


def test_diamond_fixed_point(fixtures_dir):
    g = load_cpg(fixtures_dir / "diamond.cpg.json")
    ents = structural_collapse(g)
    rels = extract_relations(g, ents)
    assert {(r.src, r.rel_type, r.dst) for r in relation_rows(rels)} == {
        (0, RelationType.CALLS, 1), (0, RelationType.CALLS, 2),
        (1, RelationType.CALLS, 3), (2, RelationType.CALLS, 3)}
    kg = SsckgGraph(ents, rels)
    inh = {0: 0.2, 1: 0.4, 2: 0.8, 3: 0.6}
    result = propagate(kg, inh, TIGHT)
    left = 0.15 * 0.4 + 0.85 * 0.2
    right = 0.15 * 0.8 + 0.85 * 0.2
    sink = 0.15 * 0.6 + 0.85 * (left + right) / 2.0
    assert result.scores[0] == 0.2
    assert result.scores[1] == pytest.approx(left, abs=1e-9)
    assert result.scores[2] == pytest.approx(right, abs=1e-9)
    assert result.scores[3] == pytest.approx(sink, abs=1e-9)


def test_propagate_matches_dense_solve_on_random_graphs():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        kg = random_kg(rng, n)
        inh = {i: float(rng.uniform(0, 1)) for i in range(n)}
        beta = float(rng.uniform(0.05, 1.0))
        cfg = PropagationConfig(beta=beta, tolerance=1e-12, max_iterations=5000)
        got = propagate(kg, inh, cfg).scores
        want = solve_oracle(kg, inh, beta)
        for eid in want:
            assert abs(got[eid] - want[eid]) < 1e-9, (n, beta, eid)


def test_isolated_entities_keep_inherent_exactly():
    kg = row_kg([ent(0), ent(1), ent(2)], [rel(0, RelationType.CALLS, 1)])
    inh = {0: 0.37, 1: 0.5, 2: 0.925}
    result = propagate(kg, inh, TIGHT)
    assert result.scores[0] == 0.37   # no in-relations
    assert result.scores[2] == 0.925  # fully isolated
    assert result.scores[1] == pytest.approx(0.15 * 0.5 + 0.85 * 0.37, abs=1e-12)


def test_propagate_reports_connected_entities():
    # Self-loops and CVE links bring no in-neighbor; only entity 1 has one.
    kg = row_kg([ent(0), ent(1), ent(2)], [
        rel(0, RelationType.CALLS, 0),
        rel(0, RelationType.VULNERABLE_TO, "CVE-X"),
        rel(0, RelationType.CALLS, 1),
    ])
    result = propagate(kg, {0: 0.2, 1: 0.4, 2: 0.6}, TIGHT)
    assert result.connected == frozenset(normalize_weights(kg)) == {1}


def test_beta_one_returns_inherent_in_one_sweep():
    kg = row_kg([ent(0), ent(1)], [rel(0, RelationType.TAINTS, 1)])
    inh = {0: 0.9, 1: 0.1}
    result = propagate(kg, inh, PropagationConfig(beta=1.0))
    assert result.scores == {0: 0.9, 1: 0.1}
    assert result.iterations == 1
    assert result.residual == 0.0


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        kg = random_kg(rng, n)
        inh = {i: float(rng.uniform(0, 1)) for i in range(n)}
        result = propagate(kg, inh, TIGHT)
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())


def test_default_budget_suffices_for_small_graphs():
    # with beta 0.15 the sweep contraction is 0.85 per step, so the L1
    # change after 100 sweeps is at most 8 * 0.85^99 < 1e-6
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        kg = random_kg(rng, n)
        inh = {i: float(rng.uniform(0, 1)) for i in range(n)}
        result = propagate(kg, inh)  # default config
        assert result.iterations <= 100
        assert result.residual < 1e-6


def test_nonconvergence_carries_diagnostics():
    kg = row_kg([ent(0), ent(1)], [rel(0, RelationType.CALLS, 1)])
    cfg = PropagationConfig(beta=0.15, tolerance=1e-15, max_iterations=1)
    with pytest.raises(NonConvergence) as err:
        propagate(kg, {0: 1.0, 1: 0.0}, cfg)
    assert err.value.iterations == 1
    assert err.value.residual > 0.0
    assert "1 iterations" in str(err.value)


def test_propagate_input_validation():
    with pytest.raises(EmptyGraph):
        propagate(row_kg([], []), {})
    kg = row_kg([ent(0)], [])
    with pytest.raises(ConfigError, match="outside"):
        propagate(kg, {0: 1.5})
    with pytest.raises(ConfigError, match="outside"):
        propagate(kg, {0: -0.1})
    # missing ids default to zero inherent risk
    assert propagate(kg, {}).scores == {0: 0.0}


def test_propagation_config_validation():
    with pytest.raises(ConfigError):
        PropagationConfig(beta=0.0)
    with pytest.raises(ConfigError):
        PropagationConfig(beta=1.2)
    with pytest.raises(ConfigError):
        PropagationConfig(tolerance=0.0)
    with pytest.raises(ConfigError):
        PropagationConfig(max_iterations=0)
    PropagationConfig(beta=1.0)  # closed upper end is allowed
