"""Composite risk scoring over the entity graph.

Each entity starts from an inherent score: its best cosine match
against any CVE description, a row maximum of the entity x CVE matrix
``ssckg.cve_similarity``, clamped into [0, 1] (no CVE corpus, or no
summary vector, means zero inherent risk).  Scores then propagate
along risk-bearing relations with a damping mix

    score(v) <- beta * inherent(v)
                + (1 - beta) * sum_u coeff(v, u) * score(u)

where u ranges over v's in-neighbors (relations pointing at v: risk
flows in the relation direction) and the coefficients for each v are
the in-relation weights normalized to sum to one, so the propagated
term is a convex combination and every score stays in [0, 1].
The coefficients are three columns (``normalize_weights``); a sweep
is one sparse step over them (``np.bincount`` adds each target's terms
in source order), as PageRank's power iteration takes, from the
inherent vector until the L1 change drops below tolerance.  Entities
with no in-neighbors keep their inherent score exactly.

vulnerable_to relations target CVE identifiers, not entities, so they
carry no propagation; they influence scores only through the inherent
term's CVE matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, NonConvergence, SchemaError
from .ssckg import CveRecord, SsckgGraph, cve_similarity


@dataclass(frozen=True)
class PropagationConfig:
    beta: float = 0.15
    tolerance: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
        if self.tolerance <= 0.0:
            raise ConfigError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RiskVector:
    scores: dict[int, float]
    iterations: int
    residual: float
    # Entities with a risk-bearing in-neighbor; the rest keep their
    # inherent score exactly.
    connected: frozenset[int]


def inherent_risk(kg: SsckgGraph, cves: Sequence[CveRecord]) -> dict[int, float]:
    """Each entity's best CVE-description match, in [0, 1], by entity id."""
    # initial=0.0 clamps negatives and takes no CVEs; + 0.0 makes -0.0 0.0.
    best = cve_similarity(kg.entities, cves).max(axis=1, initial=0.0) + 0.0
    return dict(zip(kg.entity_ids.tolist(), best.tolist()))


def normalize_weights(kg: SsckgGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entity convex in-neighbor coefficients, as three columns:
    target position, source position (both in ``kg.entities``) and
    coefficient, one row per distinct (target, source) pair, sorted by
    target, then source.

    Every relation between two entities bears risk; CVE links do not.
    Parallel relations between the same ordered pair add their weights
    before normalizing; self-loops carry no risk and are dropped.  For
    every entity with at least one in-neighbor the coefficients sum to
    exactly one.
    """
    cols = kg.relation_columns
    keep = cols.entity_rows() & (cols.src != cols.dst)
    src, dst, weight = cols.src[keep], cols.dst[keep], cols.weight[keep]
    # Add each distinct (dst, src) pair's weights in relation order
    # (np.add.at is unbuffered and in order), then each target's pair
    # sums in the order the pairs first appear: the order a loop over
    # the relations would add them in.
    n = len(kg)
    key = kg.positions(dst) * n + kg.positions(src)
    pairs, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    sums = np.zeros(len(pairs))
    np.add.at(sums, inverse, weight)
    # Pairs sort by target, so each target's pairs are one run.
    targets, target = np.unique(pairs // n, return_inverse=True)
    totals = np.zeros(len(targets))
    seen = np.argsort(first)
    np.add.at(totals, target[seen], sums[seen])
    return pairs // n, pairs % n, sums / totals[target]


def propagate(kg: SsckgGraph, inherent: Mapping[int, float],
              config: PropagationConfig | None = None) -> RiskVector:
    """Iterate the damped update to its fixed point.

    Raises NonConvergence when the iteration budget runs out before the
    L1 change between sweeps drops below tolerance.
    """
    cfg = config or PropagationConfig()
    if len(kg) == 0:
        raise SchemaError("cannot propagate over zero entities")
    order = kg.entity_ids.tolist()
    inh = np.array([float(inherent.get(eid, 0.0)) for eid in order])
    outside = ~((inh >= 0.0) & (inh <= 1.0))  # NaN too
    if outside.any():
        raise ConfigError(f"inherent risk for entity {order[np.argmax(outside)]} outside [0, 1]")

    dst, src, coeff = normalize_weights(kg)
    connected = np.bincount(dst, minlength=len(kg)) > 0

    beta = cfg.beta
    scores = inh.copy()
    residual = float("inf")
    for iteration in range(1, cfg.max_iterations + 1):
        nxt = beta * inh + (1.0 - beta) * np.bincount(dst, coeff * scores[src], len(kg))
        nxt[~connected] = inh[~connected]
        residual = float(np.abs(nxt - scores).sum())
        scores = nxt
        if residual < cfg.tolerance:
            return RiskVector(dict(zip(order, scores.tolist())), iteration, residual,
                              connected=frozenset(kg.entity_ids[connected].tolist()))
    raise NonConvergence(residual=residual, iterations=cfg.max_iterations)
