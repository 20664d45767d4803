"""Composite risk scoring over the entity graph.

Each entity starts from an inherent score: the best cosine match
between its summary embedding and any CVE description embedding,
clamped into [0, 1] (no CVE corpus means zero inherent risk).  Scores
then propagate along risk-bearing relations with a damping mix

    score(v) <- beta * inherent(v)
                + (1 - beta) * sum_u coeff(v, u) * score(u)

where u ranges over v's in-neighbors (relations pointing at v: risk
flows in the relation direction) and the coefficients for each v are
the in-relation weights normalized to sum to one, so the propagated
term is a convex combination and every score stays in [0, 1].
Updates are synchronous from the inherent vector until the L1 change
drops below tolerance.  Entities with no in-neighbors keep their
inherent score exactly.

vulnerable_to relations target CVE identifiers, not entities, so they
carry no propagation; they influence scores only through the inherent
term's CVE matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embedding import cosine
from .errors import ConfigError, EmptyGraph, NonConvergence
from .ssckg import CveRecord, Entity, SsckgGraph


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


def inherent_risk(entity: Entity, cves: Sequence[CveRecord]) -> float:
    """Best CVE-description match for the entity summary, in [0, 1]."""
    if not cves:
        return 0.0
    if entity.embedding is None or entity.embedding.norm == 0.0:
        return 0.0
    best = max(cosine(entity.embedding, cve.embedding) for cve in cves)
    return min(1.0, max(0.0, best))


def normalize_weights(kg: SsckgGraph) -> dict[int, dict[int, float]]:
    """Per-entity convex in-neighbor coefficients.

    Every relation between two entities bears risk; CVE links do not.
    Parallel relations between the same ordered pair add their weights
    before normalizing; self-loops carry no risk and are dropped.  For
    every entity with at least one in-neighbor the returned
    coefficients sum to exactly one.
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
    targets, target, counts = np.unique(pairs // n, return_inverse=True, return_counts=True)
    totals = np.zeros(len(targets))
    seen = np.argsort(first)
    np.add.at(totals, target[seen], sums[seen])
    ids = kg.entity_ids
    srcs, coeffs = ids[pairs % n].tolist(), (sums / totals[target]).tolist()
    ends = np.cumsum(counts).tolist()
    return {d: dict(zip(srcs[a:b], coeffs[a:b]))
            for d, a, b in zip(ids[targets].tolist(), [0] + ends[:-1], ends)}


def propagate(kg: SsckgGraph, inherent: Mapping[int, float],
              config: PropagationConfig | None = None) -> RiskVector:
    """Iterate the damped update to its fixed point.

    Raises NonConvergence when the iteration budget runs out before the
    L1 change between sweeps drops below tolerance.
    """
    cfg = config or PropagationConfig()
    if len(kg) == 0:
        raise EmptyGraph("cannot propagate over zero entities")
    order = [e.id for e in kg.entities]
    index = {eid: i for i, eid in enumerate(order)}
    inh = np.zeros(len(order))
    for eid, i in index.items():
        value = float(inherent.get(eid, 0.0))
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"inherent risk for entity {eid} outside [0, 1]")
        inh[i] = value

    coeffs = normalize_weights(kg)
    transition = np.zeros((len(order), len(order)))
    connected = np.zeros(len(order), dtype=bool)
    for dst, weights in coeffs.items():
        connected[index[dst]] = True
        transition[index[dst], list(map(index.__getitem__, weights))] = list(weights.values())

    beta = cfg.beta
    scores = inh.copy()
    residual = float("inf")
    for iteration in range(1, cfg.max_iterations + 1):
        nxt = beta * inh + (1.0 - beta) * (transition @ scores)
        nxt[~connected] = inh[~connected]
        residual = float(np.abs(nxt - scores).sum())
        scores = nxt
        if residual < cfg.tolerance:
            return RiskVector(
                scores={eid: float(scores[index[eid]]) for eid in order},
                iterations=iteration,
                residual=residual,
                connected=frozenset(coeffs),
            )
    raise NonConvergence(residual=residual, iterations=cfg.max_iterations)
