"""Three-tier behavioral label lattice and violation-rate computation.

Labels live in a containment hierarchy three levels deep:

    tier 1  broad capability category      e.g. Hardware
    tier 2  concrete action                e.g. Hardware/Coil_Write
    tier 3  risk context                   e.g. Hardware/Coil_Write/Unauthenticated_Coil_Write

plus a top element (serialized "TOP") that sits above everything and
means "unknown behavior".  Order is by path containment: a label is
below another exactly when the other is an ancestor of it (or the two
labels are equal, or the other is top).  The join of two labels is
their deepest common ancestor; labels in different categories join to
top.

A lattice instance enumerates the admissible label set and validates
membership.  The ordering itself is pure path logic and is exposed as
module-level helpers for callers that already hold valid labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .errors import SchemaError
from .jsonio import read_json


@dataclass(frozen=True, slots=True)
class Label:
    """A lattice member: empty path means top."""

    path: tuple[str, ...] = ()

    @property
    def is_top(self) -> bool:
        return not self.path

    @property
    def tier(self) -> int:
        return len(self.path)

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Parse "A/B/C" or "TOP" without membership validation."""
        if text == "TOP":
            return TOP
        parts = tuple(p for p in text.split("/") if p)
        if not parts or len(parts) > 3:
            # shape violation, not a membership question
            raise SchemaError(f"label path '{text}' is empty or too deep")
        return cls(parts)

    def __str__(self) -> str:
        return "TOP" if self.is_top else "/".join(self.path)


TOP = Label(())


def leq(a: Label, b: Label) -> bool:
    """True when a is at or below b (b is an ancestor-or-equal of a)."""
    if b.is_top:
        return True
    if a.is_top:
        return False
    k = len(b.path)
    return len(a.path) >= k and a.path[:k] == b.path


def join(a: Label, b: Label) -> Label:
    """Least common ancestor; cross-category joins collapse to top."""
    if a.is_top or b.is_top:
        return TOP
    common = []
    for x, y in zip(a.path, b.path):
        if x != y:
            break
        common.append(x)
    return Label(tuple(common)) if common else TOP


def covers(predicted: Label, truth: Label) -> bool:
    """A prediction covers the truth when the truth lies at or below it."""
    return leq(truth, predicted)


# Default label inventory: five capability categories; the action and
# risk-context tiers ship with the concrete industrial-control labels
# this tool reports on.  Deployments extend via a lattice config file.
DEFAULT_TREE: dict[str, dict[str, list[str]]] = {
    "Network": {
        "Socket_Init": [],
        "Protocol_Parse": ["Unbounded_Protocol_Parse"],
        "DNS_Resolve": [],
    },
    "Memory": {},
    "Hardware": {
        "Register_Read": [],
        "Coil_Write": ["Unauthenticated_Coil_Write"],
        "Firmware_Update": [],
    },
    "FileSystem": {},
    "Cryptography": {
        "Hardcoded_Key": [],
    },
}


class Lattice:
    """Admissible label set with validated order operations."""

    def __init__(self, tree: Mapping[str, Mapping[str, Sequence[str]]]):
        if not tree:
            raise SchemaError("lattice tree has no categories")
        members: set[Label] = {TOP}
        n_actions = 0
        n_risks = 0
        for cat, actions in tree.items():
            if not isinstance(actions, Mapping):
                raise SchemaError(f"lattice category '{cat}' must be an object of actions, "
                                  f"got {actions!r}")
            members.add(Label((cat,)))
            for act, risks in actions.items():
                if not isinstance(risks, (list, tuple)) or not all(
                        isinstance(r, str) for r in risks):
                    raise SchemaError(f"lattice action '{cat}/{act}' must list its risk "
                                      f"contexts as strings, got {risks!r}")
                n_actions += 1
                members.add(Label((cat, act)))
                for risk in risks:
                    n_risks += 1
                    members.add(Label((cat, act, risk)))
        self._members = members
        self.counts = (len(tree), n_actions, n_risks)

    @classmethod
    def default(cls) -> "Lattice":
        return cls(DEFAULT_TREE)

    @classmethod
    def from_file(cls, path: str | Path) -> "Lattice":
        doc = read_json(path, "lattice file")
        if not isinstance(doc, dict):
            raise SchemaError(f"lattice file {path} must be an object of categories")
        try:
            return cls(doc)
        except SchemaError as exc:
            raise SchemaError(f"lattice file {path}: {exc}") from None

    def labels(self) -> list[Label]:
        return sorted(self._members, key=lambda l: (l.tier, l.path))

    def __contains__(self, label: Label) -> bool:
        return label in self._members

    def parse(self, text: str) -> Label:
        label = Label.parse(text)
        if label not in self._members:
            raise SchemaError(f"label '{label}' is not in the lattice")
        return label


@dataclass(frozen=True, slots=True)
class GoldenRecord:
    """One reference-annotated function with its predicted label."""

    function_id: str
    truth: Label
    predicted: Label


class EvrMode(Enum):
    # LATTICE_COVER: a record violates when the prediction fails to
    # cover the truth.  EXACT_TIER_MATCH additionally counts coverings
    # that are coarser than the truth (including top) as violations,
    # i.e. it demands label equality.
    LATTICE_COVER = "lattice_cover"
    EXACT_TIER_MATCH = "exact_tier_match"


def evr(records: Sequence[GoldenRecord], mode: EvrMode = EvrMode.LATTICE_COVER) -> float:
    """Fraction of records whose prediction violates the reference label."""
    if not records:
        raise SchemaError("violation rate over zero records is undefined")
    violations = 0
    for rec in records:
        if mode is EvrMode.LATTICE_COVER:
            bad = not covers(rec.predicted, rec.truth)
        else:
            bad = rec.predicted != rec.truth
        violations += bad
    return violations / len(records)


def load_golden_set(path: str | Path, lattice: Lattice) -> list[GoldenRecord]:
    """Read a JSON list of {function_id, truth, predicted} records.

    A ``function_id`` is a string or an integer (kept as its decimal
    text, as corpus ids are); a boolean, a float, null or any other value
    is a SchemaError naming the file and the record index.
    """
    doc = read_json(path, "golden set file")
    if not isinstance(doc, list):
        raise SchemaError(f"golden set file {path} must be a JSON list")
    out = []
    for i, raw in enumerate(doc):
        if not isinstance(raw, dict):
            raise SchemaError(f"golden set file {path}: record {i} must be an object")
        for key in ("function_id", "truth", "predicted"):
            if key not in raw:
                raise SchemaError(f"golden set file {path}: record {i} is missing '{key}'")
        for key in ("truth", "predicted"):
            if not isinstance(raw[key], str):
                raise SchemaError(f"golden set file {path}: record {i} '{key}' "
                                  "must be a string")
        if type(raw["function_id"]) not in (str, int):
            raise SchemaError(f"golden set file {path}: record {i} 'function_id' must be "
                              f"a string or an integer, got {raw['function_id']!r}")
        out.append(GoldenRecord(
            function_id=str(raw["function_id"]),
            truth=lattice.parse(raw["truth"]),
            predicted=lattice.parse(raw["predicted"]),
        ))
    return out
