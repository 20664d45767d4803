"""Pipeline configuration: one JSON file with full defaults.

Every knob the pipeline stages expose lives here, and the config file
is the one way to set it: the command line names only input and
output files, so a single file drives both the chained subcommands
and the one-shot run.  Paths in a config file are resolved relative
to the file's own directory.  Unknown keys, values of the wrong type,
numbers that are not finite, unknown relation names, risk bands other
than exactly ``high`` and ``medium``, similarities outside [0, 1] and
values out of a stage's range are rejected when the config is built,
before any stage runs, rather than silently ignored.  The range rules
stay with the stages: the config calls their checks and builds their
objects, the properties ``model``, ``propagation`` and ``relations``
(new on each access, so ``asdict`` holds only the fields).  A config
is frozen: ``dataclasses.replace`` makes a checked copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .cpg import _is_id
from .embedding import HashEmbedder
from .errors import ConfigError, SchemaError
from .jsonio import read_json
from .fingerprint import check_threshold_grid
from .graphormer import ModelConfig
from .risk import PropagationConfig
from .ssckg import (RISK_BANDS, RelationConfig, RelationType, check_dbscan_params,
                    check_relation_weight)

# How an error message names a type; the others go by their annotation.
_TYPE_NAMES = {"float": "a finite number", "dict[str, float]": "an object of finite numbers",
               "int": "a signed 64-bit integer"}


def _finite_number(value) -> bool:
    # abs() <= max is False for NaN, for +-inf and for an int past the float range.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _has_type(value, annotation: str) -> bool:
    """Whether value matches a field annotation such as 'dict[str, float]'.
    A float must be finite: a NaN threshold compares false with every
    score, and an infinite one is never reached.  An int must fit in
    64 signed bits, as an id must."""
    if annotation.endswith(" | None"):
        return value is None or _has_type(value, annotation[:-len(" | None")])
    if annotation.startswith("list["):
        return isinstance(value, list) and all(
            _has_type(v, annotation[5:-1]) for v in value)
    if annotation.startswith("dict[str, "):
        return isinstance(value, dict) and all(
            isinstance(k, str) and _has_type(v, annotation[10:-1])
            for k, v in value.items())
    if annotation == "float":
        return _finite_number(value)
    if annotation == "int":
        return _is_id(value)
    return isinstance(value, str)


def _relation(name: str, value: str) -> RelationType:
    """The relation type value names, or a ConfigError naming config field name."""
    try:
        return RelationType(value)
    except ValueError as exc:
        raise ConfigError(f"config field '{name}': {exc}") from None


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 42

    # Lattice: None means the built-in default label inventory.
    lattice_path: str | None = None

    # Annotator: type is rules|replay|cmd with its own source field.
    annotator_type: str = "rules"
    rules_path: str | None = None
    replay_path: str | None = None
    annotator_cmd: list[str] = field(default_factory=list)

    # Embedding provider: hash|file.
    embedding_type: str = "hash"
    embedding_dimension: int = 384
    embedding_path: str | None = None

    # Entity elevation.
    granularity: str = "function"
    dbscan_eps: float = 0.3
    dbscan_min_samples: int = 2

    # Relation extraction (label paths; see ssckg.RelationConfig).
    relation_weights: dict[str, float] = field(default_factory=dict)
    structural_edge_labels: dict[str, str] = field(default_factory=dict)
    read_actions: list[str] = field(default_factory=list)
    write_actions: list[str] = field(default_factory=list)
    taint_sources: list[str] = field(default_factory=list)
    taint_sinks: list[str] = field(default_factory=list)
    cve_match_threshold: float = 0.85
    cves_path: str | None = None

    # Model.
    model_layers: int = 6
    model_heads: int = 8
    model_hidden_dim: int = 256
    model_max_dist: int = 20
    params_path: str | None = None

    # Risk propagation.
    beta: float = 0.15
    tolerance: float = 1e-6
    max_iterations: int = 100

    # Fingerprint matching and threshold selection.
    fingerprints_dir: str | None = None
    tau: float = 0.78
    grid_lo: float = 0.50
    grid_hi: float = 0.95
    grid_step: float = 0.01
    fpr_cap: float = 0.05

    # Report rendering.
    risk_bands: dict[str, float] = field(default_factory=lambda: dict(RISK_BANDS))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"config field '{f.name}' must be "
                                  f"{_TYPE_NAMES.get(f.type, f.type)}, got {value!r}")
        for name in ("tau", "cve_match_threshold"):  # cosine similarities
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"config field '{name}' must lie in [0, 1], "
                                  f"got {getattr(self, name)!r}")
        if self.annotator_type not in ("rules", "replay", "cmd"):
            raise ConfigError(f"unknown annotator type '{self.annotator_type}'")
        if self.embedding_type not in ("hash", "file"):
            raise ConfigError(f"unknown embedding type '{self.embedding_type}'")
        if self.granularity not in ("function", "block"):
            raise ConfigError(f"unknown granularity '{self.granularity}'")
        self.relations  # each stage object is built once here, to run its checks
        check_dbscan_params(self.dbscan_eps, self.dbscan_min_samples)
        check_threshold_grid(self.grid_lo, self.grid_hi, self.grid_step)
        for name, weight in self.relation_weights.items():
            try:
                check_relation_weight(weight)
            except SchemaError as exc:
                raise ConfigError(
                    f"config field 'relation_weights' entry '{name}': {exc}") from None
        try:
            HashEmbedder(dimension=self.embedding_dimension)
        except ConfigError as exc:
            raise ConfigError(f"config field 'embedding_dimension': {exc}") from None
        if set(self.risk_bands) != {"high", "medium"}:
            raise ConfigError("config field 'risk_bands' must hold exactly 'high' and "
                              f"'medium', got {sorted(self.risk_bands)}")
        self.propagation
        self.model

    @property
    def model(self) -> ModelConfig:
        """The graph transformer's config, at ModelConfig's default input_dim."""
        return ModelConfig(layers=self.model_layers, heads=self.model_heads, seed=self.seed,
                           hidden_dim=self.model_hidden_dim, max_dist=self.model_max_dist)

    @property
    def propagation(self) -> PropagationConfig:
        return PropagationConfig(beta=self.beta, tolerance=self.tolerance,
                                 max_iterations=self.max_iterations)

    @property
    def relations(self) -> RelationConfig:
        """A non-empty table replaces the built-in one; each relation_weights
        entry overrides the weight of one relation type."""
        rel = RelationConfig()
        rel.weights.update({_relation("relation_weights", name): float(weight)
                            for name, weight in self.relation_weights.items()})
        if self.structural_edge_labels:
            rel.structural_edge_labels = {label: _relation("structural_edge_labels", value)
                                          for label, value in self.structural_edge_labels.items()}
        for name in ("read_actions", "write_actions", "taint_sources", "taint_sinks"):
            if getattr(self, name):
                setattr(rel, name, tuple(getattr(self, name)))
        return rel

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        doc = read_json(path, "config file")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        return replace(cfg, **{
            name: str((path.parent / value).resolve())
            for name in ("lattice_path", "rules_path", "replay_path", "embedding_path",
                         "cves_path", "params_path", "fingerprints_dir")
            if (value := getattr(cfg, name)) is not None and not Path(value).is_absolute()})
