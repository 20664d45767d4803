"""Vulnerability analysis over binary code property graphs.

The package turns a stripped-binary code property graph into a ranked
risk report in five steps: semantic lifting of functions onto a
containment lattice (gated by a data-flow verifier), compression into
a small semantic knowledge graph, a deterministic graph-transformer
forward pass, damped risk propagation over weighted relations, and
fingerprint matching in embedding space.
"""

__version__ = "0.1.0"

from .cpg import DataFlowClaim, cpg_chunks, load_cpg, loads_cpg, verify_claims
from .embedding import HashEmbedder
from .errors import NonConvergence, SchemaError
from .fingerprint import load_repository, match_and_alert, roc_auc, select_threshold
from .graphormer import ModelConfig, forward, init_params
from .lattice import TOP, EvrMode, GoldenRecord, Label, Lattice, evr, join, leq
from .lifting import Annotation, RuleAnnotator, build_corpus, load_rules
from .metrics import ConfusionCounts, classification_metrics
from .pipeline import write_atomic
from .risk import PropagationConfig, inherent_risk, propagate
from .ssckg import (
    Granularity,
    SsckgGraph,
    construction_stats,
    extract_relations,
    semantic_clustering,
    structural_collapse,
)

# The documented surface: what README "Library use" imports from here.  The
# other names above are what the demos import from here; every name the
# package defines stays importable from its own module.
__all__ = [
    "Granularity", "HashEmbedder", "Lattice", "ModelConfig", "PropagationConfig",
    "RuleAnnotator", "SsckgGraph", "build_corpus", "cpg_chunks", "extract_relations",
    "forward", "inherent_risk", "load_cpg", "load_rules", "propagate",
    "structural_collapse", "write_atomic",
]
