"""Vulnerability analysis over binary code property graphs.

The package turns a stripped-binary code property graph into a ranked
risk report in five steps: semantic lifting of functions onto a
containment lattice (gated by a data-flow verifier), compression into
a small semantic knowledge graph, a deterministic graph-transformer
forward pass, damped risk propagation over weighted relations, and
fingerprint matching in embedding space.
"""

__version__ = "0.1.0"

from .config import PipelineConfig
from .cpg import (
    CpgGraph,
    DataFlowClaim,
    EdgeKind,
    NodeKind,
    VerifyResult,
    cpg_chunks,
    dumps_cpg,
    load_cpg,
    loads_cpg,
    verify_claims,
)
from .embedding import EmbeddingVector, HashEmbedder, cosine
from .errors import (
    AnnotatorFailure,
    BinriskError,
    ConfigError,
    CorruptFile,
    DimensionMismatch,
    EmptyGoldenSet,
    EmptyGraph,
    EmptyTarget,
    LengthMismatch,
    MissingAnnotation,
    MissingEmbedding,
    NonConvergence,
    ParseError,
    SchemaError,
    ShapeMismatch,
    SingleClassInput,
    UnknownFunction,
    UnknownLabel,
    UnknownNode,
    VersionMismatch,
    ZeroVector,
)
from .fingerprint import (
    Fingerprint,
    MatchResult,
    ThresholdReport,
    dumps_fingerprint,
    load_fingerprint,
    load_repository,
    match_and_alert,
    roc_auc,
    select_threshold,
)
from .graphormer import (
    ModelConfig,
    ModelParams,
    NodeEmbedding,
    embeddings_chunks,
    forward,
    init_params,
    load_params,
    save_params,
)
from .lattice import (
    EvrMode,
    GoldenRecord,
    Label,
    Lattice,
    TOP,
    covers,
    evr,
    join,
    leq,
)
from .lifting import (
    Annotation,
    CommandAnnotator,
    ReplayAnnotator,
    RuleAnnotator,
    VerifiedCorpus,
    build_corpus,
    dumps_corpus,
    load_corpus,
    load_rules,
)
from .metrics import (
    ClassificationMetrics,
    ConfusionCounts,
    classification_metrics,
    cohen_kappa,
)
from .pipeline import RiskReport, run_pipeline, write_atomic
from .risk import PropagationConfig, RiskVector, inherent_risk, propagate
from .ssckg import (
    CveRecord,
    Entity,
    Granularity,
    RelationColumns,
    RelationType,
    SsckgGraph,
    construction_stats,
    dbscan,
    dumps_ssckg,
    extract_relations,
    load_ssckg,
    semantic_clustering,
    ssckg_chunks,
    structural_collapse,
)

# The documented surface: what README "Library use" imports from here.  The
# other names above stay importable for the demos.
__all__ = [
    "Granularity", "HashEmbedder", "Lattice", "ModelConfig", "PropagationConfig",
    "RuleAnnotator", "SsckgGraph", "build_corpus", "cpg_chunks", "extract_relations",
    "forward", "inherent_risk", "load_cpg", "load_rules", "propagate",
    "structural_collapse", "write_atomic",
]
