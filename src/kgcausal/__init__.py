"""kgcausal: metapath subgraph retrieval from knowledge graphs,
learning-to-rank over those subgraphs, and zero-shot causal relation
classification with the top-ranked paths embedded in prompts.
"""

from .errors import (
    BackendRejected,
    BackendUnavailable,
    CapabilityMissing,
    KgcausalError,
    KGLoadError,
    NoSuchNodeError,
    UnparseableLabel,
)
from .kg import (
    FORMAT_JSONL,
    FORMAT_TSV,
    FORWARD,
    REVERSE,
    EdgeRecord,
    KnowledgeGraph,
    LoadReport,
    MetapathSubgraph,
    NodeRecord,
    enumerate_subgraphs,
    load_kg,
    sample_subgraphs,
)
from .llm import (
    CAUSAL,
    NON_CAUSAL,
    Completion,
    CompletionRequest,
    HttpBackend,
    MockOracle,
    MockOracleConfig,
    PairResults,
    canonical_label,
    label_probability,
)
from .relevance import (
    PairInstance,
    RankedMetapath,
    RankedPairRecord,
    RelevanceScore,
    build_sre_prompt,
    candidate_subgraphs,
    estimate_relevance,
    rank_pair,
    read_instances,
    read_ranked_dataset,
    score_subgraph,
)
from .verbalize import (
    CLS,
    SEP,
    FULL_STYLE,
    HYPHEN_STYLE,
    PLAIN_ARROWS_STYLE,
    TYPED_ARROWS_STYLE,
    VerbalizationStyle,
    encode_ranker_input,
    tokenize,
)
from .discovery import (
    CausalPrediction,
    ClassificationMetrics,
    DiscoveryConfig,
    aggregate_graph,
    build_discovery_prompt,
    classify_pair,
    classify_pairs,
    evaluate_classification,
    f1_score,
    hamming_distance,
    metrics_from_counts,
)
from . import ltr

__version__ = "0.1.0"
