"""Spherical hidden Markov models for semantic location traces.

Multi-modal HMM with Gaussian time-of-day, Gaussian location and
von Mises-Fisher text-embedding emissions, trained by Baum-Welch with a
Newton M-step for the vMF concentration parameter.
"""

__version__ = "0.1.0"

from .data_io import (
    CandidatePool,
    RecordIndex,
    SegmentationResult,
    build_candidate_pool,
    build_pools,
    evaluate_prediction,
    read_columns,
    read_corpus,
    segment_history,
    split_corpus,
    write_corpus,
)
from .emission import (
    EmissionConfig,
    EmptyStateError,
    GaussianText,
    StateParams,
    log_emission,
    m_step_state,
)
from .hmm_core import (
    DimensionMismatchError,
    EmptyCorpusError,
    KMeansInit,
    NonFiniteLikelihoodError,
    ShmmModel,
    StopCriteria,
    SufficientStats,
    baum_welch,
    forward_backward,
    load_model,
    save_model,
    score_next,
    viterbi,
)
from .records import Corpus, SemanticRecord, Trace
from .special_fns import bessel_ratio_a, bessel_ratio_a_prime, log_bessel_i
from .text_embed import (
    KeywordTable,
    NoKnownTokensError,
    compute_idf,
    embed_message,
    load_keyword_vectors,
    nearest_keywords,
    tokenize,
)
from .vmf import (
    KAPPA_MAX,
    KappaEstimate,
    ResultantStats,
    VmfParams,
    estimate_kappa,
    fit_vmf,
    sample_vmf,
    vmf_log_pdf,
)

__all__ = [
    "KAPPA_MAX",
    "CandidatePool",
    "Corpus",
    "DimensionMismatchError",
    "EmissionConfig",
    "EmptyCorpusError",
    "EmptyStateError",
    "GaussianText",
    "KMeansInit",
    "KappaEstimate",
    "KeywordTable",
    "NoKnownTokensError",
    "NonFiniteLikelihoodError",
    "RecordIndex",
    "ResultantStats",
    "SegmentationResult",
    "SemanticRecord",
    "ShmmModel",
    "StateParams",
    "StopCriteria",
    "SufficientStats",
    "Trace",
    "VmfParams",
    "baum_welch",
    "bessel_ratio_a",
    "bessel_ratio_a_prime",
    "build_candidate_pool",
    "build_pools",
    "compute_idf",
    "embed_message",
    "estimate_kappa",
    "evaluate_prediction",
    "fit_vmf",
    "forward_backward",
    "load_keyword_vectors",
    "load_model",
    "log_bessel_i",
    "log_emission",
    "m_step_state",
    "nearest_keywords",
    "read_columns",
    "read_corpus",
    "sample_vmf",
    "save_model",
    "score_next",
    "segment_history",
    "split_corpus",
    "tokenize",
    "viterbi",
    "vmf_log_pdf",
    "write_corpus",
]
