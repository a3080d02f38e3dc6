"""Hybrid clustering of items with both content and connections.

Factorizes a feature-item matrix and an item-item similarity matrix
over a shared nonnegative embedding, with plain NMF and symmetric NMF
as special cases, plus the supporting pieces: graph and hypergraph
similarity construction, text preprocessing, clustering metrics, and
citation recommendation.
"""

from .errors import (
    DataError,
    DegenerateLabels,
    EmptyCorpus,
    EmptyGraph,
    IndexOutOfRange,
    JointNmfError,
    LabelMissing,
    NegativeEntries,
    NonConvergence,
    NonFinite,
    NotSymmetric,
    NumericalError,
    ShapeMismatch,
    SingularSystem,
    UniverseMismatch,
    VocabMismatch,
    ZeroColumn,
    ZeroDegree,
    ZeroQuery,
    ZeroSimilarity,
)
from .factorize import (
    FactorizationResult,
    FactorizeOptions,
    default_alpha,
    default_beta,
    hard_assign,
    joint_nmf,
    joint_objective,
    nmf,
    penalized_objective,
    symnmf,
    write_result,
)
from .graph import (
    Graph,
    Hypergraph,
    dual_hypergraph,
    hypergraph_from_edges,
    hypergraph_similarity,
    induce_subgraph,
    induce_subhypergraph,
    largest_connected_component,
    membership_counts,
    normalized_adjacency,
    read_edge_list,
    read_hyperedges,
    symmetrize,
)
from .matrix import (
    frobenius_norm_sq,
    is_symmetric,
    max_abs,
    read_matrix_market,
    write_matrix_market,
)
from .metrics import (
    ConfusionMatrix,
    PairwiseCounts,
    PairwiseScores,
    auc,
    average_f1,
    confusion,
    pairwise_counts,
    pairwise_scores,
    read_labels,
    read_pair_scores,
    roc_curve,
    write_labels,
)
from .nls import kkt_residual, kkt_residual_gram, nls_bpp, nls_bpp_gram
from .recommend import (
    RecommendationModel,
    baseline_nmf1,
    baseline_nmf2,
    baseline_shared_words,
    fit_recommender,
    project_document,
    recommend,
    score_cosine,
    score_inner,
    score_model,
)
from .textprep import (
    Corpus,
    FilterReport,
    TopicReport,
    filter_corpus,
    normalize_columns,
    read_corpus,
    tfidf,
    top_terms,
)

__version__ = "0.1.0"
