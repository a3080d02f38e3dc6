"""Turn a raw term-document count matrix into normalized tf-idf columns.

Pipeline order is fixed: drop rare terms, drop short documents, drop
duplicate documents, then tf-idf, then unit 2-norm columns.  The tf-idf
variant is raw count times ln(n / df) with no smoothing.  top_terms
reads a basis matrix back in terms of the same vocabulary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import EmptyCorpus, ShapeMismatch, VocabMismatch, ZeroColumn
from .matrix import as_csc, read_matrix_market, read_names, require_nonnegative

__all__ = [
    "Corpus",
    "FilterReport",
    "filter_corpus",
    "tfidf",
    "normalize_columns",
    "read_corpus",
    "TopicReport",
    "top_terms",
]

logger = logging.getLogger(__name__)

DEFAULT_MIN_TERM_DF = 3
DEFAULT_MIN_DOC_LEN = 5


@dataclass
class Corpus:
    vocab: list[str]
    doc_ids: list[str]
    counts: sparse.csc_array  # terms x documents

    def __post_init__(self):
        self.counts = as_csc(self.counts)
        self.counts.eliminate_zeros()
        m, n = self.counts.shape
        if len(self.vocab) != m:
            raise ShapeMismatch(
                f"vocabulary has {len(self.vocab)} terms but counts has {m} rows"
            )
        if len(self.doc_ids) != n:
            raise ShapeMismatch(
                f"{len(self.doc_ids)} document ids but counts has {n} columns"
            )
        require_nonnegative(self.counts, what="counts")


@dataclass
class FilterReport:
    removed_terms: list[str] = field(default_factory=list)
    short_docs: list[str] = field(default_factory=list)
    duplicate_docs: list[str] = field(default_factory=list)


def filter_corpus(
    c: Corpus,
    min_term_df: int = DEFAULT_MIN_TERM_DF,
    min_doc_len: int = DEFAULT_MIN_DOC_LEN,
    dedupe: bool = True,
) -> tuple[Corpus, FilterReport]:
    """Drop rare terms, short documents, then duplicated documents.

    Terms with document frequency below min_term_df go first; document
    length (total count) is judged on the surviving terms; dedupe keeps
    the first of each group of identical count columns.
    """
    if min_term_df < 0 or min_doc_len < 0:
        raise ValueError("thresholds must be nonnegative")
    report = FilterReport()

    counts = c.counts
    df = np.bincount(counts.tocoo().row, minlength=counts.shape[0])
    keep_terms = np.flatnonzero(df >= min_term_df)
    report.removed_terms = [c.vocab[i] for i in np.flatnonzero(df < min_term_df)]
    counts = counts[keep_terms]
    if counts.shape[0] == 0:
        raise EmptyCorpus(f"no term reaches document frequency {min_term_df}")

    totals = counts.sum(axis=0)
    keep_docs = np.flatnonzero(totals >= min_doc_len)
    report.short_docs = [c.doc_ids[j] for j in np.flatnonzero(totals < min_doc_len)]
    counts = counts[:, keep_docs]
    if counts.shape[1] == 0:
        raise EmptyCorpus(f"no document reaches total count {min_doc_len}")
    doc_ids = [c.doc_ids[j] for j in keep_docs]

    counts = as_csc(counts)
    counts.sort_indices()
    if dedupe:
        seen: set[bytes] = set()
        kept = []
        for j in range(counts.shape[1]):
            lo, hi = counts.indptr[j], counts.indptr[j + 1]
            key = counts.indices[lo:hi].tobytes() + counts.data[lo:hi].tobytes()
            if key in seen:
                report.duplicate_docs.append(doc_ids[j])
            else:
                seen.add(key)
                kept.append(j)
        if len(kept) < counts.shape[1]:
            counts = counts[:, np.asarray(kept)]
            doc_ids = [doc_ids[j] for j in kept]

    vocab = [c.vocab[i] for i in keep_terms]
    return Corpus(vocab, doc_ids, counts), report


def tfidf(c: Corpus) -> sparse.csc_array:
    """count * ln(n / df) per entry; terms in every document zero out."""
    counts = c.counts
    m, n = counts.shape
    if n < 1:
        raise EmptyCorpus("corpus has no documents")
    df = np.bincount(counts.tocoo().row, minlength=m)
    everywhere = int(np.count_nonzero(df == n))
    if everywhere:
        logger.info(
            "%d term(s) appear in every document; their tf-idf rows are zero",
            everywhere,
        )
    idf = np.zeros(m)
    present = df > 0
    idf[present] = np.log(n / df[present])
    out = as_csc(sparse.diags_array(idf) @ counts)
    out.eliminate_zeros()
    return out


def normalize_columns(X):
    """Scale every column to unit 2-norm.  Idempotent."""
    if sparse.issparse(X):
        X = as_csc(X)
        norms = np.sqrt(X.multiply(X).sum(axis=0))
        if np.any(norms == 0):
            bad = int(np.flatnonzero(norms == 0)[0])
            raise ZeroColumn(f"column {bad} has zero norm")
        return as_csc(X @ sparse.diags_array(1.0 / norms))
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ZeroColumn(f"column {bad} has zero norm")
    return X / norms


def read_corpus(vocab_path, doc_ids_path, counts_path) -> Corpus:
    """Load vocabulary, document id, and Matrix Market count files."""
    vocab = read_names(vocab_path)
    doc_ids = read_names(doc_ids_path)
    counts = read_matrix_market(counts_path)
    if not sparse.issparse(counts):
        counts = as_csc(counts)
    return Corpus(vocab, doc_ids, counts)


@dataclass
class TopicReport:
    """Per cluster, the strongest terms with their basis weights."""

    clusters: list[list[tuple[str, float]]]


def top_terms(W, vocab, t: int) -> TopicReport:
    """The t heaviest terms of each basis column, ties by term index."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise VocabMismatch(f"W must be 2-d, got shape {W.shape}")
    if len(vocab) != W.shape[0]:
        raise VocabMismatch(f"{len(vocab)} terms for {W.shape[0]} rows of W")
    if t < 1:
        raise ValueError("top-terms count must be at least 1")
    clusters = []
    for c in range(W.shape[1]):
        order = np.argsort(-W[:, c], kind="stable")[:t]
        clusters.append([(vocab[i], float(W[i, c])) for i in order])
    return TopicReport(clusters)
