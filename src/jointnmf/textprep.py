"""Turn a raw term-document count matrix into normalized tf-idf columns.

Pipeline order is fixed: drop rare terms, drop short documents, drop
duplicate documents, then tf-idf, then unit 2-norm columns.  The tf-idf
variant is raw count times ln(n / df) with no smoothing.  top_terms
reads a basis matrix back in terms of the same vocabulary.

A Corpus holds its counts, and normalize_columns reads a sparse X, in
the canonical form of matrix.as_csc.  Each step is a few array passes
over the CSC arrays of its input, which it leaves as it is, and returns
a new matrix with the rows ascending within each column.  A step's
temporaries are a fraction of a copy, so a caller that drops each
step's input once it has the output holds one full-size copy of the
corpus at a time, two while a step runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import EmptyCorpus, ShapeMismatch, VocabMismatch, ZeroColumn
from .matrix import as_csc, read_matrix_market, read_names, require_count, require_nonnegative

__all__ = [
    "Corpus",
    "FilterReport",
    "filter_corpus",
    "tfidf",
    "normalize_columns",
    "read_corpus",
    "top_terms",
]

logger = logging.getLogger(__name__)

DEFAULT_MIN_TERM_DF = 3
DEFAULT_MIN_DOC_LEN = 5


@dataclass
class Corpus:
    """Vocabulary, document ids and their terms x documents counts.

    counts is held in canonical form (matrix.as_csc): each (term,
    document) entry stored once and no stored zeros, so a term's stored
    entries are the documents it is in.  The caller's matrix stays as it
    is.
    """

    vocab: list[str]
    doc_ids: list[str]
    counts: sparse.csc_array  # terms x documents

    def __post_init__(self):
        self.counts = as_csc(self.counts)
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
    the first of each group of identical count columns.  A term's
    document frequency counts its stored entries, and columns are
    identical when their surviving entries, sorted by term, are.

    The filters are array passes over c.counts, which is left as it is:
    the kept entries are selected once, and the new counts have their
    rows ascending within each column.
    """
    _check_thresholds(min_term_df, min_doc_len)
    report = FilterReport()

    counts = c.counts
    rows, data, indptr = counts.indices, counts.data, counts.indptr
    df = np.bincount(rows, minlength=counts.shape[0])
    keep_terms = df >= min_term_df
    report.removed_terms = [c.vocab[i] for i in np.flatnonzero(~keep_terms)]
    if not keep_terms.any():
        raise EmptyCorpus(f"no term reaches document frequency {min_term_df}")

    on_kept_term = keep_terms[rows]
    # the column pointers of the counts on the kept terms alone
    kept_ptr = np.cumsum(np.concatenate(([False], on_kept_term)))[indptr]
    totals = _column_sums(data[on_kept_term], kept_ptr)
    keep_docs = totals >= min_doc_len
    report.short_docs = [c.doc_ids[j] for j in np.flatnonzero(~keep_docs)]
    if not keep_docs.any():
        raise EmptyCorpus(f"no document reaches total count {min_doc_len}")
    if dedupe:
        copies = _duplicate_columns(rows, data, indptr, on_kept_term, keep_docs)
        report.duplicate_docs = [c.doc_ids[j] for j in copies]
        keep_docs[copies] = False

    selected = on_kept_term & np.repeat(keep_docs, np.diff(indptr))
    del on_kept_term
    term_rank = (np.cumsum(keep_terms) - 1).astype(rows.dtype)
    new_ptr = np.concatenate(([0], np.cumsum(np.diff(kept_ptr)[keep_docs])))
    out = sparse.csc_array(
        (data[selected], term_rank[rows[selected]], new_ptr.astype(rows.dtype)),
        shape=(int(keep_terms.sum()), int(keep_docs.sum())),
    )
    out.sort_indices()
    vocab = [c.vocab[i] for i in np.flatnonzero(keep_terms)]
    doc_ids = [c.doc_ids[j] for j in np.flatnonzero(keep_docs)]
    return Corpus(vocab, doc_ids, out), report


def _check_thresholds(min_term_df, min_doc_len):
    # filter_corpus's rule on its thresholds; the CLI applies it before
    # it reads a file
    if min_term_df < 0 or min_doc_len < 0:
        raise ValueError("thresholds must be nonnegative")


def _column_sums(data, indptr):
    # each column's sum formed as scipy's sum(axis=0) forms it, one
    # pairwise reduceat over the nonempty columns, so that thresholds and
    # norms equal the sparse-product forms bit for bit
    sums = np.zeros(len(indptr) - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    sums[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return sums


def _duplicate_columns(rows, data, indptr, on_kept_term, candidates):
    """The candidate columns equal to an earlier candidate column on the
    kept terms, ascending.

    Only columns that share a hash are compared, and those exactly,
    entries sorted by row, so a hash collision costs a comparison and
    never a wrong answer.
    """
    column_hash = _column_hashes(rows, data, indptr, on_kept_term)
    cols = np.flatnonzero(candidates)
    _, group, size = np.unique(column_hash[cols], return_inverse=True, return_counts=True)
    seen: set[bytes] = set()
    copies = []
    for j in cols[size[group] > 1]:
        lo, hi = indptr[j], indptr[j + 1]
        kept = on_kept_term[lo:hi]
        r, v = rows[lo:hi][kept], data[lo:hi][kept]
        order = np.argsort(r, kind="stable")
        key = r[order].tobytes() + v[order].tobytes()
        if key in seen:
            copies.append(j)
        else:
            seen.add(key)
    return np.asarray(copies, dtype=np.int64)


def _column_hashes(rows, data, indptr, on_kept_term):
    # per column, the wrapping sum of a 64-bit hash of each kept (row,
    # value) entry, which no order of the entries changes; built in one
    # array with a leading zero, so that its running sum read at the
    # column pointers gives every column's sum as a difference
    h = np.zeros(len(rows) + 1, np.uint64)
    entry = h[1:]
    entry[:] = rows
    entry *= np.uint64(0x9E3779B97F4A7C15)
    entry += data.view(np.uint64)
    entry ^= entry >> np.uint64(31)
    entry *= np.uint64(0xBF58476D1CE4E5B9)
    entry ^= entry >> np.uint64(29)
    entry *= on_kept_term
    sums = np.cumsum(h, out=h)[indptr]
    return sums[1:] - sums[:-1]


def tfidf(c: Corpus) -> sparse.csc_array:
    """count * ln(n / df) per entry; terms in every document zero out.

    A new matrix: each stored count is multiplied by its term's idf in
    one pass over the data, and the zeros of the terms in every
    document are dropped.  A term's document frequency counts its
    stored entries.
    """
    counts = c.counts
    m, n = counts.shape
    if n < 1:
        raise EmptyCorpus("corpus has no documents")
    df = np.bincount(counts.indices, minlength=m)
    everywhere = int(np.count_nonzero(df == n))
    if everywhere:
        logger.info(
            "%d term(s) appear in every document; their tf-idf rows are zero",
            everywhere,
        )
    idf = np.zeros(m)
    present = df > 0
    idf[present] = np.log(n / df[present])
    data = idf[counts.indices]
    data *= counts.data
    out = sparse.csc_array((data, counts.indices.copy(), counts.indptr.copy()), shape=(m, n))
    out.eliminate_zeros()
    return out


def normalize_columns(X):
    """Scale every column to unit 2-norm.  Idempotent.

    A sparse X comes back as a new CSC array whose data is that of X's
    canonical form (matrix.as_csc) divided by its column's norm, in one
    pass.
    """
    if sparse.issparse(X):
        X = as_csc(X)
        data, indptr = X.data, X.indptr
        norms = np.sqrt(_column_sums(data * data, indptr))
        if np.any(norms == 0):
            bad = int(np.flatnonzero(norms == 0)[0])
            raise ZeroColumn(f"column {bad} has zero norm")
        scaled = np.repeat(1.0 / norms, np.diff(indptr))
        scaled *= data
        out = sparse.csc_array((scaled, X.indices.copy(), indptr.copy()), shape=X.shape)
        out.eliminate_zeros()  # a product that underflows is no entry
        return out
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ZeroColumn(f"column {bad} has zero norm")
    return X / norms


def read_corpus(vocab_path, doc_ids_path, counts_path) -> Corpus:
    """Load vocabulary, document id, and Matrix Market count files."""
    return Corpus(read_names(vocab_path), read_names(doc_ids_path), read_matrix_market(counts_path))


def top_terms(W, vocab, t: int) -> list[list[tuple[str, float]]]:
    """Per basis column, its t heaviest terms with their weights, ties by term index.

    t is a count of at least 1 (matrix.require_count); the CLI applies
    that rule before it reads a file.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise VocabMismatch(f"W must be 2-d, got shape {W.shape}")
    if len(vocab) != W.shape[0]:
        raise VocabMismatch(f"{len(vocab)} terms for {W.shape[0]} rows of W")
    require_count(t, "top-terms count", 1)
    clusters = []
    for c in range(W.shape[1]):
        order = np.argsort(-W[:, c], kind="stable")[:t]
        clusters.append([(vocab[i], float(W[i, c])) for i in order])
    return clusters

