"""Corpus filtering, tf-idf weighting, column normalization."""

import numpy as np
import pytest
from scipy import sparse

from jointnmf.errors import EmptyCorpus, NonFinite, ShapeMismatch, ZeroColumn
from jointnmf.matrix import write_matrix_market
from jointnmf.textprep import (
    Corpus,
    filter_corpus,
    normalize_columns,
    read_corpus,
    tfidf,
)


def corpus_from_dense(M, vocab=None, doc_ids=None):
    M = np.asarray(M, dtype=np.float64)
    vocab = vocab or [f"t{i}" for i in range(M.shape[0])]
    doc_ids = doc_ids or [f"d{j}" for j in range(M.shape[1])]
    return Corpus(vocab, doc_ids, sparse.csc_array(M))


def test_corpus_validation():
    M = sparse.csc_array(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        Corpus(["a"], ["d0", "d1", "d2"], M)
    with pytest.raises(ShapeMismatch):
        Corpus(["a", "b"], ["d0"], M)
    with pytest.raises(ValueError):
        Corpus(["a", "b"], ["x", "y", "z"], sparse.csc_array(-np.ones((2, 3))))


def test_corpus_rejects_nan_count():
    M = np.ones((2, 3))
    M[1, 2] = np.nan
    with pytest.raises(NonFinite):
        Corpus(["a", "b"], ["x", "y", "z"], sparse.csc_array(M))


def test_filter_removes_rare_terms_then_short_docs_then_duplicates():
    #       d0 d1 d2 d3  (d3 duplicates d0 after the rare term goes)
    M = np.array([
        [3.0, 2.0, 1.0, 3.0],
        [2.0, 3.0, 1.0, 2.0],
        [0.0, 0.0, 9.0, 7.0],   # df=2 < 3: removed first
    ])
    c = corpus_from_dense(M)
    out, report = filter_corpus(c, min_term_df=3, min_doc_len=3, dedupe=True)
    assert out.vocab == ["t0", "t1"]
    assert out.doc_ids == ["d0", "d1"]
    assert report.removed_terms == ["t2"]
    assert report.short_docs == ["d2"]  # 1+1 = 2 < 3 once t2 is gone
    assert report.duplicate_docs == ["d3"]
    assert out.counts.toarray().tolist() == [[3.0, 2.0], [2.0, 3.0]]


def test_filter_keeps_first_duplicate():
    M = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    c = corpus_from_dense(M)
    out, report = filter_corpus(c, min_term_df=1, min_doc_len=1, dedupe=True)
    assert out.doc_ids == ["d0"]
    assert report.duplicate_docs == ["d1", "d2"]


def test_filter_dedupe_optional():
    M = np.array([[1.0, 1.0], [2.0, 2.0]])
    out, report = filter_corpus(corpus_from_dense(M), 1, 1, dedupe=False)
    assert out.doc_ids == ["d0", "d1"]
    assert report.duplicate_docs == []


def test_filter_empty_results_rejected():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(EmptyCorpus):
        filter_corpus(corpus_from_dense(M), min_term_df=2, min_doc_len=1)
    with pytest.raises(EmptyCorpus):
        filter_corpus(corpus_from_dense(M), min_term_df=1, min_doc_len=10)


def test_filter_idempotent():
    rng = np.random.default_rng(31)
    M = rng.integers(0, 4, (12, 15)).astype(np.float64)
    once, _ = filter_corpus(corpus_from_dense(M), 3, 5)
    twice, report = filter_corpus(once, 3, 5)
    assert twice.vocab == once.vocab
    assert twice.doc_ids == once.doc_ids
    assert report.removed_terms == [] and report.short_docs == []
    assert (twice.counts.toarray() == once.counts.toarray()).all()


def test_filter_monotone_in_term_threshold():
    rng = np.random.default_rng(32)
    for _ in range(10):
        M = rng.integers(0, 3, (10, 12)).astype(np.float64)
        try:
            loose, _ = filter_corpus(corpus_from_dense(M), 2, 1, dedupe=False)
            tight, _ = filter_corpus(corpus_from_dense(M), 4, 1, dedupe=False)
        except EmptyCorpus:
            continue
        assert set(tight.vocab) <= set(loose.vocab)


def test_tfidf_hand_values():
    # term0 in doc0 only: idf = ln 2; counts 1 and 3
    M = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    T = tfidf(corpus_from_dense(M)).toarray()
    ln2 = np.log(2.0)
    assert abs(T[0, 0] - ln2) <= 1e-12
    assert abs(T[1, 0] - 3.0 * ln2) <= 1e-12
    assert T[0, 1] == 0.0


def test_tfidf_everywhere_term_weighs_zero():
    M = np.array([[1.0, 2.0], [1.0, 0.0]])
    T = tfidf(corpus_from_dense(M)).toarray()
    assert T[0, 0] == 0.0 and T[0, 1] == 0.0
    assert T[1, 0] > 0.0


def test_tfidf_preserves_sparsity_pattern():
    rng = np.random.default_rng(33)
    M = rng.integers(0, 3, (9, 6)).astype(np.float64)
    M[0] = 1.0  # an everywhere-term that tf-idf zeroes out
    c = corpus_from_dense(M)
    T = tfidf(c)
    dense = T.toarray()
    assert ((dense != 0.0) <= (M != 0.0)).all()


def test_normalize_columns_hand_value():
    X = normalize_columns(sparse.csc_array(np.array([[3.0], [4.0]])))
    assert np.allclose(X.toarray().ravel(), [0.6, 0.8], atol=1e-15, rtol=0.0)


def test_normalize_columns_unit_norms():
    rng = np.random.default_rng(34)
    M = rng.random((7, 9)) + 0.01
    for X in (normalize_columns(M.copy()), normalize_columns(sparse.csc_array(M))):
        D = X.toarray() if sparse.issparse(X) else X
        norms = np.sqrt((D * D).sum(axis=0))
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_normalize_columns_sparse_dense_agree():
    rng = np.random.default_rng(35)
    M = rng.random((6, 5))
    M[M < 0.5] = 0.0
    M[0] += 0.1  # no zero columns
    a = normalize_columns(M.copy())
    b = normalize_columns(sparse.csc_array(M)).toarray()
    assert np.allclose(a, b, atol=1e-12, rtol=0.0)


def test_normalize_columns_rejects_zero_column():
    M = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ZeroColumn):
        normalize_columns(M)
    with pytest.raises(ZeroColumn):
        normalize_columns(sparse.csc_array(M))


def test_read_corpus_round_trip(tmp_path):
    M = np.array([[1.0, 0.0], [2.0, 3.0]])
    write_matrix_market(tmp_path / "counts.mtx", sparse.csc_array(M))
    (tmp_path / "vocab.txt").write_text("alpha\nbeta\n")
    (tmp_path / "docs.txt").write_text("d0\nd1\n")
    c = read_corpus(tmp_path / "vocab.txt", tmp_path / "docs.txt", tmp_path / "counts.mtx")
    assert c.vocab == ["alpha", "beta"]
    assert c.doc_ids == ["d0", "d1"]
    assert (c.counts.toarray() == M).all()
