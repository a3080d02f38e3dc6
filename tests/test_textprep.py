"""Corpus filtering, tf-idf weighting, column normalization."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from jointnmf import textprep
from jointnmf.cli import main
from jointnmf.errors import EmptyCorpus, NonFinite, ShapeMismatch, ZeroColumn
from jointnmf.matrix import as_csc, write_matrix_market
from jointnmf.textprep import (
    Corpus,
    FilterReport,
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


def test_corpus_drops_stored_zeros_in_a_copy():
    M = sparse.csc_array((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 0]), np.array([0, 2, 3])),
                         shape=(2, 2))
    before = snapshot(M)
    c = Corpus(["a", "b"], ["x", "y"], M)
    assert c.counts.nnz == 2
    assert unchanged(M, before)


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


# ---------------------------------------------------------------------------
# the array passes against the sparse-product references they replaced


def reference_filter(c, min_term_df, min_doc_len, dedupe):
    """Successive selections, then one bytes key per column."""
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
        seen, kept = set(), []
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
    return Corpus([c.vocab[i] for i in keep_terms], doc_ids, counts), report


def reference_tfidf(c):
    counts = c.counts
    m, n = counts.shape
    df = np.bincount(counts.tocoo().row, minlength=m)
    idf = np.zeros(m)
    idf[df > 0] = np.log(n / df[df > 0])
    out = as_csc(sparse.diags_array(idf) @ counts)
    out.eliminate_zeros()
    return out


def reference_normalize(X):
    X = as_csc(X)
    norms = np.sqrt(X.multiply(X).sum(axis=0))
    return as_csc(X @ sparse.diags_array(1.0 / norms))


def csc_arrays(M):
    # the arrays of a sorted copy, the values as their bits
    M = M.copy()
    M.sort_indices()
    return M.shape, M.indptr.tolist(), M.indices.tolist(), M.data.view(np.uint64).tolist()


def snapshot(M):
    return M.shape, M.indptr.copy(), M.indices.copy(), M.data.copy()


def unchanged(M, snap):
    shape, indptr, indices, data = snap
    return (M.shape == shape and np.array_equal(M.indptr, indptr)
            and np.array_equal(M.indices, indices)
            and np.array_equal(M.data.view(np.uint64), data.view(np.uint64)))


COUNTS = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.25, 2.75])


@st.composite
def raw_corpora(draw):
    """Count columns stored as a CSC array might hold them: unsorted,
    with repeated rows, empty, or copies of an earlier column."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["new", "copy", "empty"] if columns else ["new"]))
        if kind == "new":
            entries = draw(st.lists(st.tuples(st.integers(0, m - 1), COUNTS), max_size=2 * m))
        elif kind == "copy":
            entries = list(draw(st.sampled_from(columns)))
        else:
            entries = []
        if draw(st.booleans()):
            entries = sorted(entries, key=lambda e: e[0])  # a stable sort keeps repeats in order
        columns.append(entries)
    indptr = np.cumsum([0] + [len(col) for col in columns]).astype(np.int32)
    rows = np.array([r for col in columns for r, _ in col], dtype=np.int32)
    data = np.array([v for col in columns for _, v in col], dtype=np.float64)
    counts = sparse.csc_array((data, rows, indptr), shape=(m, n))
    return Corpus([f"t{i}" for i in range(m)], [f"d{j}" for j in range(n)], counts)


@settings(max_examples=400)
@given(c=raw_corpora(), min_term_df=st.integers(0, 3), min_doc_len=st.sampled_from([0, 1, 2.5, 4]),
       dedupe=st.booleans())
@example(c=Corpus(["a", "b"], ["x", "y", "z"], sparse.csc_array(
    (np.array([1.0, 2.0, 1.0, 2.0]), np.array([0, 1, 0, 1]), np.array([0, 2, 2, 4])), shape=(2, 3))),
    min_term_df=0, min_doc_len=0, dedupe=True)
def test_filter_equals_successive_selections(c, min_term_df, min_doc_len, dedupe):
    before = snapshot(c.counts)
    try:
        expected, expected_report = reference_filter(c, min_term_df, min_doc_len, dedupe)
    except EmptyCorpus as exc:
        with pytest.raises(EmptyCorpus, match=f"^{exc}$"):
            filter_corpus(c, min_term_df, min_doc_len, dedupe)
        return
    got, report = filter_corpus(c, min_term_df, min_doc_len, dedupe)
    assert got.vocab == expected.vocab and got.doc_ids == expected.doc_ids
    assert report == expected_report
    assert csc_arrays(got.counts) == csc_arrays(expected.counts)
    assert got.counts.has_sorted_indices
    assert unchanged(c.counts, before)


def test_filter_compares_columns_whose_hashes_collide(monkeypatch):
    # with every column hashed alike, only the exact comparison tells
    # copies from distinct columns
    monkeypatch.setattr(textprep, "_column_hashes",
                        lambda rows, data, indptr, kept: np.zeros(len(indptr) - 1, np.uint64))
    M = np.array([[1.0, 2.0, 1.0, 2.0, 1.0], [3.0, 3.0, 3.0, 3.0, 3.0]])
    out, report = textprep.filter_corpus(corpus_from_dense(M), 1, 1)
    assert out.doc_ids == ["d0", "d1"]
    assert report.duplicate_docs == ["d2", "d3", "d4"]


@st.composite
def weighted_columns(draw):
    """A canonical CSC array as preprocess passes one: rows ascending, no
    repeats, values spread over decades so that sums round; some stored
    zeros when asked."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.where(rng.random((m, n)) < draw(st.sampled_from([0.2, 0.6, 1.0])),
                 10.0 ** rng.uniform(-3, 3, (m, n)), 0.0)
    M[rng.integers(0, m, n), np.arange(n)] = 1.5  # no empty column
    X = sparse.csc_array(M)
    if draw(st.booleans()):
        X.data[(rng.random(X.nnz) < 0.1) & (X.data != 1.5)] = 0.0
    return X


@settings(max_examples=200)
@given(X=weighted_columns())
def test_normalize_columns_equals_the_diagonal_product(X):
    before = snapshot(X)
    assert csc_arrays(normalize_columns(X)) == csc_arrays(reference_normalize(X))
    assert unchanged(X, before)


@settings(max_examples=200)
@given(X=weighted_columns(), everywhere=st.booleans())
def test_tfidf_equals_the_diagonal_product(X, everywhere):
    X.eliminate_zeros()
    if everywhere:  # a term in every document, whose entries drop out
        X = sparse.csc_array(X.toarray() + np.eye(X.shape[0], 1).repeat(X.shape[1], axis=1))
    c = Corpus([f"t{i}" for i in range(X.shape[0])], [f"d{j}" for j in range(X.shape[1])], X)
    before = snapshot(c.counts)
    assert csc_arrays(tfidf(c)) == csc_arrays(reference_tfidf(c))
    assert unchanged(c.counts, before)


def test_normalize_columns_sums_repeated_entries_first():
    # column 0 stores row 0 twice (1 + 3) and row 1 once (4)
    X = sparse.csc_array((np.array([1.0, 4.0, 3.0, 2.0]), np.array([0, 1, 0, 1]),
                          np.array([0, 3, 4])), shape=(2, 2))
    before = snapshot(X)
    out = normalize_columns(X)
    assert out.has_canonical_format
    assert np.allclose(out.toarray(), [[2 ** -0.5, 0.0], [2 ** -0.5, 1.0]], rtol=0, atol=1e-15)
    assert unchanged(X, before)


def test_preprocess_peak_memory_is_a_few_count_matrices(tmp_path):
    # one full-size copy of the corpus is live at a time, so the traced
    # peak is set by reading the counts, about 3 count matrices; the raw,
    # filtered and weighted copies held at once would pass 5
    rng = np.random.default_rng(8)
    m, n, per_doc = 1500, 2000, 60
    rows = np.array([rng.choice(m, per_doc, replace=False) for _ in range(n)])
    values = rng.integers(1, 4, (n, per_doc)).astype(np.float64)
    rows[1::40], values[1::40] = rows[::40], values[::40]  # some duplicate documents
    counts = sparse.csc_array((values.ravel(), (rows.ravel(), np.repeat(np.arange(n), per_doc))),
                              shape=(m, n))
    write_matrix_market(tmp_path / "counts.mtx", counts)
    (tmp_path / "vocab.txt").write_text("".join(f"term{i}\n" for i in range(m)))
    (tmp_path / "ids.txt").write_text("".join(f"doc{j}\n" for j in range(n)))
    (tmp_path / "edges.tsv").write_text("".join(f"{j}\t{(j + 1) % n}\n" for j in range(n)))
    counts = read_corpus(tmp_path / "vocab.txt", tmp_path / "ids.txt", tmp_path / "counts.mtx").counts
    matrix_bytes = counts.data.nbytes + counts.indices.nbytes + counts.indptr.nbytes
    del counts
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["preprocess", "--counts", str(tmp_path / "counts.mtx"),
                         "--vocab", str(tmp_path / "vocab.txt"), "--doc-ids", str(tmp_path / "ids.txt"),
                         "--edges", str(tmp_path / "edges.tsv"), "--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * matrix_bytes
