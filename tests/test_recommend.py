"""Citation recommendation: projection, scoring, baselines.

evaluate is the module's one input boundary; the projection, the two
scorings and the shared-word count it applies are tested here on
their own, through nls_bpp_gram and the private _scores and
_shared_words.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from jointnmf import factorize
from jointnmf.errors import EmptyCorpus, NegativeEntries, NonFinite, ShapeMismatch, ZeroQuery
from jointnmf.factorize import FactorizeOptions, joint_nmf, nmf, nmf_each
from jointnmf.nls import nls_bpp_gram
from jointnmf.recommend import _scores, _shared_words, baseline_nmf2, evaluate, recommend


def planted(seed=1234, k=3, per_cluster=20, n_terms=40):
    rng = np.random.default_rng(seed)
    n = k * per_cluster
    labels = np.repeat(np.arange(k), per_cluster)
    H = np.zeros((k, n))
    H[labels, np.arange(n)] = 1.0
    H += rng.uniform(0.0, 0.01, H.shape)
    W = rng.random((n_terms, k))
    return W @ H, H.T @ H, W, H


def project(W, X):
    """The projection evaluate makes of the test documents X in the basis W."""
    return nls_bpp_gram(W.T @ W, W.T @ X)


# ---------------------------------------------------------------------------
# projection


def test_project_hand_value():
    W = np.array([[1.0], [1.0]])
    Q = project(W, np.array([[1.0], [2.0]]))
    assert Q.shape == (1, 1)
    assert abs(Q[0, 0] - 1.5) <= 1e-12


def test_project_exact_on_planted_column():
    X, _, W, H = planted()
    assert np.allclose(project(W, X), H, atol=1e-10, rtol=0.0)


def test_project_accepts_sparse_column():
    W = np.array([[2.0], [0.0]])
    x = sparse.csc_array(np.array([[4.0], [0.0]]))
    Q = project(W, x)
    assert abs(Q[0, 0] - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# scoring


def test_score_inner_is_plain_product():
    H = np.array([[1.0, 0.0], [2.0, 3.0]])
    Q = np.array([[1.0], [1.0]])
    inner, _ = _scores(H, Q)
    assert inner.tolist() == [[3.0, 3.0]]


def test_score_cosine_hand_value():
    H = np.array([[1.0], [1.0]])
    _, s = _scores(H, np.array([[1.0], [0.0]]))
    assert abs(s[0, 0] - 1.0 / np.sqrt(2.0)) <= 1e-12


def test_score_cosine_zero_column_scores_zero():
    H = np.array([[1.0, 0.0], [0.0, 0.0]])
    _, s = _scores(H, np.array([[1.0], [1.0]]))
    assert s[0, 1] == 0.0 and s[0, 0] > 0.0


def test_score_cosine_scale_invariant():
    rng = np.random.default_rng(51)
    H = rng.random((4, 6))
    Q = rng.random((4, 3))
    _, base = _scores(H, Q)
    assert np.max(np.abs(_scores(H, 3.7 * Q)[1] - base)) <= 1e-12
    H2 = H.copy()
    H2[:, 2] *= 41.0
    assert np.max(np.abs(_scores(H2, Q)[1] - base)) <= 1e-12


def test_score_inner_not_scale_invariant():
    H = np.eye(2)
    Q = np.array([[1.0], [0.0]])
    assert _scores(H, 2.0 * Q)[0][0, 0] == 2.0 * _scores(H, Q)[0][0, 0]


def test_score_stack_scores_each_query_against_its_own_set():
    rng = np.random.default_rng(53)
    H = rng.random((3, 4, 6))
    H[1, :, 2] = 0.0
    Q = rng.random((4, 3))
    got = _scores(H, Q)  # inner, cosine
    for t in range(3):
        for scores, alone in zip(got, _scores(H[t], Q[:, [t]])):
            assert scores.shape == (3, 6)
            assert np.array_equal(scores[t], alone[0])


def test_score_is_bit_identical_to_one_query_at_a_time():
    # k = 10 is long enough for a batched norm or one matrix product to
    # round differently from the per-query formulas
    rng = np.random.default_rng(54)
    Q = rng.random((10, 40))
    for H in (rng.random((10, 50)), rng.random((40, 10, 50))):
        inner, cosine = _scores(H, Q)
        for t, q in enumerate(Q.T):
            Ht = H if H.ndim == 2 else H[t]
            assert np.array_equal(inner[t], Ht.T @ q)
            want = (Ht.T @ q) / (np.linalg.norm(Ht, axis=0) * np.linalg.norm(q))
            assert np.array_equal(cosine[t], want)


# ---------------------------------------------------------------------------
# thresholding


def test_recommend_strict_threshold():
    scores = np.array([0.5, 0.1, 0.9])
    assert recommend(scores, 0.4).tolist() == [0, 2]
    assert recommend(scores, 0.5).tolist() == [2]
    assert recommend(scores, float("inf")).tolist() == []


def test_recommend_threshold_monotone():
    rng = np.random.default_rng(52)
    scores = rng.standard_normal(30)
    cuts = sorted(rng.standard_normal(6))
    picked = [set(recommend(scores, t).tolist()) for t in cuts]
    for lo, hi in zip(picked, picked[1:]):
        assert hi <= lo


# ---------------------------------------------------------------------------
# baselines


def test_shared_words_counts_support_overlap():
    X = sparse.csc_array(np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]]))
    Q = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _shared_words(X, Q).tolist() == [[2, 1], [0, 1]]
    assert _shared_words(X.toarray(), Q).tolist() == [[2, 1], [0, 1]]


def test_shared_words_count_a_term_stored_in_parts_once():
    # training document 0 stores term 1 as 1 + 1, which counted as two
    # shared words
    X = sparse.csc_array((np.array([1.0, 1.0, 1.0, 3.0]), np.array([0, 1, 1, 2]),
                          np.array([0, 3, 4])), shape=(3, 2))
    Q = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _shared_words(X, Q).tolist() == [[2, 0], [0, 1]]


def test_shared_words_zero_query_scores_zero():
    X = sparse.csc_array(np.eye(3))
    assert _shared_words(X, np.zeros((3, 1))).tolist() == [[0, 0, 0]]


def test_nmf1_duplicate_column_is_top_scored():
    # NMF-1: NMF on the training text, then the joint model's projection
    X, _, _, _ = planted()
    text = nmf(X, FactorizeOptions(k=3, seed=0))
    _, scores = _scores(text.H, project(text.W, X[:, [13]]))
    assert scores.shape == (1, 60)
    assert scores[0, 13] >= scores.max() - 1e-9


def test_nmf2_duplicate_column_high_cosine():
    X, _, _, _ = planted()
    H = baseline_nmf2(X, 3, FactorizeOptions(k=3, seed=0), X[:, 7].copy())
    assert H.shape == (3, 61)
    assert _scores(H[:, :60], H[:, 60:])[1][0, 7] >= 0.99


def test_nmf2_single_training_document():
    X, _, _, _ = planted()
    X1 = X[:, [0]]
    H = baseline_nmf2(X1, 1, FactorizeOptions(k=1, seed=0), X[:, 0].copy())
    _, scores = _scores(H[:, :1], H[:, 1:])
    assert scores.shape == (1, 1)
    assert scores[0, 0] >= 0.99


def test_nmf2_rejects_empty_training_set():
    with pytest.raises(EmptyCorpus):
        baseline_nmf2(np.zeros((4, 0)), 1, FactorizeOptions(k=1), np.ones(4))


# ---------------------------------------------------------------------------
# models and end-to-end properties


def test_true_factor_model_self_retrieval_is_exact():
    X, _, W, H = planted()
    _, scores = _scores(H, project(W, X))
    assert np.argmax(scores, axis=1).tolist() == list(range(60))


def test_fitted_model_ranks_noisy_copy_in_top_three():
    X, S, _, _ = planted()
    fit = joint_nmf(X, S, FactorizeOptions(k=3, seed=0))
    # one row of draws per document, in the order of a per-document loop
    noise = np.random.default_rng(55).uniform(0.0, 1e-3, X.shape[::-1]).T
    _, scores = _scores(fit.H, project(fit.W, X + noise))
    top = np.argsort(-scores, axis=1, kind="stable")[:, :3]
    hits = sum(j in top[j] for j in range(60))
    assert hits >= 54  # at least 90%


def test_evaluate_returns_test_by_train_arrays():
    X, S, _, _ = planted(per_cluster=4)
    got = evaluate(X, S, X[:, [0, 5]] + 0.01, FactorizeOptions(k=3, seed=0, max_sweeps=5))
    for name, scores in got.items():
        assert scores.shape == (2, 12) and scores.dtype == np.float64, name


def test_evaluate_matches_the_one_query_functions():
    # a slow reference: each test document alone, by the explicit formulas
    X, S, _, _ = planted(per_cluster=8)
    rng = np.random.default_rng(71)
    X_test = X[:, [2, 11, 20]] + rng.uniform(0.0, 0.05, (X.shape[0], 3))
    opts = FactorizeOptions(k=3, seed=0, max_sweeps=30)
    X_train = sparse.csc_array(X)
    got = evaluate(X_train, S, sparse.csc_array(X_test), opts)
    assert list(got) == [
        "joint_inner", "nmf1_inner", "nmf2_inner",
        "joint_cosine", "nmf1_cosine", "nmf2_cosine", "sharedwords",
    ]

    def explicit(H, h):
        inner = H.T @ h
        norms = np.linalg.norm(H, axis=0)
        cosine = np.zeros(H.shape[1])
        cosine[norms > 0] = inner[norms > 0] / (norms[norms > 0] * np.linalg.norm(h))
        return {"inner": inner, "cosine": cosine}

    n = X.shape[1]
    fits = {"joint": joint_nmf(X_train, S, opts), "nmf1": nmf(X_train, opts)}
    for t, x in enumerate(X_test.T):
        aug = sparse.hstack([X_train, sparse.csc_array(x[:, None])], format="csc")
        H2 = nmf(aug, opts).H
        want = {name: explicit(fit.H, nls_bpp_gram(fit.W.T @ fit.W, fit.W.T @ x[:, None])[:, 0])
                for name, fit in fits.items()}
        want["nmf2"] = explicit(H2[:, :n], H2[:, -1])
        for name, by_scoring in want.items():
            # one column projected alone may round apart from the batch
            tol = 0.0 if name == "nmf2" else 1e-12
            for scoring, ref in by_scoring.items():
                assert np.max(np.abs(got[f"{name}_{scoring}"][t] - ref)) <= tol, name
        shared = [np.count_nonzero((X[:, j] > 0) & (x > 0)) for j in range(n)]
        assert np.array_equal(got["sharedwords"][t], shared)
    # on the coordinates of the one batched projection, bit for bit
    for name, fit in fits.items():
        Q = nls_bpp_gram(fit.W.T @ fit.W, fit.W.T @ X_test)
        for t in range(X_test.shape[1]):
            for scoring, ref in explicit(fit.H, Q[:, t]).items():
                assert np.array_equal(got[f"{name}_{scoring}"][t], ref), name


def test_evaluate_rejects_bad_test_documents():
    X, S, _, _ = planted(per_cluster=4)
    opts = FactorizeOptions(k=3, seed=0, max_sweeps=5)
    with pytest.raises(ShapeMismatch):
        evaluate(X, S, np.ones((X.shape[0] + 1, 2)), opts)
    with pytest.raises(EmptyCorpus):
        evaluate(X, S, np.ones((X.shape[0], 0)), opts)
    with pytest.raises(NonFinite):
        evaluate(X, S, np.full((X.shape[0], 1), np.nan), opts)
    with pytest.raises(NegativeEntries, match="test_x must be nonnegative"):
        evaluate(X, S, np.full((X.shape[0], 1), -1.0), opts)
    X_test = np.ones((X.shape[0], 3))
    X_test[:, 1] = 0.0
    with pytest.raises(ZeroQuery, match="test_x column 1 is identically zero"):
        evaluate(X, S, X_test, opts)


def test_evaluate_names_the_model_that_projects_a_query_to_zero():
    # the last term occurs in no training document, so both fitted bases
    # are zero on it and a test document made of it alone projects to zero
    X, S, _, _ = planted(per_cluster=4)
    X = np.vstack([X, np.zeros((1, X.shape[1]))])
    X_test = np.zeros((X.shape[0], 2))
    X_test[:, 0] = X[:, 0]
    X_test[-1, 1] = 1.0
    with pytest.raises(ZeroQuery, match="joint projection of test_x column 1 is identically zero"):
        evaluate(X, S, X_test, FactorizeOptions(k=3, seed=0, max_sweeps=5))


@pytest.mark.parametrize("t", [1, 4])
def test_evaluate_makes_one_nmf2_kernel_call_per_block_per_sweep(t, monkeypatch):
    # the NMF-2 fits run in lockstep: a sweep has two blocks (W, H), each
    # one NLS call, however many test documents fit in one stack
    X, S, _, _ = planted(per_cluster=4)
    module = importlib.import_module("jointnmf.recommend")
    calls, inside = [], []
    kernel, each = factorize.nls_bpp_gram, module.nmf_each
    monkeypatch.setattr(factorize, "nls_bpp_gram",
                        lambda *a, **kw: calls.append(bool(inside)) or kernel(*a, **kw))

    def tracked(*args):
        inside.append(True)
        try:
            yield from each(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(module, "nmf_each", tracked)
    evaluate(X, S, X[:, :t] + 0.01, FactorizeOptions(k=3, seed=0, max_sweeps=4, rel_tol=0.0))
    assert calls.count(True) == 2 * 4
    assert calls.count(False) == 3 * 4 + 2 * 4  # the joint and NMF-1 fits


def test_evaluate_splits_many_test_documents_into_stacks(monkeypatch, stack_sizes):
    # room for three augmented fits (40 terms) per stack: seven test
    # documents take stacks of 3, 3 and 1, and every NMF-2 score still
    # equals the one-query fit's bit for bit
    X, S, _, _ = planted(per_cluster=4)
    monkeypatch.setattr(factorize, "LOCKSTEP_COLUMNS", 3 * X.shape[0])
    X_test = X[:, [0, 1, 4, 5, 8, 9, 10]] + 0.01
    opts = FactorizeOptions(k=3, seed=0, max_sweeps=8, rel_tol=1e-3)
    got = evaluate(X, S, X_test, opts)
    assert stack_sizes == [1, 1, 3, 3, 1]  # the joint fit, NMF-1, then NMF-2
    n = X.shape[1]
    for t, x in enumerate(X_test.T):
        H2 = baseline_nmf2(X, 3, opts, x)
        for scoring, want in zip(("inner", "cosine"), _scores(H2[:, :n], H2[:, -1:])):
            assert np.array_equal(got[f"nmf2_{scoring}"][t], want[0]), (t, scoring)


def nmf2_peak(X_train, X_test, opts):
    """Traced peak of stacking the H of each NMF-2 fit, as evaluate
    does, and the bytes of that stack."""
    tracemalloc.start()
    try:
        augmented = (sparse.hstack([X_train, sparse.csc_array(x[:, None])], format="csc")
                     for x in X_test.T)
        H = np.stack([fit.H for fit in nmf_each(augmented, opts)])
        return tracemalloc.get_traced_memory()[1], H.nbytes
    finally:
        tracemalloc.stop()


def test_nmf2_memory_grows_with_the_kept_h_not_with_every_fit():
    # the recommend benchmark's shape: 500 terms, 300 training documents,
    # k = 10; each fit's W (500 x 10) outweighs its H (10 x 301), so a
    # caller that keeps every result grows 2-3 times as fast as the H's
    rng = np.random.default_rng(5)
    X = sparse.csc_array(sparse.random(500, 316, density=0.1, random_state=rng))
    X_train, X_test = X[:, :300], X[:, 300:].toarray()
    opts = FactorizeOptions(k=10, max_sweeps=5, rel_tol=0.0, seed=1)
    nmf2_peak(X_train, X_test[:, :2], opts)  # first-call allocations
    peak16, h16 = nmf2_peak(X_train, X_test, opts)
    peak64, h64 = nmf2_peak(X_train, np.tile(X_test, 4), opts)
    assert peak64 - peak16 <= 1.5 * (h64 - h16) + 0.5 * 2**20
