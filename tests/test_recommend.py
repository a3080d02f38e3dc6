"""Citation recommendation: projection, scoring, baselines."""

import numpy as np
import pytest
from scipy import sparse

from jointnmf.errors import EmptyCorpus, NonFinite, ShapeMismatch, ZeroQuery
from jointnmf.factorize import FactorizeOptions
from jointnmf.recommend import (
    RecommendationModel,
    baseline_nmf1,
    baseline_nmf2,
    baseline_shared_words,
    evaluate,
    fit_recommender,
    project_document,
    recommend,
    score_cosine,
    score_inner,
    score_model,
)


def planted(seed=1234, k=3, per_cluster=20, n_terms=40):
    rng = np.random.default_rng(seed)
    n = k * per_cluster
    labels = np.repeat(np.arange(k), per_cluster)
    H = np.zeros((k, n))
    H[labels, np.arange(n)] = 1.0
    H += rng.uniform(0.0, 0.01, H.shape)
    W = rng.random((n_terms, k))
    return W @ H, H.T @ H, W, H


# ---------------------------------------------------------------------------
# projection


def test_project_hand_value():
    W = np.array([[1.0], [1.0]])
    h = project_document(W, np.array([1.0, 2.0]))
    assert h.shape == (1,)
    assert abs(h[0] - 1.5) <= 1e-12


def test_project_exact_on_planted_column():
    X, _, W, H = planted()
    h = project_document(W, X[:, 5])
    assert np.allclose(h, H[:, 5], atol=1e-10, rtol=0.0)


def test_project_accepts_sparse_column():
    W = np.array([[2.0], [0.0]])
    x = sparse.csc_array(np.array([[4.0], [0.0]]))
    h = project_document(W, x)
    assert abs(h[0] - 2.0) <= 1e-12


def test_project_rejects_bad_query():
    W = np.ones((3, 2))
    with pytest.raises(ShapeMismatch):
        project_document(W, np.ones(4))
    with pytest.raises(NonFinite):
        project_document(W, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        project_document(W, np.array([1.0, -1.0, 0.0]))


# ---------------------------------------------------------------------------
# scoring


def test_score_inner_is_plain_product():
    H = np.array([[1.0, 0.0], [2.0, 3.0]])
    h = np.array([1.0, 1.0])
    assert score_inner(H, h).tolist() == [3.0, 3.0]


def test_score_cosine_hand_value():
    H = np.array([[1.0], [1.0]])
    s = score_cosine(H, np.array([1.0, 0.0]))
    assert abs(s[0] - 1.0 / np.sqrt(2.0)) <= 1e-12


def test_score_cosine_zero_column_scores_zero():
    H = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = score_cosine(H, np.array([1.0, 1.0]))
    assert s[1] == 0.0 and s[0] > 0.0


def test_score_cosine_rejects_zero_query():
    H = np.eye(2)
    with pytest.raises(ZeroQuery):
        score_cosine(H, np.zeros(2))


def test_score_cosine_scale_invariant():
    rng = np.random.default_rng(51)
    H = rng.random((4, 6))
    h = rng.random(4)
    base = score_cosine(H, h)
    assert np.max(np.abs(score_cosine(H, 3.7 * h) - base)) <= 1e-12
    H2 = H.copy()
    H2[:, 2] *= 41.0
    assert np.max(np.abs(score_cosine(H2, h) - base)) <= 1e-12


def test_score_inner_not_scale_invariant():
    H = np.eye(2)
    h = np.array([1.0, 0.0])
    assert score_inner(H, 2.0 * h)[0] == 2.0 * score_inner(H, h)[0]


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
    x = np.array([1.0, 1.0, 0.0])
    assert baseline_shared_words(X, x).tolist() == [2, 1]
    assert baseline_shared_words(X.toarray(), x).tolist() == [2, 1]


def test_shared_words_zero_query_scores_zero():
    X = sparse.csc_array(np.eye(3))
    assert baseline_shared_words(X, np.zeros(3)).tolist() == [0, 0, 0]


def test_nmf1_duplicate_column_is_top_scored():
    X, _, _, _ = planted()
    x = X[:, 13].copy()
    scores = baseline_nmf1(X, 3, FactorizeOptions(k=3, seed=0), x, scoring="cosine")
    assert scores.shape == (60,)
    assert scores[13] >= scores.max() - 1e-9


def test_nmf2_duplicate_column_high_cosine():
    X, _, _, _ = planted()
    scores = baseline_nmf2(X, 3, FactorizeOptions(k=3, seed=0), X[:, 7].copy())
    assert scores[7] >= 0.99


def test_nmf2_single_training_document():
    X, _, _, _ = planted()
    X1 = X[:, [0]]
    scores = baseline_nmf2(X1, 1, FactorizeOptions(k=1, seed=0), X[:, 0].copy())
    assert scores.shape == (1,)
    assert scores[0] >= 0.99


def test_nmf2_rejects_empty_training_set():
    with pytest.raises(EmptyCorpus):
        baseline_nmf2(np.zeros((4, 0)), 1, FactorizeOptions(k=1), np.ones(4))


# ---------------------------------------------------------------------------
# model plumbing and end-to-end properties


def test_model_validation():
    with pytest.raises(ShapeMismatch):
        RecommendationModel(np.ones((3, 2)), np.ones((4, 5)), [str(i) for i in range(5)])
    with pytest.raises(ShapeMismatch):
        RecommendationModel(np.ones((3, 2)), np.ones((2, 5)), ["only-one"])
    with pytest.raises(ValueError):
        RecommendationModel(-np.ones((3, 2)), np.ones((2, 5)), [str(i) for i in range(5)])


def test_fit_recommender_default_ids():
    X, S, _, _ = planted()
    model = fit_recommender(X, S, FactorizeOptions(k=3, seed=0))
    assert model.train_doc_ids == [str(i) for i in range(60)]
    assert model.W.shape == (40, 3) and model.H.shape == (3, 60)


def test_true_factor_model_self_retrieval_is_exact():
    X, _, W, H = planted()
    model = RecommendationModel(W, H, [str(i) for i in range(60)])
    for j in range(60):
        scores = score_model(model, X[:, j], scoring="cosine")
        assert int(np.argmax(scores)) == j


def test_fitted_model_ranks_noisy_copy_in_top_three():
    X, S, _, _ = planted()
    model = fit_recommender(X, S, FactorizeOptions(k=3, seed=0))
    noise = np.random.default_rng(55)
    hits = 0
    for j in range(60):
        x = X[:, j] + noise.uniform(0.0, 1e-3, X.shape[0])
        scores = score_model(model, x, scoring="cosine")
        if j in np.argsort(-scores, kind="stable")[:3]:
            hits += 1
    assert hits >= 54  # at least 90%


def test_score_model_rejects_unknown_scoring():
    X, S, _, _ = planted()
    model = fit_recommender(X, S, FactorizeOptions(k=3, seed=0))
    with pytest.raises(ValueError):
        score_model(model, X[:, 0], scoring="manhattan")


def test_evaluate_matches_the_one_query_functions():
    X, S, _, _ = planted(per_cluster=8)
    rng = np.random.default_rng(71)
    X_test = X[:, [2, 11, 20]] + rng.uniform(0.0, 0.05, (X.shape[0], 3))
    opts = FactorizeOptions(k=3, seed=0, max_sweeps=30)
    ids = [f"tr{j}" for j in range(X.shape[1])]
    got = evaluate(sparse.csc_array(X), S, sparse.csc_array(X_test), opts, ids)
    assert list(got) == [
        "joint_inner", "nmf1_inner", "nmf2_inner",
        "joint_cosine", "nmf1_cosine", "nmf2_cosine", "sharedwords",
    ]
    model = fit_recommender(sparse.csc_array(X), S, opts, ids)
    for t, x in enumerate(X_test.T):
        for scoring in ("inner", "cosine"):
            joint = score_model(model, x, scoring=scoring)
            assert np.max(np.abs(got[f"joint_{scoring}"][t] - joint)) <= 1e-12
            nmf1 = baseline_nmf1(sparse.csc_array(X), 3, opts, x, scoring=scoring)
            assert np.max(np.abs(got[f"nmf1_{scoring}"][t] - nmf1)) <= 1e-12
            nmf2 = baseline_nmf2(sparse.csc_array(X), 3, opts, x, scoring=scoring)
            assert np.array_equal(got[f"nmf2_{scoring}"][t], nmf2)
        shared = baseline_shared_words(sparse.csc_array(X), x)
        assert np.array_equal(got["sharedwords"][t], shared.astype(np.float64))


def test_evaluate_rejects_bad_test_documents():
    X, S, _, _ = planted(per_cluster=4)
    opts = FactorizeOptions(k=3, seed=0, max_sweeps=5)
    with pytest.raises(ShapeMismatch):
        evaluate(X, S, np.ones((X.shape[0] + 1, 2)), opts)
    with pytest.raises(EmptyCorpus):
        evaluate(X, S, np.ones((X.shape[0], 0)), opts)
    with pytest.raises(NonFinite):
        evaluate(X, S, np.full((X.shape[0], 1), np.nan), opts)
