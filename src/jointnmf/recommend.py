"""Citation recommendation: project a new document, score against training.

A trained model is the basis W (text space) and coordinates H of the
training documents; W can come from the joint factorization so the
coordinates carry linkage structure.  A new document x is placed by

    h = argmin_{h >= 0} ||x - W h||_2

and recommendation scores against training document j are either the
inner product (H^T h)_j or the cosine between h and column j of H.
Three reference baselines: shared word count, NMF on text alone with
the same projection (NMF-1), and NMF on the column-augmented matrix
[X, x] reading off the last coordinate column (NMF-2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import EmptyCorpus, ShapeMismatch, ZeroQuery
from .factorize import FactorizeOptions, joint_nmf, nmf
from .matrix import as_dense, require_nonnegative
from .nls import nls_bpp

__all__ = [
    "RecommendationModel",
    "project_document",
    "score_inner",
    "score_cosine",
    "recommend",
    "baseline_shared_words",
    "baseline_nmf1",
    "baseline_nmf2",
    "fit_recommender",
    "score_model",
    "evaluate",
]


@dataclass
class RecommendationModel:
    W: np.ndarray
    H: np.ndarray
    train_doc_ids: list[str]

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.H = np.asarray(self.H, dtype=np.float64)
        if self.W.ndim != 2 or self.H.ndim != 2 or self.W.shape[1] != self.H.shape[0]:
            raise ShapeMismatch(f"W is {self.W.shape}, H is {self.H.shape}")
        if len(self.train_doc_ids) != self.H.shape[1]:
            raise ShapeMismatch(
                f"{len(self.train_doc_ids)} ids for {self.H.shape[1]} training columns"
            )
        require_nonnegative(self.W, what="W")
        require_nonnegative(self.H, what="H")


def project_document(W, x) -> np.ndarray:
    """Nonnegative coordinates of x in the basis W (single-column NLS)."""
    W = np.asarray(W, dtype=np.float64)
    x = _dense_vector(x)
    if W.ndim != 2 or x.shape[0] != W.shape[0]:
        raise ShapeMismatch(f"W is {W.shape}, x has length {x.shape[0]}")
    require_nonnegative(x, what="x")
    return nls_bpp(W, x)


def score_inner(H, h) -> np.ndarray:
    """Inner-product scores H^T h against every training document."""
    H = np.asarray(H, dtype=np.float64)
    h = _dense_vector(h)
    if H.ndim != 2 or h.shape[0] != H.shape[0]:
        raise ShapeMismatch(f"H is {H.shape}, h has length {h.shape[0]}")
    return H.T @ h


def score_cosine(H, h) -> np.ndarray:
    """Cosine scores between h and the columns of H.

    Zero-norm training columns score 0; a zero query is an error.
    """
    H = np.asarray(H, dtype=np.float64)
    h = _dense_vector(h)
    if H.ndim != 2 or h.shape[0] != H.shape[0]:
        raise ShapeMismatch(f"H is {H.shape}, h has length {h.shape[0]}")
    hn = np.linalg.norm(h)
    if hn == 0:
        raise ZeroQuery("query coordinates are identically zero")
    norms = np.linalg.norm(H, axis=0)
    out = np.zeros(H.shape[1])
    ok = norms > 0
    out[ok] = (H.T @ h)[ok] / (norms[ok] * hn)
    return out


def recommend(scores, threshold: float) -> np.ndarray:
    """Indices scoring strictly above the threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.flatnonzero(scores > threshold)


def baseline_shared_words(X_train, x) -> np.ndarray:
    """Per training document, how many terms it shares with x."""
    x = _dense_vector(x)
    if sparse.issparse(X_train):
        X = X_train.tocsc()
        if X.shape[0] != x.shape[0]:
            raise ShapeMismatch(f"X_train is {X.shape}, x has length {x.shape[0]}")
        support = sparse.csc_array(
            ((X.data > 0).astype(np.float64), X.indices, X.indptr), shape=X.shape
        )
        return (support.T @ (x > 0).astype(np.float64)).astype(np.int64)
    X = np.asarray(X_train, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != x.shape[0]:
        raise ShapeMismatch(f"X_train is {X.shape}, x has length {x.shape[0]}")
    return (X > 0).T.astype(np.int64) @ (x > 0).astype(np.int64)


def baseline_nmf1(X_train, k: int, opts: FactorizeOptions | None, x, scoring: str = "cosine") -> np.ndarray:
    """NMF on the training text alone, then project x and score."""
    opts = _with_k(opts, k)
    result = nmf(X_train, opts)
    h = project_document(result.W, x)
    return _score(result.H, h, scoring)


def baseline_nmf2(X_train, k: int, opts: FactorizeOptions | None, x, scoring: str = "cosine") -> np.ndarray:
    """NMF on [X_train, x]; the last coordinate column is the query."""
    H, h = _nmf2_coordinates(X_train, k, opts, x)
    return _score(H, h, scoring)


def fit_recommender(X_train, S_train, opts: FactorizeOptions, train_doc_ids=None) -> RecommendationModel:
    """Joint factorization of training text and raw citation adjacency."""
    result = joint_nmf(X_train, S_train, opts)
    n = result.H.shape[1]
    ids = list(train_doc_ids) if train_doc_ids is not None else [str(j) for j in range(n)]
    return RecommendationModel(W=result.W, H=result.H, train_doc_ids=ids)


def score_model(model: RecommendationModel, x, scoring: str = "cosine") -> np.ndarray:
    h = project_document(model.W, x)
    return _score(model.H, h, scoring)


def evaluate(X_train, S_train, X_test, opts: FactorizeOptions, train_doc_ids=None) -> dict:
    """Per-test score arrays of every model against the training documents.

    Keys in order: joint, nmf1 and nmf2 (fit_recommender, baseline_nmf1,
    baseline_nmf2) with _inner then _cosine, and sharedwords.  The joint
    and NMF-1 models are fitted once and each projects all test
    documents in one NLS solve; NMF-2 fits once per test document.
    """
    X_test = as_dense(X_test)
    require_nonnegative(X_test, what="test_x")
    if X_test.ndim != 2 or X_test.shape[0] != X_train.shape[0]:
        raise ShapeMismatch("train and test matrices disagree on vocabulary size")
    if X_test.shape[1] == 0:
        raise EmptyCorpus("test set is empty")
    docs = list(X_test.T)
    model = fit_recommender(X_train, S_train, opts, train_doc_ids)
    text = nmf(X_train, opts)
    coordinates = {
        "joint": [(model.H, h) for h in nls_bpp(model.W, X_test).T],
        "nmf1": [(text.H, h) for h in nls_bpp(text.W, X_test).T],
        "nmf2": [_nmf2_coordinates(X_train, opts.k, opts, x) for x in docs],
    }
    scores = {
        f"{name}_{scoring}": [_score(H, h, scoring) for H, h in pairs]
        for scoring in ("inner", "cosine")
        for name, pairs in coordinates.items()
    }
    scores["sharedwords"] = [baseline_shared_words(X_train, x).astype(np.float64) for x in docs]
    return scores


def _nmf2_coordinates(X_train, k, opts, x):
    # one NMF fit of [X_train, x]: training coordinates and the query's,
    # so both scorings of the NMF-2 baseline can share a fit
    x = _dense_vector(x)
    if sparse.issparse(X_train):
        n = X_train.shape[1]
        if n == 0:
            raise EmptyCorpus("X_train has no documents")
        aug = sparse.hstack([X_train.tocsc(), sparse.csc_array(x[:, None])], format="csc")
    else:
        X = np.asarray(X_train, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] == 0:
            raise EmptyCorpus("X_train has no documents")
        n = X.shape[1]
        aug = np.hstack([X, x[:, None]])
    result = nmf(aug, _with_k(opts, k))
    return result.H[:, :n], result.H[:, -1]


def _score(H, h, scoring):
    if scoring == "inner":
        return score_inner(H, h)
    if scoring == "cosine":
        return score_cosine(H, h)
    raise ValueError(f"unknown scoring {scoring!r}; use 'inner' or 'cosine'")


def _with_k(opts, k):
    if opts is None:
        return FactorizeOptions(k=k)
    return replace(opts, k=k)


def _dense_vector(x):
    if sparse.issparse(x):
        x = x.toarray()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and 1 in x.shape:
        x = x.ravel()
    if x.ndim != 1:
        raise ShapeMismatch(f"expected a vector, got shape {x.shape}")
    return x
