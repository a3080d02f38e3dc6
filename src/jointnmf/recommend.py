"""Citation recommendation: project test documents, score against training.

A trained model is the basis W (text space) and coordinates H of the
training documents; W can come from the joint factorization so the
coordinates carry linkage structure.  The test documents, the columns
of X, are placed by

    Q = argmin_{Q >= 0} ||X - W Q||_F

and the scores of test document t against training document j are
either the inner product (H^T q_t)_j or the cosine between q_t and
column j of H.  Three reference baselines: shared word count, NMF on
text alone with the same projection (NMF-1), and NMF on the
column-augmented matrix [X_train, x] reading off the last coordinate
column (NMF-2), one fit per test document; evaluate runs those fits
together, in lockstep (factorize.nmf_each).  Every score set is a
test × train array.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from .errors import EmptyCorpus, ShapeMismatch, ZeroQuery
from .factorize import FactorizeOptions, joint_nmf, nmf, nmf_each
from .matrix import as_csc, as_dense, require_nonnegative
from .nls import nls_bpp_gram

__all__ = [
    "project",
    "score",
    "recommend",
    "baseline_shared_words",
    "baseline_nmf2",
    "evaluate",
]

SCORINGS = ("inner", "cosine")


def project(W, X) -> np.ndarray:
    """Nonnegative coordinates (k × t) of the columns of X in the basis W."""
    W = np.asarray(W, dtype=np.float64)
    X = as_dense(X)
    if W.ndim != 2 or X.ndim != 2 or X.shape[0] != W.shape[0]:
        raise ShapeMismatch(f"W is {W.shape}, X is {X.shape}")
    require_nonnegative(X, what="X")
    return nls_bpp_gram(W.T @ W, W.T @ X)


def score(H, Q, scoring: str) -> np.ndarray:
    """Scores (t × n) of the query coordinates Q (k × t) against H.

    H holds the training coordinates, k × n for all queries or a
    (t, k, n) stack with one set per query.  Cosine scores of zero-norm
    training columns are 0; a zero query is an error.
    """
    if scoring not in SCORINGS:
        raise ValueError(f"unknown scoring {scoring!r}; use 'inner' or 'cosine'")
    H = np.asarray(H, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or H.ndim not in (2, 3) or H.shape[-2] != Q.shape[0] or (
        H.ndim == 3 and H.shape[0] != Q.shape[1]
    ):
        raise ShapeMismatch(f"H is {H.shape}, Q is {Q.shape}")
    _require_nonzero(Q, "query")
    # one matrix-vector product per query and one norm call per query
    # keep every score equal, bit for bit, to scoring the queries one at
    # a time; a single matrix product or a batched norm rounds differently
    inner = np.matvec(np.swapaxes(H, -1, -2), Q.T)
    if scoring == "inner":
        return inner
    q_norms = np.array([np.linalg.norm(q) for q in Q.T])
    norms = np.linalg.norm(H, axis=-2)
    return np.divide(inner, norms * q_norms[:, None], out=np.zeros_like(inner), where=norms > 0)


def recommend(scores, threshold: float) -> np.ndarray:
    """Indices scoring strictly above the threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.flatnonzero(scores > threshold)


def baseline_shared_words(X_train, X_test) -> np.ndarray:
    """Per test and training document (t × n), how many terms they share."""
    X = as_csc(X_train)
    Q = as_dense(X_test)
    if Q.ndim != 2 or Q.shape[0] != X.shape[0]:
        raise ShapeMismatch(f"X_train is {X.shape}, X_test is {Q.shape}")
    support = sparse.csc_array(
        ((X.data > 0).astype(np.float64), X.indices, X.indptr), shape=X.shape
    )
    return (support.T @ (Q > 0).astype(np.float64)).T


def baseline_nmf2(X_train, k: int, opts: FactorizeOptions | None, x) -> np.ndarray:
    """NMF-2: the k × (n+1) coordinates of one NMF of [X_train, x].

    The last column is the query's, the first n the training documents'.
    """
    aug, = _augmented(X_train, as_dense(x).reshape(-1, 1))
    return nmf(aug, FactorizeOptions(k=k) if opts is None else replace(opts, k=k)).H


def evaluate(X_train, S_train, X_test, opts: FactorizeOptions) -> dict:
    """Test × train score arrays of every model, float64.

    Keys in order: joint, nmf1 and nmf2 with _inner then _cosine, and
    sharedwords.  The joint and NMF-1 models are fitted once and each
    projects all test documents in one NLS solve; NMF-2 fits once per
    test document, all fits in lockstep.  A zero test document, or one
    that a model projects to zero, is a ZeroQuery naming its column.
    """
    X_test = as_dense(X_test)
    require_nonnegative(X_test, what="test_x")
    if X_test.ndim != 2 or X_test.shape[0] != X_train.shape[0]:
        raise ShapeMismatch("train and test matrices disagree on vocabulary size")
    if X_test.shape[1] == 0:
        raise EmptyCorpus("test set is empty")
    _require_nonzero(X_test, "test_x")
    n = X_train.shape[1]
    joint = joint_nmf(X_train, S_train, opts)
    text = nmf(X_train, opts)
    # NMF-2 scores each query against its own fit: a (t, k, n+1) stack
    fits = np.stack([fit.H for fit in nmf_each(_augmented(X_train, X_test), opts)])
    models = {
        "joint": (joint.H, project(joint.W, X_test)),
        "nmf1": (text.H, project(text.W, X_test)),
        "nmf2": (fits[..., :n], fits[..., -1].T),
    }
    for name, (_, Q) in models.items():
        _require_nonzero(Q, f"{name} projection of test_x")
    scores = {
        f"{name}_{scoring}": score(H, Q, scoring)
        for scoring in SCORINGS
        for name, (H, Q) in models.items()
    }
    scores["sharedwords"] = baseline_shared_words(X_train, X_test)
    return scores


def _augmented(X_train, X):
    """[X_train, x] for each column x of X (d × t), sparse if X_train is.

    The inputs are checked at once; the matrices are built one at a time
    as they are read, so a caller holds only those it still uses.
    """
    dense = not sparse.issparse(X_train)
    X_train = as_dense(X_train) if dense else as_csc(X_train)
    if X_train.ndim != 2 or X_train.shape[1] == 0:
        raise EmptyCorpus("X_train has no documents")
    if X_train.shape[0] != X.shape[0]:
        raise ShapeMismatch(f"X_train is {X_train.shape}, x has length {X.shape[0]}")
    if dense:
        return (np.hstack([X_train, x[:, None]]) for x in X.T)
    return (sparse.hstack([X_train, as_csc(x[:, None])], format="csc") for x in X.T)


def _require_nonzero(Q, what):
    zero = np.flatnonzero(~Q.any(axis=0))
    if zero.size:
        raise ZeroQuery(f"{what} column {zero[0]} is identically zero")
