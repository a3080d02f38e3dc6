"""Citation recommendation: project test documents, score against training.

A trained model is the basis W (text space) and coordinates H of the
training documents; W can come from the joint factorization so the
coordinates carry linkage structure.  The test documents, the columns
of X, are placed by

    Q = argmin_{Q >= 0} ||X - W Q||_F

and the scores of test document t against training document j are
both the inner product (H^T q_t)_j and the cosine between q_t and
column j of H.  Three reference baselines: shared word count, NMF on
text alone with the same projection (NMF-1), and NMF on the
column-augmented matrix [X_train, x] reading off the last coordinate
column (NMF-2), one fit per test document.  evaluate is the one input
boundary: it checks the test documents once, fits every model, the
NMF-2 fits together in lockstep (factorize.nmf_each), and returns
every score set as a test × train array.  baseline_nmf2 is one NMF-2
fit, and recommend thresholds a score set.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from .errors import EmptyCorpus, ShapeMismatch, ZeroQuery
from .factorize import FactorizeOptions, joint_nmf, nmf, nmf_each
from .matrix import as_csc, as_dense, require_nonnegative
from .nls import nls_bpp_gram

__all__ = ["recommend", "baseline_nmf2", "evaluate"]


def recommend(scores, threshold: float) -> np.ndarray:
    """Indices scoring strictly above the threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.flatnonzero(scores > threshold)


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
        "joint": (joint.H, nls_bpp_gram(joint.W.T @ joint.W, joint.W.T @ X_test)),
        "nmf1": (text.H, nls_bpp_gram(text.W.T @ text.W, text.W.T @ X_test)),
        "nmf2": (fits[..., :n], fits[..., -1].T),
    }
    for name, (_, Q) in models.items():
        _require_nonzero(Q, f"{name} projection of test_x")
    inner, cosine = zip(*(_scores(H, Q) for H, Q in models.values()))
    scores = {f"{name}_inner": s for name, s in zip(models, inner)}
    scores.update({f"{name}_cosine": s for name, s in zip(models, cosine)})
    scores["sharedwords"] = _shared_words(X_train, X_test)
    return scores


def _scores(H, Q):
    # the inner and cosine scores (t × n) of the query coordinates Q
    # (k × t) against H, k × n for all queries or a (t, k, n) stack with
    # one set per query; the cosine of a zero-norm training column is 0.
    # One matrix-vector product per query and one norm call per query
    # keep every score equal, bit for bit, to scoring the queries one at
    # a time; a single matrix product or a batched norm rounds differently
    inner = np.matvec(np.swapaxes(H, -1, -2), Q.T)
    q_norms = np.array([np.linalg.norm(q) for q in Q.T])
    norms = np.linalg.norm(H, axis=-2)
    return inner, np.divide(inner, norms * q_norms[:, None], out=np.zeros_like(inner),
                            where=norms > 0)


def _shared_words(X_train, X_test):
    # per test and training document (t × n), how many terms they share;
    # the canonical X_train stores each term of a document once
    X = as_csc(X_train)
    support = sparse.csc_array(
        ((X.data > 0).astype(np.float64), X.indices, X.indptr), shape=X.shape
    )
    return (support.T @ (X_test > 0).astype(np.float64)).T


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
