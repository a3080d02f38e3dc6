"""A dense, paper-form reference for the sweeps of jointnmf.factorize.

The objective is written out on numpy arrays,

  ||X - W H||_F^2 + alpha ||S - Ht^T H||_F^2 + beta ||Ht - H||_F^2,

and each block update is its block's problem as one stacked least
squares system per row of W or column of Ht and H, solved by
scipy.optimize.nnls, with the weights as square roots on the stacked
rows.  Nothing here goes through the package's views, terms, Gram
stacks, closed-form residuals or NLS kernel.  Only what the engine
documents is shared: the start draws (W as m x k, then H, then Ht, from
numpy's default_rng(seed)), the block order W, Ht, H, the default
weights, and that a term of weight 0 is left out and a block without
terms skipped.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import nnls


def dense(M):
    """M as a float64 array, None as None; a sparse M's repeated entries add up."""
    if M is None:
        return None
    return np.asarray(M.toarray() if sparse.issparse(M) else M, dtype=np.float64)


def objective(X, S, W, H, Ht, alpha, beta):
    """The paper's objective.  X=None (with W=None) leaves out the text
    term, S=None the similarity term and Ht=None the tether too, so nmf's
    objective is (X, None, W, H, None, 0, 0) and symnmf's (None, S, None,
    H, Ht, 1, beta)."""
    X, S = dense(X), dense(S)
    total = 0.0
    if X is not None:
        total += np.sum((X - W @ H) ** 2)
    if S is not None:
        total += alpha * np.sum((S - Ht.T @ H) ** 2)
    if Ht is not None:
        total += beta * np.sum((Ht - H) ** 2)
    return float(total)


def default_weights(X, S, alpha=None, beta=None):
    """(alpha, beta) as the fits resolve them: alpha = ||X||^2 / ||S||^2
    and beta = alpha max S, with alpha = 1 when X is None (symnmf)."""
    X, S = dense(X), dense(S)
    if X is None:
        alpha = 1.0
    elif alpha is None:
        alpha = np.sum(X * X) / np.sum(S * S)
    return float(alpha), float(alpha * S.max() if beta is None else beta)


def _stacked(pairs):
    # the weighted least squares sum_i w_i ||A_i x - b_i||^2 as one system
    # [sqrt(w_i) A_i] x = [sqrt(w_i) b_i], terms of weight 0 left out
    pairs = [(np.sqrt(w), A, b) for w, A, b in pairs if w != 0.0]
    return np.vstack([r * A for r, A, _ in pairs]), np.concatenate([r * b for r, _, b in pairs])


def _nnls(pairs_of):
    # one column per item of pairs_of, each the NNLS optimum of its system
    return np.column_stack([nnls(*_stacked(pairs))[0] for pairs in pairs_of])


def block_descent(X, S, k, alpha, beta, seed, sweeps):
    """(W, H, Ht, block objectives) after sweeps sweeps of block
    coordinate descent from the engine's start.

    X=None is symnmf (pass alpha = 1), S=None is nmf (W and H only);
    W or Ht is None where the method has no such block.  The objective
    is recorded after every block that has terms."""
    X, S = dense(X), dense(S)
    rng = np.random.default_rng(seed)
    n = (X if X is not None else S).shape[1]
    W = rng.random((X.shape[0], k)) if X is not None else None
    H = rng.random((k, n))
    Ht = rng.random((k, n)) if S is not None else None
    if S is None:
        alpha = beta = 0.0
    eye = np.eye(k)
    blocks = []
    for _ in range(sweeps):
        if X is not None:
            # row i of W: ||H^T w_i - X[i]||^2
            W = _nnls([[(1.0, H.T, x)] for x in X]).T
            blocks.append(objective(X, S, W, H, Ht, alpha, beta))
        if S is not None and (alpha or beta):
            # column j of Ht: alpha ||H^T h~_j - S[:, j]||^2 + beta ||h~_j - h_j||^2
            Ht = _nnls([[(alpha, H.T, S[:, j]), (beta, eye, H[:, j])] for j in range(n)])
            blocks.append(objective(X, S, W, H, Ht, alpha, beta))
        # column j of H: ||W h_j - X[:, j]||^2 + alpha ||Ht^T h_j - S[:, j]||^2
        # + beta ||h_j - h~_j||^2
        H = _nnls([[*([(1.0, W, X[:, j])] if X is not None else []),
                    *([(alpha, Ht.T, S[:, j]), (beta, eye, Ht[:, j])] if S is not None else [])]
                   for j in range(n)])
        blocks.append(objective(X, S, W, H, Ht, alpha, beta))
    return W, H, Ht, blocks
