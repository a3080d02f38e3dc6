"""Nonnegative factorization of text, similarity, and both jointly.

One penalized objective over whichever views are present:

  ||X - W H||_F^2 + alpha ||S - Ht^T H||_F^2 + beta ||Ht - H||_F^2

minimized over W, H, Ht >= 0.  joint_nmf(X, S) has both views.  nmf(X)
has no S, so no Ht and no alpha or beta term.  symnmf(S) has no X, so
no W, and its similarity term has weight 1.  All three go through one
entry, which accepts the views, checks shapes and k, resolves the
weights and runs the trials.

The similarity factor is split into H and a tether copy Ht so every
block update is an exact nonnegative least squares solve; the beta term
pulls the copies together.  A sweep updates W, then Ht, then H.  Each
block is a list of weighted terms (text, similarity, tether), each term
a Gram matrix, right-hand side and target norm; the block solves the
summed normal equations by block principal pivoting, starting from the
support that a few coordinate-descent sweeps from the block's previous
value predict (nls.predict_passive), and a block without terms is
skipped.  With a positive definite Gram the start changes only the
number of pivoting rounds, not the solution.  One residual formula
gives each term's value from the same products, so the objective is
recorded after every block and every sweep without re-multiplying the
inputs, and it never increases.  The public objectives evaluate the H
block's terms with the same formula.

alpha defaults to ||X||_F^2 / ||S||_F^2 so both data terms start on the
same scale, and beta defaults to alpha times the largest entry of S.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ShapeMismatch, ZeroSimilarity
from .matrix import (
    as_csc,
    as_dense,
    frobenius_norm_sq,
    max_abs,
    require_nonnegative,
    require_symmetric,
    write_matrix_market,
    write_records,
)
from .nls import nls_bpp_gram, predict_passive

__all__ = [
    "FactorizeOptions",
    "FactorizationResult",
    "default_alpha",
    "default_beta",
    "joint_objective",
    "penalized_objective",
    "nmf",
    "symnmf",
    "joint_nmf",
    "hard_assign",
    "write_result",
]

STOP_FLOOR = 1e-30


@dataclass
class FactorizeOptions:
    """Settings shared by all three solvers.

    alpha and beta left as None are resolved from the data via
    default_alpha / default_beta (symnmf: beta = max|S|).  trials > 1
    runs independent starts from seeds seed, seed+1, ... and keeps the
    best final objective.  A run stops after max_sweeps sweeps, or once
    a sweep changes the objective by less than rel_tol relative.
    """

    k: int
    alpha: float | None = None
    beta: float | None = None
    max_sweeps: int = 500
    rel_tol: float = 1e-4
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass
class FactorizationResult:
    """Factors and objective log of the best trial, plus every trial.

    objective_history holds the objective after each sweep and
    block_objective_history after each block update: two per sweep for
    nmf and symnmf, three for joint_nmf (two when alpha = beta = 0
    leave Ht without terms).  alpha and beta are the weights the solve
    used, None where the method has no such term.  trials lists every
    run in seed order, each with its own seed, histories and factors
    (and an empty trials list).
    """

    W: np.ndarray | None
    H: np.ndarray
    H_tilde: np.ndarray | None
    objective_history: list[float]
    sweeps_run: int
    seed_used: int
    block_objective_history: list[float]
    alpha: float | None = None
    beta: float | None = None
    trials: list[FactorizationResult] = field(default_factory=list)


def default_alpha(X, S) -> float:
    """Balance weight ||X||_F^2 / ||S||_F^2 for the similarity term."""
    s = frobenius_norm_sq(S)
    if s == 0.0:
        raise ZeroSimilarity("similarity matrix is identically zero")
    return frobenius_norm_sq(X) / s

def default_beta(alpha: float, S) -> float:
    """Tether weight alpha times the largest absolute entry of S."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return alpha * max_abs(S)


def joint_objective(X, S, W, H, alpha: float) -> float:
    """||X - W H||_F^2 + alpha ||S - H^T H||_F^2 without the split copy.

    X=None (with W=None) or S=None leaves that view out.
    """
    return penalized_objective(X, S, W, H, H, alpha, 0.0)


def penalized_objective(X, S, W, H, H_tilde, alpha: float, beta: float) -> float:
    """The split objective the sweeps actually minimize.

    X=None (with W=None) or S=None leaves that view out, so nmf's
    objective is (X, None, W, H, None, 0, 0) and symnmf's is
    (None, S, None, H, H_tilde, 1, beta).
    """
    X, S = _matrix(X, "X"), _matrix(S, "S")
    W, H, Ht = (_matrix(F, name, dense=True) for F, name in ((W, "W"), (H, "H"), (H_tilde, "H_tilde")))
    if (X is None) != (W is None):
        raise ValueError("X and W must be given together")
    if alpha != 0.0 and S is None or (alpha != 0.0 or beta != 0.0) and Ht is None:
        raise ValueError("alpha needs S and H_tilde, and beta needs H_tilde")
    k, n = H.shape
    m = W.shape[0] if W is not None else None
    for M, name, shape in ((X, "X", (m, n)), (W, "W", (m, k)), (S, "S", (n, n)), (Ht, "H_tilde", (k, n))):
        if M is not None and M.shape != shape:
            raise ShapeMismatch(f"{name} is {M.shape}, expected {shape} from W and H {H.shape}")
    weights = (1.0, alpha, beta)
    return _objective([0.0] * 3, weights, _h_terms(_problem(X, S, weights), W, Ht), H)


def nmf(X, opts: FactorizeOptions) -> FactorizationResult:
    """Two-block alternating nonnegative least squares on X alone."""
    return _fit(X, None, opts)


def symnmf(S, opts: FactorizeOptions) -> FactorizationResult:
    """Symmetric factorization of S via the split-copy subproblems."""
    return _fit(None, S, opts)


def joint_nmf(X, S, opts: FactorizeOptions) -> FactorizationResult:
    """Joint factorization sharing H between the text and similarity views."""
    return _fit(X, S, opts)


def hard_assign(H) -> np.ndarray:
    """Cluster of each column: row index of its largest coordinate.

    Ties go to the lowest row index, so the result is scale invariant
    and deterministic.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] < 1:
        raise ShapeMismatch(f"H must be k x n with k >= 1, got shape {H.shape}")
    return np.argmax(H, axis=0)


def write_result(result: FactorizationResult, out_dir) -> None:
    """Serialize factors as Matrix Market array files plus a sweep log."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if result.W is not None:
        write_matrix_market(out / "W.mtx", result.W)
    write_matrix_market(out / "H.mtx", result.H)
    if result.H_tilde is not None:
        write_matrix_market(out / "Htilde.mtx", result.H_tilde)
    write_records(out / "objective.log", enumerate(result.objective_history, start=1))


# ---------------------------------------------------------------------------
# sweep engine

# term slots: ||X - W H||^2, ||S - Ht^T H||^2, ||Ht - H||^2
TEXT, SIM, TETHER = range(3)


def _fit(X, S, opts):
    # the one entry of the three solvers: X is None for symnmf, S is None
    # for nmf; reports each weight as None where its method has no term
    X, S = _matrix(X, "X"), _matrix(S, "S")
    for M, name in ((X, "X"), (S, "S")):
        if M is not None:
            require_nonnegative(M, what=name)
    if X is not None and S is not None and S.shape != (X.shape[1],) * 2:
        raise ShapeMismatch(f"X has {X.shape[1]} columns but S is {S.shape[0]}x{S.shape[1]}")
    if S is not None:
        require_symmetric(S, what="S")
    limit = min(X.shape) if X is not None else S.shape[0]
    if opts.k > limit:
        raise ValueError(f"k={opts.k} exceeds {'min(m, n)' if X is not None else 'n'}={limit}")
    alpha = beta = None
    weights = (1.0, 0.0, 0.0)
    if S is not None:
        # symnmf's one data term has weight 1 and no alpha to report
        a = 1.0 if X is None else opts.alpha if opts.alpha is not None else default_alpha(X, S)
        beta = opts.beta if opts.beta is not None else default_beta(a, S)
        alpha = None if X is None else a
        weights = (1.0, a, beta)
    p = _problem(X, S, weights)
    runs = [_sweeps(p, opts, opts.seed + t) for t in range(opts.trials)]
    best = min(runs, key=lambda r: r.objective_history[-1])
    return replace(best, alpha=alpha, beta=beta, trials=runs)


def _matrix(M, name, dense=False):
    # M as a 2-d float64 matrix, CSC if sparse unless dense; None stays None
    if M is None:
        return None
    if sparse.issparse(M) and not dense:
        return as_csc(M)
    M = as_dense(M)
    if M.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-d, got shape {M.shape}")
    return M


# the data of one fit: each view (None if absent) with its squared norm,
# and the weight of each term slot
_Problem = namedtuple("_Problem", "X x_nsq S s_nsq weights")


def _problem(X, S, weights):
    return _Problem(X, frobenius_norm_sq(X) if X is not None else 0.0,
                    S, frobenius_norm_sq(S) if S is not None else 0.0, weights)


def _h_terms(p, W, G):
    # the H block's terms (slot, gram, rhs, ||T||^2) given W and the copy
    # G = Ht, each standing for ||A H - T||_F^2 with gram = A^T A and
    # rhs = A^T T; with W None they are the Ht block's terms given G = H,
    # since S is symmetric
    terms = []
    if W is not None:
        terms.append((TEXT, W.T @ W, W.T @ p.X, p.x_nsq))
    if p.weights[SIM] != 0.0:
        terms.append((SIM, G @ G.T, G @ p.S, p.s_nsq))
    if p.weights[TETHER] != 0.0:
        terms.append((TETHER, np.eye(G.shape[0]), G, float(np.vdot(G, G))))
    return terms


def _objective(resid, weights, terms, F):
    # refreshes resid, the unweighted residual of each term slot, with the
    # given terms at F, and returns the weighted total
    fft = F @ F.T
    for i, gram, rhs, t in terms:
        # ||A F - T||^2 = ||T||^2 - 2 <F, A^T T> + <A^T A, F F^T>, clamped
        # at 0 against cancellation
        resid[i] = max(t - 2.0 * float(np.sum(F * rhs)) + float(np.sum(gram * fft)), 0.0)
    return sum(w * v for w, v in zip(weights, resid))


def _sweeps(p, opts, seed):
    X, S, weights = p.X, p.S, p.weights
    rng = np.random.default_rng(seed)
    k = opts.k
    W = rng.random((X.shape[0], k)) if X is not None else None
    H = rng.random((k, X.shape[1] if X is not None else S.shape[0]))
    Ht = rng.random(H.shape) if S is not None else None
    # unweighted residual of each term slot (0 for an absent term); only
    # the random start is evaluated from scratch, after that every block
    # refreshes the residuals of its own terms
    resid = [0.0, 0.0, 0.0]
    _objective(resid, weights, _h_terms(p, W, Ht), H)

    def solve(terms, prev):
        # exact NLS solution of the block's summed normal equations,
        # warm-started from the support predicted from the block's
        # previous value
        ata = sum(weights[i] * gram for i, gram, _, _ in terms)
        atb = sum(weights[i] * rhs for i, _, rhs, _ in terms)
        F = nls_bpp_gram(ata, atb, passive=predict_passive(ata, atb, prev))
        blocks.append(_objective(resid, weights, terms, F))
        return F

    history: list[float] = []
    blocks: list[float] = []
    for _ in range(opts.max_sweeps):
        if X is not None:
            # W^T solves min ||H^T W^T - X^T||_F^2
            W = solve([(TEXT, H @ H.T, H @ X.T, p.x_nsq)], W.T).T
        terms = _h_terms(p, None, H)
        if terms:
            Ht = solve(terms, Ht)
        H = solve(_h_terms(p, W, Ht), H)
        f = blocks[-1]
        history.append(f)
        if len(history) >= 2 and abs(f - history[-2]) / max(history[-2], STOP_FLOOR) < opts.rel_tol:
            break
    return FactorizationResult(
        W=W,
        H=H,
        H_tilde=Ht,
        objective_history=history,
        sweeps_run=len(history),
        seed_used=seed,
        block_objective_history=blocks,
    )
