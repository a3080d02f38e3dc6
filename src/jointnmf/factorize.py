"""Nonnegative factorization of text, similarity, and both jointly.

Three solvers share one sweep engine:

  nmf(X):        min ||X - W H||_F^2                        over W, H >= 0
  symnmf(S):     min ||S - Ht^T H||_F^2 + beta ||Ht - H||^2 over H, Ht >= 0
  joint_nmf(X,S) min ||X - W H||_F^2 + alpha ||S - Ht^T H||_F^2
                     + beta ||Ht - H||_F^2                  over W, H, Ht >= 0

The similarity factor is split into H and a tether copy Ht so every
block update is an exact nonnegative least squares solve; the beta term
pulls the copies together.  A sweep updates W, then Ht, then H.  Each
block is a weighted sum of terms (text, similarity, tether), each term
a Gram matrix and right-hand side; the block solves the stacked normal
equations by block principal pivoting, starting from the support of
the block's previous value.  The three solvers differ only
in which terms exist, and a block without terms is skipped.  Each
term's residual follows in closed form from the same products, so the
penalized objective is recorded after every block and every sweep
without re-multiplying the inputs, and it never increases.

alpha defaults to ||X||_F^2 / ||S||_F^2 so both data terms start on the
same scale, and beta defaults to alpha times the largest entry of S.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ShapeMismatch, ZeroSimilarity
from .matrix import (
    as_csc,
    frobenius_norm_sq,
    max_abs,
    require_nonnegative,
    require_symmetric,
    write_matrix_market,
)
from .nls import nls_bpp_gram

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
    """||X - W H||_F^2 + alpha ||S - H^T H||_F^2 without the split copy."""
    X, W, H = _conform_text(X, W, H)
    S = _conform_sim(S, H)
    val = _text_obj(frobenius_norm_sq(X), X, W, H)
    if alpha != 0.0:
        val += alpha * _sim_obj(frobenius_norm_sq(S), S, H, H)
    return val


def penalized_objective(X, S, W, H, H_tilde, alpha: float, beta: float) -> float:
    """The split objective the sweeps actually minimize."""
    X, W, H = _conform_text(X, W, H)
    S = _conform_sim(S, H)
    Ht = np.asarray(H_tilde, dtype=np.float64)
    if Ht.shape != H.shape:
        raise ShapeMismatch(f"H is {H.shape} but the split copy is {Ht.shape}")
    val = _text_obj(frobenius_norm_sq(X), X, W, H)
    if alpha != 0.0:
        val += alpha * _sim_obj(frobenius_norm_sq(S), S, Ht, H)
    if beta != 0.0:
        d = Ht - H
        val += beta * float(np.vdot(d, d))
    return val


def nmf(X, opts: FactorizeOptions) -> FactorizationResult:
    """Two-block alternating nonnegative least squares on X alone."""
    X = _accept(X, "X")
    m, n = X.shape
    if m < 1 or n < 1:
        raise ValueError("X must have at least one row and one column")
    if opts.k > min(m, n):
        raise ValueError(f"k={opts.k} exceeds min(m, n)={min(m, n)}")
    return _best_trial(opts, None, None, lambda seed: _sweeps(X, None, 0.0, 0.0, opts, seed))


def symnmf(S, opts: FactorizeOptions) -> FactorizationResult:
    """Symmetric factorization of S via the split-copy subproblems."""
    S = _accept(S, "S")
    require_symmetric(S, what="S")
    n = S.shape[0]
    if opts.k > n:
        raise ValueError(f"k={opts.k} exceeds n={n}")
    beta = opts.beta if opts.beta is not None else max_abs(S)
    return _best_trial(opts, None, beta, lambda seed: _sweeps(None, S, 1.0, beta, opts, seed))


def joint_nmf(X, S, opts: FactorizeOptions) -> FactorizationResult:
    """Joint factorization sharing H between the text and similarity views."""
    X = _accept(X, "X")
    S = _accept(S, "S")
    m, n = X.shape
    if S.shape != (n, n):
        raise ShapeMismatch(f"X has {n} columns but S is {S.shape[0]}x{S.shape[1]}")
    require_symmetric(S, what="S")
    if opts.k > min(m, n):
        raise ValueError(f"k={opts.k} exceeds min(m, n)={min(m, n)}")
    alpha = opts.alpha if opts.alpha is not None else default_alpha(X, S)
    beta = opts.beta if opts.beta is not None else default_beta(alpha, S)
    return _best_trial(opts, alpha, beta, lambda seed: _sweeps(X, S, alpha, beta, opts, seed))


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
    with open(out / "objective.log", "w") as fh:
        for i, v in enumerate(result.objective_history, start=1):
            fh.write(f"{i}\t{v!r}\n")


# ---------------------------------------------------------------------------
# sweep engine

def _accept(M, name):
    if sparse.issparse(M):
        M = as_csc(M)
    else:
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2:
            raise ShapeMismatch(f"{name} must be 2-d, got shape {M.shape}")
    require_nonnegative(M, what=name)
    return M


def _best_trial(opts, alpha, beta, run_one):
    runs = [run_one(opts.seed + t) for t in range(opts.trials)]
    best = min(runs, key=lambda r: r.objective_history[-1])
    return replace(best, alpha=alpha, beta=beta, trials=runs)


# term slots: ||X - W H||^2, ||S - Ht^T H||^2, ||Ht - H||^2
TEXT, SIM, TETHER = range(3)


def _sweeps(X, S, alpha, beta, opts, seed):
    # X is None for symnmf, S is None for nmf (which passes alpha = beta = 0)
    rng = np.random.default_rng(seed)
    k = opts.k
    W = rng.random((X.shape[0], k)) if X is not None else None
    H = rng.random((k, X.shape[1] if X is not None else S.shape[0]))
    Ht = rng.random(H.shape) if S is not None else None

    x_nsq = frobenius_norm_sq(X) if X is not None else 0.0
    s_nsq = frobenius_norm_sq(S) if S is not None else 0.0
    eye = np.eye(k)
    weights = (1.0, alpha, beta)
    # unweighted residual of each term at the current factors (0 for an
    # absent term); only the random start is evaluated directly, after
    # that every block refreshes the residuals of its own terms
    resid = [0.0, 0.0, 0.0]
    if X is not None:
        resid[TEXT] = _text_obj(x_nsq, X, W, H)
    if alpha > 0.0:
        resid[SIM] = _sim_obj(s_nsq, S, Ht, H)
    if beta > 0.0:
        d = Ht - H
        resid[TETHER] = float(np.vdot(d, d))

    def tie_terms(G):
        # similarity and tether terms of the block opposite G (H or Ht)
        terms = []
        if alpha > 0.0:
            terms.append((SIM, G @ G.T, G @ S, s_nsq))
        if beta > 0.0:
            terms.append((TETHER, eye, G, float(np.vdot(G, G))))
        return terms

    def solve(terms, prev):
        F, r = _solve_block([(weights[i], g, b, t) for i, g, b, t in terms], prev)
        for (i, *_), v in zip(terms, r):
            resid[i] = v
        blocks.append(sum(w * v for w, v in zip(weights, resid)))
        return F

    history: list[float] = []
    blocks: list[float] = []
    for _ in range(opts.max_sweeps):
        if X is not None:
            # W^T solves min ||H^T W^T - X^T||_F^2
            W = solve([(TEXT, H @ H.T, H @ X.T, x_nsq)], W.T).T
        terms = tie_terms(H)
        if terms:
            Ht = solve(terms, Ht)
        terms = tie_terms(Ht)
        if X is not None:
            terms.insert(0, (TEXT, W.T @ W, W.T @ X, x_nsq))
        H = solve(terms, H)
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


def _solve_block(terms, prev):
    # a term (weight, gram, rhs, target_nsq) stands for weight *
    # ||A F - T||_F^2 with gram = A^T A, rhs = A^T T, target_nsq =
    # ||T||_F^2; returns the exact NLS solution F of the summed normal
    # equations, warm-started from the support of the block's previous
    # value prev, and each term's unweighted residual at F, clamped at 0
    # against cancellation
    ata = atb = None
    for w, gram, rhs, _ in terms:
        ata = w * gram if ata is None else ata + w * gram
        atb = w * rhs if atb is None else atb + w * rhs
    F = nls_bpp_gram(ata, atb, passive=prev > 0.0)
    fft = F @ F.T
    return F, [
        max(t - 2.0 * float(np.sum(F * rhs)) + float(np.sum(gram * fft)), 0.0)
        for _, gram, rhs, t in terms
    ]


def _text_obj(x_nsq, X, W, H):
    # ||X - W H||_F^2 via the gram identity; clamped against cancellation
    cross = float(np.sum(W * (X @ H.T)))
    gram = float(np.sum((W.T @ W) * (H @ H.T)))
    return max(x_nsq - 2.0 * cross + gram, 0.0)


def _sim_obj(s_nsq, S, Ht, H):
    # ||S - Ht^T H||_F^2 via the gram identity
    cross = float(np.sum(H * (Ht @ S)))
    gram = float(np.sum((Ht @ Ht.T) * (H @ H.T)))
    return max(s_nsq - 2.0 * cross + gram, 0.0)


def _conform_text(X, W, H):
    X = _accept_any(X)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W.ndim != 2 or H.ndim != 2 or W.shape[1] != H.shape[0]:
        raise ShapeMismatch(f"W is {W.shape}, H is {H.shape}")
    if X.shape != (W.shape[0], H.shape[1]):
        raise ShapeMismatch(
            f"X is {X.shape} but W H is {W.shape[0]}x{H.shape[1]}"
        )
    return X, W, H


def _conform_sim(S, H):
    S = _accept_any(S)
    n = H.shape[1]
    if S.shape != (n, n):
        raise ShapeMismatch(f"S is {S.shape[0]}x{S.shape[1]} but H has {n} columns")
    return S


def _accept_any(M):
    if sparse.issparse(M):
        return as_csc(M)
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {M.shape}")
    return M
