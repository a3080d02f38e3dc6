"""Nonnegative least squares by block principal pivoting.

Solves min_{X >= 0} ||A X - B||_F^2 column by column on the normal
equations: A^T A and A^T B are formed once and shared by every column.
Each column keeps a passive set (variables allowed to be positive) and
an active set (variables pinned at zero).  A round solves the
unconstrained system on the passive set, checks primal feasibility of
the passive variables and dual feasibility of the active ones, and
exchanges every infeasible variable at once.  When full exchanges stop
shrinking the infeasible set, a backup rule swaps only the
lowest-index infeasible variable, which restores finite termination.

The passive-set systems of all pending columns are solved as one
stacked batch: column c gets A^T A masked to its passive rows and
columns, identity on its active diagonal and a zero right-hand side
there, and np.linalg.solve factors the whole (c, k, k) stack in
compiled code.  The stack is built in chunks of at most STACK_ENTRIES
entries so memory stays flat however many columns are pending.  A
chunk whose batched solve hits a singular matrix, or returns a
nonfinite column, is solved column by column with a Cholesky
factorization and one ridge-regularized retry.

A caller that knows a good support, such as the previous iterate of an
alternating scheme, passes it as the initial passive set; columns whose
initial system is singular start over from the empty passive set.  With
A^T A positive definite the optimum is unique, so the starting set
changes only the number of rounds.  Columns are independent; identical
inputs give identical outputs.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .errors import NonConvergence, ShapeMismatch, SingularSystem

__all__ = ["nls_bpp", "nls_bpp_gram", "kkt_residual", "kkt_residual_gram"]

KKT_TOL = 1e-10
RIDGE_SCALE = 1e-12
# entries (columns x k x k) of one stacked passive-set solve: 256 columns
# at k = 10, which keeps peak memory flat on wide solves
STACK_ENTRIES = 25_600
# exchange rounds allowed per variable, and non-improving full exchanges
# a column may make before the backup rule swaps one variable at a time
ROUNDS_PER_VARIABLE = 5
BACKUP_THRESHOLD = 3


def nls_bpp(A, B) -> np.ndarray:
    """Minimize ||A X - B||_F^2 over X >= 0.

    A is dense m x k, B is dense m x n (a single m-vector is accepted
    and returns a k-vector).  Returns the k x n optimizer.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeMismatch(f"A must be 2-d, got shape {A.shape}")
    single = B.ndim == 1
    if single:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ShapeMismatch(f"A is {A.shape}, B is {B.shape}")
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    return X[:, 0] if single else X


def nls_bpp_gram(ata, atb, *, passive=None) -> np.ndarray:
    """Same solver fed the precomputed products A^T A (k x k) and A^T B (k x n).

    This is the entry point the factorization sweeps use, since their
    stacked subproblems assemble the products directly.  passive, a
    k x n boolean array, is the initial passive set (default: empty);
    columns whose system on it is singular start from the empty set.
    """
    ata = np.asarray(ata, dtype=np.float64)
    atb = np.asarray(atb, dtype=np.float64)
    if ata.ndim != 2 or ata.shape[0] != ata.shape[1]:
        raise ShapeMismatch(f"A^T A must be square, got shape {ata.shape}")
    if atb.ndim != 2 or atb.shape[0] != ata.shape[0]:
        raise ShapeMismatch(f"A^T A is {ata.shape}, A^T B is {atb.shape}")
    if not (np.isfinite(ata).all() and np.isfinite(atb).all()):
        raise ValueError("nonfinite values in the normal equations")

    k, n = atb.shape
    if n == 0:
        return np.zeros((k, 0))
    max_rounds = ROUNDS_PER_VARIABLE * k
    ridge = RIDGE_SCALE * np.trace(ata) / k

    X = np.zeros((k, n))
    Y = -atb.copy()
    if passive is None:
        passive = np.zeros((k, n), dtype=bool)
    else:
        passive = np.array(passive, dtype=bool)
        if passive.shape != (k, n):
            raise ShapeMismatch(f"A^T B is {atb.shape}, the passive set is {passive.shape}")
        cold = _solve_passive(ata, atb, passive, np.flatnonzero(passive.any(axis=0)), X, Y, ridge)
        passive[:, cold] = False
        X[:, cold] = 0.0
        Y[:, cold] = -atb[:, cold]
    # per-column backup budget and best infeasibility count seen so far
    budget = np.full(n, BACKUP_THRESHOLD, dtype=np.int64)
    best_ninf = np.full(n, k + 1, dtype=np.int64)

    infeasible = _infeasibility(X, Y, passive)
    cols = np.flatnonzero(infeasible.any(axis=0))
    rounds = 0
    while cols.size:
        rounds += 1
        if rounds > max_rounds:
            raise NonConvergence(
                f"block pivoting exceeded {max_rounds} rounds on {cols.size} column(s)"
            )
        ninf = infeasible[:, cols].sum(axis=0)
        improved = ninf < best_ninf[cols]
        best_ninf[cols[improved]] = ninf[improved]
        budget[cols[improved]] = BACKUP_THRESHOLD
        stalled = ~improved
        has_budget = budget[cols] > 0
        budget[cols[stalled & has_budget]] -= 1

        full_cols = cols[improved | has_budget]
        passive[:, full_cols] ^= infeasible[:, full_cols]
        for c in cols[stalled & ~has_budget]:
            i = int(np.argmax(infeasible[:, c]))  # lowest infeasible index
            passive[i, c] = not passive[i, c]

        singular = _solve_passive(ata, atb, passive, cols, X, Y, ridge)
        if singular.size:
            raise SingularSystem(
                f"passive-set system is singular even with ridge {ridge:g} "
                f"in {singular.size} column(s)"
            )
        infeasible[:, cols] = _infeasibility(X[:, cols], Y[:, cols], passive[:, cols])
        cols = cols[infeasible[:, cols].any(axis=0)]
    return X


def _infeasibility(X, Y, passive):
    return (passive & (X < 0.0)) | (~passive & (Y < 0.0))


def _solve_passive(ata, atb, passive, cols, X, Y, ridge):
    """Refresh X and Y on the given columns from their passive sets.

    The columns are solved in chunks of at most STACK_ENTRIES stack
    entries.  In a chunk, column c's system is A^T A masked to
    passive[:, c] on both sides, with 1 on the diagonal and 0 on the
    right-hand side of each active variable, so one np.linalg.solve call
    on the (c, k, k) stack returns every column's passive solution with
    zeros on its active set.  When the stack has a singular matrix, or
    a column comes back nonfinite, the affected columns fall back to
    _solve_spd one at a time.  Returns the columns that stayed singular
    even with the ridge; their X and Y are not meaningful.
    """
    k = ata.shape[0]
    step = max(1, STACK_ENTRIES // (k * k))
    diag = np.arange(k)
    singular = []
    for start in range(0, cols.size, step):
        cs = cols[start:start + step]
        P = passive[:, cs].T
        rhs = np.where(P, atb[:, cs].T, 0.0)
        M = ata * (P[:, :, None] & P[:, None, :])
        M[:, diag, diag] += ~P
        try:
            sol = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
            bad = np.flatnonzero(~np.isfinite(sol).all(axis=1))
        except np.linalg.LinAlgError:
            sol = np.zeros_like(rhs)
            bad = np.arange(cs.size)
        for j in bad:
            free = np.flatnonzero(P[j])
            sol[j] = 0.0
            s = _solve_spd(ata[np.ix_(free, free)], rhs[j, free], ridge)
            if s is None:
                singular.append(cs[j])
            else:
                sol[j, free] = s
        X[:, cs] = sol.T
        Y[:, cs] = np.where(P.T, 0.0, ata @ X[:, cs] - atb[:, cs])
    return np.asarray(singular, dtype=np.intp)


def _solve_spd(sub, rhs, ridge):
    """Cholesky solve with one ridge-regularized retry on singular systems.

    Returns None when the system stays singular or the solution
    nonfinite even with the ridge.
    """
    for shift in (0.0, ridge):
        try:
            f = linalg.cho_factor(
                sub + shift * np.eye(sub.shape[0]), lower=True, check_finite=False
            )
        except linalg.LinAlgError:
            continue
        sol = linalg.cho_solve(f, rhs, check_finite=False)
        if np.isfinite(sol).all():
            return sol
    return None


def kkt_residual(A, B, X) -> float:
    """Largest optimality violation of X for min ||A X - B||_F^2, X >= 0."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        B = B[:, None]
    return kkt_residual_gram(A.T @ A, A.T @ B, X)


def kkt_residual_gram(ata, atb, X) -> float:
    """KKT violation from the normal-equation products.

    For each entry: negativity of X counts directly; where X > 0 the
    gradient must vanish; where X == 0 the gradient must be nonnegative.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    grad = ata @ X - atb
    viol = np.where(X > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
    neg = np.maximum(-X, 0.0)
    worst = 0.0
    if viol.size:
        worst = float(np.maximum(viol, neg).max())
    return worst
