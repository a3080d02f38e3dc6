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
Rounding can make the two feasibility tests of a variable at the
boundary disagree in sign, and the column then cycles: at the round
limit it drops its negative passive variables once more and is
accepted, clamped at 0, if it then meets the KKT conditions.

The solver keeps its state one row per column (the solution, the
right-hand sides, the passive and the infeasible sets), so every gather
and scatter of a column copies a contiguous row; the data is transposed
only on entry and exit.  A column with s passive variables solves only
its s x s principal submatrix of A^T A against the s matching entries
of its right-hand side.  The pending columns are sorted by s, and the
columns of one size are solved as one (c, s, s) stack by
np.linalg.solve in compiled code, in stacks of at most STACK_ENTRIES
entries so memory stays flat however many columns are pending.  A
stack that hits a singular matrix, or returns a nonfinite column, is
solved column by column with a Cholesky factorization and one
ridge-regularized retry.

A caller that knows a good support, such as the previous iterate of an
alternating scheme, passes it as the initial passive set.  Variables
whose A^T A diagonal is 0 (a zero column of A) have optimum 0 and are
dropped from it; columns whose initial system is still singular start
over from the empty passive set.  With A^T A positive definite the
optimum is unique, so the starting set changes only the number of
rounds.  Columns are independent; identical inputs give identical
outputs.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .errors import NonConvergence, NonFinite, ShapeMismatch, SingularSystem

__all__ = ["nls_bpp", "nls_bpp_gram", "kkt_residual", "kkt_residual_gram"]

RIDGE_SCALE = 1e-12
# entries (columns x s x s) of one stacked passive-set solve: 256 columns
# at s = 10, which keeps peak memory flat on wide solves
STACK_ENTRIES = 25_600
# exchange rounds allowed per variable, and non-improving full exchanges
# a column may make before the backup rule swaps one variable at a time
ROUNDS_PER_VARIABLE = 5
BACKUP_THRESHOLD = 3
# KKT violation relative to |A^T A| |x| + |A^T b| that a column cycling
# at the round limit may keep
ROUNDING_SLACK = 1e-9


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
    variables whose A^T A diagonal is 0 are dropped from it, and columns
    whose system on the rest is singular start from the empty set.
    """
    ata = np.asarray(ata, dtype=np.float64)
    atb = np.asarray(atb, dtype=np.float64)
    if ata.ndim != 2 or ata.shape[0] != ata.shape[1]:
        raise ShapeMismatch(f"A^T A must be square, got shape {ata.shape}")
    if atb.ndim != 2 or atb.shape[0] != ata.shape[0]:
        raise ShapeMismatch(f"A^T A is {ata.shape}, A^T B is {atb.shape}")
    if not (np.isfinite(ata).all() and np.isfinite(atb).all()):
        raise NonFinite("nonfinite values in the normal equations")

    k, n = atb.shape
    if n == 0:
        return np.zeros((k, 0))
    max_rounds = ROUNDS_PER_VARIABLE * k
    ridge = RIDGE_SCALE * np.trace(ata) / k

    # the state is kept one row per column, so every gather and scatter
    # of a column copies a contiguous row; at X = 0 every variable is
    # active with gradient -B, so it is infeasible where B > 0
    B = np.ascontiguousarray(atb.T)
    X = np.zeros((n, k))
    infeasible = B > 0.0
    if passive is None:
        P = np.zeros((n, k), dtype=bool)
    else:
        passive = np.asarray(passive, dtype=bool)
        if passive.shape != (k, n):
            raise ShapeMismatch(f"A^T B is {atb.shape}, the passive set is {passive.shape}")
        # a variable with a zero A^T A diagonal has optimum 0
        P = passive.T.copy()
        P[:, np.diag(ata) == 0.0] = False
        cold = _solve_passive(ata, B, P, np.flatnonzero(P.any(axis=1)), X, infeasible, ridge)
        P[cold] = False
        X[cold] = 0.0
        infeasible[cold] = B[cold] > 0.0
    # per-column backup budget and best infeasibility count seen so far
    budget = np.full(n, BACKUP_THRESHOLD, dtype=np.int64)
    best_ninf = np.full(n, k + 1, dtype=np.int64)

    cols = np.flatnonzero(infeasible.any(axis=1))
    rounds = 0
    while cols.size:
        rounds += 1
        if rounds > max_rounds:
            # only rounding makes a column cycle (module docstring): settle
            # it once, and fail the columns still off the KKT conditions
            P[cols] &= X[cols] >= 0.0
            singular = _solve_passive(ata, B, P, cols, X, infeasible, ridge)
            X[cols] = Xc = np.maximum(X[cols], 0.0)
            grad = Xc @ ata.T - B[cols]
            viol = np.where(Xc > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
            scale = Xc @ np.abs(ata).T + np.abs(B[cols])
            cols = np.union1d(singular, cols[(viol > ROUNDING_SLACK * scale).any(axis=1)])
            if cols.size:
                raise NonConvergence(
                    f"block pivoting exceeded {max_rounds} rounds on {cols.size} column(s)"
                )
            break
        ninf = np.count_nonzero(infeasible[cols], axis=1)
        improved = ninf < best_ninf[cols]
        best_ninf[cols[improved]] = ninf[improved]
        budget[cols[improved]] = BACKUP_THRESHOLD
        stalled = ~improved
        has_budget = budget[cols] > 0
        budget[cols[stalled & has_budget]] -= 1

        full_cols = cols[improved | has_budget]
        P[full_cols] ^= infeasible[full_cols]
        backup = cols[stalled & ~has_budget]
        # argmax finds the lowest infeasible index
        P[backup, infeasible[backup].argmax(axis=1)] ^= True

        singular = _solve_passive(ata, B, P, cols, X, infeasible, ridge)
        if singular.size:
            raise SingularSystem(
                f"passive-set system is singular even with ridge {ridge:g} "
                f"in {singular.size} column(s)"
            )
        cols = cols[infeasible[cols].any(axis=1)]
    return np.ascontiguousarray(X.T)


def _solve_passive(ata, B, P, cols, X, infeasible, ridge):
    """Refresh rows cols of X and of the infeasible set from their passive sets.

    B (the right-hand sides), P, X and infeasible hold one row per
    column of the problem.  The columns are sorted by support size and
    walked in blocks of at most STACK_ENTRIES // k, each solved by
    _solve_compacted.  A passive variable is infeasible when negative,
    an active one when its gradient A^T A x - b is.  Returns the columns
    whose system stayed singular even with the ridge; their rows are
    not meaningful.
    """
    sizes = np.count_nonzero(P[cols], axis=1)
    order = np.argsort(sizes, kind="stable")
    cols, sizes = cols[order], sizes[order]
    step = max(1, STACK_ENTRIES // ata.shape[0])
    singular = []
    for start in range(0, cols.size, step):
        cs = cols[start:start + step]
        Pb = P[cs]
        Xb, stuck = _solve_compacted(ata, B, Pb, cs, sizes[start:start + step], ridge)
        singular += stuck
        X[cs] = Xb
        # A^T A x < b is a negative gradient
        infeasible[cs] = np.where(Pb, Xb < 0.0, Xb @ ata.T < B[cs])
    return np.asarray(singular, dtype=np.intp)


def _solve_compacted(ata, B, Pb, cs, sizes, ridge):
    """Solutions of columns cs on their passive sets Pb, sorted by size.

    A column with s passive variables solves the s x s principal
    submatrix of A^T A on them, against the s matching entries of its
    right-hand side; its other variables are 0, and an empty support
    needs no solve.  The columns of one size are solved as (c, s, s)
    np.linalg.solve stacks of at most STACK_ENTRIES entries.  When a
    stack has a singular matrix, or a column comes back nonfinite, the
    affected columns fall back to _solve_spd on their own s x s systems
    one at a time; those still singular get 0.  Returns the len(cs) x k
    solutions and the list of the columns still singular.
    """
    k = ata.shape[0]
    flat_ata = ata.ravel()
    # every passive entry of the block, row by row, as row * k + variable
    entries = np.flatnonzero(Pb)
    sol = B[cs].ravel().take(entries)
    stuck = []
    hi = 0
    for s, count in enumerate(np.bincount(sizes).tolist()):
        # the entries of the count columns of size s follow those of size s - 1
        lo, hi = hi, hi + s * count
        if lo == hi:  # no column of this size, or empty supports
            continue
        chunk = max(1, STACK_ENTRIES // (s * s)) * s
        for e0 in range(lo, hi, chunk):
            e1 = min(e0 + chunk, hi)
            ix = entries[e0:e1].reshape(-1, s) % k
            M = flat_ata.take(ix[:, :, None] * k + ix[:, None, :])
            rhs = sol[e0:e1].reshape(-1, s, 1)
            try:
                rhs[...] = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                rhs[...] = np.nan
    bad = np.flatnonzero(~np.isfinite(sol))
    if bad.size:
        first = np.concatenate(([0], np.cumsum(sizes)))
        for j in np.unique(np.searchsorted(first, bad, side="right") - 1).tolist():
            own = slice(first[j], first[j + 1])
            free = entries[own] % k
            x = _solve_spd(ata[np.ix_(free, free)], B[cs[j], free], ridge)
            if x is None:
                stuck.append(cs[j])
                x = 0.0
            sol[own] = x
    Xb = np.zeros(Pb.shape)
    Xb.ravel()[entries] = sol
    return Xb, stuck


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
