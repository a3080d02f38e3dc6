"""Nonnegative least squares by block principal pivoting.

Solves min_{X >= 0} ||A X - B||_F^2 column by column on the normal
equations: A^T A and A^T B are formed once and shared by every column.
Each column keeps a passive set (variables allowed to be positive) and
an active set (variables pinned at zero).  A round solves the
unconstrained system on the passive set, checks primal feasibility of
the passive variables and dual feasibility of the active ones, and
exchanges every infeasible variable at once.  When full exchanges stop
shrinking the infeasible set, a backup rule swaps only the
lowest-index infeasible variable, which restores finite termination
when A has full column rank.

The solver keeps its state one row per column (the solution, the
right-hand sides, the passive and the infeasible sets), so every gather
and scatter of a column copies a contiguous row; the data is transposed
only on entry and exit.  A column with s passive variables solves only
its s x s principal submatrix of A^T A against the s matching entries
of its right-hand side.  The pending columns are sorted by s, and the
columns of one size are solved as one (c, s, s) stack by
np.linalg.solve in compiled code, in blocks of BLOCK_COLUMNS columns
and stacks of at most STACK_ENTRIES entries, so memory stays flat
however many columns are pending.

Without full rank a passive system can be singular, or rounding can
make a column cycle.  Such columns take one rescue: a column whose
passive solve is singular or nonfinite, or that is still pending after
ROUNDS_PER_VARIABLE * k rounds, leaves the pivoting and is solved at
the end by Lawson-Hanson NNLS, which needs no full rank.

A caller that knows a good support passes it as the initial passive
set.  Variables whose A^T A diagonal is 0 (a zero column of A) have
optimum 0 and are dropped from it.  With A^T A positive definite the
optimum is unique, so the starting set changes only the number of
rounds.  An alternating scheme has the previous iterate of each block,
whose support is a fair guess; predict_passive makes a better one by
running PREDICT_SWEEPS coordinate-descent (HALS) sweeps from that
iterate on the new problem, at about the cost of PREDICT_SWEEPS
gradients, and returns their support.  Columns are independent;
identical inputs give identical outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, NonFinite, ShapeMismatch, SingularSystem

__all__ = ["nls_bpp", "nls_bpp_gram", "predict_passive", "kkt_residual", "kkt_residual_gram"]

# entries (columns x s x s) of one stacked passive-set solve: 256 columns
# at s = 10, which keeps peak memory flat on wide solves
STACK_ENTRIES = 25_600
# columns per block of _solve_passive; one count for every k, measured
# at k = 10, 20 and 50
BLOCK_COLUMNS = 1024
# coordinate-descent sweeps of predict_passive
PREDICT_SWEEPS = 3
# exchange rounds allowed per variable before a column is rescued, and
# non-improving full exchanges a column may make before the backup rule
# swaps one variable at a time
ROUNDS_PER_VARIABLE = 5
BACKUP_THRESHOLD = 3
# the rescue raises the eigenvalues of A^T A to at least EIGEN_CUT * the largest
EIGEN_CUT = 1e-14
# KKT violation relative to max|A^T A| max|x| + max|A^T b| that a rescued
# column may keep
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
    variables whose A^T A diagonal is 0 are dropped from it.  The rescue
    raises SingularSystem for an A^T B positive where the A^T A diagonal
    is 0 (unbounded) or an A^T A that is not positive semidefinite, and
    NonConvergence at its iteration limit.
    """
    ata, atb, passive = _normal_equations(ata, atb, passive, bool, "the passive set")
    k, n = atb.shape
    if n == 0:
        return np.zeros((k, 0))

    # the state is kept one row per column, so every gather and scatter
    # of a column copies a contiguous row; at X = 0 every variable is
    # active with gradient -B, so it is infeasible where B > 0
    B = np.ascontiguousarray(atb.T)
    X = np.zeros((n, k))
    infeasible = B > 0.0
    rescue = np.zeros(n, dtype=bool)
    if passive is None:
        P = np.zeros((n, k), dtype=bool)
    else:
        # a variable with a zero A^T A diagonal has optimum 0
        P = passive.T.copy()
        P[:, np.diag(ata) == 0.0] = False
        _solve_passive(ata, B, P, np.flatnonzero(P.any(axis=1)), X, infeasible, rescue)
    # per-column backup budget and best infeasibility count seen so far
    budget = np.full(n, BACKUP_THRESHOLD, dtype=np.int64)
    best_ninf = np.full(n, k + 1, dtype=np.int64)

    cols = np.flatnonzero(infeasible.any(axis=1))
    for _ in range(ROUNDS_PER_VARIABLE * k):
        if not cols.size:
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

        _solve_passive(ata, B, P, cols, X, infeasible, rescue)
        cols = cols[infeasible[cols].any(axis=1)]
    # the columns still pending at the round limit
    rescue[cols] = True
    if rescue.any():
        X[rescue] = _lawson_hanson(ata, B[rescue])
    return np.ascontiguousarray(X.T)


def predict_passive(ata, atb, start) -> np.ndarray:
    """Support predicted for nls_bpp_gram from a nearby iterate start (k x n).

    Runs PREDICT_SWEEPS coordinate-descent sweeps (HALS) from start on
    the same problem: each variable in turn is set to the minimizer of
    its quadratic with the others fixed, clamped at 0, in one step over
    all n columns.  A variable whose A^T A diagonal is 0 keeps its start
    value, which nls_bpp_gram drops.  Returns the k x n boolean support
    of the result, to pass as passive=; a column whose sweeps overflow
    keeps the support of start.
    """
    ata, atb, start = _normal_equations(ata, atb, start, np.float64, "start")
    X = np.array(start, order="C")
    diag = np.diag(ata)
    with np.errstate(all="ignore"):
        for _ in range(PREDICT_SWEEPS):
            for j in np.flatnonzero(diag > 0.0):
                X[j] = np.maximum(X[j] + (atb[j] - ata[j] @ X) / diag[j], 0.0)
    support = X > 0.0
    lost = ~np.isfinite(X).all(axis=0)
    support[:, lost] = start[:, lost] > 0.0
    return support


def _normal_equations(ata, atb, M, dtype, what):
    """ata, atb (float64) and M (dtype, or None) after the entry checks.

    ata must be square and atb k x n, with finite entries in both; M,
    named what in the error, must be k x n like atb.
    """
    ata = np.asarray(ata, dtype=np.float64)
    atb = np.asarray(atb, dtype=np.float64)
    if ata.ndim != 2 or ata.shape[0] != ata.shape[1]:
        raise ShapeMismatch(f"A^T A must be square, got shape {ata.shape}")
    if atb.ndim != 2 or atb.shape[0] != ata.shape[0]:
        raise ShapeMismatch(f"A^T A is {ata.shape}, A^T B is {atb.shape}")
    if not (np.isfinite(ata).all() and np.isfinite(atb).all()):
        raise NonFinite("nonfinite values in the normal equations")
    if M is not None:
        M = np.asarray(M, dtype=dtype)
        if M.shape != atb.shape:
            raise ShapeMismatch(f"A^T B is {atb.shape}, {what} is {M.shape}")
    return ata, atb, M


def _solve_passive(ata, B, P, cols, X, infeasible, rescue):
    """Refresh rows cols of X and of the infeasible set from their passive sets.

    B (the right-hand sides), P, X, infeasible and rescue hold one row
    per column of the problem.  The columns are sorted by support size
    and walked in blocks of at most BLOCK_COLUMNS, each solved by
    _solve_compacted.  A passive variable is infeasible when negative,
    an active one when its gradient A^T A x - b is.  A column whose
    solution is nonfinite is marked for the rescue and made feasible,
    so it leaves the pivoting.
    """
    sizes = np.count_nonzero(P[cols], axis=1)
    order = np.argsort(sizes, kind="stable")
    cols, sizes = cols[order], sizes[order]
    for start in range(0, cols.size, BLOCK_COLUMNS):
        cs = cols[start:start + BLOCK_COLUMNS]
        Pb, Bb = P[cs], B[cs]
        X[cs] = Xb = _solve_compacted(ata, Bb, Pb, sizes[start:start + BLOCK_COLUMNS])
        # A^T A x < b is a negative gradient
        infeasible[cs] = np.where(Pb, Xb < 0.0, Xb @ ata.T < Bb)
        bad = cs[~np.isfinite(Xb).all(axis=1)]
        rescue[bad] = True
        infeasible[bad] = False


def _solve_compacted(ata, Bb, Pb, sizes):
    """Solutions of the rows of Bb on their passive sets Pb, sorted by size.

    A column with s passive variables solves the s x s principal
    submatrix of A^T A on them, against the s matching entries of its
    right-hand side; its other variables are 0, and an empty support
    needs no solve.  The columns of one size are solved as (c, s, s)
    np.linalg.solve stacks of at most STACK_ENTRIES entries; a stack
    with a singular matrix is solved one matrix at a time, and the
    singular ones get NaN.  Returns the len(Bb) x k solutions.
    """
    k = ata.shape[0]
    flat_ata = ata.ravel()
    # every passive entry of the block, row by row, as row * k + variable
    entries = np.flatnonzero(Pb)
    sol = Bb.ravel().take(entries)
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
                for Mj, rj in zip(M, rhs):
                    try:
                        rj[...] = np.linalg.solve(Mj, rj)
                    except np.linalg.LinAlgError:
                        rj[...] = np.nan
    Xb = np.zeros(Pb.shape)
    Xb.ravel()[entries] = sol
    return Xb


def _lawson_hanson(ata, B):
    """Lawson-Hanson solutions of the rows b of B against A^T A.

    A variable whose A^T A diagonal is 0 has optimum 0, and where its b
    is positive the problem is unbounded.  On the others, A^T A = V
    diag(lam) V^T with each lam raised to at least EIGEN_CUT * max(lam),
    a change of the order of the rounding in a computed A^T A that keeps
    the part of b in its null directions; then ||F x - g||^2 with F =
    diag(sqrt(lam)) V^T and g = diag(1 / sqrt(lam)) V^T b is x^T A^T A x
    - 2 x^T b plus a constant.  A solution off the KKT conditions of
    A^T A by more than ROUNDING_SLACK * (max|A^T A| max|x| + max|b|)
    means A^T A is not positive semidefinite.  (A b that grows along a
    nonnegative null direction of several variables, which only an A of
    mixed signs has, gets the large finite optimum of the raised A^T A.)
    """
    # scipy.optimize adds about 0.27 s to the package import, and only
    # rescued columns need it
    from scipy.optimize import nnls

    live = np.diag(ata) > 0.0
    if (B[:, ~live] > 0.0).any():
        raise SingularSystem("unbounded: A^T B is positive where the A^T A diagonal is 0")
    X = np.zeros(B.shape)
    if live.any():  # without a live variable the minimizer is 0
        lam, V = np.linalg.eigh(ata[np.ix_(live, live)])
        root = np.sqrt(np.maximum(lam, EIGEN_CUT * lam[-1]))
        F = root[:, None] * V.T
        for x, g in zip(X, (B[:, live] @ V) / root):
            try:
                x[live], _ = nnls(F, g)
            except RuntimeError as exc:
                raise NonConvergence(f"Lawson-Hanson rescue: {exc}") from None
    top = np.abs(ata).max()
    for x, b in zip(X, B):
        if kkt_residual_gram(ata, b, x) > ROUNDING_SLACK * (top * x.max() + np.abs(b).max()):
            raise SingularSystem(
                "a rescued column misses the KKT conditions: A^T A is not positive semidefinite")
    return X


def kkt_residual(A, B, X) -> float:
    """Largest optimality violation of X for min ||A X - B||_F^2, X >= 0."""
    A = np.asarray(A, dtype=np.float64)
    return kkt_residual_gram(A.T @ A, A.T @ np.asarray(B, dtype=np.float64), X)


def kkt_residual_gram(ata, atb, X) -> float:
    """KKT violation from the normal-equation products.

    For each entry: negativity of X counts directly; where X > 0 the
    gradient must vanish; where X == 0 the gradient must be nonnegative.
    A 1-d atb and X are one column.
    """
    atb, X = (M[:, None] if M.ndim == 1 else M for M in map(np.asarray, (atb, X)))
    ata, atb, X = _normal_equations(ata, atb, X, np.float64, "X")
    grad = ata @ X - atb
    viol = np.where(X > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
    return float(np.maximum(viol, np.maximum(-X, 0.0)).max(initial=0.0))
