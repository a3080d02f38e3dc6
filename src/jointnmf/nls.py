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
passive solve is singular or has a nonfinite gradient, or that is still
pending after ROUNDS_PER_VARIABLE * k rounds, leaves the pivoting and
is solved at the end by Lawson-Hanson NNLS, which needs no full rank.
A rescued column whose optimum is past the float64 range is an error,
so every solution returned is finite.

nls_bpp_gram works on a stack of g Grams, (g, k, k), with widths, the
number of columns of each: Gram i serves the next widths[i] columns,
so that many small problems share one call and its per-round costs.
A single k x k A^T A is a stack of one Gram for all n columns.  Each
column is solved exactly as in a call with its Gram alone: the stacked
solves gather each column's submatrix from its own Gram, the gradient
check of a block is one product per Gram the block uses, and the
coordinate-descent sweeps and the rescue run once per Gram, on its
columns.  Bit identity with the lone calls holds as long as a BLAS
product computes each row the same way whatever the other rows are;
the tests check it.

Without a start the pivoting starts from the empty passive set.  An
alternating scheme has the previous value of each block, a nearby
iterate, and passes it as start: the solver runs PREDICT_SWEEPS
coordinate-descent (HALS) sweeps from it on the new problem, at about
the cost of PREDICT_SWEEPS gradients, and starts the pivoting from
their support.  A variable whose A^T A diagonal is not positive is
dead: the sweeps leave it and the support drops it, since with a zero
diagonal (a zero column of A) its optimum is 0.  With A^T A positive
definite the optimum is unique, so the start changes only the number
of rounds.  Columns are independent; identical inputs give identical
outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, NonFinite, ShapeMismatch, SingularSystem

__all__ = ["nls_bpp", "nls_bpp_gram", "kkt_residual_gram"]

# entries (columns x s x s) of one stacked passive-set solve: 256 columns
# at s = 10, which keeps peak memory flat on wide solves
STACK_ENTRIES = 25_600
# columns per block of _solve_passive; one count for every k, measured
# at k = 10, 20 and 50
BLOCK_COLUMNS = 1024
# coordinate-descent sweeps from a start
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


def nls_bpp_gram(ata, atb, *, start=None, widths=None) -> np.ndarray:
    """Same solver fed the precomputed products A^T A and A^T B (k x n).

    This is the entry point the factorization sweeps use, since their
    stacked subproblems assemble the products directly.  ata is one
    k x k Gram for every column, or a (g, k, k) stack of Grams with
    widths, g column counts summing to n: Gram i serves the next
    widths[i] columns, and each column's solution is the one a call
    with its Gram alone gives, bit for bit.  start, a k x n iterate near
    the solution (default: none), is where the initial passive set is
    predicted from.  The rescue raises SingularSystem for an A^T B
    positive where the A^T A diagonal is 0 (unbounded), an A^T A that
    is not positive semidefinite or an optimum past the float64 range,
    and NonConvergence at its iteration limit.
    """
    ata, atb, start, widths = _normal_equations(ata, atb, start, "start", widths)
    k, n = atb.shape
    if n == 0:
        return np.zeros((k, 0))
    gram_of = np.repeat(np.arange(len(ata)), widths)

    # the state is kept one row per column, so every gather and scatter
    # of a column copies a contiguous row; at X = 0 every variable is
    # active with gradient -B, so it is infeasible where B > 0
    B = np.ascontiguousarray(atb.T)
    X = np.zeros((n, k))
    infeasible = B > 0.0
    rescue = np.zeros(n, dtype=bool)
    P = np.zeros((n, k), dtype=bool) if start is None else _predicted_passive(ata, atb, start, widths)
    _solve_passive(ata, B, P, np.flatnonzero(P.any(axis=1)), X, infeasible, rescue, gram_of)
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

        _solve_passive(ata, B, P, cols, X, infeasible, rescue, gram_of)
        cols = cols[infeasible[cols].any(axis=1)]
    # the columns still pending at the round limit
    rescue[cols] = True
    rows = np.flatnonzero(rescue)
    # each Gram rescues the rows of its own segment
    for gram, part in zip(ata, np.split(rows, np.searchsorted(rows, np.cumsum(widths)[:-1]))):
        if part.size:
            X[part] = _lawson_hanson(gram, B[part])
    return np.ascontiguousarray(X.T)


def _predicted_passive(ata, atb, start, widths):
    """The passive set, one row per column, predicted from start.

    Runs PREDICT_SWEEPS coordinate-descent sweeps (HALS) from start on
    the problem: each live variable in turn is set to the minimizer of
    its quadratic with the others fixed, clamped at 0, in one step over
    the columns of a Gram.  The set is the support of the result less
    the dead variables, those whose A^T A diagonal is not positive; a
    column whose sweeps overflow keeps the support of start.
    """
    X = np.array(start, order="C")
    live = np.diagonal(ata, axis1=1, axis2=2) > 0.0
    cuts = np.cumsum(widths)[:-1]
    with np.errstate(all="ignore"):
        # the columns of each Gram are views of X and atb
        for gram, alive, Xs, Bs in zip(ata, live, np.hsplit(X, cuts), np.hsplit(atb, cuts)):
            diag = np.diag(gram).tolist()
            rows = np.flatnonzero(alive).tolist()
            for _ in range(PREDICT_SWEEPS):
                for j in rows:
                    # Xs[j] + (Bs[j] - gram[j] @ Xs) / diag[j], clamped, in place
                    t = gram[j] @ Xs
                    np.subtract(Bs[j], t, out=t)
                    t /= diag[j]
                    t += Xs[j]
                    np.maximum(t, 0.0, out=Xs[j])
    lost = ~np.isfinite(X).all(axis=0)
    X[:, lost] = start[:, lost]
    return (X > 0.0).T & np.repeat(live, widths, axis=0)


def _normal_equations(ata, atb, M, what, widths=None):
    """ata as a Gram stack, atb, M (or None) and widths after the entry checks.

    ata must be k x k, which is one Gram for every column, or a
    (g, k, k) stack with widths, g nonnegative integers summing to n;
    atb must be k x n, with finite entries in both, and M, named what in
    the error, k x n like atb.
    """
    ata = np.asarray(ata, dtype=np.float64)
    atb = np.asarray(atb, dtype=np.float64)
    if ata.ndim == 2 and widths is None:
        ata, widths = ata[None], atb.shape[1:]
    if ata.ndim != 3 or widths is None or ata.shape[1] != ata.shape[2]:
        raise ShapeMismatch(f"A^T A must be k x k, or a (g, k, k) stack with widths, got shape {ata.shape}")
    if atb.ndim != 2 or atb.shape[0] != ata.shape[-1]:
        raise ShapeMismatch(f"A^T A is {ata.shape}, A^T B is {atb.shape}")
    if not (np.isfinite(ata).all() and np.isfinite(atb).all()):
        raise NonFinite("nonfinite values in the normal equations")
    if M is not None:
        M = np.asarray(M, dtype=np.float64)
        if M.shape != atb.shape:
            raise ShapeMismatch(f"A^T B is {atb.shape}, {what} is {M.shape}")
    widths = np.asarray(widths)
    # unsigned widths are counted as int64, where np.repeat takes them
    widths = widths.astype(np.int64) if widths.dtype.kind in "iu" else widths
    if (widths.shape != ata.shape[:1] or widths.dtype.kind not in "iu"
            or (widths < 0).any() or widths.sum() != atb.shape[1]):
        raise ShapeMismatch(f"widths must be {len(ata)} nonnegative integers summing to "
                            f"{atb.shape[1]}, got {widths.tolist()}")
    return ata, atb, M, widths


def _solve_passive(ata, B, P, cols, X, infeasible, rescue, gram_of):
    """Refresh rows cols of X and of the infeasible set from their passive sets.

    B (the right-hand sides), P, X, infeasible and rescue hold one row
    per column of the problem, and gram_of names each column's Gram in
    the stack ata.  The columns are sorted by support size and walked in
    blocks of at most BLOCK_COLUMNS, each solved by _solve_compacted.  A
    passive variable is infeasible when negative, an active one when its
    gradient A^T A x - b is.  A column whose solution is nonfinite is
    marked for the rescue and made feasible, so it leaves the pivoting.
    """
    sizes = np.count_nonzero(P[cols], axis=1)
    order = np.argsort(sizes, kind="stable")
    cols, sizes = cols[order], sizes[order]
    for start in range(0, cols.size, BLOCK_COLUMNS):
        cs = cols[start:start + BLOCK_COLUMNS]
        Pb, Bb, gb = P[cs], B[cs], gram_of[cs]
        X[cs] = Xb = _solve_compacted(ata, Bb, Pb, sizes[start:start + BLOCK_COLUMNS], gb)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = _times_gram(ata, Xb, gb)
        # A^T A x < b is a negative gradient
        infeasible[cs] = np.where(Pb, Xb < 0.0, grad < Bb)
        # a nonfinite x has a nonfinite gradient
        bad = cs[~np.isfinite(grad).all(axis=1)]
        rescue[bad] = True
        infeasible[bad] = False


def _times_gram(ata, Xb, gb):
    """The rows x of Xb times their Gram, A^T A x, as rows.

    gb names the Gram of each row.  The rows are grouped by Gram, one
    product per group, so each row is computed as its Gram alone
    computes it.
    """
    if gb.min() == gb.max():
        return Xb @ ata[gb[0]].T
    order = np.argsort(gb, kind="stable")
    grouped, out = Xb[order], np.empty(Xb.shape)
    hi = 0
    for g, count in enumerate(np.bincount(gb).tolist()):
        lo, hi = hi, hi + count
        if count:
            out[order[lo:hi]] = grouped[lo:hi] @ ata[g].T
    return out


def _solve_compacted(ata, Bb, Pb, sizes, gb):
    """Solutions of the rows of Bb on their passive sets Pb, sorted by size.

    A column with s passive variables solves the s x s principal
    submatrix of its Gram, ata[gb[row]], on them, against the s
    matching entries of its right-hand side; its other variables are 0,
    and an empty support needs no solve.  The columns of one size are
    solved as (c, s, s) np.linalg.solve stacks of at most STACK_ENTRIES
    entries; a stack with a singular matrix is solved one matrix at a
    time, and the singular ones get NaN.  Returns the len(Bb) x k
    solutions.
    """
    k = ata.shape[-1]
    flat_ata = ata.ravel()
    # every passive entry of the block, row by row, as row * k + variable
    entries = np.flatnonzero(Pb)
    sol = Bb.ravel().take(entries)
    # each entry's variable, and its row in the stack seen as (g * k) x k
    var = entries % k
    row = var + np.repeat(gb * k, sizes)
    hi = 0
    for s, count in enumerate(np.bincount(sizes).tolist()):
        # the entries of the count columns of size s follow those of size s - 1
        lo, hi = hi, hi + s * count
        if lo == hi:  # no column of this size, or empty supports
            continue
        chunk = max(1, STACK_ENTRIES // (s * s)) * s
        for e0 in range(lo, hi, chunk):
            e1 = min(e0 + chunk, hi)
            index = row[e0:e1].reshape(-1, s, 1) * k + var[e0:e1].reshape(-1, 1, s)
            M = flat_ata.take(index)
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
    with np.errstate(all="ignore"):
        if live.any():  # without a live variable the minimizer is 0
            lam, V = np.linalg.eigh(ata[np.ix_(live, live)])
            root = np.sqrt(np.maximum(lam, EIGEN_CUT * lam[-1]))
            F = root[:, None] * V.T
            for x, g in zip(X, (B[:, live] @ V) / root):
                try:
                    # a g past the float64 range leaves x there too
                    x[live] = nnls(F, g)[0] if np.isfinite(g).all() else np.inf
                except RuntimeError as exc:
                    raise NonConvergence(f"Lawson-Hanson rescue: {exc}") from None
        if not np.isfinite(X).all():
            raise SingularSystem("a rescued column's optimum is past the float64 range")
        top = np.abs(ata).max()
        for x, b in zip(X, B):
            # not <=, so that a NaN residual fails too
            if not kkt_residual_gram(ata, b, x) <= ROUNDING_SLACK * (top * x.max() + np.abs(b).max()):
                raise SingularSystem(
                    "a rescued column misses the KKT conditions: A^T A is not positive semidefinite")
    return X


def kkt_residual_gram(ata, atb, X) -> float:
    """Largest optimality violation of X for min ||A X - B||_F^2, X >= 0.

    Read from the normal-equation products ata = A^T A and atb = A^T B.
    For each entry: negativity of X counts directly; where X > 0 the
    gradient must vanish; where X == 0 the gradient must be nonnegative.
    A 1-d atb and X are one column.
    """
    atb, X = (M[:, None] if M.ndim == 1 else M for M in map(np.asarray, (atb, X)))
    ata, atb, X, _ = _normal_equations(ata, atb, X, "X")
    grad = ata[0] @ X - atb
    viol = np.where(X > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
    return float(np.maximum(viol, np.maximum(-X, 0.0)).max(initial=0.0))
