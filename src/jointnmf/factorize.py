"""Nonnegative factorization of text, similarity, and both jointly.

One penalized objective over whichever views are present:

  ||X - W H||_F^2 + alpha ||S - Ht^T H||_F^2 + beta ||Ht - H||_F^2

minimized over W, H, Ht >= 0.  A fit's problem is a list of views: a
text view (X, weight 1) owns the factor W^T, and a similarity view
(S, alpha, beta) owns the copy Ht, whose tether beta ||Ht - H||^2 keeps
every block update an exact nonnegative least squares solve.
joint_nmf(X, S) has both views.  nmf(X) has the text view alone.
symnmf(S) has the similarity view alone, with alpha = 1.  nmf_each(Xs)
is one nmf per matrix.  All of them go through one entry, which checks
shapes and k, builds the views with their resolved weights and runs
every trial of every fit in lockstep stacks of up to LOCKSTEP_COLUMNS
columns: the sweeps advance a stack's runs together, and each block
update is one NLS call over the live runs' normal equations (nls takes
a stack of one Gram per run, each serving that run's columns), which
gives each run the factors it gets alone, bit for bit.  A run leaves
its stack when it stops; a run wider than the limit is a stack alone.

A run holds its factors as [each view's factor..., H], one block each,
and one loop walks the blocks in that order: W, then Ht, then H.  One
term builder gives every block its weighted terms, each standing for
||A^T F - T||^2 with Gram A A^T, right-hand side A T and target norm
||T||^2: a view's own block takes the view's terms given H, and the H
block takes every view's terms given its factor.  A term of weight 0 is
left out, and a block without terms is skipped.  The block solves the
summed normal equations by block principal pivoting in one nls call,
started from the block's previous value.  With a positive definite Gram
the start changes only the number of pivoting rounds, not the solution.
One residual formula, the package's one formula for the objective,
gives each term's value from the same products, so the objective is
recorded after every block and every sweep without re-multiplying the
inputs, and it never increases.

The entry reads a sparse X or S in canonical form (matrix.as_csc), so
its checks, norms and products see the matrix the caller means however
its entries are stored.  alpha defaults to ||X||_F^2 / ||S||_F^2 so
both data terms start on the same scale, and beta defaults to alpha
times the largest entry of S; the entry resolves both, and each result
reports the weights it used.  A default that is not finite is a
NonFinite naming the weight, raised before any sweep.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .errors import NonFinite, ShapeMismatch, ZeroSimilarity
from .matrix import (as_csc, as_dense, frobenius_norm_sq, require_count, require_nonnegative,
                     require_symmetric)
from .nls import nls_bpp_gram

__all__ = [
    "FactorizeOptions",
    "FactorizationResult",
    "nmf",
    "nmf_each",
    "symnmf",
    "joint_nmf",
    "hard_assign",
]

STOP_FLOOR = 1e-30
# columns of one lockstep stack, summed over its runs' widest blocks (the
# W block has a column per row of X, the H blocks one per document):
# enough for a kernel call to spread its per-call cost, few enough that
# many fits or wide trials do not hold all their data at once
LOCKSTEP_COLUMNS = 4096


@dataclass
class FactorizeOptions:
    """Settings shared by all three solvers.

    alpha and beta left as None are resolved from the data: alpha =
    ||X||_F^2 / ||S||_F^2 and beta = alpha max S (symnmf: alpha = 1,
    beta = max S).  trials > 1 runs independent starts from seeds seed,
    seed+1, ... and keeps the best final objective.  A run stops after
    max_sweeps sweeps, or once a sweep changes the objective by less
    than rel_tol relative.  k, max_sweeps, seed and trials are counts
    (matrix.require_count): integers, not bools, seed at least 0 and the
    others at least 1.
    """

    k: int
    alpha: float | None = None
    beta: float | None = None
    max_sweeps: int = 500
    rel_tol: float = 1e-4
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for name, least in (("k", 1), ("max_sweeps", 1), ("seed", 0), ("trials", 1)):
            require_count(getattr(self, name), name, least)
        # NaN fails both comparisons, inf the upper one
        for name in ("alpha", "beta"):
            if getattr(self, name) is not None and not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0 <= self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and nonnegative")


@dataclass
class FactorizationResult:
    """Factors and objective log of the best trial, plus every trial.

    objective_history holds the objective after each sweep and
    block_objective_history after each block update: two per sweep for
    nmf and symnmf, three for joint_nmf (two when alpha = beta = 0
    leave Ht without terms, and H_tilde is then its random start).
    alpha and beta are the weights the solve used: alpha is None for
    nmf and for symnmf, whose similarity term has weight 1, and beta is
    None for nmf.  trials lists every run in seed order, each with its
    own seed, histories and factors (and an empty trials list).
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


def nmf(X, opts: FactorizeOptions) -> FactorizationResult:
    """Two-block alternating nonnegative least squares on X alone."""
    return next(_fit([(X, None)], opts))


def nmf_each(Xs, opts: FactorizeOptions) -> Iterator[FactorizationResult]:
    """nmf of each matrix of Xs, equal to nmf(X, opts) bit for bit.

    The fits run in lockstep, one NLS call per block for a stack of up
    to LOCKSTEP_COLUMNS columns, which saves the per-call cost of many
    small fits.  Xs may be any iterable; it is read one stack at a time,
    and each fit's result is yielded as soon as its stack is done, so a
    caller holds only the results it keeps.
    """
    return _fit(((X, None) for X in Xs), opts)


def symnmf(S, opts: FactorizeOptions) -> FactorizationResult:
    """Symmetric factorization of S via the split-copy subproblems."""
    return next(_fit([(None, S)], opts))


def joint_nmf(X, S, opts: FactorizeOptions) -> FactorizationResult:
    """Joint factorization sharing H between the text and similarity views.

    A view left as None drops out: joint_nmf(X, None, opts) is
    nmf(X, opts) and joint_nmf(None, S, opts) is symnmf(S, opts), bit
    for bit.  At least one of X and S must be given.
    """
    return next(_fit([(X, S)], opts))


def hard_assign(H) -> np.ndarray:
    """Cluster of each column: row index of its largest coordinate.

    Ties go to the lowest row index, so the result is scale invariant
    and deterministic.  H may hold negative entries, but a NaN or an
    infinite one, whose argmax would pick it, is a NonFinite.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] < 1:
        raise ShapeMismatch(f"H must be k x n with k >= 1, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise NonFinite("H has NaN or infinite entries")
    return np.argmax(H, axis=0)


# ---------------------------------------------------------------------------
# sweep engine

# one view of a fit: text (X, weight 1) or similarity (S, alpha, beta).
# A view owns a factor L, W^T for text and the copy Ht for similarity, and
# reads its target as own from its own block and as shared from the H
# block (X^T and X, or S twice); nsq is ||target||^2, and weight and beta
# weigh its data term and its tether ||L - H||^2
_View = namedtuple("_View", "text own shared nsq weight beta")


def _fit(views, opts):
    # the one entry of the solvers: yields one result per (X, S) pair of
    # views, all of one method (X is None for symnmf, S is None for nmf),
    # once that fit's trials are done; the runs, one per fit and seed,
    # advance in lockstep stacks, and the views are read one at a time as
    # the stacks need them
    seeds = [opts.seed + t for t in range(opts.trials)]
    runs = ((p, seed) for p in (_setup(X, S, opts) for X, S in views) for seed in seeds)
    done = (r for stack in _stacks(runs) for r in _sweeps(*zip(*stack), opts))
    # each fit's trials are the next opts.trials runs done
    for trials in zip(*[done] * opts.trials):
        best = min(trials, key=lambda r: r.objective_history[-1])
        yield replace(best, trials=list(trials))


def _stacks(runs):
    # consecutive (views, seed) runs in stacks whose widest blocks add up
    # to at most LOCKSTEP_COLUMNS columns; a wider run is a stack alone
    stack, columns = [], 0
    for run in runs:
        width = max(max(v.shared.shape) for v in run[0])
        if stack and columns + width > LOCKSTEP_COLUMNS:
            yield stack
            stack, columns = [], 0
        stack.append(run)
        columns += width
    if stack:
        yield stack


def _setup(X, S, opts):
    # the checked views of one fit, text before similarity
    if X is None and S is None:
        raise ValueError("a fit needs X, S or both")
    X, S = _matrix(X, "X"), _matrix(S, "S")
    nsq = {}
    for M, name in ((X, "X"), (S, "S")):
        if M is not None:
            require_nonnegative(M, what=name)
            # each view's ||M||^2, computed once: its data term and the
            # default alpha read it, and past float64's range it would
            # drop a term out of the fit
            nsq[name] = frobenius_norm_sq(M)
            if np.isinf(nsq[name]):
                raise NonFinite(f"nonfinite values: the squared norm of {name} overflows")
    if X is not None and S is not None and S.shape != (X.shape[1],) * 2:
        raise ShapeMismatch(f"X has {X.shape[1]} columns but S is {S.shape[0]}x{S.shape[1]}")
    if S is not None:
        require_symmetric(S, what="S")
    limit = min(X.shape) if X is not None else S.shape[0]
    if opts.k > limit:
        raise ValueError(f"k={opts.k} exceeds {'min(m, n)' if X is not None else 'n'}={limit}")
    views = [_View(True, X.T, X, nsq["X"], 1.0, 0.0)] if X is not None else []
    if S is not None:
        # symnmf's one data term has weight 1; alpha defaults to the norm
        # ratio, beta to alpha times the largest entry of S, checked
        # nonnegative above, so an S without a positive entry is zero
        # (its squared norm can underflow to 0 while it has one)
        a = 1.0 if X is None else opts.alpha
        top = float(S.max())
        if a is None:
            if top == 0.0:
                raise ZeroSimilarity("similarity matrix is identically zero")
            a = _finite_default("alpha", nsq["X"] / nsq["S"] if nsq["S"] else np.inf)
        b = opts.beta if opts.beta is not None else _finite_default("beta", a * top)
        views.append(_View(False, S, S, nsq["S"], a, b))
    return views


def _finite_default(name, value):
    # a default weight past float64's range would fail inside the sweeps
    if not np.isfinite(value):
        raise NonFinite(f"the default {name} is not finite ({value}); pass {name} explicitly")
    return value


def _matrix(M, name):
    # M as a 2-d float64 matrix, canonical CSC if sparse; None stays None
    if M is None:
        return None
    if sparse.issparse(M):
        return as_csc(M)
    M = as_dense(M)
    if M.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-d, got shape {M.shape}")
    return M


def _terms(views, F, b):
    # the terms of block b given the factors F = [each view's L..., H]: a
    # view's own block b solves for L given H, the last block for H given
    # every view's L.  View i gives term slots 2i (data) and 2i + 1
    # (tether), each (slot, weight, gram, rhs, ||T||^2) standing for
    # ||A^T F - T||^2 with gram = A A^T and rhs = A T; a term of weight 0
    # is left out
    given = [(b, views[b], F[-1], views[b].own)] if b < len(views) else [
        (i, v, L, v.shared) for i, (v, L) in enumerate(zip(views, F))]
    terms = []
    for i, v, A, T in given:
        if v.weight != 0.0:
            terms.append((2 * i, v.weight, A @ A.T, A @ T, v.nsq))
        if v.beta != 0.0:
            terms.append((2 * i + 1, v.beta, np.eye(A.shape[0]), A, frobenius_norm_sq(A)))
    return terms


def _objective(resid, terms, F):
    # refreshes resid, the weighted residual of each term slot, with the
    # given terms at F, and returns their total
    fft = F @ F.T
    for i, w, gram, rhs, t in terms:
        # ||A F - T||^2 = ||T||^2 - 2 <F, A^T T> + <A^T A, F F^T>, clamped
        # at 0 against cancellation
        resid[i] = w * max(t - 2.0 * float(np.sum(F * rhs)) + float(np.sum(gram * fft)), 0.0)
    return sum(resid)


class _Run:
    """One member of a lockstep stack: its views, factors and logs."""

    def __init__(self, views, k, seed):
        rng = np.random.default_rng(seed)
        self.views, self.seed = views, seed
        # the start draws each text view's W (m x k), then H, then each
        # similarity view's copy
        Ws = [rng.random((v.shared.shape[0], k)).T for v in views if v.text]
        H = rng.random((k, views[0].shared.shape[1]))
        self.F = Ws + [rng.random(H.shape) for v in views if not v.text] + [H]
        # weighted residual of each term slot (0 for an absent term); only
        # the random start is evaluated from scratch, after that every block
        # refreshes the residuals of its own terms
        self.resid = [0.0] * 2 * len(views)
        _objective(self.resid, _terms(views, self.F, len(views)), H)
        self.history: list[float] = []
        self.blocks: list[float] = []

    def stopped(self, rel_tol):
        h = self.history
        return len(h) >= 2 and abs(h[-1] - h[-2]) / max(h[-2], STOP_FLOOR) < rel_tol

    def result(self):
        # at most one view of each kind
        kinds = {v.text: (v, L) for v, L in zip(self.views, self.F)}
        (_, W), (s, Ht) = kinds.get(True, (None, None)), kinds.get(False, (None, None))
        return FactorizationResult(
            W=W.T if W is not None else None,
            H=self.F[-1],
            H_tilde=Ht,
            objective_history=self.history,
            sweeps_run=len(self.history),
            seed_used=self.seed,
            block_objective_history=self.blocks,
            # None where the method has no such term: symnmf reports no alpha
            alpha=s.weight if s is not None and W is not None else None,
            beta=s.beta if s is not None else None,
        )


def _sweeps(problems, seeds, opts):
    # one run per list of views and seed, all with the same layout of
    # views, so every live run has the same blocks in every sweep: each
    # view's own block in turn, then H
    runs = [_Run(views, opts.k, seed) for views, seed in zip(problems, seeds)]
    live = runs
    for _ in range(opts.max_sweeps):
        if not live:
            break
        for b in range(len(runs[0].F)):
            _solve(live, b)
        for r in live:
            r.history.append(r.blocks[-1])
        live = [r for r in live if not r.stopped(opts.rel_tol)]
    return [r.result() for r in runs]


def _solve(live, b):
    # replaces block b of each live run that has terms there by the exact
    # NLS solution of its summed normal equations, started from the
    # block's previous value, in one kernel call on the stack of the runs'
    # Grams, each run's columns after the last's; records each run's
    # objective
    todo = [(r, t) for r in live if (t := _terms(r.views, r.F, b))]
    if not todo:
        return
    ata = np.stack([sum(w * gram for _, w, gram, _, _ in t) for _, t in todo])
    atbs = [sum(w * rhs for _, w, _, rhs, _ in t) for _, t in todo]
    atb, widths = np.hstack(atbs), [rhs.shape[1] for rhs in atbs]
    F = nls_bpp_gram(ata, atb, start=np.hstack([r.F[b] for r, _ in todo]), widths=widths)
    # each run's columns as an array of their own, laid out as a solo call
    # returns them
    for (r, t), Fi in zip(todo, np.hsplit(F, np.cumsum(widths)[:-1])):
        r.F[b] = Fi = np.ascontiguousarray(Fi)
        r.blocks.append(_objective(r.resid, t, Fi))
