"""Nonnegative least squares solver against an exhaustive oracle.

The oracle enumerates every support set, solves the unconstrained
problem on it, and keeps the best feasible candidate.  The problem is
convex, so the optimum's own support is among the candidates and the
enumeration finds the global minimum.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointnmf import nls
from jointnmf.errors import NonConvergence, ShapeMismatch, SingularSystem
from jointnmf.nls import (
    STACK_ENTRIES,
    kkt_residual,
    kkt_residual_gram,
    nls_bpp,
    nls_bpp_gram,
)


def oracle_nnls(A, b):
    k = A.shape[1]
    best_obj = float(np.dot(b, b))
    best_x = np.zeros(k)
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            cols = list(support)
            sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.any(sol < 0.0):
                continue
            x = np.zeros(k)
            x[cols] = sol
            resid = A @ x - b
            obj = float(np.dot(resid, resid))
            if obj < best_obj:
                best_obj, best_x = obj, x
    return best_obj, best_x


def objective(A, B, X):
    R = A @ X - B
    return float(np.sum(R * R))


def test_single_column_interior_solution():
    A = np.array([[1.0], [1.0]])
    x = nls_bpp(A, np.array([1.0, 2.0]))
    assert x.shape == (1,)
    assert abs(x[0] - 1.5) <= 1e-12


def test_negative_target_clamps_to_zero():
    A = np.array([[1.0], [1.0]])
    x = nls_bpp(A, np.array([-1.0, -2.0]))
    assert x[0] == 0.0


def test_identity_system_clips_negatives():
    x = nls_bpp(np.eye(2), np.array([3.0, -2.0]))
    assert x[0] == 3.0 and x[1] == 0.0


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        A = rng.random((6, 4))
        B = rng.random((6, 3))
        neg = rng.permutation(B.size)[: B.size // 2]
        B.ravel()[neg] *= -1.0
        X = nls_bpp(A, B)
        assert np.all(X >= 0.0)
        for c in range(B.shape[1]):
            star, _ = oracle_nnls(A, B[:, c])
            got = objective(A, B[:, [c]], X[:, [c]])
            assert got <= star + 1e-8
        assert kkt_residual(A, B, X) <= 1e-10


def test_gram_form_agrees_with_factored_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.random((8, 5))
        B = rng.standard_normal((8, 4))
        X1 = nls_bpp(A, B)
        X2 = nls_bpp_gram(A.T @ A, A.T @ B)
        assert np.allclose(X1, X2, atol=1e-9, rtol=0.0)
        assert kkt_residual_gram(A.T @ A, A.T @ B, X2) <= 1e-10


def test_columns_solve_independently():
    rng = np.random.default_rng(3)
    A = rng.random((7, 3))
    B = rng.standard_normal((7, 5))
    X = nls_bpp(A, B)
    for c in range(5):
        xc = nls_bpp(A, B[:, c])
        assert np.allclose(X[:, c], xc, atol=1e-12, rtol=0.0)


def test_columns_match_single_column_solves_across_chunks():
    # more columns than two stacked solves hold, so every chunk boundary
    # is crossed
    k = 8
    n = 2 * (STACK_ENTRIES // (k * k)) + 37
    rng = np.random.default_rng(13)
    A = rng.random((12, k))
    B = rng.standard_normal((12, n))
    X = nls_bpp(A, B)
    assert kkt_residual(A, B, X) <= 1e-10
    for c in range(n):
        assert np.allclose(X[:, c], nls_bpp(A, B[:, c]), atol=1e-12, rtol=0.0)


def test_shared_support_columns_solved_in_one_group():
    # many columns with the same sign structure share one passive set
    rng = np.random.default_rng(11)
    A = rng.random((6, 3))
    base = rng.random(3)
    B = A @ np.column_stack([base * s for s in np.linspace(0.5, 2.0, 12)])
    X = nls_bpp(A, B)
    assert kkt_residual(A, B, X) <= 1e-10
    assert np.allclose(A @ X, B, atol=1e-9, rtol=0.0)


def test_exact_recovery_when_unconstrained_solution_feasible():
    rng = np.random.default_rng(5)
    A = rng.random((9, 4))
    X_true = rng.random((4, 3))
    B = A @ X_true
    X = nls_bpp(A, B)
    assert np.allclose(X, X_true, atol=1e-8, rtol=0.0)


def test_zero_rhs_gives_zero_solution():
    rng = np.random.default_rng(6)
    A = rng.random((5, 3))
    X = nls_bpp(A, np.zeros((5, 2)))
    assert X.shape == (3, 2)
    assert np.all(X == 0.0)


def test_non_convergence_when_pivot_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(8)
    A = rng.random((6, 4))
    B = rng.standard_normal((6, 2))
    monkeypatch.setattr(nls, "ROUNDS_PER_VARIABLE", 0)
    with pytest.raises(NonConvergence):
        nls_bpp(A, B)


@pytest.mark.parametrize("ata, atb", [
    ([[3.7862377251150114e-01, 3.1715663927442948e-04],
      [3.1715663927442948e-04, 1.3939582118854628e+00]],
     [[3.9564374234374045e-01], [3.3141352651829957e-04]]),
    ([[1.9062733959210627e+00, 4.5088806132422433e-03],
      [4.5088806132422433e-03, 1.0664789440996635e-05]],
     [[0.598168013157832], [0.00141483806245212]]),
], ids=["boundary", "near-singular"])
def test_a_column_cycling_on_rounding_is_accepted_at_the_round_limit(ata, atb):
    # H-block systems from nmf fits on small random matrices.  In the
    # first the second variable is 0 at the optimum, but passive it
    # solves to about -4e-21 and active its gradient is about -5e-20; in
    # the second, a nearly singular one, the first variable solves to
    # -0.2 and its active gradient is about -1e-16.  Pivoting cycled
    # until NonConvergence from every start
    ata, atb = np.array(ata), np.array(atb)
    for passive in (None, [[True], [False]], [[False], [True]], [[True], [True]]):
        X = nls_bpp_gram(ata, atb, passive=None if passive is None else np.array(passive))
        assert X.min() >= 0.0
        assert kkt_residual_gram(ata, atb, X) <= 1e-15


def test_singular_system_reported():
    ata = np.zeros((2, 2))
    atb = np.array([[1.0], [1.0]])
    with pytest.raises(SingularSystem):
        nls_bpp_gram(ata, atb)


def test_singular_system_reported_among_regular_columns():
    # columns 1 and 3 are optimal at zero and never reach a solve; the
    # other two share a stacked solve and are singular even with the ridge
    ata = np.zeros((2, 2))
    atb = np.array([[1.0, -1.0, 2.0, 0.0], [1.0, -1.0, 0.5, -3.0]])
    with pytest.raises(SingularSystem):
        nls_bpp_gram(ata, atb)


def test_ridge_rescues_mildly_singular_gram():
    # duplicated column: unconstrained solve is ambiguous but a ridge
    # retry keeps one representative
    a = np.array([[1.0], [2.0], [3.0]])
    A = np.hstack([a, a])
    b = (2.0 * a).ravel()
    x = nls_bpp(A, b)
    assert np.all(x >= 0.0)
    assert np.allclose(A @ x, b, atol=1e-6, rtol=0.0)


def test_ridge_rescues_singular_columns_inside_a_chunk():
    # columns 0 and 1 of A are equal; b = 2a and b = a + e put both
    # copies in the passive set, whose system is singular, while
    # b = e - a and b = -a never do.  The singular columns share one
    # stacked solve with the regular ones, and every column must match
    # its own single-column solve.
    a = np.array([1.0, 0.0, 1.0, 0.0])
    e = np.array([0.0, 1.0, 0.0, 1.0])
    A = np.column_stack([a, a, e])
    B = np.column_stack([2.0 * a, e - a, a + e, -a, 3.0 * e, 2.0 * a + e])
    X = nls_bpp(A, B)
    assert np.all(X >= 0.0)
    for c in range(B.shape[1]):
        assert np.allclose(X[:, c], nls_bpp(A, B[:, c]), atol=1e-12, rtol=0.0)
    assert np.allclose(A @ X[:, [0, 2, 4, 5]], B[:, [0, 2, 4, 5]], atol=1e-6, rtol=0.0)
    assert np.allclose(X[:, 1], [0.0, 0.0, 1.0]) and np.all(X[:, 3] == 0.0)


@settings(max_examples=150)
@given(k=st.integers(1, 5), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_warm_start_matches_cold_start_and_oracle(k, n, seed, data):
    rng = np.random.default_rng(seed)
    A = rng.random((k + 2, k))
    B = rng.standard_normal((k + 2, n))
    passive = np.array(
        data.draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    ).reshape(k, n)
    ata, atb = A.T @ A, A.T @ B
    X = nls_bpp_gram(ata, atb, passive=passive)
    assert kkt_residual_gram(ata, atb, X) <= 1e-10
    assert np.allclose(X, nls_bpp_gram(ata, atb), atol=1e-9, rtol=0.0)
    for c in range(n):
        star, _ = oracle_nnls(A, B[:, c])
        assert objective(A, B[:, [c]], X[:, [c]]) <= star + 1e-8


def test_warm_start_on_zero_gram_restarts_cold():
    # every warm system is singular even with the ridge (which is 0 for
    # a zero Gram); the columns start over from the empty passive set
    # rather than raise
    passive = np.array([[True, False, True], [True, True, False]])
    X = nls_bpp_gram(np.zeros((2, 2)), np.zeros((2, 3)), passive=passive)
    assert X.shape == (2, 3) and np.all(X == 0.0)
    # a column the cold start cannot solve either still fails
    with pytest.raises(SingularSystem):
        nls_bpp_gram(np.zeros((2, 2)), np.ones((2, 3)), passive=passive)


def test_warm_start_rejects_misshapen_passive_set():
    with pytest.raises(ShapeMismatch):
        nls_bpp_gram(np.eye(2), np.ones((2, 3)), passive=np.ones((3, 2), dtype=bool))


@settings(max_examples=60)
@given(
    k=st.integers(1, 5),
    per_size=st.integers(3, 6),
    stack_entries=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_support_sizes_match_single_column_solves(k, per_size, stack_entries, seed):
    # per_size columns of every support size 0..k in one shuffled call,
    # each warm-started from its planted support; with so few entries
    # per stack most sizes span several stacks and blocks
    rng = np.random.default_rng(seed)
    A = rng.random((k + 3, k))
    sizes = rng.permutation(np.repeat(np.arange(k + 1), per_size))
    passive = np.zeros((k, sizes.size), dtype=bool)
    for c, s in enumerate(sizes):
        passive[rng.permutation(k)[:s], c] = True
    B = A @ (passive * rng.random(passive.shape)) + 0.1 * rng.standard_normal((k + 3, sizes.size))
    ata, atb = A.T @ A, A.T @ B
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nls, "STACK_ENTRIES", stack_entries)
        X = nls_bpp_gram(ata, atb, passive=passive)
        for c in range(sizes.size):
            single = nls_bpp_gram(ata, atb[:, [c]], passive=passive[:, [c]])
            assert np.allclose(X[:, [c]], single, atol=1e-12, rtol=0.0)
    assert kkt_residual_gram(ata, atb, X) <= 1e-10
    for c in range(sizes.size):
        star, _ = oracle_nnls(A, B[:, c])
        assert objective(A, B[:, [c]], X[:, [c]]) <= star + 1e-8


def test_dead_variable_leaves_the_warm_passive_set(monkeypatch):
    # a zero column of A gives a zero row and column of A^T A: its
    # variable has optimum 0 and must not make the warm systems singular
    rng = np.random.default_rng(21)
    A = rng.random((8, 4))
    A[:, 2] = 0.0
    B = rng.standard_normal((8, 6)) + A @ rng.random((4, 6))
    passive = np.ones((4, 6), dtype=bool)
    calls = []
    solve_spd = nls._solve_spd
    monkeypatch.setattr(nls, "_solve_spd", lambda *a: calls.append(a) or solve_spd(*a))
    X = nls_bpp_gram(A.T @ A, A.T @ B, passive=passive)
    assert calls == []
    assert passive.all()  # the caller's passive set is left as it was
    assert np.all(X[2] == 0.0)
    for c in range(B.shape[1]):
        star, x = oracle_nnls(A, B[:, c])
        assert np.allclose(X[:, c], x, atol=1e-12, rtol=0.0)
        assert abs(objective(A, B[:, [c]], X[:, [c]]) - star) <= 1e-12 * max(star, 1.0)


def test_warm_wide_solve_memory_stays_flat():
    # 5000 columns at k = 10 from a random warm start: the state is a few
    # n x k arrays and every stacked solve is bounded by STACK_ENTRIES
    rng = np.random.default_rng(4)
    k, n = 10, 5000
    A = rng.random((3 * k, k))
    ata, atb = A.T @ A, A.T @ rng.standard_normal((3 * k, n))
    passive = rng.random((k, n)) < 0.5
    tracemalloc.start()
    try:
        X = nls_bpp_gram(ata, atb, passive=passive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.shape == (k, n)
    assert peak <= 2.5 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_kkt_residual_flags_violations():
    A = np.eye(2)
    B = np.array([[1.0], [1.0]])
    X_bad = np.array([[0.0], [0.0]])
    assert kkt_residual(A, B, X_bad) >= 1.0 - 1e-12
    X_good = np.array([[1.0], [1.0]])
    assert kkt_residual(A, B, X_good) <= 1e-12


def test_1d_rhs_round_trip_shape():
    rng = np.random.default_rng(9)
    A = rng.random((5, 2))
    b = rng.standard_normal(5)
    x = nls_bpp(A, b)
    assert x.ndim == 1 and x.shape == (2,)
