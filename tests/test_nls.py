"""Nonnegative least squares solver against an exhaustive oracle.

The oracle enumerates every support set, solves the unconstrained
problem on it, and keeps the best feasible candidate.  The problem is
convex, so the optimum's own support is among the candidates and the
enumeration finds the global minimum.
"""

import itertools
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from jointnmf import nls
from jointnmf.errors import NonConvergence, NonFinite, ShapeMismatch, SingularSystem
from jointnmf.nls import (
    STACK_ENTRIES,
    kkt_residual,
    kkt_residual_gram,
    nls_bpp,
    nls_bpp_gram,
    predict_passive,
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


def test_every_pending_column_is_rescued_when_the_pivot_budget_is_exhausted(monkeypatch):
    # with no pivoting round allowed, every column with a positive entry
    # of A^T b (here the second; the first is optimal at 0) leaves for
    # the Lawson-Hanson rescue, which must still reach the optimum
    rng = np.random.default_rng(8)
    A = rng.random((6, 4))
    B = rng.standard_normal((6, 2))
    assert ((A.T @ B) > 0.0).any(axis=0).tolist() == [False, True]
    monkeypatch.setattr(nls, "ROUNDS_PER_VARIABLE", 0)
    rescued = []
    rescue = nls._lawson_hanson
    monkeypatch.setattr(nls, "_lawson_hanson", lambda ata, b: rescued.append(len(b)) or rescue(ata, b))
    X = nls_bpp(A, B)
    assert rescued == [1]
    assert np.all(X >= 0.0)
    assert kkt_residual(A, B, X) <= 1e-10
    for c in range(B.shape[1]):
        star, _ = oracle_nnls(A, B[:, c])
        assert objective(A, B[:, [c]], X[:, [c]]) <= star + 1e-8


def test_non_convergence_when_the_rescue_hits_its_iteration_limit(monkeypatch):
    # one Lawson-Hanson iteration adds one variable, and this optimum
    # has more than one positive
    rng = np.random.default_rng(8)
    A = rng.random((6, 4))
    b = A @ np.array([1.0, 2.0, 0.5, 0.0])
    monkeypatch.setattr(nls, "ROUNDS_PER_VARIABLE", 0)
    real = scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls", lambda F, g: real(F, g, maxiter=1))
    with pytest.raises(NonConvergence):
        nls_bpp(A, b)


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
    # A^T b is positive where the A^T A diagonal is 0: no real A gives
    # it, and the problem is unbounded below
    ata = np.zeros((2, 2))
    atb = np.array([[1.0], [1.0]])
    with pytest.raises(SingularSystem):
        nls_bpp_gram(ata, atb)


def test_singular_system_reported_among_regular_columns():
    # columns 1 and 3 are optimal at zero and never reach a solve; the
    # other two share a stacked solve, are singular, and their A^T b
    # is positive where the A^T A diagonal is 0
    ata = np.zeros((2, 2))
    atb = np.array([[1.0, -1.0, 2.0, 0.0], [1.0, -1.0, 0.5, -3.0]])
    with pytest.raises(SingularSystem):
        nls_bpp_gram(ata, atb)


def test_singular_system_reported_for_a_dead_variable_beside_a_live_one():
    # e_2 is a nonnegative null direction of A^T A along which the
    # objective falls without bound
    with pytest.raises(SingularSystem):
        nls_bpp_gram(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


@pytest.mark.parametrize("passive", [None, [[True], [True]], [[True], [False]]])
def test_rescue_keeps_the_part_of_b_in_the_null_directions_of_the_gram(passive):
    # A has full column rank, but A^T A rounds to [[1, 1], [1, 1]], whose
    # range misses b = A^T y = (1, 1 + 1e-8); with x >= 0 the problem is
    # still bounded, and its optimum puts all the weight on x_2
    A = np.array([[1.0, 1.0], [0.0, 1e-8]])
    y = np.array([1.0, 1.0])
    ata, atb = A.T @ A, (A.T @ y)[:, None]
    assert np.all(ata == 1.0)
    X = nls_bpp_gram(ata, atb, passive=None if passive is None else np.array(passive))
    assert X[0, 0] == 0.0
    assert X[1, 0] == pytest.approx(1.0 + 1e-8, rel=1e-13, abs=0.0)
    assert kkt_residual_gram(ata, atb, X) <= 1e-13
    if passive is None:
        assert np.array_equal(nls_bpp(A, y), X[:, 0])


def test_rescue_solves_a_duplicated_column():
    # duplicated column: the unconstrained solve is singular, and the
    # rescue finds one of the optima
    a = np.array([[1.0], [2.0], [3.0]])
    A = np.hstack([a, a])
    b = (2.0 * a).ravel()
    x = nls_bpp(A, b)
    assert np.all(x >= 0.0)
    assert np.allclose(A @ x, b, atol=1e-6, rtol=0.0)


def test_rescue_solves_singular_columns_inside_a_chunk():
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
    # every variable has a zero A^T A diagonal, so the warm passive sets
    # are emptied: the columns start from the empty passive set, where
    # the zero right-hand sides are optimal
    passive = np.array([[True, False, True], [True, True, False]])
    X = nls_bpp_gram(np.zeros((2, 2)), np.zeros((2, 3)), passive=passive)
    assert X.shape == (2, 3) and np.all(X == 0.0)
    # a positive right-hand side lies outside the range of a zero Gram
    with pytest.raises(SingularSystem):
        nls_bpp_gram(np.zeros((2, 2)), np.ones((2, 3)), passive=passive)


@settings(max_examples=100)
@given(k=st.integers(2, 6), data=st.data(), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_rank_deficient_grams_meet_kkt_and_match_the_oracle(k, data, n, seed):
    # A = U V has rank r < k, where block pivoting may cycle or hit
    # singular passive systems; cold and random warm starts both end at
    # an optimum
    r = data.draw(st.integers(1, k - 1))
    rng = np.random.default_rng(seed)
    A = rng.random((k + 3, r)) @ rng.random((r, k))
    B = rng.standard_normal((k + 3, n))
    ata, atb = A.T @ A, A.T @ B
    for passive in (None, rng.random((k, n)) < 0.5):
        X = nls_bpp_gram(ata, atb, passive=passive)
        assert np.all(X >= 0.0)
        for c in range(n):
            size = np.abs(ata).max() * np.abs(X[:, c]).max() + np.abs(atb[:, c]).max()
            assert kkt_residual_gram(ata, atb[:, [c]], X[:, [c]]) <= 1e-9 * size
            star, _ = oracle_nnls(A, B[:, c])
            assert objective(A, B[:, [c]], X[:, [c]]) <= star + 1e-8


@settings(max_examples=100)
@given(k=st.integers(2, 6), data=st.data(), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       tilt=st.floats(-12.0, 0.0))
def test_a_gram_form_b_off_the_range_of_a_singular_gram_is_still_solved(k, data, n, seed, tilt):
    # a nonnegative A with no zero column has no nonnegative null
    # direction, so the problem stays bounded when A^T B gains a part
    # in the null space of A^T A, as rounding gives it
    r = data.draw(st.integers(1, k - 1))
    rng = np.random.default_rng(seed)
    A = rng.random((k + 3, r)) @ rng.random((r, k))
    ata = A.T @ A
    lam, V = np.linalg.eigh(ata)
    null = V[:, lam < 1e-10 * lam[-1]]
    atb = A.T @ rng.standard_normal((k + 3, n))
    atb += 10.0**tilt * np.abs(atb).max() * null @ rng.standard_normal((null.shape[1], n))
    for passive in (None, rng.random((k, n)) < 0.5):
        X = nls_bpp_gram(ata, atb, passive=passive)
        assert np.all(X >= 0.0)
        for c in range(n):
            size = np.abs(ata).max() * np.abs(X[:, c]).max() + np.abs(atb[:, c]).max()
            assert kkt_residual_gram(ata, atb[:, [c]], X[:, [c]]) <= 1e-9 * size


def test_importing_the_package_leaves_out_scipy_optimize(child_env):
    # only the rescue needs scipy.optimize, and importing it would add
    # about a third to the package's import time
    done = subprocess.run(
        [sys.executable, "-c", "import sys, jointnmf; print('scipy.optimize' in sys.modules)"],
        env=child_env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_warm_start_rejects_misshapen_passive_set():
    with pytest.raises(ShapeMismatch):
        nls_bpp_gram(np.eye(2), np.ones((2, 3)), passive=np.ones((3, 2), dtype=bool))


@settings(max_examples=100)
@given(k=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_predicted_start_gives_the_result_of_the_start_support_bit_for_bit(k, n, seed, data):
    # the Gram of the live variables is positive definite, so the optimum
    # is unique and a start set changes only the rounds; the dead
    # variables (zero columns of A) have optimum 0 from any start
    rng = np.random.default_rng(seed)
    A = rng.random((k + 3, k))
    A[:, data.draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    B = rng.standard_normal((k + 3, n))
    start = rng.random((k, n)) * (rng.random((k, n)) < 0.5)
    ata, atb = A.T @ A, A.T @ B
    predicted = predict_passive(ata, atb, start)
    assert predicted.dtype == bool and predicted.shape == (k, n)
    X = nls_bpp_gram(ata, atb, passive=predicted)
    assert X.tobytes() == nls_bpp_gram(ata, atb, passive=start > 0.0).tobytes()


def test_predict_passive_overflow_warns_nothing_and_keeps_the_start_support():
    # finite entries whose quotients overflow inside the sweeps: that
    # column keeps its start support, the other gets the optimum's
    ata = np.diag([1e-300, 1.0])
    atb = np.array([[1e300, 0.0], [1.0, -1.0]])
    start = np.array([[0.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted = predict_passive(ata, atb, start)
    assert predicted.tolist() == [[False, False], [True, False]]


def test_predict_passive_has_the_entry_checks_of_the_solver():
    with pytest.raises(ShapeMismatch):
        predict_passive(np.eye(2), np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        predict_passive(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(NonFinite):
        predict_passive(np.eye(2), np.full((2, 3), np.inf), np.ones((2, 3)))


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
    # per stack and columns per block most sizes span several stacks and
    # blocks
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
        mp.setattr(nls, "BLOCK_COLUMNS", max(1, stack_entries // k))
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
    rescue = nls._lawson_hanson
    monkeypatch.setattr(nls, "_lawson_hanson", lambda *a: calls.append(a) or rescue(*a))
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


def test_kkt_residual_gram_reads_a_1d_rhs_as_one_column():
    assert kkt_residual_gram(np.eye(2), [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert kkt_residual_gram(np.eye(2), [1.0, 2.0], [[0.0], [2.0]]) == 1.0
    for atb, X in ((np.ones((2, 3)), np.ones((2, 1))), (np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones(2))):
        with pytest.raises(ShapeMismatch):
            kkt_residual_gram(np.eye(2), atb, X)


def test_1d_rhs_round_trip_shape():
    rng = np.random.default_rng(9)
    A = rng.random((5, 2))
    b = rng.standard_normal(5)
    x = nls_bpp(A, b)
    assert x.ndim == 1 and x.shape == (2,)
