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
from scipy import sparse

from jointnmf import nls
from jointnmf.errors import NonConvergence, NonFinite, NumericalError, ShapeMismatch, SingularSystem
from jointnmf.matrix import write_matrix_market
from jointnmf.nls import (
    ROUNDING_SLACK,
    STACK_ENTRIES,
    kkt_residual_gram,
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


def pivot_from(ata, atb, support, **kw):
    """nls_bpp_gram pivoting from exactly the passive set support (None:
    the cold start): with no sweeps, the predicted set is the support of
    start less the dead variables."""
    if support is None:
        return nls_bpp_gram(ata, atb, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nls, "PREDICT_SWEEPS", 0)
        return nls_bpp_gram(ata, atb, start=np.asarray(support, dtype=np.float64), **kw)


def test_single_column_interior_solution():
    A = np.array([[1.0], [1.0]])
    x = nls_bpp_gram(A.T @ A, A.T @ np.array([[1.0], [2.0]]))
    assert x.shape == (1, 1)
    assert abs(x[0, 0] - 1.5) <= 1e-12


def test_negative_target_clamps_to_zero():
    A = np.array([[1.0], [1.0]])
    x = nls_bpp_gram(A.T @ A, A.T @ np.array([[-1.0], [-2.0]]))
    assert x[0, 0] == 0.0


def test_identity_system_clips_negatives():
    x = nls_bpp_gram(np.eye(2), np.array([[3.0], [-2.0]]))
    assert x[0, 0] == 3.0 and x[1, 0] == 0.0


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        A = rng.random((6, 4))
        B = rng.random((6, 3))
        neg = rng.permutation(B.size)[: B.size // 2]
        B.ravel()[neg] *= -1.0
        X = nls_bpp_gram(A.T @ A, A.T @ B)
        assert np.all(X >= 0.0)
        for c in range(B.shape[1]):
            star, _ = oracle_nnls(A, B[:, c])
            got = objective(A, B[:, [c]], X[:, [c]])
            assert got <= star + 1e-8
        assert kkt_residual_gram(A.T @ A, A.T @ B, X) <= 1e-10


def test_gram_form_agrees_with_factored_form():
    # the factored problem min ||A x - b||, x >= 0, solved column by
    # column by scipy's Lawson-Hanson NNLS
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.random((8, 5))
        B = rng.standard_normal((8, 4))
        X1 = np.column_stack([scipy.optimize.nnls(A, b)[0] for b in B.T])
        X2 = nls_bpp_gram(A.T @ A, A.T @ B)
        assert np.allclose(X1, X2, atol=1e-9, rtol=0.0)
        assert kkt_residual_gram(A.T @ A, A.T @ B, X2) <= 1e-10


def test_columns_solve_independently():
    rng = np.random.default_rng(3)
    A = rng.random((7, 3))
    B = rng.standard_normal((7, 5))
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    for c in range(5):
        xc = nls_bpp_gram(A.T @ A, A.T @ B[:, [c]])
        assert np.allclose(X[:, [c]], xc, atol=1e-12, rtol=0.0)


def test_columns_match_single_column_solves_across_chunks():
    # more columns than two stacked solves hold, so every chunk boundary
    # is crossed
    k = 8
    n = 2 * (STACK_ENTRIES // (k * k)) + 37
    rng = np.random.default_rng(13)
    A = rng.random((12, k))
    B = rng.standard_normal((12, n))
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    assert kkt_residual_gram(A.T @ A, A.T @ B, X) <= 1e-10
    for c in range(n):
        assert np.allclose(X[:, [c]], nls_bpp_gram(A.T @ A, A.T @ B[:, [c]]), atol=1e-12, rtol=0.0)


def test_shared_support_columns_solved_in_one_group():
    # many columns with the same sign structure share one passive set
    rng = np.random.default_rng(11)
    A = rng.random((6, 3))
    base = rng.random(3)
    B = A @ np.column_stack([base * s for s in np.linspace(0.5, 2.0, 12)])
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    assert kkt_residual_gram(A.T @ A, A.T @ B, X) <= 1e-10
    assert np.allclose(A @ X, B, atol=1e-9, rtol=0.0)


def test_exact_recovery_when_unconstrained_solution_feasible():
    rng = np.random.default_rng(5)
    A = rng.random((9, 4))
    X_true = rng.random((4, 3))
    B = A @ X_true
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    assert np.allclose(X, X_true, atol=1e-8, rtol=0.0)


def test_zero_rhs_gives_zero_solution():
    rng = np.random.default_rng(6)
    A = rng.random((5, 3))
    X = nls_bpp_gram(A.T @ A, A.T @ np.zeros((5, 2)))
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
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    assert rescued == [1]
    assert np.all(X >= 0.0)
    assert kkt_residual_gram(A.T @ A, A.T @ B, X) <= 1e-10
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
        nls_bpp_gram(A.T @ A, A.T @ b[:, None])


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
        X = pivot_from(ata, atb, passive)
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


def test_a_rescue_that_misses_the_kkt_conditions_is_singular():
    # an indefinite A^T A, which no real A gives: the rescue solves on an
    # eigen-factor with its negative eigenvalue raised, whose optimum is no
    # KKT point of the problem as given
    ata = [[1.0, 0.5, -1.0], [0.5, 1.0, -1.5], [-1.0, -1.5, 1.0]]
    with pytest.raises(SingularSystem, match=r"^a rescued column misses the KKT conditions: "
                                             r"A\^T A is not positive semidefinite$"):
        nls_bpp_gram(ata, [[1.0], [1.0], [-1.0]])


@pytest.mark.parametrize("passive", [None, [[True], [True]], [[True], [False]]])
def test_rescue_keeps_the_part_of_b_in_the_null_directions_of_the_gram(passive):
    # A has full column rank, but A^T A rounds to [[1, 1], [1, 1]], whose
    # range misses b = A^T y = (1, 1 + 1e-8); with x >= 0 the problem is
    # still bounded, and its optimum puts all the weight on x_2
    A = np.array([[1.0, 1.0], [0.0, 1e-8]])
    y = np.array([1.0, 1.0])
    ata, atb = A.T @ A, (A.T @ y)[:, None]
    assert np.all(ata == 1.0)
    X = pivot_from(ata, atb, passive)
    assert X[0, 0] == 0.0
    assert X[1, 0] == pytest.approx(1.0 + 1e-8, rel=1e-13, abs=0.0)
    assert kkt_residual_gram(ata, atb, X) <= 1e-13


def test_rescue_solves_a_duplicated_column():
    # duplicated column: the unconstrained solve is singular, and the
    # rescue finds one of the optima
    a = np.array([[1.0], [2.0], [3.0]])
    A = np.hstack([a, a])
    b = 2.0 * a
    x = nls_bpp_gram(A.T @ A, A.T @ b)
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
    X = nls_bpp_gram(A.T @ A, A.T @ B)
    assert np.all(X >= 0.0)
    for c in range(B.shape[1]):
        assert np.allclose(X[:, [c]], nls_bpp_gram(A.T @ A, A.T @ B[:, [c]]), atol=1e-12, rtol=0.0)
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
    X = pivot_from(ata, atb, passive)
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
    X = pivot_from(np.zeros((2, 2)), np.zeros((2, 3)), passive)
    assert X.shape == (2, 3) and np.all(X == 0.0)
    # a positive right-hand side lies outside the range of a zero Gram
    with pytest.raises(SingularSystem):
        pivot_from(np.zeros((2, 2)), np.ones((2, 3)), passive)


@settings(max_examples=100)
@given(k=st.integers(2, 6), data=st.data(), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_rank_deficient_grams_meet_kkt_and_match_the_oracle(k, data, n, seed):
    # A = U V has rank r < k, where block pivoting may cycle or hit
    # singular passive systems; cold starts, random warm passive sets and
    # random starts swept first all end at an optimum
    r = data.draw(st.integers(1, k - 1))
    rng = np.random.default_rng(seed)
    A = rng.random((k + 3, r)) @ rng.random((r, k))
    B = rng.standard_normal((k + 3, n))
    ata, atb = A.T @ A, A.T @ B
    for X in (pivot_from(ata, atb, None), pivot_from(ata, atb, rng.random((k, n)) < 0.5),
              nls_bpp_gram(ata, atb, start=rng.random((k, n)))):
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
    for X in (pivot_from(ata, atb, None), pivot_from(ata, atb, rng.random((k, n)) < 0.5),
              nls_bpp_gram(ata, atb, start=rng.random((k, n)))):
        assert np.all(X >= 0.0)
        for c in range(n):
            size = np.abs(ata).max() * np.abs(X[:, c]).max() + np.abs(atb[:, c]).max()
            assert kkt_residual_gram(ata, atb[:, [c]], X[:, [c]]) <= 1e-9 * size


def test_importing_the_package_leaves_out_scipy_optimize(child_env, tmp_path):
    # only the rescue needs scipy.optimize; csgraph loads scipy.sparse.linalg
    # and scipy.linalg.  Each would add 0.1-0.3 s to every command, and
    # preprocess finds its largest component without them
    heavy = ("scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
    write_matrix_market(tmp_path / "counts.mtx", sparse.csc_array(np.array([
        [2.0, 1.0, 0.0, 1.0], [0.0, 3.0, 1.0, 1.0], [1.0, 0.0, 2.0, 2.0],
    ])))
    (tmp_path / "vocab.txt").write_text("a\nb\nc\n")
    (tmp_path / "ids.txt").write_text("d0\nd1\nd2\nd3\n")
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n")
    preprocess = ["preprocess", "--counts", "counts.mtx", "--vocab", "vocab.txt",
                  "--doc-ids", "ids.txt", "--edges", "edges.tsv",
                  "--min-term-df", "1", "--min-doc-len", "1", "--out-dir", "pre"]
    loaded = f"print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, jointnmf, jointnmf.cli; {loaded}; "
                               f"code = jointnmf.cli.main({preprocess!r}); {loaded}; sys.exit(code)"],
        env=child_env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "kept 3 terms x 3 documents -> pre", "[]"]


def test_warm_start_rejects_misshapen_passive_set():
    with pytest.raises(ShapeMismatch, match=r"start is \(3, 2\)"):
        nls_bpp_gram(np.eye(2), np.ones((2, 3)), start=np.ones((3, 2)))


@settings(max_examples=100)
@given(k=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_predicted_start_gives_the_result_of_the_start_support_bit_for_bit(k, n, seed, data):
    # the Gram of the live variables is positive definite, so the optimum
    # is unique and a start changes only the rounds: the swept start, its
    # own support and the cold start give the same bytes; the dead
    # variables (zero columns of A) have optimum 0 from any start
    rng = np.random.default_rng(seed)
    A = rng.random((k + 3, k))
    A[:, data.draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    B = rng.standard_normal((k + 3, n))
    start = rng.random((k, n)) * (rng.random((k, n)) < 0.5)
    ata, atb = A.T @ A, A.T @ B
    X = nls_bpp_gram(ata, atb, start=start)
    assert X.tobytes() == pivot_from(ata, atb, start > 0.0).tobytes()
    assert X.tobytes() == nls_bpp_gram(ata, atb).tobytes()


def test_overflowing_sweeps_warn_nothing_and_keep_the_start_support(monkeypatch):
    # a positive definite Gram whose sweeps from a finite start overflow
    # in column 0 (its first step is 1e50 / 2e-300): that column pivots
    # from the support of its start, though its optimum is 0, and column
    # 1 from the support its sweeps reach; both end at the cold start's
    # bytes
    ata = np.array([[2e-300, -1e-150], [-1e-150, 1.0]])
    atb = np.array([[0.0, 1e-300], [-1.0, 1.0]])
    start = np.array([[0.0, 0.0], [1e200, 0.0]])
    first = []
    solve = nls._solve_passive
    monkeypatch.setattr(nls, "_solve_passive",
                        lambda ata, B, P, *rest: first.append(P.T.tolist()) or solve(ata, B, P, *rest))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = nls_bpp_gram(ata, atb, start=start)
    assert first[0] == [[False, True], [True, True]]
    assert X.tobytes() == nls_bpp_gram(ata, atb).tobytes()
    assert X[:, 0].tolist() == [0.0, 0.0]


def test_an_optimum_past_the_float64_range_is_a_typed_error():
    # column 0's optimum is 1e300 / 1e-300: its passive solve overflows,
    # so its gradient check must not warn and its rescue must not return inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="past the float64 range"):
            nls_bpp_gram(np.diag([1e-300, 1.0]), [[1e300, 0.0], [1.0, -1.0]])


@settings(max_examples=300)
@given(k=st.integers(1, 5), n=st.integers(1, 4), rows=st.integers(1, 7), gram_scale=st.integers(-300, 300),
       rhs_scale=st.integers(0, 300), seed=st.integers(0, 2**32 - 1), warm=st.booleans())
def test_grams_scaled_across_the_float64_range_give_an_optimum_or_a_typed_error(
        k, n, rows, gram_scale, rhs_scale, seed, warm):
    # rows < k gives singular Grams and the rescue; an optimum near
    # 10**(rhs_scale - gram_scale) may be past the float64 range
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, k))
    ata = 10.0**gram_scale * (A.T @ A)
    atb = 10.0**rhs_scale * (A.T @ rng.standard_normal((rows, n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X = nls_bpp_gram(ata, atb, start=rng.random((k, n)) if warm else None)
        except NumericalError:
            return
        assert np.isfinite(X).all() and (X >= 0.0).all()
        for c in range(n):
            size = np.abs(ata).max() * X[:, c].max() + np.abs(atb[:, c]).max()
            assert kkt_residual_gram(ata, atb[:, c], X[:, c]) <= ROUNDING_SLACK * size


def test_a_start_passes_the_entry_checks_of_the_solver():
    start = np.ones((2, 3))
    with pytest.raises(ShapeMismatch, match=r"start is \(2, 3\)"):
        nls_bpp_gram(np.eye(2), np.ones((2, 2)), start=start)
    with pytest.raises(ShapeMismatch):
        nls_bpp_gram(np.ones((2, 3)), np.ones((2, 3)), start=start)
    with pytest.raises(NonFinite):
        nls_bpp_gram(np.eye(2), np.full((2, 3), np.inf), start=start)


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
        X = pivot_from(ata, atb, passive)
        for c in range(sizes.size):
            single = pivot_from(ata, atb[:, [c]], passive[:, [c]])
            assert np.allclose(X[:, [c]], single, atol=1e-12, rtol=0.0)
    assert kkt_residual_gram(ata, atb, X) <= 1e-10
    for c in range(sizes.size):
        star, _ = oracle_nnls(A, B[:, c])
        assert objective(A, B[:, [c]], X[:, [c]]) <= star + 1e-8


def test_dead_variable_leaves_the_warm_passive_set(monkeypatch):
    # a zero column of A gives a zero row and column of A^T A: its
    # variable has optimum 0, keeps its start value through the sweeps,
    # and must not make the warm systems singular, with or without sweeps
    rng = np.random.default_rng(21)
    A = rng.random((8, 4))
    A[:, 2] = 0.0
    B = rng.standard_normal((8, 6)) + A @ rng.random((4, 6))
    start = np.ones((4, 6))
    calls = []
    rescue = nls._lawson_hanson
    monkeypatch.setattr(nls, "_lawson_hanson", lambda *a: calls.append(a) or rescue(*a))
    for sweeps in (0, nls.PREDICT_SWEEPS):
        monkeypatch.setattr(nls, "PREDICT_SWEEPS", sweeps)
        X = nls_bpp_gram(A.T @ A, A.T @ B, start=start)
        assert calls == []
        assert np.all(start == 1.0)  # the caller's start is left as it was
        assert np.all(X[2] == 0.0)
        for c in range(B.shape[1]):
            star, x = oracle_nnls(A, B[:, c])
            assert np.allclose(X[:, c], x, atol=1e-12, rtol=0.0)
            assert abs(objective(A, B[:, [c]], X[:, [c]]) - star) <= 1e-12 * max(star, 1.0)


def test_warm_wide_solve_memory_stays_flat():
    # 5000 columns at k = 10 from a random warm start, on one Gram and on
    # a stack of 5 Grams of 1000 columns each, whose blocks mix Grams: the
    # state is a few n x k arrays, every stacked solve is bounded by
    # STACK_ENTRIES and every gradient check by BLOCK_COLUMNS
    rng = np.random.default_rng(4)
    k, n = 10, 5000
    A = rng.random((3 * k, k))
    ata, atb = A.T @ A, A.T @ rng.standard_normal((3 * k, n))
    start = rng.random((k, n)) * (rng.random((k, n)) < 0.5)
    stack, _ = gram_stack(rng, k, 5, m=3 * k)
    for kw in ({"ata": ata}, {"ata": stack, "widths": [1000] * 5}):
        tracemalloc.start()
        try:
            X = nls_bpp_gram(atb=atb, start=start, **kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.shape == (k, n)
        assert peak <= 2.5 * 2**20, f"traced peak {peak / 2**20:.2f} MiB with {kw.get('widths')}"


def test_kkt_residual_flags_violations():
    A = np.eye(2)
    B = np.array([[1.0], [1.0]])
    X_bad = np.array([[0.0], [0.0]])
    assert kkt_residual_gram(A.T @ A, A.T @ B, X_bad) >= 1.0 - 1e-12
    X_good = np.array([[1.0], [1.0]])
    assert kkt_residual_gram(A.T @ A, A.T @ B, X_good) <= 1e-12


def test_kkt_residual_gram_reads_a_1d_rhs_as_one_column():
    assert kkt_residual_gram(np.eye(2), [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert kkt_residual_gram(np.eye(2), [1.0, 2.0], [[0.0], [2.0]]) == 1.0
    for atb, X in ((np.ones((2, 3)), np.ones((2, 1))), (np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones(2))):
        with pytest.raises(ShapeMismatch):
            kkt_residual_gram(np.eye(2), atb, X)


# ---------------------------------------------------------------------------
# Gram stacks: many problems in one call, each column solved as its Gram alone solves it


def gram_stack(rng, k, grams, m=None):
    """(g, k, k) Grams A^T A of random nonnegative A, with the A themselves."""
    As = [rng.random((m or k + 3, k)) for _ in range(grams)]
    return np.stack([A.T @ A for A in As]), As


def per_gram(fn, ata, atb, start, widths, **kw):
    """fn called once per Gram on its own copy of its columns, side by side."""
    cuts = np.cumsum(widths)[:-1]
    parts = [fn(a, np.array(b), np.array(s), **kw)
             for a, b, s in zip(ata, np.hsplit(atb, cuts), np.hsplit(start, cuts)) if b.size]
    return np.hstack(parts)


def predicted_sets(mp):
    """The passive sets (one row per column) that the sweeps of the
    nls_bpp_gram calls made under the monkeypatch mp predict, in call
    order."""
    seen = []
    predict = nls._predicted_passive
    mp.setattr(nls, "_predicted_passive", lambda *a: seen.append(predict(*a)) or seen[-1])
    return seen


def test_gram_stack_equals_one_call_per_gram_bit_for_bit(monkeypatch):
    # Gram 0 is regular, Gram 1 has a dead variable (a zero column of A)
    # and Gram 2 a duplicated column of A, whose singular passive systems
    # send some of its columns, and only its, to the Lawson-Hanson rescue
    rng = np.random.default_rng(31)
    k = 4
    As = [rng.random((7, k)) for _ in range(3)]
    As[1][:, 2] = 0.0
    As[2][:, 1] = As[2][:, 0]
    ata = np.stack([A.T @ A for A in As])
    widths = [4, 4, 4]
    gram_of = np.repeat(np.arange(3), widths)
    Y = rng.standard_normal((7, gram_of.size)) + rng.random((7, gram_of.size))
    atb = np.stack([As[g].T @ y for g, y in zip(gram_of, Y.T)], axis=1)
    rescued = []
    rescue = nls._lawson_hanson
    monkeypatch.setattr(nls, "_lawson_hanson",
                        lambda gram, b: rescued.append(gram) or rescue(gram, b))
    for start in (None, rng.random((k, gram_of.size)) < 0.6):
        rescued.clear()
        X = pivot_from(ata, atb, start, widths=widths)
        stacked_rescues = [gram.tobytes() for gram in rescued]
        rescued.clear()
        want = per_gram(pivot_from, ata, atb,
                        np.zeros(atb.shape, dtype=bool) if start is None else start, widths)
        assert X.tobytes() == want.tobytes()
        assert stacked_rescues == [ata[2].tobytes()]
        assert [gram.tobytes() for gram in rescued] == stacked_rescues
        assert np.all(X[2, gram_of == 1] == 0.0)
        for g in range(3):
            cols = gram_of == g
            assert kkt_residual_gram(ata[g], atb[:, cols], X[:, cols]) <= 1e-9


@pytest.mark.parametrize("widths", [(5, 5, 5), (3, 7, 1)], ids=["one-width", "mixed-widths"])
def test_a_start_on_a_stack_equals_one_call_per_gram(widths, monkeypatch):
    # the sweeps take one product per Gram, whatever the widths, and
    # predict the passive sets of the lone calls; Gram 1 has a dead
    # variable that its columns must not move
    rng = np.random.default_rng(32)
    k = 5
    As = [rng.random((8, k)) for _ in widths]
    As[1][:, 3] = 0.0
    ata = np.stack([A.T @ A for A in As])
    gram_of = np.repeat(np.arange(len(widths)), widths)
    atb = np.stack([As[g].T @ y for g, y in zip(gram_of, rng.standard_normal((8, gram_of.size)).T)], axis=1)
    start = rng.random((k, gram_of.size)) * (rng.random((k, gram_of.size)) < 0.5)
    predicted = predicted_sets(monkeypatch)
    got = nls_bpp_gram(ata, atb, start=start, widths=widths)
    want = per_gram(lambda a, b, s: nls_bpp_gram(a, b, start=s), ata, atb, start, widths)
    assert got.tobytes() == want.tobytes()
    stacked, *alone = predicted
    assert stacked.tobytes() == np.vstack(alone).tobytes()
    assert not stacked[gram_of == 1, 3].any()


@settings(max_examples=120)
@given(
    k=st.integers(1, 5),
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    block_columns=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_gram_stacks_equal_one_call_per_gram(k, counts, block_columns, seed):
    # random small problem stacks: some Grams without columns, dead
    # variables, cold or swept starts; blocks of at most block_columns
    # columns, so a Gram's columns may span several blocks
    rng = np.random.default_rng(seed)
    As = [rng.random((k + 2, k)) * (rng.random(k) < 0.8) for _ in counts]
    ata = np.stack([A.T @ A for A in As])
    gram_of = np.repeat(np.arange(len(counts)), counts)
    Y = rng.standard_normal((k + 2, gram_of.size))
    atb = np.zeros((k, gram_of.size))
    for c, g in enumerate(gram_of):
        atb[:, c] = As[g].T @ Y[:, c]
    start = rng.random((k, gram_of.size)) * (rng.random((k, gram_of.size)) < 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nls, "BLOCK_COLUMNS", block_columns)
        predicted = predicted_sets(mp)
        X = nls_bpp_gram(ata, atb, start=start, widths=counts)
        assert X.shape == (k, gram_of.size)
        if gram_of.size:
            want = per_gram(lambda a, b, s: nls_bpp_gram(a, b, start=s), ata, atb, start, counts)
            assert X.tobytes() == want.tobytes()
            stacked, *alone = predicted
            assert stacked.tobytes() == np.vstack(alone).tobytes()
            cold = per_gram(lambda a, b, _: nls_bpp_gram(a, b), ata, atb, start, counts)
            assert nls_bpp_gram(ata, atb, widths=counts).tobytes() == cold.tobytes()


def test_gram_stack_entry_checks():
    ata, atb = np.stack([np.eye(2), 2.0 * np.eye(2)]), np.ones((2, 3))
    for fn in (nls_bpp_gram, lambda a, b, **kw: nls_bpp_gram(a, b, start=np.ones((2, 3)), **kw)):
        with pytest.raises(ShapeMismatch):
            fn(ata, atb)  # a stack needs widths
        with pytest.raises(ShapeMismatch):
            fn(np.eye(2), atb, widths=[3])  # widths need a stack
        # the wrong count of widths, a negative or a float width, widths
        # not summing to n
        for bad in ([3], [1, 1, 1], [4, -1], [1.0, 2.0], [1, 1], [2, 2]):
            with pytest.raises(ShapeMismatch):
                fn(ata, atb, widths=bad)
    assert nls_bpp_gram(ata, atb, widths=[1, 2]).tolist() == [[1.0, 0.5, 0.5]] * 2


def test_unsigned_widths_solve_as_int64_widths():
    rng = np.random.default_rng(8)
    (ata, _), atb = gram_stack(rng, 3, 2), rng.standard_normal((3, 5))
    want = nls_bpp_gram(ata, atb, widths=np.array([2, 3], dtype=np.int64))
    for dtype in (np.uint8, np.uint64):
        assert nls_bpp_gram(ata, atb, widths=np.array([2, 3], dtype=dtype)).tobytes() == want.tobytes()
