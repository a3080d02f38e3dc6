"""Factorization engine: objectives, descent, recovery, determinism."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from jointnmf import factorize, nls
from jointnmf.errors import NonFinite, NotSymmetric, ShapeMismatch, ZeroSimilarity
from engine_reference import block_descent, default_weights, objective
from jointnmf.factorize import FactorizeOptions, hard_assign, joint_nmf, nmf, nmf_each, symnmf
from jointnmf.matrix import frobenius_norm_sq
from jointnmf.metrics import average_f1, confusion
from jointnmf.nls import kkt_residual_gram, nls_bpp_gram


def planted_joint(seed=1234, k=3, per_cluster=20, n_terms=40, coord_noise=0.01):
    rng = np.random.default_rng(seed)
    n = k * per_cluster
    labels = np.repeat(np.arange(k), per_cluster)
    H_star = np.zeros((k, n))
    H_star[labels, np.arange(n)] = 1.0
    H_star += rng.uniform(0.0, coord_noise, H_star.shape)
    W_star = rng.random((n_terms, k))
    return W_star @ H_star, H_star.T @ H_star, labels, W_star, H_star


def planted_f1(H, labels, k):
    truth = [{int(c)} for c in labels]
    return average_f1(confusion(hard_assign(H), truth, n_pred_clusters=k))


# ---------------------------------------------------------------------------
# options and parameter defaults


def test_options_validation():
    FactorizeOptions(k=1)
    for bad in (
        dict(k=0),
        dict(k=2, alpha=-1.0),
        dict(k=2, beta=-0.5),
        dict(k=2, max_sweeps=0),
        dict(k=2, rel_tol=-1e-9),
        dict(k=2, alpha=np.nan),
        dict(k=2, alpha=np.inf),
        dict(k=2, beta=np.nan),
        dict(k=2, beta=np.inf),
        dict(k=2, rel_tol=np.nan),
        dict(k=2, rel_tol=np.inf),
        dict(k=2, trials=0),
        dict(k=2, seed=-1),
    ):
        with pytest.raises(ValueError):
            FactorizeOptions(**bad)


def test_count_options_must_be_integers():
    # a float k, max_sweeps, seed or trials used to construct, and the fit
    # then failed deep inside with a TypeError
    for name, value in (("k", 2.5), ("max_sweeps", 2.5), ("seed", 1.5), ("trials", 2.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            FactorizeOptions(**{"k": 2, name: value})
    opts = FactorizeOptions(k=np.int64(2), max_sweeps=np.int32(2), seed=np.int64(1),
                            trials=np.uint8(2))
    assert nmf(np.random.default_rng(0).random((4, 5)), opts).sweeps_run == 2


def resolved(X, S, **kw):
    """(alpha, beta) a one-sweep joint fit of X and S resolves."""
    res = joint_nmf(X, S, FactorizeOptions(k=1, max_sweeps=1, **kw))
    return res.alpha, res.beta


def test_default_alpha_is_norm_ratio():
    X = np.full((2, 2), 1.0)
    S = np.eye(2)
    assert resolved(X, S)[0] == 2.0
    assert resolved(2.0 * X, S)[0] == 8.0


def test_default_alpha_rejects_zero_similarity():
    with pytest.raises(ZeroSimilarity):
        resolved(np.ones((2, 3)), np.zeros((3, 3)))


def test_a_similarity_whose_squared_norm_underflows_is_not_zero():
    # ||S||^2 of diag(1e-170, 1e-170) underflows to 0, which used to read
    # as an identically zero S; the default alpha it gives, and that of
    # diag(1e-160, 1e-160), is past float64's range, which used to fail
    # inside the sweeps
    X = np.array([[1.0, 2.0], [3.0, 1.0]])
    for v in (1e-170, 1e-160):
        with pytest.raises(NonFinite, match=r"^the default alpha is not finite \(inf\); "
                                            r"pass alpha explicitly$"):
            joint_nmf(X, np.diag([v, v]), FactorizeOptions(k=1))
        assert resolved(X, np.diag([v, v]), alpha=1.0, beta=1.0) == (1.0, 1.0)
    # S has no positive entry: zero however it is stored
    for S in (np.zeros((2, 2)), sparse.csc_array((2, 2)),
              sparse.csc_array((np.zeros(2), ([0, 1], [0, 1])), shape=(2, 2))):
        with pytest.raises(ZeroSimilarity, match="^similarity matrix is identically zero$"):
            joint_nmf(X, S, FactorizeOptions(k=1))


def test_a_default_beta_past_the_float64_range_is_refused_at_entry():
    with pytest.raises(NonFinite, match=r"^the default beta is not finite \(inf\); "
                                        r"pass beta explicitly$"):
        joint_nmf(np.eye(2), np.diag([1e10, 1e10]), FactorizeOptions(k=1, alpha=1e300))


def test_default_beta_scales_by_largest_entry():
    S = np.array([[0.0, 0.25], [0.25, 0.0]])
    assert resolved(np.ones((2, 2)), S, alpha=3.0)[1] == 0.75


# ---------------------------------------------------------------------------
# objective functions


def test_joint_objective_zero_factors():
    rng = np.random.default_rng(0)
    X = rng.random((4, 6))
    S = rng.random((6, 6))
    S = (S + S.T) / 2
    W = np.zeros((4, 2))
    H = np.zeros((2, 6))
    expect = np.sum(X * X) + 2.0 * np.sum(S * S)
    assert abs(objective(X, S, W, H, H, 2.0, 0.0) - expect) <= 1e-12 * expect


def test_joint_objective_exact_factorization_is_zero():
    rng = np.random.default_rng(1)
    W = rng.random((5, 2))
    H = rng.random((2, 7))
    X = W @ H
    S = H.T @ H
    assert objective(X, S, W, H, H, 1.0, 0.0) <= 1e-9


def test_joint_objective_1x1_exact():
    one = np.array([[1.0]])
    assert objective(one, one, one, one, one, 1.0, 0.0) == 0.0


def test_penalized_objective_hand_case():
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    assert objective(one, one, one, one, zero, 1.0, 1.0) == 2.0


def test_penalized_objective_with_tied_auxiliary():
    rng = np.random.default_rng(2)
    X = rng.random((4, 5))
    S = rng.random((5, 5))
    S = (S + S.T) / 2
    W = rng.random((4, 3))
    H = rng.random((3, 5))
    a = objective(X, S, W, H, H.copy(), 1.5, 7.0)
    b = objective(X, S, W, H, H, 1.5, 0.0)
    assert abs(a - b) <= 1e-9 * max(b, 1.0)


def test_objectives_leave_out_an_absent_view():
    one, zero = np.array([[1.0]]), np.array([[0.0]])
    assert objective(2.0 * one, None, one, one, None, 0.0, 0.0) == 1.0
    assert objective(None, one, None, one, zero, 1.0, 3.0) == 4.0
    assert objective(None, 2.0 * one, None, one, one, 1.0, 0.0) == 1.0


def test_objectives_accept_sparse_inputs():
    rng = np.random.default_rng(3)
    X = rng.random((4, 5))
    S = rng.random((5, 5))
    S = (S + S.T) / 2
    W = rng.random((4, 2))
    H = rng.random((2, 5))
    dense = objective(X, S, W, H, H, 1.0, 0.0)
    sp = objective(sparse.csc_array(X), sparse.csc_array(S), W, H, H, 1.0, 0.0)
    assert abs(dense - sp) <= 1e-9 * max(dense, 1.0)


# ---------------------------------------------------------------------------
# nmf


def test_nmf_planted_product_recovers_low_residual():
    rng = np.random.default_rng(11)
    X = rng.random((20, 2)) @ rng.random((2, 30))
    res = nmf(X, FactorizeOptions(k=2, seed=0))
    rel = res.objective_history[-1] / np.sum(X * X)
    assert rel < 1e-3


def test_nmf_rank_one_all_ones_exact():
    res = nmf(np.ones((4, 4)), FactorizeOptions(k=1, seed=0))
    assert res.objective_history[-1] < 1e-6


def test_nmf_k_above_min_dim_rejected():
    with pytest.raises(ValueError):
        nmf(np.ones((3, 5)), FactorizeOptions(k=4))


def test_nmf_history_non_increasing():
    rng = np.random.default_rng(4)
    X = rng.random((10, 12))
    res = nmf(X, FactorizeOptions(k=3, seed=2, max_sweeps=50, rel_tol=0.0))
    hist = np.array(res.objective_history)
    assert len(hist) == res.sweeps_run == 50
    assert np.all(np.diff(hist) <= 1e-9)


def test_nmf_objective_monotone_in_k():
    rng = np.random.default_rng(99)
    X = rng.random((6, 8))
    for s in range(10):
        full = nmf(X, FactorizeOptions(k=6, seed=s)).objective_history[-1]
        less = nmf(X, FactorizeOptions(k=5, seed=s)).objective_history[-1]
        assert full <= less + 1e-9


def test_nmf_deterministic():
    rng = np.random.default_rng(5)
    X = rng.random((8, 9))
    a = nmf(X, FactorizeOptions(k=2, seed=3))
    b = nmf(X, FactorizeOptions(k=2, seed=3))
    assert (a.W == b.W).all() and (a.H == b.H).all()
    assert a.objective_history == b.objective_history


def test_nmf_factors_nonnegative():
    rng = np.random.default_rng(6)
    X = rng.random((7, 9))
    res = nmf(X, FactorizeOptions(k=3, seed=1))
    assert np.all(res.W >= 0.0) and np.all(res.H >= 0.0)


def test_nmf_rejects_negative_input():
    X = np.array([[1.0, -0.5], [0.0, 2.0]])
    with pytest.raises(ValueError):
        nmf(X, FactorizeOptions(k=1))


@pytest.mark.parametrize("as_sparse", [False, True])
def test_nonfinite_input_rejected_at_entry(as_sparse):
    wrap = sparse.csc_array if as_sparse else np.asarray
    X = np.ones((3, 2))
    X[1, 0] = np.nan
    with pytest.raises(NonFinite):
        nmf(wrap(X), FactorizeOptions(k=1))
    # an inf in S is reported as such, not as an asymmetry
    S = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(NonFinite):
        joint_nmf(np.ones((3, 2)), wrap(S), FactorizeOptions(k=1))
    with pytest.raises(NonFinite):
        symnmf(wrap(S), FactorizeOptions(k=1))
    # finite entries whose squared norm overflows, named by their view
    huge = np.diag([1e200, 1.0])
    with pytest.raises(NonFinite, match="the squared norm of X overflows"):
        nmf(wrap(huge), FactorizeOptions(k=1))
    with pytest.raises(NonFinite, match="the squared norm of S overflows"):
        joint_nmf(np.eye(2), wrap(huge), FactorizeOptions(k=1))


# ---------------------------------------------------------------------------
# symnmf


def test_symnmf_identity_two_by_two_exact():
    res = symnmf(np.eye(2), FactorizeOptions(k=2, seed=0))
    assert res.objective_history[-1] < 1e-6


def test_symnmf_zero_similarity_gives_zero_objective():
    res = symnmf(np.zeros((3, 3)), FactorizeOptions(k=2, seed=0))
    assert res.objective_history[-1] == 0.0
    assert np.all(res.H == 0.0)


def test_symnmf_planted_blocks_recovered():
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(2), 10)
    H = np.zeros((2, 20))
    H[labels, np.arange(20)] = 1.0
    H += rng.uniform(0.0, 0.01, H.shape)
    S = H.T @ H
    res = symnmf(S, FactorizeOptions(k=2, seed=0, trials=5))
    assert planted_f1(res.H, labels, 2) >= 0.95


def test_symnmf_requires_symmetry():
    S = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NotSymmetric):
        symnmf(S, FactorizeOptions(k=1))


def test_symnmf_history_non_increasing():
    rng = np.random.default_rng(12)
    S = rng.random((15, 15))
    S = (S + S.T) / 2
    res = symnmf(S, FactorizeOptions(k=4, seed=0, max_sweeps=60, rel_tol=0.0))
    assert np.all(np.diff(res.objective_history) <= 1e-9)


# ---------------------------------------------------------------------------
# joint_nmf


def test_joint_planted_recovery_best_of_five():
    X, S, labels, _, _ = planted_joint()
    res = joint_nmf(X, S, FactorizeOptions(k=3, seed=0, trials=5))
    assert planted_f1(res.H, labels, 3) >= 0.95


def test_joint_degenerates_to_nmf_with_zero_weights():
    rng = np.random.default_rng(11)
    X = rng.random((20, 2)) @ rng.random((2, 30))
    S = np.eye(30)
    for seed in (0, 1, 2):
        plain = nmf(X, FactorizeOptions(k=2, seed=seed))
        joint = joint_nmf(X, S, FactorizeOptions(k=2, seed=seed, alpha=0.0, beta=0.0))
        assert len(plain.objective_history) == len(joint.objective_history)
        for a, b in zip(plain.objective_history, joint.objective_history):
            assert abs(a - b) <= 1e-9


def test_joint_1x1_exact():
    one = np.array([[1.0]])
    res = joint_nmf(one, one, FactorizeOptions(k=1, seed=0))
    assert res.objective_history[-1] < 1e-8


def test_joint_rejects_mismatched_similarity():
    with pytest.raises(ShapeMismatch):
        joint_nmf(np.ones((3, 4)), np.eye(5), FactorizeOptions(k=2))


def test_joint_rejects_asymmetric_similarity():
    S = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NotSymmetric):
        joint_nmf(np.ones((3, 2)), S, FactorizeOptions(k=1))


def test_joint_zero_similarity_default_alpha_rejected():
    with pytest.raises(ZeroSimilarity):
        joint_nmf(np.ones((3, 2)), np.zeros((2, 2)), FactorizeOptions(k=1))


def test_joint_block_updates_never_increase_objective():
    for i in range(3):
        rng = np.random.default_rng(100 + i)
        X = rng.random((12, 15))
        S = rng.random((15, 15))
        S = (S + S.T) / 2
        res = joint_nmf(
            X, S,
            FactorizeOptions(k=4, seed=i, max_sweeps=30, rel_tol=0.0),
        )
        vals = np.array(res.block_objective_history)
        assert len(vals) == 3 * res.sweeps_run
        assert np.all(np.diff(vals) <= 1e-9)
        assert abs(vals[2] - res.objective_history[0]) <= 1e-9 * max(vals[2], 1.0)


def test_joint_multi_trial_picks_lowest_final_objective():
    rng = np.random.default_rng(13)
    X = rng.random((10, 14))
    S = rng.random((14, 14))
    S = (S + S.T) / 2
    multi = joint_nmf(X, S, FactorizeOptions(k=3, seed=5, trials=4))
    singles = [
        joint_nmf(X, S, FactorizeOptions(k=3, seed=5 + t, trials=1)) for t in range(4)
    ]
    finals = [r.objective_history[-1] for r in singles]
    best = int(np.argmin(finals))
    assert multi.seed_used == 5 + best
    assert multi.objective_history[-1] == finals[best]
    assert (multi.H == singles[best].H).all()


def test_joint_deterministic_across_runs():
    rng = np.random.default_rng(14)
    X = rng.random((9, 11))
    S = rng.random((11, 11))
    S = (S + S.T) / 2
    a = joint_nmf(X, S, FactorizeOptions(k=2, seed=7))
    b = joint_nmf(X, S, FactorizeOptions(k=2, seed=7))
    assert (a.W == b.W).all() and (a.H == b.H).all() and (a.H_tilde == b.H_tilde).all()


# n = 1200 columns at k = 5 span two stacked NLS solves per round
SAME_SEED_RUN = """
import sys
import numpy as np
from scipy import sparse
from jointnmf.factorize import FactorizeOptions, joint_nmf
rng = np.random.default_rng(16)
X = rng.random((40, 1200))
S = sparse.random(1200, 1200, density=0.01, random_state=17)
res = joint_nmf(X, S + S.T, FactorizeOptions(k=5, seed=3, max_sweeps=5, rel_tol=0.0))
sys.stdout.buffer.write(res.W.tobytes() + res.H.tobytes() + res.H_tilde.tobytes())
"""


def test_joint_bit_identical_across_processes(child_env):
    runs = [
        subprocess.run([sys.executable, "-c", SAME_SEED_RUN], env=child_env,
                       capture_output=True, check=True, timeout=120).stdout
        for _ in range(2)
    ]
    assert len(runs[0]) == 8 * 5 * (40 + 2 * 1200)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_predicted_start_keeps_the_factors_and_solves_fewer_columns(method, monkeypatch):
    # the predicted passive sets may change only the pivoting rounds, and
    # they must save some: a predictor that stops helping fails here
    X, S, _, _, _ = planted_joint()
    opts = FactorizeOptions(k=3, seed=0, max_sweeps=3, rel_tol=0.0)
    solved = []
    solve = nls._solve_passive
    monkeypatch.setattr(nls, "_solve_passive",
                        lambda ata, B, P, cols, *rest: solved.append(cols.size) or solve(ata, B, P, cols, *rest))
    runs = []
    # without sweeps the pivoting starts from the support of the previous value
    for sweeps in (nls.PREDICT_SWEEPS, 0):
        monkeypatch.setattr(nls, "PREDICT_SWEEPS", sweeps)
        solved.clear()
        runs.append((run_method(method, X, S, opts), sum(solved)))
    (new, new_columns), (old, old_columns) = runs
    for name in ("W", "H", "H_tilde", "objective_history", "block_objective_history"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a is None and b is None) or np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    assert new_columns < old_columns


@pytest.mark.parametrize("method, blocks", [("nmf", 2), ("symnmf", 2), ("joint", 3)])
def test_every_block_is_one_kernel_call_from_its_previous_value(method, blocks, monkeypatch):
    # the sweeps hand the kernel each block's previous value and leave the
    # support to it: one nls_bpp_gram call per block and sweep, however
    # many trials advance in lockstep
    X, S, _, _, _ = planted_joint()
    calls = []
    kernel = factorize.nls_bpp_gram
    monkeypatch.setattr(factorize, "nls_bpp_gram",
                        lambda ata, atb, **kw: calls.append(kw) or kernel(ata, atb, **kw))
    res = run_method(method, X, S, FactorizeOptions(k=3, seed=0, max_sweeps=4, rel_tol=0.0, trials=2))
    assert len(calls) == blocks * 4 == len(res.block_objective_history)
    assert all(kw["start"].shape == (3, sum(kw["widths"])) for kw in calls)


@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_first_sweep_starts_each_block_from_its_draw_in_block_order(method, monkeypatch):
    # the start draws W (m x k), then H, then Ht from default_rng(seed),
    # and a sweep solves W (as W^T), then Ht, then H: in the first sweep
    # each block starts from its own draw
    X, S, _, _, _ = planted_joint()
    starts = []
    kernel = factorize.nls_bpp_gram
    monkeypatch.setattr(factorize, "nls_bpp_gram",
                        lambda ata, atb, **kw: starts.append(kw["start"]) or kernel(ata, atb, **kw))
    run_method(method, X, S, FactorizeOptions(k=3, seed=7, max_sweeps=1))
    rng = np.random.default_rng(7)
    W = rng.random((X.shape[0], 3)) if method != "symnmf" else None
    H = rng.random((3, X.shape[1]))
    Ht = rng.random(H.shape) if method != "nmf" else None
    want = [M for M in (W.T if W is not None else None, Ht, H) if M is not None]
    assert len(starts) == len(want)
    for got, M in zip(starts, want):
        assert got.shape == M.shape and got.tobytes() == np.ascontiguousarray(M).tobytes()


def test_joint_factors_nonnegative_and_shapes():
    rng = np.random.default_rng(15)
    X = rng.random((8, 10))
    S = rng.random((10, 10))
    S = (S + S.T) / 2
    res = joint_nmf(X, S, FactorizeOptions(k=3, seed=0))
    assert res.W.shape == (8, 3)
    assert res.H.shape == (3, 10)
    assert res.H_tilde.shape == (3, 10)
    assert np.all(res.W >= 0.0)
    assert np.all(res.H >= 0.0)
    assert np.all(res.H_tilde >= 0.0)


def test_joint_accepts_sparse_inputs_matching_dense():
    rng = np.random.default_rng(16)
    X = rng.random((8, 10))
    X[X < 0.4] = 0.0
    S = rng.random((10, 10))
    S = (S + S.T) / 2
    d = joint_nmf(X, S, FactorizeOptions(k=2, seed=0))
    s = joint_nmf(sparse.csc_array(X), sparse.csc_array(S), FactorizeOptions(k=2, seed=0))
    assert np.allclose(d.H, s.H, atol=1e-8, rtol=0.0)
    assert abs(d.objective_history[-1] - s.objective_history[-1]) <= 1e-8


def stored_apart(M):
    """M as a CSC array out of canonical form: in each column every other
    entry is stored as two halves, which add up to it exactly, and the
    first zero row, if any, as a stored zero after the others."""
    M = np.asarray(M, dtype=np.float64)
    data, rows, ptr = [], [], [0]
    for col in M.T:
        for t, i in enumerate(np.flatnonzero(col)):
            parts = [col[i] / 2.0] * 2 if t % 2 == 0 else [col[i]]
            data += parts
            rows += [i] * len(parts)
        zero = np.flatnonzero(col == 0.0)[:1]
        data += [0.0] * zero.size
        rows += list(zero)
        ptr.append(len(data))
    return sparse.csc_array((np.array(data), np.array(rows), np.array(ptr)), shape=M.shape)


def stored_with_a_negative_part(M):
    """M, whose first entry is 1, as a CSC array that stores it as -1 and 2."""
    C = sparse.csc_array(M)
    assert C.indices[0] == 0 and C.data[0] == 1.0
    ptr = C.indptr.copy()
    ptr[1:] += 1
    return sparse.csc_array((np.concatenate([[-1.0, 2.0], C.data[1:]]),
                             np.concatenate([[0, 0], C.indices[1:]]), ptr), shape=C.shape)


@pytest.mark.parametrize("store", [stored_apart, stored_with_a_negative_part],
                         ids=["halves-and-zeros", "negative-part"])
@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_a_fit_reads_a_sparse_input_as_the_matrix_its_entries_sum_to(method, store):
    # stored entries, not the matrix they sum to, used to set the
    # objective, the default weights and the sign check: a split entry
    # lowered the objective and raised alpha and beta, and a negative
    # part was rejected
    X, S = noisy_pair(24)
    X[0, 0] = S[0, 0] = 1.0
    opts = FactorizeOptions(k=2, seed=3, max_sweeps=3, rel_tol=0.0)
    apart = run_method(method, store(X), store(S), opts)
    assert_same_run(apart, run_method(method, sparse.csc_array(X), sparse.csc_array(S), opts))
    dense = run_method(method, X, S, opts)
    assert np.allclose(apart.objective_history, dense.objective_history, rtol=1e-12, atol=0.0)
    for a, b in ((apart.alpha, dense.alpha), (apart.beta, dense.beta)):
        assert a == b or abs(a - b) <= 1e-12 * b


def test_max_sweeps_honored():
    rng = np.random.default_rng(17)
    X = rng.random((6, 7))
    S = rng.random((7, 7))
    S = (S + S.T) / 2
    res = joint_nmf(X, S, FactorizeOptions(k=2, seed=0, max_sweeps=5, rel_tol=0.0))
    assert res.sweeps_run == 5 and len(res.objective_history) == 5


# ---------------------------------------------------------------------------
# closed-form objective and trial bookkeeping


def noisy_pair(seed, m=12, n=15, sparse_inputs=False):
    rng = np.random.default_rng(seed)
    X = rng.random((m, n))
    X[X < 0.4] = 0.0
    S = rng.random((n, n))
    S = (S + S.T) / 2
    S[S < 0.3] = 0.0
    if sparse_inputs:
        return sparse.csc_array(X), sparse.csc_array(S)
    return X, S


def run_method(method, X, S, opts):
    if method == "nmf":
        return nmf(X, opts)
    if method == "symnmf":
        return symnmf(S, opts)
    return joint_nmf(X, S, opts)


@pytest.mark.parametrize("sparse_inputs", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_closed_form_objective_matches_reference(method, sparse_inputs):
    X, S = noisy_pair(21, sparse_inputs=sparse_inputs)
    res = run_method(method, X, S, FactorizeOptions(k=3, seed=4, max_sweeps=25, rel_tol=0.0))
    if method == "nmf":
        ref = objective(X, None, res.W, res.H, None, 0.0, 0.0)
    elif method == "symnmf":
        ref = objective(None, S, None, res.H, res.H_tilde, 1.0, res.beta)
    else:
        ref = objective(X, S, res.W, res.H, res.H_tilde, res.alpha, res.beta)
    assert abs(res.objective_history[-1] - ref) <= 1e-12 * ref
    per_sweep = 3 if method == "joint" else 2
    blocks = res.block_objective_history
    assert len(blocks) == per_sweep * res.sweeps_run == per_sweep * 25
    assert blocks[per_sweep - 1::per_sweep] == res.objective_history


@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_trials_recorded_in_seed_order(method):
    X, S = noisy_pair(22)
    multi = run_method(method, X, S, FactorizeOptions(k=3, seed=5, trials=3))
    singles = [run_method(method, X, S, FactorizeOptions(k=3, seed=5 + t)) for t in range(3)]
    assert [r.seed_used for r in multi.trials] == [5, 6, 7]
    assert [r.objective_history for r in multi.trials] == [
        r.objective_history for r in singles
    ]
    best = int(np.argmin([r.objective_history[-1] for r in singles]))
    assert multi.seed_used == 5 + best
    assert (multi.H == multi.trials[best].H).all()
    if method == "joint":
        alpha = frobenius_norm_sq(X) / frobenius_norm_sq(S)
        expected = (alpha, alpha * float(S.max()))
    elif method == "symnmf":
        expected = (None, float(S.max()))
    else:
        expected = (None, None)
    for r in [multi] + singles:
        assert (r.alpha, r.beta) == expected


def assert_same_run(a, b):
    """a and b hold the same factors and logs, bit for bit."""
    for name in ("W", "H", "H_tilde"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or (x.shape == y.shape and x.tobytes() == y.tobytes()), name
    assert a.objective_history == b.objective_history
    assert a.block_objective_history == b.block_objective_history
    assert (a.sweeps_run, a.seed_used) == (b.sweeps_run, b.seed_used)


@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_lockstep_trials_equal_solo_fits_bit_for_bit(method):
    # rel_tol > 0 stops the trials at different sweeps, so the lockstep
    # stack shrinks as they leave it
    X, S = noisy_pair(23)
    opts = FactorizeOptions(k=3, seed=5, trials=4, rel_tol=1e-3)
    multi = run_method(method, X, S, opts)
    singles = [run_method(method, X, S, replace(opts, seed=5 + t, trials=1)) for t in range(4)]
    assert len({r.sweeps_run for r in singles}) > 1
    for a, b in zip(multi.trials, singles):
        assert_same_run(a, b)


@pytest.mark.parametrize("shapes", [[(12, 9)] * 4, [(12, 9), (15, 11), (12, 9), (7, 20)]],
                         ids=["one-shape", "mixed-shapes"])
def test_nmf_each_members_equal_solo_fits_bit_for_bit(shapes):
    # members stop at different sweeps (rel_tol > 0), one of them sparse,
    # each with two trials
    rng = np.random.default_rng(41)
    Xs = [rng.random(shape) * (rng.random(shape) < 0.7) for shape in shapes]
    Xs[1] = sparse.csc_array(Xs[1])
    opts = FactorizeOptions(k=3, seed=2, rel_tol=1e-3, trials=2)
    each = nmf_each(Xs, opts)
    solo = [nmf(X, opts) for X in Xs]
    assert len({r.sweeps_run for r in solo}) > 1
    for a, b in zip(each, solo):
        assert_same_run(a, b)
        assert (a.alpha, a.beta) == (b.alpha, b.beta) == (None, None)
        assert len(a.trials) == len(b.trials) == 2
        for ta, tb in zip(a.trials, b.trials):
            assert_same_run(ta, tb)


def test_nmf_each_of_nothing_and_of_a_bad_member():
    assert list(nmf_each([], FactorizeOptions(k=1))) == []
    with pytest.raises(ValueError):
        list(nmf_each([np.ones((3, 3)), -np.ones((3, 3))], FactorizeOptions(k=1)))
    with pytest.raises(ValueError, match="k=3 exceeds"):
        list(nmf_each([np.ones((3, 3)), np.ones((2, 5))], FactorizeOptions(k=3)))


def test_a_fit_with_no_view_is_a_value_error():
    # each used to raise an AttributeError from deep in the setup
    opts = FactorizeOptions(k=1)
    for fit in (lambda: nmf(None, opts), lambda: symnmf(None, opts),
                lambda: joint_nmf(None, None, opts),
                lambda: list(nmf_each([np.ones((3, 3)), None], opts))):
        with pytest.raises(ValueError, match="^a fit needs X, S or both$"):
            fit()


@pytest.mark.parametrize("method", ["nmf", "symnmf"])
def test_joint_nmf_without_a_view_is_that_method_bit_for_bit(method):
    # the CLI runs every method as joint_nmf with the view it does not
    # read left as None
    X, S = noisy_pair(24)
    opts = FactorizeOptions(k=3, seed=5, trials=3, rel_tol=1e-3)
    got = joint_nmf(X, None, opts) if method == "nmf" else joint_nmf(None, S, opts)
    want = run_method(method, X, S, opts)
    assert len(got.trials) == len(want.trials) == 3
    for a, b in zip([got, *got.trials], [want, *want.trials]):
        assert_same_run(a, b)
        assert (a.alpha, a.beta) == (b.alpha, b.beta)


def test_nmf_each_splits_many_fits_into_stacks_under_the_column_limit(monkeypatch, stack_sizes):
    # eleven 12 x 9 fits are 12 columns wide each: a limit of 40 columns
    # stacks them three at a time, and each matrix is read only once the
    # stacks before its own have run
    monkeypatch.setattr(factorize, "LOCKSTEP_COLUMNS", 40)
    rng = np.random.default_rng(43)
    Xs = [rng.random((12, 9)) * (rng.random((12, 9)) < 0.8) for _ in range(11)]
    read = []

    def matrices():
        for X in Xs:
            read.append(len(stack_sizes))
            yield X

    opts = FactorizeOptions(k=3, seed=4, rel_tol=1e-3)
    each = list(nmf_each(matrices(), opts))
    assert stack_sizes == [3, 3, 3, 2]
    # the stacks swept when each matrix was read
    assert read == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
    solo = [nmf(X, opts) for X in Xs]
    assert len({r.sweeps_run for r in solo}) > 1
    for a, b in zip(each, solo):
        assert_same_run(a, b)


@pytest.mark.parametrize("method", ["nmf", "symnmf", "joint"])
def test_trials_wider_than_the_column_limit_run_one_at_a_time(method, monkeypatch, stack_sizes):
    # 12 x 15 views: every run is 15 columns wide, so a limit of 20
    # leaves each trial a stack of its own, and two trials share one
    # under a limit of 30
    X, S = noisy_pair(23)
    opts = FactorizeOptions(k=3, seed=5, trials=3, rel_tol=1e-3)
    singles = [run_method(method, X, S, replace(opts, seed=5 + t, trials=1)) for t in range(3)]
    for limit, stacks in ((20, [1, 1, 1]), (30, [2, 1])):
        monkeypatch.setattr(factorize, "LOCKSTEP_COLUMNS", limit)
        stack_sizes.clear()
        multi = run_method(method, X, S, opts)
        assert stack_sizes == stacks
        for a, b in zip(multi.trials, singles):
            assert_same_run(a, b)


def test_explicit_weights_are_reported():
    X, S = noisy_pair(23)
    opts = FactorizeOptions(k=2, alpha=0.5, beta=2.0, max_sweeps=3)
    for method, expected in (("joint", (0.5, 2.0)), ("symnmf", (None, 2.0)), ("nmf", (None, None))):
        res = run_method(method, X, S, opts)
        assert (res.alpha, res.beta) == expected


# ---------------------------------------------------------------------------
# hard assignment and result output


def test_hard_assign_fixtures():
    assert hard_assign(np.array([[0.2], [0.7], [0.1]]))[0] == 1
    assert hard_assign(np.zeros((3, 1)))[0] == 0
    assert list(hard_assign(np.eye(3))) == [0, 1, 2]


def test_hard_assign_scale_invariant():
    rng = np.random.default_rng(18)
    H = rng.random((4, 9))
    base = hard_assign(H)
    H2 = H.copy()
    H2[:, 3] *= 17.0
    assert (hard_assign(H2) == base).all()


def test_hard_assign_needs_matrix():
    with pytest.raises(ShapeMismatch):
        hard_assign(np.zeros(3))


# ---------------------------------------------------------------------------
# properties on small random instances, for every method and for joint
# with alpha = beta = 0 ("joint0")

METHODS = ["nmf", "symnmf", "joint", "joint0"]
SWEEPS = 6


@st.composite
def instances(draw):
    """A random nonnegative X (m x n), symmetric S with zeros, and k."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.random((m, n))
    X[X < 0.3] = 0.0
    S = rng.random((n, n))
    S = (S + S.T) / 2
    S[S < 0.5] = 0.0
    np.fill_diagonal(S, rng.random(n) + 0.1)  # S is never zero
    return X, S, draw(st.integers(1, min(m, n)))


def fit(method, X, S, k, **opts):
    opts = FactorizeOptions(k=k, max_sweeps=SWEEPS, rel_tol=0.0, seed=1, **opts)
    if method == "joint0":
        return joint_nmf(X, S, replace(opts, alpha=0.0, beta=0.0))
    return run_method(method, X, S, opts)


def weights(method, res):
    """(alpha, beta) of the method's own objective; symnmf weighs S by 1."""
    return {"nmf": (0.0, 0.0), "symnmf": (1.0, res.beta), "joint0": (0.0, 0.0)}.get(
        method, (res.alpha, res.beta))


def scale(method, X, S, res):
    """The objective at zero factors: the size of the closed form's terms."""
    x_nsq = 0.0 if method == "symnmf" else float(np.sum(X * X))
    return x_nsq + weights(method, res)[0] * float(np.sum(S * S))


@settings(max_examples=60)
@given(inst=instances(), method=st.sampled_from(METHODS))
def test_block_objective_never_rises(inst, method):
    X, S, k = inst
    res = fit(method, X, S, k)
    blocks = res.block_objective_history
    tol = 1e-12 * scale(method, X, S, res)
    assert all(b <= a + max(1e-12 * a, tol) for a, b in zip(blocks, blocks[1:]))


@settings(max_examples=60)
@given(inst=instances(), method=st.sampled_from(METHODS))
def test_sparse_and_dense_inputs_give_the_same_histories(inst, method):
    # a block whose Gram matrix is singular has no unique optimum, and
    # the two runs' rounding may pick different ones, so the property
    # holds where every block of the dense run is well posed
    X, S, k = inst
    conds = []

    def solve(ata, atb, start, widths):
        conds.extend(np.linalg.cond(ata))
        return nls_bpp_gram(ata, atb, start=start, widths=widths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorize, "nls_bpp_gram", solve)
        dense = fit(method, X, S, k)
    assume(max(conds) < 1e12)
    sp = fit(method, sparse.csc_array(X), sparse.csc_array(S), k)
    tol = 1e-12 * scale(method, X, S, dense)
    for a, b in ((dense.objective_history, sp.objective_history),
                 (dense.block_objective_history, sp.block_objective_history)):
        assert len(a) == len(b)
        assert all(abs(u - v) <= max(1e-12 * abs(u), tol) for u, v in zip(a, b))


@settings(max_examples=60)
@given(inst=instances(), as_sparse=st.booleans())
def test_joint_with_zero_weights_is_nmf_bit_for_bit(inst, as_sparse):
    X, S, k = inst
    if as_sparse:
        X, S = sparse.csc_array(X), sparse.csc_array(S)
    plain, joint = fit("nmf", X, S, k), fit("joint0", X, S, k)
    assert plain.W.tobytes() == joint.W.tobytes() and plain.H.tobytes() == joint.H.tobytes()
    assert plain.objective_history == joint.objective_history
    assert plain.block_objective_history == joint.block_objective_history


@settings(max_examples=60)
@given(inst=instances(), method=st.sampled_from(METHODS))
def test_final_h_meets_the_kkt_conditions_of_its_block(inst, method):
    X, S, k = inst
    res = fit(method, X, S, k)
    alpha, beta = weights(method, res)
    H, Ht = res.H, res.H_tilde
    ata, atb = np.zeros((k, k)), np.zeros(H.shape)
    if method != "symnmf":
        ata, atb = res.W.T @ res.W, res.W.T @ X
    if alpha:
        ata, atb = ata + alpha * (Ht @ Ht.T), atb + alpha * (Ht @ S)
    if beta:
        ata, atb = ata + beta * np.eye(k), atb + beta * Ht
    size = np.abs(ata).max() * np.abs(H).max() + np.abs(atb).max()
    assert kkt_residual_gram(ata, atb, H) <= 1e-9 * max(size, 1e-300)


def test_rank_deficient_w_block_finishes_and_h_meets_its_kkt_conditions():
    # at k = 7 on this 8 x 9 X, W loses rank: the H block's Gram has
    # eigenvalues from about -5e-19 to 1.1, and two of its columns cycled
    # in block pivoting until NonConvergence
    X = np.random.default_rng(1751).random((8, 9))
    X[X < 0.3] = 0.0
    res = fit("nmf", sparse.csc_array(X), None, 7)
    assert res.sweeps_run == SWEEPS
    ata, atb = res.W.T @ res.W, res.W.T @ X
    size = np.abs(ata).max() * np.abs(res.H).max() + np.abs(atb).max()
    assert kkt_residual_gram(ata, atb, res.H) <= 1e-9 * size


@settings(max_examples=60)
@given(inst=instances(), method=st.sampled_from(METHODS))
def test_last_objective_is_the_penalized_objective_of_the_method(inst, method):
    X, S, k = inst
    res = fit(method, X, S, k)
    alpha, beta = weights(method, res)
    ref = objective(
        None if method == "symnmf" else X, None if method == "nmf" else S,
        res.W, res.H, res.H_tilde, alpha, beta,
    )
    # the reference shares no formula with the engine, so an exact fit,
    # which the reference puts at 0, is held to the closed form's rounding
    # at the size of its terms
    assert abs(res.objective_history[-1] - ref) <= 1e-12 * max(ref, scale(method, X, S, res))


@settings(max_examples=30)
@given(insts=st.lists(instances(), min_size=1, max_size=4), rel_tol=st.sampled_from([0.0, 1e-2]))
def test_nmf_each_of_random_stacks_equals_solo_fits(insts, rel_tol):
    # random small stacks of mixed shapes, all fitted at the smallest k
    k = min(k for _, _, k in insts)
    opts = FactorizeOptions(k=k, max_sweeps=SWEEPS, rel_tol=rel_tol, seed=1)
    for a, (X, _, _) in zip(nmf_each([X for X, _, _ in insts], opts), insts):
        assert_same_run(a, nmf(X, opts))


@settings(max_examples=60)
@given(inst=instances(), method=st.sampled_from(["nmf", "symnmf", "joint"]),
       given_weights=st.one_of(st.none(), st.tuples(st.sampled_from([0.0, 0.5, 3.0]),
                                                    st.sampled_from([0.0, 0.5, 3.0]))),
       sweeps=st.integers(1, 3), form=st.sampled_from(["dense", "canonical", "stored-apart"]),
       seed=st.integers(0, 99))
def test_sweeps_match_the_paper_form_reference(inst, method, given_weights, sweeps, form, seed):
    # engine_reference solves each block's stacked least squares column
    # by column with scipy's NNLS and evaluates the objective on dense
    # arrays; the comparison holds where every block the engine solves is
    # well posed, since a singular Gram has no unique optimum
    X, S, k = inst
    wrap = {"dense": np.asarray, "canonical": sparse.csc_array, "stored-apart": stored_apart}[form]
    alpha, beta = given_weights or (None, None)
    opts = FactorizeOptions(k=k, alpha=alpha, beta=beta, max_sweeps=sweeps, rel_tol=0.0, seed=seed)
    conds = []

    def solve(ata, atb, start, widths):
        conds.extend(np.linalg.cond(ata))
        return nls_bpp_gram(ata, atb, start=start, widths=widths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorize, "nls_bpp_gram", solve)
        res = run_method(method, wrap(X), wrap(S), opts)
    assume(max(conds) < 1e12)
    Xr, Sr = None if method == "symnmf" else X, None if method == "nmf" else S
    if method == "nmf":
        alpha, beta = 0.0, 0.0
    else:
        alpha, beta = default_weights(Xr, Sr, alpha, beta)
        assert abs(res.beta - beta) <= 1e-12 * beta
        if method == "joint":
            assert abs(res.alpha - alpha) <= 1e-12 * alpha
    W, H, Ht, blocks = block_descent(Xr, Sr, k, alpha, beta, seed, sweeps)
    for got, want in ((res.W, W), (res.H, H), (res.H_tilde, Ht)):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    # within 1e-12 of the objective, or of its value at zero factors when
    # it is far below that, where any formula's rounding is set
    size = objective(Xr, Sr, None if Xr is None else 0.0 * W, 0.0 * H, 0.0 * H, alpha, beta)
    got, per_sweep = res.block_objective_history, len(blocks) // sweeps
    assert len(got) == len(blocks)
    assert all(abs(u - v) <= 1e-12 * max(v, size) for u, v in zip(got, blocks))
    assert res.objective_history == got[per_sweep - 1::per_sweep]
