"""End-to-end acceptance checks, one per shipped guarantee.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line
per criterion.  Each check is self-contained and uses its own frozen
seeds, so a failure points at the guarantee it names rather than at a
fixture upstream.
"""

import itertools
import time

import numpy as np
from graph_reference import dense_similarity, id_pair

from jointnmf.cli import main
from jointnmf.errors import EmptyGraph, ZeroDegree
from jointnmf.factorize import (
    FactorizeOptions,
    hard_assign,
    joint_nmf,
    nmf,
    symnmf,
)
from jointnmf.graph import similarity
from jointnmf.matrix import write_matrix_market
from jointnmf.metrics import (
    auc,
    average_f1,
    confusion,
    labeling_scores,
    roc_curve,
)
from jointnmf.nls import kkt_residual_gram, nls_bpp_gram
from jointnmf.recommend import _scores, baseline_nmf2


def _verdict(num, label, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def _planted(seed=1234, k=3, per_cluster=20, n_terms=40):
    rng = np.random.default_rng(seed)
    n = k * per_cluster
    labels = np.repeat(np.arange(k), per_cluster)
    H = np.zeros((k, n))
    H[labels, np.arange(n)] = 1.0
    H += rng.uniform(0.0, 0.01, H.shape)
    W = rng.random((n_terms, k))
    return W @ H, H.T @ H, labels, W, H


def _f1_against_planted(H, labels, k):
    truth = [{int(c)} for c in labels]
    return average_f1(confusion(hard_assign(H), truth, n_pred_clusters=k))


def _oracle_nnls(A, b):
    k = A.shape[1]
    best = float(np.dot(b, b))
    for r in range(1, k + 1):
        for cols in itertools.combinations(range(k), r):
            cols = list(cols)
            sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.any(sol < 0.0):
                continue
            x = np.zeros(k)
            x[cols] = sol
            resid = A @ x - b
            best = min(best, float(np.dot(resid, resid)))
    return best


def test_criterion_1_nls_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        A = rng.random((6, 4))
        B = rng.random((6, 3))
        neg = rng.permutation(B.size)[: B.size // 2]
        B.ravel()[neg] *= -1.0
        X = nls_bpp_gram(A.T @ A, A.T @ B)
        for c in range(B.shape[1]):
            resid = A @ X[:, c] - B[:, c]
            worst_gap = max(
                worst_gap, float(np.dot(resid, resid)) - _oracle_nnls(A, B[:, c])
            )
        worst_kkt = max(worst_kkt, kkt_residual_gram(A.T @ A, A.T @ B, X))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and worst_kkt <= 1e-10 and elapsed < 5.0
    _verdict(
        1,
        f"200 random NLS instances vs exhaustive enumeration "
        f"(gap {worst_gap:.2e}, KKT {worst_kkt:.2e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_2_block_updates_descend_monotonically():
    t0 = time.perf_counter()
    worst_step = -np.inf
    for i in range(20):
        rng = np.random.default_rng(9000 + i)
        X = rng.random((30, 40))
        S = rng.random((40, 40))
        S = (S + S.T) / 2
        res = joint_nmf(
            X, S,
            FactorizeOptions(k=5, seed=i, max_sweeps=100, rel_tol=0.0),
        )
        vals = np.array(res.block_objective_history)
        assert len(vals) == 300
        worst_step = max(worst_step, float(np.diff(vals).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_step <= 1e-9 and elapsed < 60.0
    _verdict(
        2,
        f"20 instances x 100 sweeps, objective after every block update "
        f"non-increasing (worst step {worst_step:.2e}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_planted_recovery_and_noise_study():
    X, S, labels, _, _ = _planted()
    best = joint_nmf(X, S, FactorizeOptions(k=3, seed=0, trials=5))
    clean_f1 = _f1_against_planted(best.H, labels, 3)

    noise = np.random.default_rng(777)
    Xn = X + noise.uniform(0.0, 0.1, X.shape)
    Sn = S.copy()
    upper = np.triu_indices(S.shape[0])
    chosen = noise.random(len(upper[0])) < 0.10
    Sn[upper] += noise.uniform(-0.05, 0.05, len(upper[0])) * chosen
    Sn.T[upper] = Sn[upper]
    Sn = np.maximum(Sn, 0.0)

    joint_f1s, nmf_f1s, sym_f1s = [], [], []
    for seed in range(10):
        joint_f1s.append(
            _f1_against_planted(joint_nmf(Xn, Sn, FactorizeOptions(k=3, seed=seed)).H, labels, 3)
        )
        nmf_f1s.append(
            _f1_against_planted(nmf(Xn, FactorizeOptions(k=3, seed=seed)).H, labels, 3)
        )
        sym_f1s.append(
            _f1_against_planted(symnmf(Sn, FactorizeOptions(k=3, seed=seed)).H, labels, 3)
        )
    med_joint = float(np.median(joint_f1s))
    med_best_single = max(float(np.median(nmf_f1s)), float(np.median(sym_f1s)))
    ok = clean_f1 >= 0.95 and med_joint >= med_best_single - 0.02
    _verdict(
        3,
        f"planted recovery F1 {clean_f1:.3f} (best of 5 seeds); noisy medians "
        f"joint {med_joint:.3f} vs best single view {med_best_single:.3f}",
        ok,
    )


def test_criterion_4_zero_weight_joint_degenerates_to_nmf():
    rng = np.random.default_rng(11)
    X = rng.random((20, 2)) @ rng.random((2, 30))
    S = np.eye(30)
    worst = 0.0
    for seed in (0, 1, 2):
        plain = nmf(X, FactorizeOptions(k=2, seed=seed))
        joint = joint_nmf(X, S, FactorizeOptions(k=2, seed=seed, alpha=0.0, beta=0.0))
        assert len(plain.objective_history) == len(joint.objective_history)
        worst = max(
            worst,
            max(
                abs(a - b)
                for a, b in zip(plain.objective_history, joint.objective_history)
            ),
        )
    ok = worst <= 1e-9
    _verdict(4, f"alpha=beta=0 history matches plain factorization (max gap {worst:.2e})", ok)


def test_criterion_5_hypergraph_similarity_exact_and_symmetric():
    S, _ = similarity(hyperedges=id_pair([[0, 1], [1, 2], [2, 0]]), n=3)
    expect = 0.25 * np.ones((3, 3)) + 0.25 * np.eye(3)
    fixture_err = float(np.max(np.abs(S.toarray() - expect)))

    # the dual's edges are the vertices' membership lists
    hyperedges = [[0, 1], [1, 2, 3], [3]]
    members = [[j for j, e in enumerate(hyperedges) if v in e] for v in range(4)]
    dual_exact = (
        similarity(hyperedges=id_pair(hyperedges), n=3, dual=True)[0]
        != similarity(hyperedges=id_pair(members), n=3)[0]
    ).nnz == 0

    rng = np.random.default_rng(31415)
    worst_asym = worst_gap = 0.0
    built = 0
    while built < 50:
        n = int(rng.integers(2, 12))
        edges = [
            list(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            for _ in range(int(rng.integers(1, 8)))
        ]
        try:
            R = similarity(hyperedges=id_pair(edges), n=n)[0].toarray()
        except (EmptyGraph, ZeroDegree):
            # draws that leave a vertex uncovered don't count toward the 50
            continue
        worst_asym = max(worst_asym, float(np.max(np.abs(R - R.T))))
        expect, _ = dense_similarity(hyperedges=id_pair(edges), n=n)
        worst_gap = max(worst_gap, float(np.max(np.abs(R - expect))))
        built += 1
    ok = fixture_err <= 1e-14 and dual_exact and worst_asym <= 1e-14 and worst_gap <= 1e-14
    _verdict(
        5,
        f"triangle fixture error {fixture_err:.1e}, dual = membership lists exactly, "
        f"over 50 random hypergraphs worst asymmetry {worst_asym:.1e} and worst gap to "
        f"the dense formula {worst_gap:.1e}",
        ok,
    )


def test_criterion_6_metric_fixtures_and_brute_force():
    pred = [0, 1, 1, 1]
    truth = [{"a"}, {"a"}, {"b"}, {"b"}]
    f1 = average_f1(confusion(pred, truth, n_pred_clusters=2))
    s = labeling_scores(pred, truth)
    fixtures_ok = (
        abs(f1 - 11.0 / 15.0) <= 1e-12
        and (s["pwf1"], s["pwfpr"], s["pwfnr"]) == (0.4, 0.5, 0.5)
    )

    rng = np.random.default_rng(271828)
    brute_ok = True
    for _ in range(60):
        n = int(rng.integers(2, 9))
        p = rng.integers(0, 4, n).tolist()
        if rng.random() < 0.5:
            t = [{int(rng.integers(0, 3))} for _ in range(n)]
        else:
            t = [
                {int(v) for v in rng.choice(4, size=rng.integers(1, 4), replace=False)}
                for _ in range(n)
            ]
        pc = labeling_scores(p, t)
        tp = tn = fp = fn = 0
        for i in range(n):
            for j in range(i + 1, n):
                same = p[i] == p[j]
                conn = bool(t[i] & t[j])
                tp += same and conn
                fp += same and not conn
                fn += (not same) and conn
                tn += (not same) and (not conn)
        if (pc["tp"], pc["tn"], pc["fp"], pc["fn"]) != (tp, tn, fp, fn):
            brute_ok = False
            break
    ok = fixtures_ok and brute_ok
    _verdict(
        6,
        f"confusion/F1/pairwise fixtures exact (F1 {f1:.10f}); "
        f"pairwise counts match brute force on 60 cases up to n=8",
        ok,
    )


def test_criterion_7_roc_extremes_and_endpoints():
    fpr, tpr = roc_curve(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0], bool))
    perfect = abs(auc(fpr, tpr) - 1.0) <= 1e-9
    fpr, tpr = roc_curve(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0], bool))
    reversed_zero = abs(auc(fpr, tpr)) <= 1e-9

    rng = np.random.default_rng(161803)
    endpoints_ok = True
    for _ in range(30):
        n = int(rng.integers(2, 50))
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        flags = rng.random(n) < 0.4
        if flags.all() or not flags.any():
            flags[0], flags[-1] = True, False
        fpr, tpr = roc_curve(scores, flags)
        if not (fpr[0] == 0.0 and tpr[0] == 0.0 and fpr[-1] == 1.0 and tpr[-1] == 1.0):
            endpoints_ok = False
            break
    ok = perfect and reversed_zero and endpoints_ok
    _verdict(
        7,
        "AUC 1 on perfect separation, 0 on reversed scores, "
        "curve endpoints (0,0) and (1,1) on 30 random score sets",
        ok,
    )


def test_criterion_8_self_retrieval_and_duplicate_column():
    X, _, _, W_true, H_true = _planted()
    _, cosine = _scores(H_true, nls_bpp_gram(W_true.T @ W_true, W_true.T @ X))
    best = np.argmax(cosine, axis=1)
    hits = int(np.sum(best == np.arange(X.shape[1])))

    H = baseline_nmf2(X, 3, FactorizeOptions(k=3, seed=0), X[:, 7].copy())
    dup_cosine = float(_scores(H[:, :-1], H[:, -1:])[1][0, 7])
    ok = hits == X.shape[1] and dup_cosine >= 0.99
    _verdict(
        8,
        f"cosine self-retrieval {hits}/{X.shape[1]}; "
        f"duplicate-column coordinate cosine {dup_cosine:.4f}",
        ok,
    )


def test_criterion_9_manifest_replay_is_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(3), 8)
    W = np.zeros((30, 3))
    for c in range(3):
        W[c * 10:(c + 1) * 10, c] = 1.0
    H = np.zeros((3, 24))
    H[labels, np.arange(24)] = 1.0
    X = W @ H + 0.05 * rng.random((30, 24))
    write_matrix_market(tmp_path / "X.mtx", X)
    edges = []
    for c in range(3):
        idx = np.flatnonzero(labels == c)
        edges.extend(
            (int(idx[i]), int(idx[(i + 1) % len(idx)])) for i in range(len(idx))
        )
    (tmp_path / "edges.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in edges))
    (tmp_path / "truth.tsv").write_text(
        "".join(f"doc{i}\tc{l}\n" for i, l in enumerate(labels))
    )
    (tmp_path / "ids.txt").write_text("".join(f"doc{i}\n" for i in range(24)))

    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--doc-ids", str(tmp_path / "ids.txt"), "--truth", str(tmp_path / "truth.tsv"),
        "--k", "3", "--seed", "0", "--trials", "3", "--out-dir", str(first),
    ]) == 0
    assert main([
        "cluster", "--manifest", str(first / "manifest.tsv"), "--out-dir", str(again),
    ]) == 0
    compared = ["W.mtx", "H.mtx", "Htilde.mtx", "labels.tsv", "metrics.tsv"]
    identical = all(
        (first / name).read_bytes() == (again / name).read_bytes() for name in compared
    )
    _verdict(
        9,
        f"manifest replay reproduces {', '.join(compared)} byte for byte",
        identical,
    )
