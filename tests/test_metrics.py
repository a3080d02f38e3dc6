"""Clustering metrics: confusion, F1 family, pairwise counts, ROC."""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointnmf import metrics
from jointnmf.errors import DataError, DegenerateLabels, LabelMissing, UniverseMismatch
from jointnmf.matrix import write_records
from jointnmf.metrics import (
    auc,
    average_f1,
    confusion,
    labeling_scores,
    read_labels,
    roc_curve,
)


def brute_force_pairwise(pred, truth_sets):
    n = len(pred)
    tp = tn = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_pred = pred[i] == pred[j]
            connected = bool(truth_sets[i] & truth_sets[j])
            if same_pred and connected:
                tp += 1
            elif same_pred and not connected:
                fp += 1
            elif not same_pred and connected:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn


def pair_counts(pred, truth):
    """(tp, tn, fp, fn) as labeling_scores reports them."""
    s = labeling_scores(pred, truth)
    return s["tp"], s["tn"], s["fp"], s["fn"]


# ---------------------------------------------------------------------------
# confusion and average F1


def test_confusion_fixture():
    pred = [0, 1, 1, 1]
    truth = [{"a"}, {"a"}, {"b"}, {"b"}]
    cm = confusion(pred, truth, n_pred_clusters=2)
    assert cm.counts.tolist() == [[1, 0], [1, 2]]
    assert cm.pred_sizes.tolist() == [1, 3]
    assert cm.truth_sizes.tolist() == [2, 2]
    assert abs(average_f1(cm) - 11.0 / 15.0) <= 1e-12


def test_average_f1_single_cluster_fixture():
    cm = confusion([0, 0, 0, 0], [{"a"}, {"a"}, {"b"}, {"b"}], n_pred_clusters=1)
    assert abs(average_f1(cm) - 2.0 / 3.0) <= 1e-12


def test_average_f1_perfect():
    cm = confusion([0, 0, 1, 1], [{"x"}, {"x"}, {"y"}, {"y"}], n_pred_clusters=2)
    assert average_f1(cm) == 1.0


def test_confusion_counts_overlapping_truth():
    cm = confusion([0, 1], [{"a", "b"}, {"b"}], n_pred_clusters=2)
    assert cm.counts.tolist() == [[1, 1], [0, 1]]


def test_empty_pred_cluster_contributes_zero_f1():
    cm = confusion([0, 0], [{"a"}, {"a"}], n_pred_clusters=2)
    assert cm.counts.tolist() == [[2], [0]]
    # row maxes: (1, 0) -> mean 0.5; col max 1 -> average 0.75
    assert abs(average_f1(cm) - 0.75) <= 1e-12


def test_confusion_rejects_mismatched_or_empty_input():
    with pytest.raises(UniverseMismatch):
        confusion([0, 1], [{"a"}])
    with pytest.raises(UniverseMismatch):
        confusion([], [])
    with pytest.raises(DataError):
        confusion([0, 5], [{"a"}, {"a"}], n_pred_clusters=2)


def test_confusion_without_explicit_cluster_count():
    cm = confusion(["u", "v", "v"], [{"a"}, {"a"}, {"b"}])
    assert cm.counts.shape == (2, 2)
    assert cm.counts.sum() == 3


# ---------------------------------------------------------------------------
# pairwise counts and scores


def test_pairwise_fixture():
    pred = [0, 1, 1, 1]
    truth = [{"a"}, {"a"}, {"b"}, {"b"}]
    assert pair_counts(pred, truth) == (1, 2, 2, 1)
    s = labeling_scores(pred, truth)
    assert s["pwf1"] == 0.4
    assert s["pwfpr"] == 0.5
    assert s["pwfnr"] == 0.5


def test_pairwise_totals():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        pred = rng.integers(0, 3, n).tolist()
        truth = [{int(x) for x in rng.integers(0, 3, rng.integers(1, 3))} for _ in range(n)]
        assert sum(pair_counts(pred, truth)) == n * (n - 1) // 2


def test_pairwise_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        pred = rng.integers(0, 4, n).tolist()
        if rng.random() < 0.5:
            truth = [{int(rng.integers(0, 3))} for _ in range(n)]
        else:
            truth = [
                {int(x) for x in rng.choice(4, size=rng.integers(1, 4), replace=False)}
                for _ in range(n)
            ]
        assert pair_counts(pred, truth) == brute_force_pairwise(pred, truth)


@st.composite
def labelings(draw):
    # hard predictions and possibly overlapping truth sets, each side
    # drawn from int or str labels
    n = draw(st.integers(2, 40))
    pred_pool = draw(st.sampled_from([list(range(4)), ["p", "q", "r", "s"]]))
    truth_pool = draw(st.sampled_from([list(range(5)), ["a", "b", "c", "d", "e"]]))
    pred = draw(st.lists(st.sampled_from(pred_pool), min_size=n, max_size=n))
    truth = draw(st.lists(
        st.frozensets(st.sampled_from(truth_pool), min_size=1, max_size=3),
        min_size=n, max_size=n,
    ))
    return pred, truth


@settings(max_examples=200)
@given(labelings())
def test_counts_match_per_item_and_per_pair_references(labeling):
    pred, truth = labeling
    pc = pair_counts(pred, truth)
    assert pc == brute_force_pairwise(pred, truth)
    assert sum(pc) == len(pred) * (len(pred) - 1) // 2

    per_item = Counter((p, lab) for p, s in zip(pred, truth) for lab in s)
    given_k = [{}] if isinstance(pred[0], str) else [{}, {"n_pred_clusters": 4}]
    for kw in given_k:
        cm = confusion(pred, truth, **kw)
        cells = {
            (p, t): int(cm.counts[i, j])
            for i, p in enumerate(cm.pred_labels)
            for j, t in enumerate(cm.truth_labels)
            if cm.counts[i, j]
        }
        assert cells == per_item
        sizes = Counter(pred)
        assert cm.pred_sizes.tolist() == [sizes[p] for p in cm.pred_labels]
        labels = Counter(lab for s in truth for lab in s)
        assert cm.truth_sizes.tolist() == [labels[t] for t in cm.truth_labels]


def test_pairwise_counts_memory_is_not_quadratic():
    rng = np.random.default_rng(44)
    n = 5000
    pred = rng.integers(0, 10, n).tolist()
    truth = [{int(a), int(b)} for a, b in rng.integers(0, 10, (n, 2))]
    tracemalloc.start()
    try:
        labeling_scores(pred, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_counts_follow_linked_set_pairs_not_distinct_sets_squared():
    # every item has its own label set {l_i, l_i+1}, so there are n distinct
    # sets but only about 3n intersecting pairs; a dense sets x sets product
    # took 13 s and 65 MiB here
    n = 2000
    pred = [i % 10 for i in range(n)]
    truth = [{f"l{i}", f"l{i + 1}"} for i in range(n)]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        cm = confusion(pred, truth, n_pred_clusters=10)
        tp, _, fp, fn = pair_counts(pred, truth)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # neighbours i, i+1 share a label and never a cluster
    assert (tp, fn, fp) == (0, n - 1, 10 * (200 * 199 // 2))
    assert cm.counts.shape == (10, n + 1) and cm.counts.sum() == 2 * n
    assert seconds < 2.0
    assert peak < 8 * 2**20


def test_pairwise_undefined_scores_are_none():
    # all pairs truth-connected: TN + FP = 0 so the false positive rate
    # has an empty denominator
    s = labeling_scores([0, 1], [{"a"}, {"a"}])
    assert s["pwfpr"] is None
    assert s["pwfnr"] == 1.0
    # nothing truth-connected: FN + TP = 0
    s2 = labeling_scores([0, 0], [{"a"}, {"b"}])
    assert s2["pwfnr"] is None
    assert s2["pwfpr"] == 1.0
    # no positive calls anywhere: PWF1 denominator empty
    assert labeling_scores([0, 1], [{"a"}, {"b"}])["pwf1"] is None


def test_pairwise_needs_two_items():
    with pytest.raises(DataError):
        labeling_scores([0], [{"a"}])


def test_an_item_without_a_truth_label_is_label_missing():
    # an empty label set names no truth cluster, through either entry
    with pytest.raises(LabelMissing, match="^item 1 has no label$"):
        confusion([0, 1], [{"a"}, set()])
    with pytest.raises(LabelMissing, match="^item 1 has no label$"):
        labeling_scores(["x", "y"], [["a"], []])


def test_labeling_scores_read_one_contingency_table(monkeypatch):
    # cluster --truth and eval encode each labeling once, and the scores
    # equal those of the public confusion and of counting every pair
    calls = []
    contingency = metrics._contingency
    monkeypatch.setattr(metrics, "_contingency",
                        lambda *a: calls.append(a) or contingency(*a))
    pred = [0, 2, 2, 1, 0, 2, 0]
    truth = ["a", {"a", "b"}, "b", "c", "a", "b", "c"]
    scores = labeling_scores(pred, truth, 4)
    assert len(calls) == 1
    tp, tn, fp, fn = brute_force_pairwise(pred, [{t} if isinstance(t, str) else t for t in truth])
    assert list(scores.items()) == [
        ("average_f1", average_f1(confusion(pred, truth, n_pred_clusters=4))),
        ("pwf1", 2.0 * tp / (2.0 * tp + fn + fp)), ("pwfpr", fp / (fp + tn)),
        ("pwfnr", fn / (fn + tp)),
        ("tp", tp), ("tn", tn), ("fp", fp), ("fn", fn),
    ]


# ---------------------------------------------------------------------------
# ROC and AUC


def test_roc_perfect_separation():
    fpr, tpr = roc_curve(np.array([0.9, 0.1]), np.array([True, False]))
    assert fpr.tolist() == [0.0, 0.0, 1.0]
    assert tpr.tolist() == [0.0, 1.0, 1.0]
    assert abs(auc(fpr, tpr) - 1.0) <= 1e-9


def test_roc_reversed_scores():
    fpr, tpr = roc_curve(np.array([0.1, 0.9]), np.array([True, False]))
    assert fpr.tolist() == [0.0, 1.0, 1.0]
    assert tpr.tolist() == [0.0, 0.0, 1.0]
    assert abs(auc(fpr, tpr)) <= 1e-9


def test_roc_tied_scores_share_one_point():
    fpr, tpr = roc_curve(np.array([0.5, 0.5]), np.array([True, False]))
    assert fpr.tolist() == [0.0, 1.0]
    assert tpr.tolist() == [0.0, 1.0]
    assert abs(auc(fpr, tpr) - 0.5) <= 1e-12


def test_roc_endpoints_on_random_scores():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        scores = rng.random(n)
        truth = rng.random(n) < 0.5
        if truth.all() or not truth.any():
            truth[0] = True
            truth[-1] = False
        fpr, tpr = roc_curve(scores, truth)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0.0) and np.all(np.diff(tpr) >= 0.0)
        distinct = len(np.unique(scores))
        assert len(fpr) == distinct + 1


def test_roc_rejects_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        roc_curve(np.array([0.1, 0.2]), np.array([True, True]))
    with pytest.raises(DegenerateLabels):
        roc_curve(np.array([0.1, 0.2]), np.array([False, False]))


def test_roc_rejects_bad_input():
    with pytest.raises(UniverseMismatch):
        roc_curve(np.array([0.1]), np.array([True, False]))
    with pytest.raises(DataError):
        roc_curve(np.array([np.nan, 0.2]), np.array([True, False]))


def test_auc_trapezoid_value():
    fpr = np.array([0.0, 0.5, 1.0])
    tpr = np.array([0.0, 1.0, 1.0])
    assert abs(auc(fpr, tpr) - 0.75) <= 1e-12


# ---------------------------------------------------------------------------
# label file IO


def test_label_file_round_trip(tmp_path):
    path = tmp_path / "labels.tsv"
    write_records(path, ["d0", "d1"], [0, 1])
    m = read_labels(path)
    assert m == {"d0": {"0"}, "d1": {"1"}}


def test_read_labels_accumulates_multilabels(tmp_path):
    path = tmp_path / "multi.tsv"
    path.write_text("d0\ta\nd0\tb\nd1\ta\n")
    m = read_labels(path)
    assert m == {"d0": {"a", "b"}, "d1": {"a"}}


def test_read_labels_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only-one-field\n")
    with pytest.raises(DataError):
        read_labels(path)
