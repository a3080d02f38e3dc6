"""Clustering evaluation: average F1, pairwise scores, ROC curves.

Labelings are positional: item i carries pred[i] and truth[i].
Predictions are hard (one label per item).  Truth may overlap, in
which case truth[i] is a set of labels; two items count as
truth-connected when their label sets intersect.  labeling_scores gives
every score of a labeling, and confusion and average_f1 the F1 alone.

Both the confusion matrix and the pairwise counts are read off one
sparse contingency table of predicted cluster x distinct truth label
set (Hubert & Arabie, Comparing partitions, 1985) and a sparse
label-set x label incidence: with k clusters and P pairs of
intersecting label sets, a labeling of n items costs O(n + k P) time
and memory, never O(n^2), and the counts stay exact for overlapping
truth.  Only the confusion counts are dense, k x (number of labels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DataError, DegenerateLabels, LabelMissing, UniverseMismatch
from .matrix import _int64, read_records, require_count

__all__ = [
    "ConfusionMatrix",
    "confusion",
    "average_f1",
    "labeling_scores",
    "roc_curve",
    "auc",
    "read_labels",
]


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # pred clusters x truth clusters, c_ij = |B_i and G_j|
    pred_sizes: np.ndarray
    truth_sizes: np.ndarray
    pred_labels: list
    truth_labels: list


def confusion(pred, truth, n_pred_clusters: int | None = None) -> ConfusionMatrix:
    """Intersection counts between hard predicted clusters and truth clusters.

    With n_pred_clusters given, a count (matrix.require_count), the
    predictions are integer cluster codes in [0, n_pred_clusters), which
    pass matrix's id rule (a code 0.5 is a ValueError, a code outside
    the range a DataError), and clusters that received no item
    still get a (zero) row, so empty clusters are visible to average_f1.
    """
    return _confusion(*_contingency(pred, truth, n_pred_clusters))


def _confusion(pred_labels, truth_labels, table, member) -> ConfusionMatrix:
    counts = (table @ member).toarray()
    return ConfusionMatrix(
        counts=counts,
        pred_sizes=table.sum(axis=1),
        truth_sizes=counts.sum(axis=0),
        pred_labels=pred_labels,
        truth_labels=truth_labels,
    )


def average_f1(C: ConfusionMatrix) -> float:
    """Symmetrized best-match F1 between the two clusterings.

    F1(i, j) = 2 c_ij / (|B_i| + |G_j|); each side averages its
    best match and the two averages are averaged.  Empty predicted
    clusters contribute 0 to their side.
    """
    c = C.counts.astype(np.float64)
    denom = C.pred_sizes[:, None] + C.truth_sizes[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(denom > 0, 2.0 * c / denom, 0.0)
    return 0.5 * (float(f1.max(axis=1).mean()) + float(f1.max(axis=0).mean()))


def labeling_scores(pred, truth, n_pred_clusters: int | None = None) -> dict:
    """A labeling's scores in report order, from one contingency table.

    average_f1 (counting, given n_pred_clusters, the clusters that
    received no item, as confusion does), then pwf1, pwfpr and pwfnr
    (None where the denominator is zero), then the pair counts tp, tn,
    fp and fn over every unordered item pair.  Predicted-connected
    means same hard cluster; truth-connected means intersecting label
    sets.
    """
    table = _contingency(pred, truth, n_pred_clusters)
    tp, tn, fp, fn = _pair_counts(*table)

    def ratio(num, den):
        return num / den if den > 0 else None

    return {"average_f1": average_f1(_confusion(*table)),
            "pwf1": ratio(2.0 * tp, 2.0 * tp + fn + fp),
            "pwfpr": ratio(float(fp), fp + tn),
            "pwfnr": ratio(float(fn), fn + tp),
            "tp": tp, "tn": tn, "fp": fp, "fn": fn}


def _pair_counts(pred_labels, truth_labels, table, member):
    # (tp, tn, fp, fn) over the unordered item pairs.  Counting ordered
    # pairs, self-pairs included, gives sum_p n_p^2 same-cluster pairs,
    # N^T L N truth-connected ones and sum_p t_p^T L t_p that are both,
    # where t_p is row p of the contingency table, N its column sums and
    # L[g, h] whether label sets g and h intersect; removing the n
    # self-pairs and halving leaves the unordered counts.  L is sparse,
    # one entry per intersecting pair, and every sum is exact int64
    n = int(table.sum())
    if n < 2:
        raise DataError("pairwise counts need at least 2 items")
    linked = member @ member.T  # shared labels per pair of sets, stored only where > 0
    linked.data[:] = 1
    N = table.sum(axis=0)
    tp = (int((table @ linked).multiply(table).sum()) - n) // 2
    same_pred = (int(np.sum(table.sum(axis=1) ** 2)) - n) // 2
    connected = (int(N @ (linked @ N)) - n) // 2
    return tp, n * (n - 1) // 2 - same_pred - connected + tp, same_pred - tp, connected - tp


def roc_curve(scores, truth) -> tuple[np.ndarray, np.ndarray]:
    """Sweep thresholds from +inf downward over the distinct scores.

    Returns (fpr, tpr) starting at (0, 0) and ending at (1, 1); tied
    scores enter or leave together, so ties share one point.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(truth, dtype=bool)
    if scores.ndim != 1 or scores.shape != flags.shape:
        raise UniverseMismatch(f"scores shape {scores.shape} vs truth {flags.shape}")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    pos = int(flags.sum())
    neg = flags.size - pos
    if pos == 0 or neg == 0:
        raise DegenerateLabels("need at least one positive and one negative pair")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    f = flags[order]
    tps = np.cumsum(f)
    fps = np.cumsum(~f)
    last_of_tie = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    fpr = np.concatenate(([0.0], fps[last_of_tie] / neg))
    tpr = np.concatenate(([0.0], tps[last_of_tie] / pos))
    return fpr, tpr


def auc(fpr, tpr) -> float:
    """Trapezoidal area under a roc_curve output."""
    return float(np.trapezoid(np.asarray(tpr), np.asarray(fpr)))


def read_labels(path) -> dict[str, set[str]]:
    """`item_id<TAB>label` lines; repeated items accumulate label sets."""
    out: dict[str, set[str]] = {}
    for item, label in read_records(path, fields=2, expect="`item_id<TAB>label`"):
        out.setdefault(item, set()).add(label)
    return out


def _contingency(pred, truth, n_pred_clusters=None):
    """Encode a labeling once.

    Returns (pred_labels, truth_labels, table, member): table[p, g]
    counts the items of predicted cluster p whose truth label set is
    the g-th distinct one, and member[g, l] is 1 when label l is in set
    g.  Both are int64 CSR arrays.
    """
    pred = list(pred)
    truth_sets = _as_sets(truth)
    if len(pred) != len(truth_sets):
        raise UniverseMismatch(
            f"{len(pred)} predicted items vs {len(truth_sets)} truth items"
        )
    if not pred:
        raise UniverseMismatch("empty labelings")

    if n_pred_clusters is not None:
        require_count(n_pred_clusters, "n_pred_clusters")
        codes = _int64(pred, "cluster code")
        if codes.min() < 0 or codes.max() >= n_pred_clusters:
            raise DataError("prediction label outside [0, n_pred_clusters)")
        pred_labels = list(range(n_pred_clusters))
    else:
        pred_labels, codes = np.unique(np.asarray(pred, dtype=object), return_inverse=True)
        pred_labels = list(pred_labels)

    set_code: dict[frozenset, int] = {}
    gcodes = np.array([set_code.setdefault(s, len(set_code)) for s in truth_sets], dtype=np.int64)
    truth_labels = sorted({lab for s in set_code for lab in s}, key=_label_key)
    tcode = {lab: j for j, lab in enumerate(truth_labels)}
    set_of = [g for g, s in enumerate(set_code) for _ in s]
    label_of = [tcode[lab] for s in set_code for lab in s]
    member = _counts(set_of, label_of, (len(set_code), len(truth_labels)))
    table = _counts(codes, gcodes, (len(pred_labels), len(set_code)))
    return pred_labels, truth_labels, table, member


def _counts(rows, cols, shape):
    # CSR array whose (i, j) entry counts the occurrences of the pair
    ones = np.ones(len(rows), dtype=np.int64)
    return sparse.csr_array((ones, (rows, cols)), shape=shape)


def _as_sets(truth) -> list[frozenset]:
    sets = []
    for i, lab in enumerate(truth):
        if isinstance(lab, (set, frozenset, list, tuple)):
            s = frozenset(lab)
        else:
            s = frozenset((lab,))
        if not s:
            raise LabelMissing(f"item {i} has no label")
        sets.append(s)
    return sets


def _label_key(lab):
    # stable ordering for mixed label types
    return (str(type(lab).__name__), str(lab))
