"""Seeded planted inputs for the benchmark workloads.

Every input is drawn from one seed, so the same seed writes the same
bytes.  Documents come from K planted topics: each token is drawn from
the document's own topic, from one secondary topic per document, or from
a shared Zipf background, and citations go to a same-topic document
only with some probability.  Both kinds of noise keep the planted
recovery F1 and the AUCs below 1, so a quality regression can show.

    python3 perfbench/gen.py --workload solve-k10 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
from scipy import sparse

K = 10

# Sizes per workload.  solve-k10 is the ROADMAP "M case" (m=3000,
# n=5000, nnz(X) about 196k, nnz(S) about 50k).  The corpus appends
# short, duplicate and unconnected documents to n_docs main ones.
SOLVE = dict(n_docs=5000, n_terms=3000, doc_len=44, cites=5)
CORPUS = dict(n_docs=6000, n_terms=4000, doc_len=90, cites=5,
              n_short=150, n_dup=150, n_outside=150)
RECOMMEND = dict(n_train=300, n_test=8, n_terms=500, doc_len=80, cites=5,
                 test_cites=24, test_same=0.8)

# Token sources: own topic, secondary topic, background (the rest).
# With this much signal the anchors move little between seeds (planted
# F1 and AUC quartiles within 4% of their median over ten seeds).
P_TOPIC = 0.5
P_SECOND = 0.15
TOPIC_TERMS = 300
P_SAME_TOPIC_CITE = 0.8


def _cluster_sizes(n, k):
    # fixed, unequal proportions so the seed changes content, not shape
    w = np.linspace(1.5, 0.5, k)
    sizes = np.floor(n * w / w.sum()).astype(np.int64)
    sizes[: n - sizes.sum()] += 1
    return sizes


def _topics(rng, n_terms, k):
    ranks = np.arange(1, n_terms + 1, dtype=np.float64)
    bg = (1.0 / ranks)[rng.permutation(n_terms)]
    bg /= bg.sum()
    topics = np.zeros((k, n_terms))
    weights = 1.0 / np.arange(1, TOPIC_TERMS + 1) ** 0.8
    for c in range(k):
        idx = rng.choice(n_terms, TOPIC_TERMS, replace=False)
        topics[c, idx] = weights / weights.sum()
    return bg, topics


def _draw(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _documents(rng, labels, bg, topics, doc_len):
    """Integer counts, terms x docs, as a CSC array."""
    n = labels.size
    k, n_terms = topics.shape
    second = (labels + rng.integers(1, k, n)) % k
    # at least 12 tokens: no document drops under preprocess's default
    # minimum length (5) once rare terms are removed
    lengths = np.maximum(rng.poisson(doc_len, n), 12)
    doc = np.repeat(np.arange(n), lengths)
    u = rng.random(doc.size)
    src = rng.random(doc.size)
    topic = np.where(src < P_TOPIC, labels[doc],
                     np.where(src < P_TOPIC + P_SECOND, second[doc], -1))
    tokens = np.empty(doc.size, dtype=np.int64)
    for c in range(k):
        m = topic == c
        tokens[m] = _draw(np.cumsum(topics[c]), u[m])
    m = topic == -1
    tokens[m] = _draw(np.cumsum(bg), u[m])
    return _count_matrix(tokens, doc, n_terms, n)


def _count_matrix(terms, docs, n_terms, n_docs):
    ones = np.ones(terms.size, dtype=np.int64)
    m = sparse.coo_array((ones, (terms, docs)), shape=(n_terms, n_docs)).tocsc()
    m.sum_duplicates()
    return m


def _citations(rng, labels, per_doc):
    """Directed edges over positions 0..n-1; the graph is connected.

    Each topic gets a random recursive tree, the trees are chained, and
    every document adds per_doc - 1 citations that stay in its topic
    with probability P_SAME_TOPIC_CITE.
    """
    n = labels.size
    k = int(labels.max()) + 1
    members = [np.flatnonzero(labels == c) for c in range(k)]
    src, dst = [], []
    for idx in members:
        order = rng.permutation(idx)
        # the i-th document of the order cites one of the i before it
        parents = order[(rng.random(order.size - 1) * np.arange(1, order.size)).astype(np.int64)]
        src.append(order[1:])
        dst.append(parents)
    heads = np.array([m[0] for m in members])
    src.append(heads[1:])
    dst.append(heads[:-1])
    extra_src = np.repeat(np.arange(n), per_doc - 1)
    same = rng.random(extra_src.size) < P_SAME_TOPIC_CITE
    extra_dst = rng.integers(0, n, extra_src.size)
    for c, idx in enumerate(members):
        m = same & (labels[extra_src] == c)
        extra_dst[m] = idx[rng.integers(0, idx.size, int(m.sum()))]
    src.append(extra_src)
    dst.append(extra_dst)
    return np.concatenate(src), np.concatenate(dst)


def _tfidf_normalized(counts):
    n = counts.shape[1]
    df = np.bincount(counts.indices, minlength=counts.shape[0])
    idf = np.zeros(counts.shape[0])
    idf[df > 0] = np.log(n / df[df > 0])
    X = sparse.csc_array(sparse.diags_array(idf) @ counts.astype(np.float64))
    norms = np.sqrt(X.multiply(X).sum(axis=0))
    return sparse.csc_array(X @ sparse.diags_array(1.0 / norms))


def _labels(n):
    return np.repeat(np.arange(K), _cluster_sizes(n, K))


def _write_mtx(path, m, field="real"):
    m = sparse.csc_array(m)
    m.sum_duplicates()
    m.sort_indices()
    cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
    spec = ".17g" if field == "real" else "d"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"{m.shape[0]} {m.shape[1]} {m.nnz}\n")
        for r, c, v in zip(m.indices + 1, cols + 1, m.data.tolist()):
            fh.write(f"{r} {c} {v:{spec}}\n")


def _write_edges(path, src, dst):
    np.savetxt(path, np.column_stack([src, dst]), fmt="%d", delimiter="\t")


def _write_lines(path, lines):
    Path(path).write_text("".join(f"{s}\n" for s in lines))


def make_solve(seed, out):
    """X.mtx (tf-idf, unit columns), edges.tsv, truth.tsv (position, label)."""
    p = SOLVE
    rng = np.random.default_rng([seed, 1])
    labels = _labels(p["n_docs"])
    bg, topics = _topics(rng, p["n_terms"], K)
    counts = _documents(rng, labels, bg, topics, p["doc_len"])
    src, dst = _citations(rng, labels, p["cites"])
    _write_mtx(out / "X.mtx", _tfidf_normalized(counts))
    _write_edges(out / "edges.tsv", src, dst)
    _write_lines(out / "truth.tsv", [f"{i}\tc{c}" for i, c in enumerate(labels)])


def make_corpus(seed, out):
    """Raw corpus with short, duplicate and unconnected documents.

    Main documents come first, so every duplicate follows its original.
    truth.tsv labels only the main documents, which are exactly the
    ones preprocess keeps with its default thresholds.
    """
    p = CORPUS
    rng = np.random.default_rng([seed, 2])
    labels = _labels(p["n_docs"])
    n_main = labels.size
    bg, topics = _topics(rng, p["n_terms"], K)
    main = _documents(rng, labels, bg, topics, p["doc_len"])
    src, dst = _citations(rng, labels, p["cites"])

    # short documents: two tokens, citing main documents
    short = _count_matrix(
        rng.integers(0, p["n_terms"], 2 * p["n_short"]),
        np.repeat(np.arange(p["n_short"]), 2), p["n_terms"], p["n_short"],
    )
    dup = main[:, rng.integers(0, n_main, p["n_dup"])]
    outside_labels = rng.integers(0, K, p["n_outside"])
    outside = _documents(rng, outside_labels, bg, topics, p["doc_len"])
    counts = sparse.hstack([main, short, dup, outside], format="csc")

    short_pos = n_main + np.arange(p["n_short"])
    dup_pos = short_pos[-1] + 1 + np.arange(p["n_dup"])
    out_pos = dup_pos[-1] + 1 + np.arange(p["n_outside"])
    # unconnected documents: pairs citing each other, the rest isolated
    pairs = out_pos[: 2 * (out_pos.size // 4)].reshape(-1, 2)
    src = np.concatenate([src, short_pos, dup_pos, pairs[:, 0]])
    dst = np.concatenate([
        dst,
        rng.integers(0, n_main, short_pos.size),
        rng.integers(0, n_main, dup_pos.size),
        pairs[:, 1],
    ])

    ids = [f"doc{j:05d}" for j in rng.permutation(counts.shape[1])]
    _write_mtx(out / "counts.mtx", counts, field="integer")
    _write_lines(out / "vocab.txt", [f"term{i:04d}" for i in range(p["n_terms"])])
    _write_lines(out / "ids.txt", ids)
    _write_edges(out / "edges.tsv", src, dst)
    _write_lines(out / "truth.tsv", [f"{ids[j]}\tc{labels[j]}" for j in range(n_main)])


def make_recommend(seed, out):
    """Train/test split with held-out test-to-train citations."""
    p = RECOMMEND
    rng = np.random.default_rng([seed, 3])
    n_train, n_test = p["n_train"], p["n_test"]
    train_labels = _labels(n_train)
    test_labels = np.arange(n_test) % K
    bg, topics = _topics(rng, p["n_terms"], K)
    counts = _documents(
        rng, np.concatenate([train_labels, test_labels]), bg, topics, p["doc_len"]
    )
    X = _tfidf_normalized(counts)
    src, dst = _citations(rng, train_labels, p["cites"])

    cites = []
    for t, c in enumerate(test_labels):
        same = np.flatnonzero(train_labels == c)
        n_same = min(int(round(p["test_cites"] * p["test_same"])), same.size)
        picks = np.concatenate([
            rng.choice(same, n_same, replace=False),
            rng.choice(n_train, p["test_cites"] - n_same, replace=False),
        ])
        cites.extend((t, int(j)) for j in np.unique(picks))

    _write_mtx(out / "train_X.mtx", X[:, :n_train])
    _write_mtx(out / "test_X.mtx", X[:, n_train:])
    _write_lines(out / "train_ids.txt", [f"tr{j:04d}" for j in range(n_train)])
    _write_lines(out / "test_ids.txt", [f"te{t:02d}" for t in range(n_test)])
    _write_edges(out / "train_edges.tsv", src, dst)
    _write_lines(out / "citations.tsv", [f"te{t:02d}\ttr{j:04d}" for t, j in cites])


MAKERS = {"solve-k10": make_solve, "corpus-cli": make_corpus, "recommend-cli": make_recommend}


def generate(workload, seed, out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    MAKERS[workload](seed, out)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
