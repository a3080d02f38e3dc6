"""Command line front door.

Subcommands: preprocess, cluster, eval, recommend, hypergraph-sim,
topics.  Exit codes: 0 success, 1 usage, 2 data problem, 3 numerical
failure.  Each subparser is the one list of its command's parameters:
every command that writes artifacts also writes a manifest.tsv with
each of its options, and `cluster --manifest` reads one back through
the same option types and reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

from . import factorize, graph, metrics, textprep
from .errors import DataError, NumericalError, UniverseMismatch
from .matrix import as_dense, read_matrix_market, require_nonnegative, write_matrix_market
from .nls import nls_bpp
from .recommend import (
    baseline_shared_words,
    _nmf2_coordinates,
    fit_recommender,
    recommend as recommend_above,
    score_cosine,
    score_inner,
)
from .textprep import top_terms

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jointnmf",
        description="Hybrid clustering and citation recommendation by joint NMF",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("preprocess", help="filter counts, tf-idf, normalize, align with graph")
    pp.add_argument("--vocab", required=True, type=_path, help="one term per line")
    pp.add_argument("--doc-ids", required=True, type=_path, help="one document id per line")
    pp.add_argument("--counts", required=True, type=_path,
                    help="Matrix Market term-document counts")
    pp.add_argument("--edges", type=_path,
                    help="citation edge list, src<TAB>dst, 0-based doc positions")
    pp.add_argument("--hyperedges", type=_path,
                    help="one hyperedge per line, whitespace-separated vertex ids")
    pp.add_argument("--dual", action="store_true", help="documents are the hyperedges (dual hypergraph)")
    pp.add_argument("--raw-adjacency", action="store_true", help="skip degree normalization of S")
    pp.add_argument("--min-term-df", type=int, default=textprep.DEFAULT_MIN_TERM_DF)
    pp.add_argument("--min-doc-len", type=int, default=textprep.DEFAULT_MIN_DOC_LEN)
    pp.add_argument("--keep-duplicates", action="store_true", help="skip duplicate-column removal")
    pp.add_argument("--out-dir", required=True)
    pp.set_defaults(func=_cmd_preprocess, parser=pp)

    pc = sub.add_parser("cluster", help="factorize and write factors, labels, metrics")
    pc.add_argument("--method", choices=("joint", "nmf", "symnmf"), default="joint")
    pc.add_argument("--x", type=_path, help="Matrix Market term-document matrix")
    pc.add_argument("--similarity", type=_path, help="Matrix Market similarity matrix")
    pc.add_argument("--edges", type=_path, help="edge list to build similarity from")
    pc.add_argument("--hyperedges", type=_path, help="hyperedge file to build similarity from")
    pc.add_argument("--dual", action="store_true")
    pc.add_argument("--raw-adjacency", action="store_true",
                    help="use the raw 0/1 adjacency instead of D^-1/2 A D^-1/2")
    pc.add_argument("--doc-ids", type=_path)
    pc.add_argument("--truth", type=_path,
                    help="item_id<TAB>label ground truth for the metrics report")
    _factor_flags(pc)
    pc.add_argument("--manifest", help="replay a previous run's manifest.tsv")
    pc.add_argument("--out-dir", required=True)
    pc.set_defaults(func=_cmd_cluster, parser=pc)

    pe = sub.add_parser("eval", help="score a predicted labeling against ground truth")
    pe.add_argument("--pred", required=True, type=_path)
    pe.add_argument("--truth", required=True, type=_path)
    pe.add_argument("--out-dir")
    pe.set_defaults(func=_cmd_eval, parser=pe)

    pr = sub.add_parser("recommend", help="citation recommendation with baselines")
    pr.add_argument("--train-x", required=True, type=_path)
    pr.add_argument("--train-ids", required=True, type=_path)
    pr.add_argument("--similarity", type=_path, help="prebuilt similarity over training docs")
    pr.add_argument("--edges", type=_path, help="training citation edges; raw adjacency is used")
    pr.add_argument("--test-x", required=True, type=_path)
    pr.add_argument("--test-ids", required=True, type=_path)
    pr.add_argument("--citations", required=True, type=_path,
                    help="held-out truth, test_id<TAB>train_id")
    pr.add_argument("--threshold", type=float, default=0.0,
                    help="recommend train docs scoring strictly above this")
    _factor_flags(pr)
    pr.add_argument("--out-dir", required=True)
    pr.set_defaults(func=_cmd_recommend, parser=pr)

    ph = sub.add_parser("hypergraph-sim", help="similarity matrix from a hyperedge file")
    ph.add_argument("--hyperedges", required=True, type=_path)
    ph.add_argument("--dual", action="store_true")
    ph.add_argument("--n-vertices", type=int)
    ph.add_argument("--out-dir", required=True)
    ph.set_defaults(func=_cmd_hypergraph_sim, parser=ph)

    pt = sub.add_parser("topics", help="top terms per cluster from a basis matrix")
    pt.add_argument("--w", required=True, type=_path, help="Matrix Market basis W")
    pt.add_argument("--vocab", required=True, type=_path)
    pt.add_argument("--top-terms", type=int, default=5)
    pt.add_argument("--out-dir")
    pt.set_defaults(func=_cmd_topics, parser=pt)

    return p


def _factor_flags(p):
    p.add_argument("--k", type=int, help="number of clusters / factors")
    p.add_argument("--alpha", type=float, default=None, help="similarity weight (default: auto)")
    p.add_argument("--beta", type=float, default=None, help="tether weight (default: auto)")
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)


def _options(args) -> factorize.FactorizeOptions:
    return factorize.FactorizeOptions(
        k=args.k, alpha=args.alpha, beta=args.beta, max_sweeps=args.max_sweeps,
        rel_tol=args.tol, seed=args.seed, trials=args.trials,
    )


def _path(value):
    # the type of every input path option: resolved once, at parse time,
    # so the command and its manifest name the same absolute file; an
    # empty value stays empty, which the commands read as not given
    return str(Path(value).resolve()) if value else value


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# subcommands


def _cmd_preprocess(args) -> int:
    corpus = textprep.read_corpus(args.vocab, args.doc_ids, args.counts)
    n_orig = len(corpus.doc_ids)
    filtered, report = textprep.filter_corpus(
        corpus, args.min_term_df, args.min_doc_len, dedupe=not args.keep_duplicates
    )
    X = textprep.normalize_columns(textprep.tfidf(filtered))

    pos_of = {doc: i for i, doc in enumerate(corpus.doc_ids)}
    positions = np.array([pos_of[d] for d in filtered.doc_ids], dtype=np.int64)

    S = None
    outside_lcc: list[str] = []
    doc_ids = filtered.doc_ids
    if args.edges and args.hyperedges:
        raise ValueError("give either --edges or --hyperedges, not both")
    if args.edges:
        g = graph.symmetrize(graph.read_edge_list(args.edges), n_vertices=n_orig)
        g = graph.induce_subgraph(g, positions)
        lcc = graph.largest_connected_component(g)
        outside_lcc = _outside(doc_ids, lcc)
        g = graph.induce_subgraph(g, lcc)
        S = g.adjacency if args.raw_adjacency else graph.normalized_adjacency(g)
        doc_ids = [doc_ids[i] for i in lcc]
        X = X[:, lcc]
    elif args.hyperedges:
        hg = graph.hypergraph_from_edges(graph.read_hyperedges(args.hyperedges))
        if args.dual:
            hg = graph.dual_hypergraph(hg)
        if hg.n_vertices != n_orig:
            raise DataError(
                f"hypergraph has {hg.n_vertices} document vertices but corpus has {n_orig}"
            )
        sub, _ = graph.induce_subhypergraph(hg, positions)
        lcc_v, lcc_e = graph.largest_connected_component(sub)
        outside_lcc = _outside(doc_ids, lcc_v)
        final, _ = graph.induce_subhypergraph(sub, lcc_v, lcc_e)
        S = graph.hypergraph_similarity(final)
        doc_ids = [doc_ids[i] for i in lcc_v]
        X = X[:, lcc_v]

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_market(out / "X.mtx", X)
    _write_lines(out / "vocab.txt", filtered.vocab)
    _write_lines(out / "doc_ids.txt", doc_ids)
    if S is not None:
        write_matrix_market(out / "S.mtx", S)
    with open(out / "report.txt", "w") as fh:
        fh.write(f"terms_removed\t{len(report.removed_terms)}\n")
        fh.write(f"short_docs_removed\t{len(report.short_docs)}\n")
        fh.write(f"duplicate_docs_removed\t{len(report.duplicate_docs)}\n")
        fh.write(f"docs_outside_component\t{len(outside_lcc)}\n")
        for term in report.removed_terms:
            fh.write(f"term\t{term}\n")
        for d in report.short_docs:
            fh.write(f"short\t{d}\n")
        for d in report.duplicate_docs:
            fh.write(f"duplicate\t{d}\n")
        for d in outside_lcc:
            fh.write(f"outside\t{d}\n")
    _write_manifest(out / "manifest.tsv", args)
    print(f"kept {X.shape[0]} terms x {X.shape[1]} documents -> {out}")
    return 0


def _cmd_cluster(args) -> int:
    if args.manifest:
        stored = _read_manifest(args.manifest)
        if stored.get("command") != "cluster":
            raise DataError(f"{args.manifest} is not a cluster manifest")
        # every option reads back through its own parser action; "-" and
        # a missing key mean the option was not given
        for action in _manifest_actions(args):
            raw = stored.get(action.dest, "-")
            if raw == "-":
                value = action.default
            elif action.nargs == 0:  # a flag
                value = raw == "1"
            else:
                value = action.type(raw) if action.type else raw
            setattr(args, action.dest, value)
    if args.k is None:
        raise ValueError("--k is required")

    method = args.method
    X = read_matrix_market(args.x) if args.x else None
    if method in ("joint", "nmf") and X is None:
        raise ValueError(f"method {method} needs --x")
    need_s = method in ("joint", "symnmf")
    S = _load_similarity(args, X.shape[1] if X is not None else None) if need_s else None
    if need_s and S is None:
        raise ValueError(f"method {method} needs --similarity, --edges, or --hyperedges")

    n = X.shape[1] if X is not None else S.shape[0]
    doc_ids = _read_lines(args.doc_ids) if args.doc_ids else [str(i) for i in range(n)]
    if len(doc_ids) != n:
        raise DataError(f"{len(doc_ids)} doc ids for {n} documents")

    truth_sets = None
    if args.truth:
        truth_sets = _aligned_truth(metrics.read_labels(args.truth), doc_ids)

    opts = _options(args)
    if method == "joint":
        res = factorize.joint_nmf(X, S, opts)
    elif method == "nmf":
        res = factorize.nmf(X, opts)
    else:
        res = factorize.symnmf(S, opts)

    rows = []
    for t, run in enumerate(res.trials):
        row = {"trial": t, "seed": run.seed_used, "objective": run.objective_history[-1]}
        if truth_sets is not None:
            labels = factorize.hard_assign(run.H)
            cm = metrics.confusion(labels, truth_sets, n_pred_clusters=args.k)
            row["average_f1"] = metrics.average_f1(cm)
            row.update(_pairwise_row(labels, truth_sets))
        rows.append(row)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    factorize.write_result(res, out)
    metrics.write_labels(out / "labels.tsv", doc_ids, factorize.hard_assign(res.H))
    if truth_sets is not None:
        _write_metrics_table(out / "metrics.tsv", rows)
    _write_manifest(
        out / "manifest.tsv", args, alpha=res.alpha, beta=res.beta,
        seeds=",".join(str(run.seed_used) for run in res.trials),
    )
    print(f"method={method} k={args.k} best_seed={res.seed_used} "
          f"objective={res.objective_history[-1]!r} sweeps={res.sweeps_run}")
    if truth_sets is not None:
        mean_f1 = float(np.mean([r["average_f1"] for r in rows]))
        print(f"mean_average_f1={mean_f1!r}")
    print(f"artifacts -> {out}")
    return 0


def _cmd_eval(args) -> int:
    pred_map = metrics.read_labels(args.pred)
    truth_map = metrics.read_labels(args.truth)
    ids = sorted(pred_map)
    if set(truth_map) != set(ids):
        raise UniverseMismatch("prediction and truth files label different items")
    pred = []
    for i in ids:
        labs = pred_map[i]
        if len(labs) != 1:
            raise DataError(f"item {i} has {len(labs)} predicted labels; predictions must be hard")
        pred.append(next(iter(labs)))
    truth = [truth_map[i] for i in ids]

    cm = metrics.confusion(pred, truth)
    f1 = metrics.average_f1(cm)
    pc = metrics.pairwise_counts(pred, truth)
    scores = metrics.pairwise_scores(pc)
    rows = {
        "items": len(ids),
        "average_f1": repr(f1),
        "pwf1": _score_str(scores.pwf1),
        "pwfpr": _score_str(scores.pwfpr),
        "pwfnr": _score_str(scores.pwfnr),
        "tp": pc.tp, "tn": pc.tn, "fp": pc.fp, "fn": pc.fn,
    }
    for key, val in rows.items():
        print(f"{key}\t{val}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.tsv", "w") as fh:
            for key, val in rows.items():
                fh.write(f"{key}\t{val}\n")
        _write_manifest(out / "manifest.tsv", args)
    return 0


def _cmd_recommend(args) -> int:
    if args.k is None:
        raise ValueError("--k is required")
    X_train = read_matrix_market(args.train_x)
    train_ids = _read_lines(args.train_ids)
    if len(train_ids) != X_train.shape[1]:
        raise DataError(f"{len(train_ids)} train ids for {X_train.shape[1]} columns")
    X_test = read_matrix_market(args.test_x)
    test_ids = _read_lines(args.test_ids)
    if X_test.ndim == 1:
        X_test = X_test[:, None]
    if len(test_ids) != X_test.shape[1]:
        raise DataError(f"{len(test_ids)} test ids for {X_test.shape[1]} columns")
    if len(test_ids) == 0:
        raise DataError("test set is empty")
    if X_test.shape[0] != X_train.shape[0]:
        raise DataError("train and test matrices disagree on vocabulary size")

    if args.similarity:
        S = read_matrix_market(args.similarity)
    elif args.edges:
        # recommendation uses the raw adjacency as similarity
        S = graph.symmetrize(
            graph.read_edge_list(args.edges), n_vertices=len(train_ids)
        ).adjacency
    else:
        raise ValueError("recommend needs --similarity or --edges")

    flags = _read_citations(args.citations, test_ids, train_ids).ravel()

    opts = _options(args)
    X_test = as_dense(X_test)
    require_nonnegative(X_test, what="test_x")
    test_cols = list(X_test.T)

    model = fit_recommender(X_train, S, opts, train_ids)
    nmf_res = factorize.nmf(X_train, opts)
    # both scorings read one projection of all test documents per basis
    joint_h = nls_bpp(model.W, X_test)
    nmf1_h = nls_bpp(nmf_res.W, X_test)
    nmf2 = [_nmf2_coordinates(X_train, args.k, opts, x) for x in test_cols]

    score_sets: dict[str, list[np.ndarray]] = {}
    for scoring in ("inner", "cosine"):
        score_one = score_inner if scoring == "inner" else score_cosine
        score_sets[f"joint_{scoring}"] = [score_one(model.H, h) for h in joint_h.T]
        score_sets[f"nmf1_{scoring}"] = [score_one(nmf_res.H, h) for h in nmf1_h.T]
        score_sets[f"nmf2_{scoring}"] = [score_one(H, h) for H, h in nmf2]
    score_sets["sharedwords"] = [
        baseline_shared_words(X_train, x).astype(np.float64) for x in test_cols
    ]

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, per_test in score_sets.items():
        flat = np.concatenate(per_test)
        fpr, tpr = metrics.roc_curve(flat, flags)
        with open(out / f"roc_{name}.tsv", "w") as fh:
            for a, b in zip(fpr, tpr):
                fh.write(f"{float(a)!r}\t{float(b)!r}\n")
        print(f"auc_{name}\t{metrics.auc(fpr, tpr)!r}")
        with open(out / f"rec_{name}.tsv", "w") as fh:
            for i, ti in enumerate(test_ids):
                scores = per_test[i]
                picks = recommend_above(scores, args.threshold)
                for j in sorted(picks, key=lambda j: (-scores[j], j)):
                    fh.write(f"{ti}\t{train_ids[j]}\t{float(scores[j])!r}\n")
    _write_manifest(out / "manifest.tsv", args)
    print(f"artifacts -> {out}")
    return 0


def _cmd_hypergraph_sim(args) -> int:
    hg = graph.hypergraph_from_edges(
        graph.read_hyperedges(args.hyperedges), n_vertices=args.n_vertices
    )
    if args.dual:
        hg = graph.dual_hypergraph(hg)
    S = graph.hypergraph_similarity(hg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_market(out / "S.mtx", S)
    _write_manifest(out / "manifest.tsv", args)
    print(f"S is {S.shape[0]}x{S.shape[1]} -> {out / 'S.mtx'}")
    return 0


def _cmd_topics(args) -> int:
    W = read_matrix_market(args.w)
    if sparse.issparse(W):
        W = W.toarray()
    vocab = _read_lines(args.vocab)
    report = top_terms(W, vocab, args.top_terms)
    lines = []
    for c, terms in enumerate(report.clusters):
        for rank, (term, weight) in enumerate(terms, start=1):
            lines.append(f"{c}\t{rank}\t{term}\t{weight!r}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_lines(out / "topics.tsv", lines)
        _write_manifest(out / "manifest.tsv", args)
    else:
        for line in lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# shared plumbing


def _load_similarity(args, n_expected):
    given = [bool(args.similarity), bool(args.edges), bool(args.hyperedges)]
    if sum(given) > 1:
        raise ValueError("give only one of --similarity, --edges, --hyperedges")
    if args.similarity:
        return read_matrix_market(args.similarity)
    if args.edges:
        g = graph.symmetrize(graph.read_edge_list(args.edges), n_vertices=n_expected)
        return g.adjacency if args.raw_adjacency else graph.normalized_adjacency(g)
    if args.hyperedges:
        hg = graph.hypergraph_from_edges(
            graph.read_hyperedges(args.hyperedges), n_vertices=n_expected
        )
        if args.dual:
            hg = graph.dual_hypergraph(hg)
        return graph.hypergraph_similarity(hg)
    return None


def _outside(doc_ids, kept):
    # ids at the positions not in kept, in their original order
    mask = np.ones(len(doc_ids), dtype=bool)
    mask[kept] = False
    return [doc_ids[i] for i in np.flatnonzero(mask)]


def _aligned_truth(truth_map, doc_ids):
    missing = [d for d in doc_ids if d not in truth_map]
    if missing:
        raise UniverseMismatch(
            f"truth file does not label {len(missing)} document(s), e.g. {missing[0]!r}"
        )
    return [truth_map[d] for d in doc_ids]


def _pairwise_row(labels, truth_sets):
    pc = metrics.pairwise_counts(labels, truth_sets)
    s = metrics.pairwise_scores(pc)
    return {"pwf1": s.pwf1, "pwfpr": s.pwfpr, "pwfnr": s.pwfnr}


def _write_metrics_table(path, rows):
    keys = ["trial", "seed", "objective", "average_f1", "pwf1", "pwfpr", "pwfnr"]
    with open(path, "w") as fh:
        fh.write("\t".join(keys) + "\n")
        for row in rows:
            fh.write("\t".join(_cell(row.get(k)) for k in keys) + "\n")
        means = ["mean", "-"]
        for k in keys[2:]:
            vals = [row[k] for row in rows if row.get(k) is not None]
            means.append(repr(float(np.mean(vals))) if vals else "NA")
        fh.write("\t".join(means) + "\n")


def _cell(v):
    if v is None:
        return "NA"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _score_str(v):
    return "NA" if v is None else repr(v)


def _read_citations(path, test_ids, train_ids):
    """Boolean (test x train) array, True where path lists the pair."""
    row = _positions(test_ids, "test")
    col = _positions(train_ids, "train")
    cited = np.zeros((len(row), len(col)), dtype=bool)
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{ln}: expected `test_id<TAB>train_id`")
            a, b = parts
            if a not in row:
                raise DataError(f"{path}:{ln}: unknown test id {a!r}")
            if b not in col:
                raise DataError(f"{path}:{ln}: unknown train id {b!r}")
            cited[row[a], col[b]] = True
    return cited


def _positions(ids, what):
    pos = {d: i for i, d in enumerate(ids)}
    if len(pos) != len(ids):
        raise DataError(f"{what} ids are not unique")
    return pos


def _read_lines(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _write_lines(path, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def _manifest_actions(args):
    # the command's options in parser order, less the two that say where
    # a run writes and what it replays rather than what it computes
    return [a for a in args.parser._actions if a.dest not in ("help", "out_dir", "manifest")]


def _write_manifest(path, args, **resolved) -> None:
    """command, then each option of args.command under its dest.

    A resolved value (a weight the run worked out) replaces the given
    one in place; a resolved key that is no option follows the options.
    """
    entries = {"command": args.command}
    entries.update((a.dest, getattr(args, a.dest)) for a in _manifest_actions(args))
    entries.update(resolved)
    with open(path, "w") as fh:
        for key, val in entries.items():
            fh.write(f"{key}\t{_manifest_value(val)}\n")


def _manifest_value(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, val = line.partition("\t")
            out[key] = val
    return out


if __name__ == "__main__":
    sys.exit(main())
