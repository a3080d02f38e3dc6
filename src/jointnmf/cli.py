"""Command line front door.

Subcommands: preprocess, cluster, eval, recommend, hypergraph-sim,
topics.  Exit codes: 0 success, 1 usage, 2 data problem, 3 numerical
failure, each with one stderr line.  Each subparser is the one list of
its command's parameters: every command that writes artifacts also
writes a manifest.tsv with each of its options, and `cluster
--manifest` parses one back as the command line it records and
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import factorize, graph, metrics, textprep
from .errors import DataError, NumericalError, UniverseMismatch
from .matrix import (as_dense, read_matrix_market, read_names, read_records,
                     write_matrix_market, write_records)
from .recommend import evaluate, recommend as recommend_above
from .textprep import top_terms

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse reads a value that starts with "-" and is not a plain
    # negative number as an option, so "--threshold -inf" or "-1e-3"
    # would lack its value; anything float() reads is a value wherever
    # it appears (a NaN is left to each option's own check)
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    # a parse error is a usage error like any other: main prints it as
    # one line, and a manifest replay names its file
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="jointnmf",
        description="Hybrid clustering and citation recommendation by joint NMF",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("preprocess", help="filter counts, tf-idf, normalize, align with graph")
    pp.add_argument("--vocab", required=True, type=_path, help="one term per line")
    pp.add_argument("--doc-ids", required=True, type=_path, help="one document id per line")
    pp.add_argument("--counts", required=True, type=_path,
                    help="Matrix Market term-document counts")
    _graph_flags(pp)
    pp.add_argument("--min-term-df", type=int, default=textprep.DEFAULT_MIN_TERM_DF)
    pp.add_argument("--min-doc-len", type=int, default=textprep.DEFAULT_MIN_DOC_LEN)
    pp.add_argument("--keep-duplicates", action="store_true", help="skip duplicate-column removal")
    pp.add_argument("--out-dir", required=True)
    # a source the command has no option for reads as not given to _similarity
    pp.set_defaults(func=_cmd_preprocess, parser=pp, similarity=None)

    pc = sub.add_parser("cluster", help="factorize and write factors, labels, metrics")
    pc.add_argument("--method", choices=("joint", "nmf", "symnmf"), default="joint")
    pc.add_argument("--x", type=_path, help="Matrix Market term-document matrix")
    pc.add_argument("--similarity", type=_path, help="Matrix Market similarity matrix")
    _graph_flags(pc)
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
    ph.add_argument("--out-dir", required=True)
    # likewise the sources and the flag hypergraph-sim has no option for
    ph.set_defaults(func=_cmd_hypergraph_sim, parser=ph, edges=None, raw_adjacency=False,
                    similarity=None)

    pt = sub.add_parser("topics", help="top terms per cluster from a basis matrix")
    pt.add_argument("--w", required=True, type=_path, help="Matrix Market basis W")
    pt.add_argument("--vocab", required=True, type=_path)
    pt.add_argument("--top-terms", type=int, default=5)
    pt.add_argument("--out-dir")
    pt.set_defaults(func=_cmd_topics, parser=pt)

    return p


def _graph_flags(p):
    p.add_argument("--edges", type=_path,
                   help="citation edge list, src<TAB>dst, 0-based doc positions")
    p.add_argument("--hyperedges", type=_path,
                   help="one hyperedge per line, whitespace-separated vertex ids")
    p.add_argument("--dual", action="store_true", help="documents are the hyperedges (dual hypergraph)")
    p.add_argument("--raw-adjacency", action="store_true", help="skip degree normalization of S")


def _factor_flags(p):
    p.add_argument("--k", type=int, help="number of clusters / factors")
    p.add_argument("--alpha", type=float, default=None, help="similarity weight (default: auto)")
    p.add_argument("--beta", type=float, default=None, help="tether weight (default: auto)")
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)


def _options(args) -> factorize.FactorizeOptions:
    # the fit's options, checked before any input is read
    if args.k is None:
        raise ValueError("--k is required")
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
    # each failure is one stderr line, named by the first kind that holds
    # it (NegativeEntries is a DataError and a ValueError)
    exits = ((DataError, 2, "data"), (ValueError, 1, "usage"),
             (NumericalError, 3, "numerical"), (OSError, 2, "data"))
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or 0
    except SystemExit as exc:  # --help, the one exit the parser makes
        return exc.code
    except tuple(kind for kind, _, _ in exits) as exc:
        code, what = next((code, what) for kind, code, what in exits if isinstance(exc, kind))
        print(f"{what} error: {exc}", file=sys.stderr)
        return code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_preprocess(args) -> int:
    textprep._check_thresholds(args.min_term_df, args.min_doc_len)
    # between steps one full-size copy of the corpus is live: a step's
    # input is dropped once its output holds what the next step needs,
    # and of the raw corpus only the doc ids are kept
    corpus = textprep.read_corpus(args.vocab, args.doc_ids, args.counts)
    _positions(corpus.vocab, "vocab terms")
    all_ids = corpus.doc_ids
    filtered, report = textprep.filter_corpus(
        corpus, args.min_term_df, args.min_doc_len, dedupe=not args.keep_duplicates
    )
    del corpus
    vocab, doc_ids = filtered.vocab, filtered.doc_ids
    X = textprep.tfidf(filtered)
    del filtered
    X = textprep.normalize_columns(X)

    pos = _positions(all_ids, "doc ids")
    positions = np.array([pos[d] for d in doc_ids], dtype=np.int64)
    S, kept = _similarity(args, len(all_ids), within=positions)
    outside_lcc: list[str] = []
    if S is not None:
        outside_lcc = [doc_ids[i] for i in np.setdiff1d(np.arange(len(doc_ids)), kept)]
        doc_ids = [doc_ids[i] for i in kept]
        X = X[:, kept]

    out = _out_dir(args)
    write_matrix_market(out / "X.mtx", X)
    write_records(out / "vocab.txt", vocab)
    write_records(out / "doc_ids.txt", doc_ids)
    if S is not None:
        write_matrix_market(out / "S.mtx", S)
    write_records(out / "report.txt", *zip(*[
        ("terms_removed", len(report.removed_terms)),
        ("short_docs_removed", len(report.short_docs)),
        ("duplicate_docs_removed", len(report.duplicate_docs)),
        ("docs_outside_component", len(outside_lcc)),
        *(("term", t) for t in report.removed_terms),
        *(("short", d) for d in report.short_docs),
        *(("duplicate", d) for d in report.duplicate_docs),
        *(("outside", d) for d in outside_lcc),
    ]))
    _write_manifest(args)
    print(f"kept {X.shape[0]} terms x {X.shape[1]} documents -> {out}")
    return 0


# the inputs each cluster method does not read: each method is the joint
# fit without the views it ignores, and needs --x unless it ignores x
# and a similarity unless it ignores similarity
_IGNORED_INPUTS = {
    "joint": (),
    "nmf": ("similarity", "edges", "hyperedges", "dual", "raw_adjacency", "alpha", "beta"),
    "symnmf": ("x", "alpha"),
}


def _cmd_cluster(args) -> int:
    if not args.manifest:
        return _cluster(args, _cluster_options(args))
    beside = [a.option_strings[0] for a in _given(args)]
    if beside:
        raise ValueError(f"only --out-dir may stand beside --manifest, not {beside[0]}")
    # a replayed run's usage errors, from its entries, its inputs or the
    # fit's checks on them (a k above min(m, n)), are the manifest's
    try:
        return _cluster(*_replayed(args))
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"{args.manifest}: {exc}") from exc


def _cluster(args, opts) -> int:
    method, ignored = args.method, _IGNORED_INPUTS[args.method]
    X = read_matrix_market(args.x) if args.x else None
    doc_ids = read_names(args.doc_ids) if args.doc_ids else None
    if doc_ids is not None:
        _positions(doc_ids, "doc ids")
    # a graph spans the documents: the columns of X, else the doc ids
    n = X.shape[1] if X is not None else (None if doc_ids is None else len(doc_ids))
    S, _ = _similarity(args, n)
    if S is None and "similarity" not in ignored:
        raise ValueError(f"method {method} needs --similarity, --edges, or --hyperedges")

    n = X.shape[1] if X is not None else S.shape[0]
    if doc_ids is None:
        doc_ids = [str(i) for i in range(n)]
    if len(doc_ids) != n:
        raise DataError(f"{len(doc_ids)} doc ids for {n} documents")

    truth_sets = None
    if args.truth:
        truth_sets = _aligned_truth(metrics.read_labels(args.truth), doc_ids)

    res = factorize.joint_nmf(X, S, opts)

    rows = []
    for t, run in enumerate(res.trials):
        row = {"trial": t, "seed": run.seed_used, "objective": run.objective_history[-1]}
        if truth_sets is not None:
            row.update(metrics.labeling_scores(factorize.hard_assign(run.H), truth_sets, args.k))
        rows.append(row)

    out = _out_dir(args)
    _write_result(res, out)
    write_records(out / "labels.tsv", doc_ids, factorize.hard_assign(res.H))
    if truth_sets is not None:
        _write_metrics_table(out / "metrics.tsv", rows)
    _write_manifest(args, alpha=res.alpha, beta=res.beta,
                    seeds=",".join(str(run.seed_used) for run in res.trials))
    print(f"method={method} k={args.k} best_seed={res.seed_used} "
          f"objective={res.objective_history[-1]!r} sweeps={res.sweeps_run}")
    if truth_sets is not None:
        mean_f1 = float(np.mean([r["average_f1"] for r in rows]))
        print(f"mean_average_f1={mean_f1!r}")
    print(f"artifacts -> {out}")
    return 0


def _cluster_options(args) -> factorize.FactorizeOptions:
    # the fit's options and the inputs the method reads, checked from the
    # arguments alone; an input the method ignores would silently set n
    # or go unused
    opts = _options(args)
    method, ignored = args.method, _IGNORED_INPUTS[args.method]
    for action in _given(args):
        if action.dest in ignored:
            raise ValueError(f"method {method} does not use {action.option_strings[0]}")
    if sum(bool(getattr(args, dest)) for dest in ("similarity", "edges", "hyperedges")) > 1:
        raise ValueError("give only one of --similarity, --edges, --hyperedges")
    if not args.x and "x" not in ignored:
        raise ValueError(f"method {method} needs --x")
    return opts


def _replayed(args):
    """(args, options) of the cluster run args.manifest records.

    The manifest is the whole command line but --out-dir: each entry is
    one `--option=value` token for the cluster parser itself, and a
    flag's 1 is the bare flag; a flag's 0, another entry's "-" and a
    missing key mean the option was not given.
    """
    stored = dict(read_records(args.manifest, fields=2, expect="`option<TAB>value`"))
    if stored.pop("command", None) != "cluster":
        raise DataError(f"{args.manifest} is not a cluster manifest")
    stored.pop("seeds", None)  # what the run drew, not an option
    flags = {a.dest for a in _manifest_actions(args) if a.nargs == 0}
    tokens = []
    for key, value in stored.items():
        option = "--" + key.replace("_", "-")
        if key in flags:
            if value not in ("0", "1"):
                raise DataError(f"{args.manifest}: flag {key} entry {value!r} is not 0 or 1")
            tokens += [option] if value == "1" else []
        elif value != "-":
            tokens.append(f"{option}={value}")
    replayed = args.parser.parse_args([*tokens, f"--out-dir={args.out_dir}"],
                                      argparse.Namespace(command=args.command))
    return replayed, _cluster_options(replayed)


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

    rows = [("items", len(ids)), *metrics.labeling_scores(pred, truth).items()]
    write_records("-", *zip(*rows))
    if args.out_dir:
        write_records(_out_dir(args) / "metrics.tsv", *zip(*rows))
        _write_manifest(args)
    return 0


def _cmd_recommend(args) -> int:
    opts = _options(args)
    if bool(args.similarity) == bool(args.edges):
        raise ValueError("recommend needs exactly one of --similarity or --edges")
    if np.isnan(args.threshold):
        raise ValueError("--threshold must not be NaN")
    X_train, train_ids = _named_columns(args.train_x, args.train_ids, "train")
    X_test, test_ids = _named_columns(args.test_x, args.test_ids, "test")
    if args.similarity:
        S = read_matrix_market(args.similarity)
    else:
        # recommendation uses the raw adjacency as similarity
        S, _ = graph.similarity(
            graph.read_edge_list(args.edges), n=len(train_ids), raw_adjacency=True
        )
    flags = _read_citations(args.citations, test_ids, train_ids).ravel()
    score_sets = evaluate(X_train, S, X_test, opts)

    out = _out_dir(args)
    for name, scores in score_sets.items():
        fpr, tpr = metrics.roc_curve(scores.ravel(), flags)
        write_records(out / f"roc_{name}.tsv", fpr, tpr)
        write_records("-", [f"auc_{name}"], [metrics.auc(fpr, tpr)])
        write_records(out / f"rec_{name}.tsv", *_ranked(test_ids, scores, train_ids, args.threshold))
    _write_manifest(args)
    print(f"artifacts -> {out}")
    return 0


def _ranked(test_ids, scores, train_ids, threshold):
    # (test id, train id, score) columns of the training documents scoring
    # above the threshold: test documents in order, each one's picks best
    # first, ties in ascending train index
    flat = scores.ravel()
    picks = recommend_above(flat, threshold)
    test, train = np.divmod(picks, scores.shape[1])
    order = np.lexsort((train, -flat[picks], test))
    picks = picks[order]
    return (np.asarray(test_ids, dtype=object)[test[order]],
            np.asarray(train_ids, dtype=object)[train[order]], flat[picks])


def _cmd_hypergraph_sim(args) -> int:
    S, _ = _similarity(args, None)
    if S is None:  # an empty --hyperedges reads as not given
        raise ValueError("hypergraph-sim needs --hyperedges")
    out = _out_dir(args)
    write_matrix_market(out / "S.mtx", S)
    _write_manifest(args)
    print(f"S is {S.shape[0]}x{S.shape[1]} -> {out / 'S.mtx'}")
    return 0


def _cmd_topics(args) -> int:
    textprep._check_top_terms(args.top_terms)
    W = as_dense(read_matrix_market(args.w))
    vocab = read_names(args.vocab)
    _positions(vocab, "vocab terms")
    rows = [
        (c, rank, term, weight)
        for c, terms in enumerate(top_terms(W, vocab, args.top_terms))
        for rank, (term, weight) in enumerate(terms, start=1)
    ]
    if args.out_dir:
        write_records(_out_dir(args) / "topics.tsv", *zip(*rows))
        _write_manifest(args)
    else:
        write_records("-", *zip(*rows))
    return 0


# ---------------------------------------------------------------------------
# shared plumbing


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _similarity(args, n, within=None):
    # S over n documents and the kept indices into within (or range(n)):
    # a graph source or flag goes to graph.similarity, which rejects a
    # flag without its source; else the --similarity file, kept whole;
    # (None, None) when neither is given
    if args.edges or args.hyperedges or args.dual or args.raw_adjacency:
        return graph.similarity(
            graph.read_edge_list(args.edges) if args.edges else None,
            graph.read_hyperedges(args.hyperedges) if args.hyperedges else None,
            n=n, dual=args.dual, raw_adjacency=args.raw_adjacency, within=within,
        )
    if args.similarity:
        return read_matrix_market(args.similarity), None
    return None, None


def _named_columns(matrix_path, ids_path, what):
    # a matrix and the names of its columns, one name per column
    M = read_matrix_market(matrix_path)
    names = read_names(ids_path)
    if len(names) != M.shape[1]:
        raise DataError(f"{len(names)} {what} ids for {M.shape[1]} columns")
    return M, names


def _aligned_truth(truth_map, doc_ids):
    missing = [d for d in doc_ids if d not in truth_map]
    if missing:
        raise UniverseMismatch(
            f"truth file does not label {len(missing)} document(s), e.g. {missing[0]!r}"
        )
    return [truth_map[d] for d in doc_ids]


def _write_result(res, out):
    # the factors as Matrix Market array files in the run directory out,
    # and the objective after each sweep
    if res.W is not None:
        write_matrix_market(out / "W.mtx", res.W)
    write_matrix_market(out / "H.mtx", res.H)
    if res.H_tilde is not None:
        write_matrix_market(out / "Htilde.mtx", res.H_tilde)
    history = np.asarray(res.objective_history, dtype=np.float64)
    write_records(out / "objective.log", range(1, history.size + 1), history)


def _write_metrics_table(path, rows):
    keys = ["trial", "seed", "objective", "average_f1", "pwf1", "pwfpr", "pwfnr"]
    means = ["mean", "-"]
    for k in keys[2:]:
        vals = [row[k] for row in rows if row.get(k) is not None]
        means.append(float(np.mean(vals)) if vals else None)
    write_records(path, *zip(*[keys, *([row.get(k) for k in keys] for row in rows), means]))


def _read_citations(path, test_ids, train_ids):
    """Boolean (test x train) array, True where path lists the pair."""
    row = _positions(test_ids, "test ids")
    col = _positions(train_ids, "train ids")
    cited = np.zeros((len(row), len(col)), dtype=bool)
    for i, j in read_records(path, fields=2, convert=lambda r: (row[r[0]], col[r[1]]),
                             expect="`test_id<TAB>train_id` with a listed test and train id"):
        cited[i, j] = True
    return cited


def _positions(names, what):
    # each name's position; a name listed twice names no one item
    pos = {}
    for i, d in enumerate(names):
        if pos.setdefault(d, i) != i:
            raise DataError(f"{what} are not unique: {d!r} repeats")
    return pos


def _given(args):
    # the options given but --out-dir and --manifest: an option is given
    # when it differs from its default (--alpha 0 too)
    return [a for a in _manifest_actions(args) if getattr(args, a.dest) != a.default]


def _manifest_actions(args):
    # the command's options in parser order, less the two that say where
    # a run writes and what it replays rather than what it computes
    return [a for a in args.parser._actions if a.dest not in ("help", "out_dir", "manifest")]


def _write_manifest(args, **resolved) -> None:
    """manifest.tsv in args.out_dir: command, then each option of
    args.command under its dest.

    A resolved value (a weight the run worked out) replaces the given
    one in place; a resolved key that is no option follows the options.
    """
    entries = {"command": args.command}
    entries.update((a.dest, getattr(args, a.dest)) for a in _manifest_actions(args))
    entries.update(resolved)
    write_records(Path(args.out_dir) / "manifest.tsv", entries.keys(),
                  map(_manifest_value, entries.values()))


def _manifest_value(v):
    # "-" marks an option not given, and a flag is 1 or 0
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "1" if v else "0"
    return v


if __name__ == "__main__":
    sys.exit(main())
