"""Command line interface: argument handling, artifacts, exit codes."""

import argparse
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from graph_reference import dense_similarity
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from jointnmf import cli
from jointnmf.cli import build_parser, main, top_terms
from jointnmf.errors import SingularSystem, VocabMismatch
from jointnmf.factorize import FactorizeOptions, joint_nmf
from jointnmf.matrix import read_matrix_market, write_matrix_market


def make_planted_dir(root, k=3, per_cluster=8, n_terms=30, seed=7):
    """Planted clustered documents with a ring graph inside each cluster."""
    rng = np.random.default_rng(seed)
    n = k * per_cluster
    labels = np.repeat(np.arange(k), per_cluster)
    W = np.zeros((n_terms, k))
    block = n_terms // k
    for c in range(k):
        W[c * block:(c + 1) * block, c] = 1.0
    H = np.zeros((k, n))
    H[labels, np.arange(n)] = 1.0
    X = W @ H + 0.05 * rng.random((n_terms, n))
    write_matrix_market(root / "X.mtx", X)
    edges = []
    for c in range(k):
        idx = np.flatnonzero(labels == c)
        edges.extend((int(idx[i]), int(idx[(i + 1) % len(idx)])) for i in range(len(idx)))
    edges.append((0, per_cluster))
    (root / "edges.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in edges))
    (root / "ids.txt").write_text("".join(f"doc{i}\n" for i in range(n)))
    (root / "truth.tsv").write_text("".join(f"doc{i}\tc{l}\n" for i, l in enumerate(labels)))
    return labels


# ---------------------------------------------------------------------------
# top_terms


def test_top_terms_fixture():
    W = np.array([[0.1], [0.9], [0.5]])
    report = top_terms(W, ["a", "b", "c"], 2)
    assert [t for t, _ in report[0]] == ["b", "c"]


def test_top_terms_requests_beyond_vocab_return_everything():
    W = np.array([[0.1], [0.9], [0.5]])
    report = top_terms(W, ["a", "b", "c"], 10)
    assert [t for t, _ in report[0]] == ["b", "c", "a"]


def test_top_terms_ties_break_by_term_index():
    W = np.array([[0.5], [0.5], [0.5]])
    report = top_terms(W, ["a", "b", "c"], 2)
    assert [t for t, _ in report[0]] == ["a", "b"]


def test_top_terms_weights_non_increasing():
    rng = np.random.default_rng(61)
    W = rng.random((12, 4))
    report = top_terms(W, [f"t{i}" for i in range(12)], 5)
    for cluster in report:
        weights = [w for _, w in cluster]
        assert weights == sorted(weights, reverse=True)


def test_top_terms_vocab_mismatch():
    with pytest.raises(VocabMismatch):
        top_terms(np.ones((3, 1)), ["a", "b"], 1)


# ---------------------------------------------------------------------------
# cluster


def test_cluster_end_to_end(tmp_path, capsys):
    make_planted_dir(tmp_path)
    out = tmp_path / "out"
    code = main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--doc-ids", str(tmp_path / "ids.txt"), "--truth", str(tmp_path / "truth.tsv"),
        "--k", "3", "--seed", "0", "--trials", "2", "--out-dir", str(out),
    ])
    assert code == 0
    for name in ("W.mtx", "H.mtx", "Htilde.mtx", "objective.log",
                 "labels.tsv", "metrics.tsv", "manifest.tsv"):
        assert (out / name).exists()
    lines = (out / "metrics.tsv").read_text().splitlines()
    assert lines[0].split("\t") == [
        "trial", "seed", "objective", "average_f1", "pwf1", "pwfpr", "pwfnr",
    ]
    assert len(lines) == 4  # header + 2 trials + mean row
    assert lines[-1].startswith("mean\t")
    best_f1 = float(lines[1].split("\t")[3])
    assert best_f1 >= 0.95
    labels = (out / "labels.tsv").read_text().splitlines()
    assert len(labels) == 24
    assert labels[0].startswith("doc0\t")


def test_eval_on_a_cluster_run_prints_its_best_trial_scores(tmp_path, capsys):
    # one scoring path: where every cluster received a document, eval on
    # labels.tsv reads exactly what metrics.tsv holds for the best trial
    make_planted_dir(tmp_path)
    out = tmp_path / "out"
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--doc-ids", str(tmp_path / "ids.txt"), "--truth", str(tmp_path / "truth.tsv"),
        "--k", "3", "--seed", "0", "--trials", "2", "--out-dir", str(out),
    ]) == 0
    best_seed = capsys.readouterr().out.split("best_seed=")[1].split()[0]
    labels = (out / "labels.tsv").read_text().splitlines()
    assert {line.split("\t")[1] for line in labels} == {"0", "1", "2"}
    header, *rows = (line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines())
    best = dict(zip(header, next(row for row in rows if row[1] == best_seed)))
    assert main([
        "eval", "--pred", str(out / "labels.tsv"), "--truth", str(tmp_path / "truth.tsv"),
    ]) == 0
    got = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    for key in ("average_f1", "pwf1", "pwfpr", "pwfnr"):
        assert got[key] == best[key]


@settings(max_examples=6)
@given(seed=st.integers(0, 2**32 - 1))
def test_cluster_outputs_do_not_depend_on_the_line_order_within_a_column(tmp_path_factory, seed):
    # preprocess writes X.mtx rows ascending within each column, where it
    # once wrote them descending; cluster reads either to the same bytes
    root = tmp_path_factory.mktemp("order")
    make_planted_dir(root)
    X = read_matrix_market(root / "X.mtx")
    X[X < 0.03] = 0.0
    write_matrix_market(root / "X.mtx", sparse.csc_array(X))
    header, entries = _split_mtx(root / "X.mtx")
    outputs = []
    for name, lines in (("sorted", entries), ("shuffled", _shuffled_within_columns(entries, seed))):
        (root / "X.mtx").write_text("".join(header + lines))
        out = root / name
        assert main([
            "cluster", "--x", str(root / "X.mtx"), "--edges", str(root / "edges.tsv"),
            "--doc-ids", str(root / "ids.txt"), "--truth", str(root / "truth.tsv"),
            "--k", "3", "--trials", "2", "--out-dir", str(out),
        ]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def _split_mtx(path):
    # the header and size lines, then the entry lines of a coordinate file
    lines = path.read_text().splitlines(keepends=True)
    body = next(i for i, line in enumerate(lines) if not line.startswith("%")) + 1
    return lines[:body], lines[body:]


def _shuffled_within_columns(entries, seed):
    rng = np.random.default_rng(seed)
    cols = np.array([int(line.split()[1]) for line in entries])
    order = np.lexsort((rng.random(len(entries)), cols))
    return [entries[i] for i in order]


def test_write_result_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    X = rng.random((6, 8))
    S = rng.random((8, 8))
    S = (S + S.T) / 2
    res = joint_nmf(X, S, FactorizeOptions(k=2, seed=0))
    cli._write_result(res, tmp_path)
    W = read_matrix_market(tmp_path / "W.mtx")
    H = read_matrix_market(tmp_path / "H.mtx")
    Ht = read_matrix_market(tmp_path / "Htilde.mtx")
    assert (W == res.W).all() and (H == res.H).all() and (Ht == res.H_tilde).all()
    lines = (tmp_path / "objective.log").read_text().splitlines()
    assert len(lines) == res.sweeps_run
    for i, line in enumerate(lines):
        sweep, value = line.split("\t")
        assert int(sweep) == i + 1
        assert float(value) == res.objective_history[i]


def test_cluster_repeated_doc_id_exits_2(tmp_path, capsys):
    # labels.tsv names each document by its id, so an id must name one
    make_planted_dir(tmp_path)
    (tmp_path / "ids.txt").write_text("".join(f"doc{i % 23}\n" for i in range(24)))
    out = tmp_path / "out"
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--doc-ids", str(tmp_path / "ids.txt"), "--k", "3", "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err == "data error: doc ids are not unique: 'doc0' repeats\n"
    assert not out.exists()


def test_cluster_nmf_and_symnmf_methods(tmp_path):
    make_planted_dir(tmp_path)
    assert main([
        "cluster", "--method", "nmf", "--x", str(tmp_path / "X.mtx"),
        "--k", "3", "--out-dir", str(tmp_path / "o1"),
    ]) == 0
    assert not (tmp_path / "o1" / "Htilde.mtx").exists()
    assert main([
        "cluster", "--method", "symnmf", "--edges", str(tmp_path / "edges.tsv"),
        "--k", "3", "--out-dir", str(tmp_path / "o2"),
    ]) == 0
    assert not (tmp_path / "o2" / "W.mtx").exists()
    assert (tmp_path / "o2" / "H.mtx").exists()


def test_cluster_usage_errors(tmp_path):
    make_planted_dir(tmp_path)
    # joint without any similarity source
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--k", "3",
        "--out-dir", str(tmp_path / "o"),
    ]) == 1
    # no --k
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--out-dir", str(tmp_path / "o"),
    ]) == 1
    # k larger than the document count
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--k", "25", "--out-dir", str(tmp_path / "o"),
    ]) == 1


def test_cluster_data_errors(tmp_path):
    make_planted_dir(tmp_path)
    assert main([
        "cluster", "--x", str(tmp_path / "missing.mtx"),
        "--edges", str(tmp_path / "edges.tsv"), "--k", "3",
        "--out-dir", str(tmp_path / "o"),
    ]) == 2
    # similarity sized for the wrong document count
    write_matrix_market(tmp_path / "small.mtx", np.eye(5))
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"),
        "--similarity", str(tmp_path / "small.mtx"), "--k", "3",
        "--out-dir", str(tmp_path / "o"),
    ]) == 2
    # truth file not covering every document
    (tmp_path / "sparse_truth.tsv").write_text("doc0\tc0\n")
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--doc-ids", str(tmp_path / "ids.txt"),
        "--truth", str(tmp_path / "sparse_truth.tsv"),
        "--k", "3", "--out-dir", str(tmp_path / "o"),
    ]) == 2


def test_cluster_nonfinite_input_exits_2(tmp_path, capsys):
    make_planted_dir(tmp_path)
    X = read_matrix_market(tmp_path / "X.mtx")
    X[2, 5] = np.nan
    write_matrix_market(tmp_path / "X_nan.mtx", X)
    n = X.shape[1]
    S = sparse.csc_array(([np.inf, np.inf, 1.0], ([0, 1, 2], [1, 0, 2])), shape=(n, n))
    write_matrix_market(tmp_path / "S_inf.mtx", S)
    for given in (
        ["--x", str(tmp_path / "X_nan.mtx"), "--edges", str(tmp_path / "edges.tsv")],
        ["--x", str(tmp_path / "X.mtx"), "--similarity", str(tmp_path / "S_inf.mtx")],
    ):
        assert main(["cluster", *given, "--k", "3", "--out-dir", str(tmp_path / "o")]) == 2
        assert "NaN or infinite" in capsys.readouterr().err


def test_cluster_overflowing_input_exits_2(tmp_path, capsys):
    # finite entries whose products overflow are a data problem, not
    # usage, refused before the fit and without a warning
    make_planted_dir(tmp_path)
    X = read_matrix_market(tmp_path / "X.mtx")
    X[2, 5] = 1e305
    write_matrix_market(tmp_path / "X_huge.mtx", X)
    assert main([
        "cluster", "--method", "nmf", "--x", str(tmp_path / "X_huge.mtx"),
        "--k", "3", "--out-dir", str(tmp_path / "o"),
    ]) == 2
    assert "data error: nonfinite values" in capsys.readouterr().err


def test_cluster_negative_input_exits_2(tmp_path, capsys):
    make_planted_dir(tmp_path)
    X = read_matrix_market(tmp_path / "X.mtx")
    X[2, 5] = -1.0
    write_matrix_market(tmp_path / "X_neg.mtx", X)
    assert main([
        "cluster", "--x", str(tmp_path / "X_neg.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--k", "3", "--out-dir", str(tmp_path / "o"),
    ]) == 2
    assert "data error: X must be nonnegative" in capsys.readouterr().err


def test_cluster_manifest_replay_is_bit_identical(tmp_path):
    make_planted_dir(tmp_path)
    x = ["--x", str(tmp_path / "X.mtx")]
    edges = ["--edges", str(tmp_path / "edges.tsv")]
    inputs = {"joint": x + edges, "nmf": x, "symnmf": edges}
    for method, given in inputs.items():
        first = tmp_path / f"first-{method}"
        again = tmp_path / f"again-{method}"
        assert main([
            "cluster", "--method", method, *given,
            "--doc-ids", str(tmp_path / "ids.txt"), "--truth", str(tmp_path / "truth.tsv"),
            "--k", "3", "--seed", "3", "--trials", "2", "--out-dir", str(first),
        ]) == 0
        assert main([
            "cluster", "--manifest", str(first / "manifest.tsv"), "--out-dir", str(again),
        ]) == 0
        for name in ("W.mtx", "H.mtx", "Htilde.mtx", "labels.tsv", "metrics.tsv",
                     "objective.log", "manifest.tsv"):
            assert (first / name).exists() == (again / name).exists()
            if (first / name).exists():
                assert (first / name).read_bytes() == (again / name).read_bytes()
        manifest = dict(
            line.split("\t") for line in (again / "manifest.tsv").read_text().splitlines()
        )
        unused = {"joint": ["similarity", "hyperedges"],
                  "nmf": ["similarity", "edges", "hyperedges", "alpha", "beta"],
                  "symnmf": ["x", "similarity", "hyperedges", "alpha"]}[method]
        assert [manifest[key] for key in unused] == ["-"] * len(unused)


@pytest.mark.parametrize("method, ignored", [
    ("symnmf", ["--x", "X.mtx"]),
    ("nmf", ["--similarity", "S.mtx"]),
    ("nmf", ["--edges", "edges.tsv"]),
    ("nmf", ["--hyperedges", "hyper.txt"]),
    ("nmf", ["--dual"]),
    ("nmf", ["--raw-adjacency"]),
    ("nmf", ["--alpha", "2"]),
    ("nmf", ["--alpha", "0"]),
    ("nmf", ["--beta", "3"]),
    ("symnmf", ["--alpha", "2"]),
], ids=["symnmf-x", "nmf-similarity", "nmf-edges", "nmf-hyperedges", "nmf-dual",
        "nmf-raw-adjacency", "nmf-alpha", "nmf-alpha-0", "nmf-beta", "symnmf-alpha"])
def test_cluster_rejects_an_input_the_method_ignores(tmp_path, capsys, method, ignored):
    # symnmf used to take n from the X it ignores and write a truncated
    # labels.tsv; an ignored input is now a usage error
    make_planted_dir(tmp_path)
    write_hyperedges(tmp_path)
    write_matrix_market(tmp_path / "S.mtx", np.eye(24))
    used = {"symnmf": ["--hyperedges", "hyper.txt", "--dual"], "nmf": ["--x", "X.mtx"]}[method]
    given = [str(tmp_path / a) if "." in a else a for a in used + ignored]
    out = tmp_path / "o"
    assert main(["cluster", "--method", method, *given, "--k", "3", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: method {method} does not use {ignored[0]}"]
    assert not out.exists()


@pytest.mark.parametrize("entry, value, message", [
    ("method", "bogus",
     "argument --method: invalid choice: 'bogus' (choose from 'joint', 'nmf', 'symnmf')"),
    ("k", "three", "argument --k: invalid int value: 'three'"),
    ("max_sweeps", "0", "max_sweeps must be at least 1"),
    ("tol", "nan", "rel_tol must be finite and nonnegative"),
    ("dual", "yes", "flag dual entry 'yes' is not 0 or 1"),
    ("raw_adjacency", "yes", "flag raw_adjacency entry 'yes' is not 0 or 1"),
    ("method", "nmf", "method nmf does not use --edges"),
], ids=["method-bogus", "k-three", "max_sweeps-0", "tol-nan", "dual-yes", "raw_adjacency-yes",
        "method-nmf"])
def test_cluster_replay_rejects_a_bad_manifest_entry(tmp_path, capsys, entry, value, message):
    # the replay parses the manifest as its command line, so whatever the
    # parser or the option checks reject is the manifest's data error;
    # max_sweeps 0, tol nan and method nmf used to exit 1 without naming
    # the file, and a flag entry yes was read as off, with exit 0
    make_planted_dir(tmp_path)
    first = tmp_path / "first"
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--k", "3", "--max-sweeps", "5", "--out-dir", str(first),
    ]) == 0
    manifest = first / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("".join(
        f"{entry}\t{value}\n" if line.startswith(f"{entry}\t") else f"{line}\n" for line in lines
    ))
    capsys.readouterr()
    assert main(["cluster", "--manifest", str(manifest), "--out-dir", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {manifest}: {message}"]
    assert not (tmp_path / "again").exists()


def test_cluster_replay_takes_no_option_but_out_dir(tmp_path, capsys):
    # --k given beside --manifest used to be dropped, with exit 0
    make_planted_dir(tmp_path)
    first = tmp_path / "first"
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--k", "3", "--max-sweeps", "5", "--out-dir", str(first),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "again"
    assert main(["cluster", "--manifest", str(first / "manifest.tsv"), "--k", "7",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage error: only --out-dir may stand beside --manifest, not --k"]
    assert not out.exists()


def test_cluster_replay_names_the_manifest_when_k_exceeds_its_data(tmp_path, capsys):
    # k is checked against the data once the inputs are read; a manifest
    # whose k exceeds min(m, n) used to exit 1 without naming the file
    write_matrix_market(tmp_path / "x.mtx", np.arange(1.0, 25.0).reshape(3, 8))
    first = tmp_path / "first"
    assert main(["cluster", "--method", "nmf", "--x", str(tmp_path / "x.mtx"), "--k", "2",
                 "--max-sweeps", "5", "--out-dir", str(first)]) == 0
    manifest = first / "manifest.tsv"
    text = manifest.read_text()
    assert "\nk\t2\n" in text
    manifest.write_text(text.replace("\nk\t2\n", "\nk\t9\n"))
    capsys.readouterr()
    out = tmp_path / "again"
    assert main(["cluster", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {manifest}: k=9 exceeds min(m, n)=3"]
    assert not out.exists()


def test_cluster_doc_ids_that_miscount_the_documents_exit_2(tmp_path, capsys):
    write_matrix_market(tmp_path / "X.mtx", np.arange(1.0, 16.0).reshape(5, 3))
    (tmp_path / "ids4.txt").write_text("a\nb\nc\nd\n")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "nmf", "--x", str(tmp_path / "X.mtx"),
        "--doc-ids", str(tmp_path / "ids4.txt"), "--k", "2", "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err.splitlines() == ["data error: 4 doc ids for 3 documents"]
    assert not out.exists()


def test_cluster_replay_of_another_commands_manifest_exits_2(tmp_path, capsys):
    preprocess_setup(tmp_path)
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        "--out-dir", str(tmp_path / "pp"),
    ]) == 0
    capsys.readouterr()
    manifest = tmp_path / "pp" / "manifest.tsv"
    out = tmp_path / "o"
    assert main(["cluster", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {manifest} is not a cluster manifest"]
    assert not out.exists()


@pytest.mark.parametrize("method", ["joint", "nmf", "symnmf"])
def test_a_numerical_failure_in_the_fit_exits_3(tmp_path, capsys, monkeypatch, method):
    # every method is one joint_nmf fit, so the one patch reaches all three
    def singular(*_):
        raise SingularSystem("no optimum")

    monkeypatch.setattr(cli.factorize, "joint_nmf", singular)
    make_planted_dir(tmp_path)
    given = {"joint": ["--x", "X.mtx", "--edges", "edges.tsv"], "nmf": ["--x", "X.mtx"],
             "symnmf": ["--edges", "edges.tsv"]}[method]
    given = [str(tmp_path / a) if "." in a else a for a in given]
    out = tmp_path / "o"
    assert main(["cluster", "--method", method, *given, "--k", "3", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == ["numerical error: no optimum"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "recommend", "preprocess", "topics"])
def test_an_option_value_is_checked_before_any_input_is_read(tmp_path, capsys, command):
    # a bad option value with a missing first input used to exit 2 for
    # the file
    missing = str(tmp_path / "missing.mtx")
    message = "trials must be at least 1"
    if command == "cluster":
        make_planted_dir(tmp_path)
        argv = ["cluster", "--x", missing, "--edges", str(tmp_path / "edges.tsv"), "--k", "3",
                "--trials", "0"]
    elif command == "recommend":
        recommend_setup(tmp_path)
        argv = [*recommend_args(tmp_path, "o")[:-2], "--trials", "0"]
        argv[argv.index("--train-x") + 1] = missing
    elif command == "preprocess":
        preprocess_setup(tmp_path)
        argv = ["preprocess", "--vocab", missing, "--doc-ids", str(tmp_path / "docs.txt"),
                "--counts", str(tmp_path / "counts.mtx"), "--min-term-df", "-1"]
        message = "thresholds must be nonnegative"
    else:
        argv = ["topics", "--w", missing, "--vocab", missing, "--top-terms", "0"]
        message = "top-terms count must be at least 1"
    assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, given, message", [
    ("cluster", ["--x", "X.mtx", "--similarity", "S.mtx", "--dual"], "dual needs hyperedges"),
    ("cluster", ["--x", "X.mtx", "--similarity", "S.mtx", "--raw-adjacency"],
     "raw adjacency needs edges"),
    ("cluster", ["--x", "X.mtx", "--edges", "edges.tsv", "--dual"], "dual needs hyperedges"),
    ("cluster", ["--x", "X.mtx", "--hyperedges", "hyper.txt", "--raw-adjacency"],
     "raw adjacency needs edges"),
    ("preprocess", ["--edges", "pre/edges.tsv", "--dual"], "dual needs hyperedges"),
    ("preprocess", ["--hyperedges", "hyper.txt", "--raw-adjacency"],
     "raw adjacency needs edges"),
    ("preprocess", ["--dual"], "dual needs hyperedges"),
    ("preprocess", ["--raw-adjacency"], "raw adjacency needs edges"),
    ("cluster", ["--x", "X.mtx", "--similarity", "S.mtx", "--edges", "edges.tsv"],
     "give only one of --similarity, --edges, --hyperedges"),
    ("cluster", ["--edges", "edges.tsv"], "method joint needs --x"),
], ids=["cluster-similarity-dual", "cluster-similarity-raw", "cluster-edges-dual",
        "cluster-hyperedges-raw", "preprocess-edges-dual", "preprocess-hyperedges-raw",
        "preprocess-dual", "preprocess-raw", "cluster-two-sources", "cluster-joint-without-x"])
def test_a_flag_its_similarity_source_does_not_read_is_a_usage_error(
    tmp_path, capsys, command, given, message
):
    # these flags used to go unread, with exit 0 and a manifest recording them
    make_planted_dir(tmp_path)
    write_matrix_market(tmp_path / "S.mtx", np.eye(24))
    (tmp_path / "pre").mkdir()
    preprocess_setup(tmp_path / "pre")
    (tmp_path / "hyper.txt").write_text("0 1 2\n2 3 6\n")
    if command == "preprocess":
        given = ["--vocab", "pre/vocab.txt", "--doc-ids", "pre/docs.txt",
                 "--counts", "pre/counts.mtx", *given]
    else:
        given = [*given, "--k", "3"]
    given = [str(tmp_path / a) if "." in a else a for a in given]
    out = tmp_path / "o"
    assert main([command, *given, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out.exists()


def test_cluster_dual_takes_n_from_the_hyperedges(tmp_path):
    # 24 documents as hyperedges over 40 participant ids, each used: n is
    # the 24 lines, not the largest participant id
    make_planted_dir(tmp_path)
    labels = np.repeat(np.arange(3), 8)
    lines = [" ".join(str(c * 13 + (j + i) % 13) for i in range(6))
             for j, c in enumerate(labels)]
    lines[0] += " 39"
    (tmp_path / "events.txt").write_text("".join(f"{line}\n" for line in lines))
    out = tmp_path / "o"
    assert main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--hyperedges", str(tmp_path / "events.txt"),
        "--dual", "--doc-ids", str(tmp_path / "ids.txt"), "--k", "3", "--out-dir", str(out),
    ]) == 0
    assert read_matrix_market(out / "H.mtx").shape == (3, 24)
    assert len((out / "labels.tsv").read_text().splitlines()) == 24


@pytest.mark.parametrize("source, expect", [
    (["--edges", "tri.tsv", "--raw-adjacency"], None),
    (["--hyperedges", "hyper.txt"], "data error: vertex 3 belongs to no edge"),
], ids=["raw-adjacency", "hyperedges"])
def test_cluster_without_x_takes_n_from_the_doc_ids(tmp_path, capsys, source, expect):
    # document 3 is in no edge; n used to come from the largest id, so both
    # runs failed with `4 doc ids for 3 documents`
    (tmp_path / "tri.tsv").write_text("0\t1\n1\t2\n2\t0\n")
    (tmp_path / "hyper.txt").write_text("0 1\n1 2\n")
    (tmp_path / "ids4.txt").write_text("a\nb\nc\nd\n")
    out = tmp_path / "o"
    code = main([
        "cluster", "--method", "symnmf", *(str(tmp_path / a) if "." in a else a for a in source),
        "--doc-ids", str(tmp_path / "ids4.txt"), "--k", "2", "--out-dir", str(out),
    ])
    if expect is None:
        assert code == 0
        labelled = [line.split("\t")[0] for line in (out / "labels.tsv").read_text().splitlines()]
        assert labelled == ["a", "b", "c", "d"]
    else:
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [expect]


def test_an_inferred_n_with_a_gap_is_a_data_error(tmp_path, capsys):
    # two triangles whose last edge reads 5-300 for 5-3: n used to come
    # from the largest id, and 301 documents were labelled
    (tmp_path / "typo.tsv").write_text("0\t1\n1\t2\n2\t0\n3\t4\n4\t5\n5\t300\n")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "symnmf", "--edges", str(tmp_path / "typo.tsv"), "--raw-adjacency",
        "--k", "2", "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: vertex 6 belongs to no edge, but the largest id 300 sets 301 vertices"
    ]
    assert not out.exists()


@pytest.mark.parametrize("source", [
    ["--edges", "--raw-adjacency"], ["--edges"], ["--hyperedges"],
], ids=["raw-adjacency", "edges", "hyperedges"])
def test_an_empty_graph_file_is_a_data_error_from_every_source(tmp_path, capsys, source):
    # the raw adjacency of no edges used to be a 0 x 0 S, which exited 1
    # with `usage error: k=2 exceeds n=0`
    (tmp_path / "empty").write_text("")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "symnmf", source[0], str(tmp_path / "empty"), *source[1:],
        "--k", "2", "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err.splitlines() == ["data error: graph has no edges"]
    assert not out.exists()


@pytest.mark.parametrize("source", [
    ["--edges", "--raw-adjacency"], ["--edges"], ["--hyperedges"],
], ids=["raw-adjacency", "edges", "hyperedges"])
def test_an_empty_graph_file_beside_x_is_one_data_error_from_every_source(tmp_path, capsys, source):
    # n comes from the 5 columns of X; the three sources used to fail
    # three ways: zero degree, an identically zero S, an empty hypergraph
    write_matrix_market(tmp_path / "X.mtx", np.arange(1.0, 16.0).reshape(3, 5))
    (tmp_path / "empty").write_text("")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "joint", "--x", str(tmp_path / "X.mtx"),
        source[0], str(tmp_path / "empty"), *source[1:], "--k", "2", "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err.splitlines() == ["data error: graph has no edges"]
    assert not out.exists()


def test_an_id_named_only_by_a_self_loop_is_no_gap(tmp_path, capsys):
    # the self-loop is dropped from S, but its line names document 3
    (tmp_path / "loop.tsv").write_text("0\t1\n1\t2\n2\t0\n3\t3\n")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "symnmf", "--edges", str(tmp_path / "loop.tsv"), "--raw-adjacency",
        "--k", "2", "--out-dir", str(out),
    ]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "labels.tsv").read_text().splitlines()) == 4


def test_an_edge_id_beyond_int64_is_a_data_error_naming_its_line(tmp_path, capsys):
    # used to exit 1 with an OverflowError from scipy's index-dtype choice
    edges = tmp_path / "big.tsv"
    edges.write_text("0\t1\n1\t2\n5\t99999999999999999999\n")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "symnmf", "--edges", str(edges), "--raw-adjacency",
        "--k", "2", "--out-dir", str(out),
    ]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {edges}:3: ")
    assert not out.exists()


def test_a_hyperedge_id_beyond_int64_is_a_data_error_naming_its_line(tmp_path, capsys):
    hyper = tmp_path / "h.txt"
    hyper.write_text("0 1 2\n3 4 99999999999999999999\n")
    out = tmp_path / "o"
    assert main(["hypergraph-sim", "--hyperedges", str(hyper), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {hyper}:2: ")
    assert not out.exists()


@pytest.mark.parametrize("top", [100_000_000_000, 2**63 - 1], ids=["1e11", "int64-max"])
def test_a_hyperedge_id_that_sets_a_huge_n_is_a_data_error(tmp_path, capsys, top):
    # n inferred from the largest id: the first used to exit 1 allocating
    # 745 GiB for range(n), the second with an OverflowError for n = 2**63
    hyper = tmp_path / "h.txt"
    hyper.write_text(f"3 4 {top}\n")
    out = tmp_path / "o"
    assert main(["hypergraph-sim", "--hyperedges", str(hyper), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: vertex 0 belongs to no edge, but the largest id {top} sets {top + 1} vertices"
    ]
    assert not out.exists()


def test_hypergraph_sim_dual_takes_huge_participant_ids_by_their_order(tmp_path, capsys):
    # the participants are the dual's edges, so only their order counts;
    # 2**63 - 1 used to exit 1 like the plain hypergraph above
    (tmp_path / "h.txt").write_text(f"0 {2**63 - 1}\n{2**63 - 1} 100000000000\n0 7\n")
    assert main([
        "hypergraph-sim", "--hyperedges", str(tmp_path / "h.txt"), "--dual",
        "--out-dir", str(tmp_path / "o"),
    ]) == 0
    S = read_matrix_market(tmp_path / "o" / "S.mtx")
    expect, _ = dense_similarity(hyperedges=[[0, 3], [3, 2], [0, 1]], n=None, dual=True)
    assert np.max(np.abs(S.toarray() - expect)) <= 1e-14


def test_a_doc_id_with_a_tab_is_a_data_error_where_it_enters(tmp_path, capsys):
    # the id used to pass whole into labels.tsv, which eval then rejected
    (tmp_path / "tri.tsv").write_text("0\t1\n1\t2\n2\t0\n")
    ids = tmp_path / "ids.txt"
    ids.write_text("a\tx\nb\nc\n")
    out = tmp_path / "o"
    assert main([
        "cluster", "--method", "symnmf", "--edges", str(tmp_path / "tri.tsv"), "--raw-adjacency",
        "--doc-ids", str(ids), "--k", "2", "--out-dir", str(out),
    ]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {ids}:1: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["edges.tsv", "ids.txt", "truth.tsv", "X.mtx"])
def test_an_unreadable_input_exits_2_naming_its_file(tmp_path, capsys, name):
    # a non-UTF-8 byte (text) or a truncated Matrix Market file used to
    # exit 1 with the decoder's or parser's message and no file name
    make_planted_dir(tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2] if name.endswith(".mtx") else data[:30] + b"\xff" + data[30:])
    code = main([
        "cluster", "--x", str(tmp_path / "X.mtx"), "--edges", str(tmp_path / "edges.tsv"),
        "--doc-ids", str(tmp_path / "ids.txt"), "--truth", str(tmp_path / "truth.tsv"),
        "--k", "3", "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {path}:")


def write_hyperedges(root, k=3, per_cluster=8):
    """Triples of consecutive documents inside each cluster, plus one bridge."""
    lines = []
    for c in range(k):
        idx = [c * per_cluster + i for i in range(per_cluster)]
        lines.extend(" ".join(str(idx[(i + j) % per_cluster]) for j in range(3))
                     for i in range(per_cluster))
    lines.append(" ".join(str(c * per_cluster) for c in range(k)))
    (root / "hyper.txt").write_text("".join(f"{line}\n" for line in lines))


@pytest.mark.parametrize("given, flag", [
    (["--x", "X.mtx", "--edges", "edges.tsv", "--raw-adjacency"], "raw_adjacency"),
    (["--x", "X.mtx", "--hyperedges", "hyper.txt"], None),
    (["--method", "symnmf", "--hyperedges", "hyper.txt", "--dual"], "dual"),
], ids=["raw-adjacency", "hyperedges", "dual"])
def test_cluster_replay_keeps_similarity_options(tmp_path, given, flag):
    make_planted_dir(tmp_path)
    write_hyperedges(tmp_path)
    given = [str(tmp_path / a) if "." in a else a for a in given]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([
        "cluster", *given, "--k", "3", "--seed", "1", "--max-sweeps", "20",
        "--out-dir", str(first),
    ]) == 0
    assert main([
        "cluster", "--manifest", str(first / "manifest.tsv"), "--out-dir", str(again),
    ]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes()
    manifest = dict(
        line.split("\t") for line in (again / "manifest.tsv").read_text().splitlines()
    )
    if flag is not None:
        assert manifest[flag] == "1"


def option_dests(command):
    """The dests of a subcommand's options, in parser order."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.dest for a in sub.choices[command]._actions if a.dest != "help"]


def test_manifest_lists_every_option_of_its_command(tmp_path, monkeypatch):
    # relative paths on the command line, absolute ones in the manifest
    monkeypatch.chdir(tmp_path)
    make_planted_dir(tmp_path)
    write_hyperedges(tmp_path)
    (tmp_path / "pre").mkdir()
    preprocess_setup(tmp_path / "pre")
    (tmp_path / "rec").mkdir()
    recommend_setup(tmp_path / "rec")
    runs = {
        "preprocess": ["--vocab", "pre/vocab.txt", "--doc-ids", "pre/docs.txt",
                       "--counts", "pre/counts.mtx", "--edges", "pre/edges.tsv"],
        "cluster": ["--x", "X.mtx", "--edges", "edges.tsv", "--k", "3", "--trials", "2"],
        "eval": ["--pred", "truth.tsv", "--truth", "truth.tsv"],
        "recommend": recommend_args(Path("rec"))[1:-2],
        "hypergraph-sim": ["--hyperedges", "hyper.txt"],
        "topics": ["--w", "preprocess/X.mtx", "--vocab", "preprocess/vocab.txt"],
    }
    for command, given in runs.items():
        assert main([command, *given, "--out-dir", command]) == 0
        text = (tmp_path / command / "manifest.tsv").read_text()
        manifest = [line.split("\t") for line in text.splitlines()]
        expected = [d for d in option_dests(command) if d not in ("out_dir", "manifest")]
        if command == "cluster":
            expected.append("seeds")
        assert [key for key, _ in manifest] == ["command", *expected]
        values = dict(manifest)
        assert values["command"] == command
        for option, value in zip(given[::2], given[1::2]):
            if (tmp_path / value).exists():
                value = str((tmp_path / value).resolve())
            assert values[option[2:].replace("-", "_")] == value


# ---------------------------------------------------------------------------
# eval


def test_eval_fixture_values(tmp_path, capsys):
    (tmp_path / "pred.tsv").write_text("i0\t0\ni1\t1\ni2\t1\ni3\t1\n")
    (tmp_path / "truth.tsv").write_text("i0\ta\ni1\ta\ni2\tb\ni3\tb\n")
    code = main([
        "eval", "--pred", str(tmp_path / "pred.tsv"),
        "--truth", str(tmp_path / "truth.tsv"), "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 0
    got = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(got["average_f1"]) == pytest.approx(11.0 / 15.0, abs=1e-12)
    assert float(got["pwf1"]) == 0.4
    assert float(got["pwfpr"]) == 0.5
    assert float(got["pwfnr"]) == 0.5
    assert (got["tp"], got["tn"], got["fp"], got["fn"]) == ("1", "2", "2", "1")
    assert (tmp_path / "o" / "metrics.tsv").exists()


def test_eval_rejects_mismatched_or_soft_predictions(tmp_path):
    (tmp_path / "pred.tsv").write_text("i0\t0\n")
    (tmp_path / "truth.tsv").write_text("i0\ta\ni1\tb\n")
    assert main([
        "eval", "--pred", str(tmp_path / "pred.tsv"), "--truth", str(tmp_path / "truth.tsv"),
    ]) == 2
    (tmp_path / "soft.tsv").write_text("i0\ta\ni0\tb\ni1\ta\n")
    (tmp_path / "truth2.tsv").write_text("i0\ta\ni1\tb\n")
    assert main([
        "eval", "--pred", str(tmp_path / "soft.tsv"), "--truth", str(tmp_path / "truth2.tsv"),
    ]) == 2


# ---------------------------------------------------------------------------
# topics and hypergraph-sim


def test_topics_stdout_and_file(tmp_path, capsys):
    W = np.array([[0.1, 0.8], [0.9, 0.2], [0.5, 0.4]])
    write_matrix_market(tmp_path / "W.mtx", W)
    (tmp_path / "vocab.txt").write_text("a\nb\nc\n")
    assert main([
        "topics", "--w", str(tmp_path / "W.mtx"), "--vocab", str(tmp_path / "vocab.txt"),
        "--top-terms", "2",
    ]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split("\t")[:3] == ["0", "1", "b"]
    assert out[2].split("\t")[:3] == ["1", "1", "a"]
    assert main([
        "topics", "--w", str(tmp_path / "W.mtx"), "--vocab", str(tmp_path / "vocab.txt"),
        "--top-terms", "2", "--out-dir", str(tmp_path / "t"),
    ]) == 0
    assert len((tmp_path / "t" / "topics.tsv").read_text().splitlines()) == 4


def test_topics_vocab_mismatch_exit(tmp_path):
    write_matrix_market(tmp_path / "W.mtx", np.ones((3, 1)))
    (tmp_path / "vocab.txt").write_text("a\nb\n")
    assert main([
        "topics", "--w", str(tmp_path / "W.mtx"), "--vocab", str(tmp_path / "vocab.txt"),
    ]) == 2


def test_hypergraph_sim_matches_library(tmp_path):
    (tmp_path / "h.txt").write_text("0 1 2\n2 3\n")
    assert main([
        "hypergraph-sim", "--hyperedges", str(tmp_path / "h.txt"),
        "--out-dir", str(tmp_path / "o"),
    ]) == 0
    S = read_matrix_market(tmp_path / "o" / "S.mtx")
    expect, _ = dense_similarity(hyperedges=[[0, 1, 2], [2, 3]], n=None)
    assert np.max(np.abs(S.toarray() - expect)) <= 1e-14


def test_hypergraph_sim_dual_skips_an_unused_participant_id(tmp_path):
    # participant 1 is in no document: its empty edge adds nothing to S
    (tmp_path / "h.txt").write_text("0 2\n2 3\n0 3 4\n")
    assert main([
        "hypergraph-sim", "--hyperedges", str(tmp_path / "h.txt"), "--dual",
        "--out-dir", str(tmp_path / "o"),
    ]) == 0
    S = read_matrix_market(tmp_path / "o" / "S.mtx")
    expect, _ = dense_similarity(hyperedges=[[0, 1], [1, 2], [0, 2, 3]], n=None, dual=True)
    assert np.max(np.abs(S.toarray() - expect)) <= 1e-14


def test_hypergraph_sim_with_an_empty_hyperedges_path_is_a_usage_error(tmp_path, capsys):
    # an empty path reads as not given, as in every command; it used to
    # exit 2 for a file named ''
    out = tmp_path / "o"
    assert main(["hypergraph-sim", "--hyperedges", "", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["usage error: hypergraph-sim needs --hyperedges"]
    assert not out.exists()


def test_hypergraph_sim_dual(tmp_path):
    (tmp_path / "h.txt").write_text("0 1\n1 2\n")
    assert main([
        "hypergraph-sim", "--hyperedges", str(tmp_path / "h.txt"), "--dual",
        "--out-dir", str(tmp_path / "o"),
    ]) == 0
    S = read_matrix_market(tmp_path / "o" / "S.mtx")
    assert S.shape == (2, 2)  # dual vertices = original edges


# ---------------------------------------------------------------------------
# recommend


def recommend_setup(tmp_path):
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(3), 8)
    W = np.zeros((30, 3))
    for c in range(3):
        W[c * 10:(c + 1) * 10, c] = 1.0
    H = np.zeros((3, 24))
    H[labels, np.arange(24)] = 1.0
    X = W @ H + 0.05 * rng.random((30, 24))
    test_mask = np.arange(24) % 8 == 7
    tr = np.flatnonzero(~test_mask)
    te = np.flatnonzero(test_mask)
    write_matrix_market(tmp_path / "Xtr.mtx", X[:, tr])
    write_matrix_market(tmp_path / "Xte.mtx", X[:, te])
    (tmp_path / "tr.txt").write_text("".join(f"doc{i}\n" for i in tr))
    (tmp_path / "te.txt").write_text("".join(f"doc{i}\n" for i in te))
    pos = {int(d): j for j, d in enumerate(tr)}
    lines = []
    for c in range(3):
        idx = [i for i in tr if labels[i] == c]
        lines.extend(f"{pos[a]}\t{pos[b]}\n" for a, b in zip(idx, idx[1:] + idx[:1]))
    (tmp_path / "tr_edges.tsv").write_text("".join(lines))
    cites = [
        f"doc{i}\tdoc{j}\n" for i in te for j in tr if labels[i] == labels[j]
    ]
    (tmp_path / "cites.tsv").write_text("".join(cites))


def recommend_args(tmp_path, out="rec"):
    return [
        "recommend", "--train-x", str(tmp_path / "Xtr.mtx"),
        "--train-ids", str(tmp_path / "tr.txt"),
        "--edges", str(tmp_path / "tr_edges.tsv"),
        "--test-x", str(tmp_path / "Xte.mtx"), "--test-ids", str(tmp_path / "te.txt"),
        "--citations", str(tmp_path / "cites.tsv"),
        "--k", "3", "--seed", "0", "--out-dir", str(tmp_path / out),
    ]


def test_recommend_end_to_end(tmp_path, capsys):
    recommend_setup(tmp_path)
    assert main(recommend_args(tmp_path) + ["--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    aucs = dict(
        line.split("\t") for line in out.strip().splitlines() if line.startswith("auc_")
    )
    assert set(aucs) == {
        "auc_joint_inner", "auc_joint_cosine", "auc_nmf1_inner", "auc_nmf1_cosine",
        "auc_nmf2_inner", "auc_nmf2_cosine", "auc_sharedwords",
    }
    assert abs(float(aucs["auc_joint_cosine"]) - 1.0) <= 1e-9
    rec = (tmp_path / "rec" / "rec_joint_cosine.tsv").read_text().splitlines()
    assert len(rec) > 0
    for line in rec:
        _, _, score = line.split("\t")
        assert float(score) > 0.5
    roc = (tmp_path / "rec" / "roc_joint_cosine.tsv").read_text().splitlines()
    assert roc[0] == "0.0\t0.0"
    assert roc[-1] == "1.0\t1.0"


def test_recommend_infinite_threshold_empties_lists(tmp_path):
    recommend_setup(tmp_path)
    assert main(recommend_args(tmp_path, "rec2") + ["--threshold", "inf"]) == 0
    for f in (tmp_path / "rec2").glob("rec_*.tsv"):
        assert f.read_text() == ""


def test_recommend_empty_test_set_exits_2(tmp_path):
    recommend_setup(tmp_path)
    write_matrix_market(tmp_path / "Xempty.mtx", sparse.csc_array((30, 0)))
    (tmp_path / "te_empty.txt").write_text("")
    args = recommend_args(tmp_path, "rec3")
    args[args.index("--test-x") + 1] = str(tmp_path / "Xempty.mtx")
    args[args.index("--test-ids") + 1] = str(tmp_path / "te_empty.txt")
    assert main(args) == 2


def test_recommend_nonfinite_test_document_exits_2(tmp_path):
    recommend_setup(tmp_path)
    X = read_matrix_market(tmp_path / "Xte.mtx")
    X[0, 1] = np.nan
    write_matrix_market(tmp_path / "Xte_nan.mtx", X)
    args = recommend_args(tmp_path, "rec5")
    args[args.index("--test-x") + 1] = str(tmp_path / "Xte_nan.mtx")
    assert main(args) == 2


def test_recommend_zero_test_document_exits_2_before_fitting(tmp_path, capsys, monkeypatch):
    recommend_setup(tmp_path)
    X = read_matrix_market(tmp_path / "Xte.mtx")
    X[:, 1] = 0.0
    write_matrix_market(tmp_path / "Xte_zero.mtx", X)
    args = recommend_args(tmp_path, "rec8")
    args[args.index("--test-x") + 1] = str(tmp_path / "Xte_zero.mtx")

    def no_fit(*_):
        raise AssertionError("fitted before checking the test documents")

    module = importlib.import_module("jointnmf.recommend")
    monkeypatch.setattr(module, "joint_nmf", no_fit)
    monkeypatch.setattr(module, "nmf", no_fit)
    monkeypatch.setattr(module, "nmf_each", no_fit)
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: test_x column 1 is identically zero"
    ]


def test_recommend_nan_threshold_is_a_usage_error(tmp_path, capsys):
    recommend_setup(tmp_path)
    assert main(recommend_args(tmp_path, "rec9") + ["--threshold", "nan"]) == 1
    assert capsys.readouterr().err.splitlines() == ["usage error: --threshold must not be NaN"]
    assert not (tmp_path / "rec9").exists()
    # -inf keeps its meaning: every training document of every test document
    assert main(recommend_args(tmp_path, "rec10") + ["--threshold=-inf"]) == 0
    for f in (tmp_path / "rec10").glob("rec_*.tsv"):
        assert len(f.read_text().splitlines()) == 3 * 21


def test_recommend_negative_infinity_is_a_value_in_either_form(tmp_path, capsys):
    # argparse reads "-inf" or "-1e-3" after a flag as an option unless
    # told otherwise
    recommend_setup(tmp_path)
    for eq, values in (("-inf", ("-inf", "-Infinity")), ("-1e-3", ("-1e-3", "-0.001"))):
        assert main(recommend_args(tmp_path, eq) + [f"--threshold={eq}"]) == 0
        for value in values:
            assert main(recommend_args(tmp_path, "space" + value) + ["--threshold", value]) == 0
            for f in sorted((tmp_path / eq).glob("rec_*.tsv")):
                assert (tmp_path / ("space" + value) / f.name).read_bytes() == f.read_bytes(), (value, f.name)
    capsys.readouterr()
    # other float flags take it too, and their own checks reject it
    assert main(recommend_args(tmp_path, "alpha") + ["--alpha", "-inf"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage error: alpha must be finite and nonnegative"]
    for value in ("-nan", "nan"):
        assert main(recommend_args(tmp_path, "nan") + ["--threshold", value]) == 1
    assert not (tmp_path / "nan").exists()


def test_recommend_ranks_picks_by_score_then_train_index(tmp_path, monkeypatch):
    # crafted scores with ties (0.0 and -0.0 among them): each test
    # document's picks run best first, ties in ascending train index
    recommend_setup(tmp_path)
    rng = np.random.default_rng(3)
    scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(3, 21))
    cli_module = importlib.import_module("jointnmf.cli")
    monkeypatch.setattr(cli_module, "evaluate", lambda *_: {"joint_inner": scores})
    assert main(recommend_args(tmp_path, "ties") + ["--threshold", "-0.5"]) == 0
    test_ids = (tmp_path / "te.txt").read_text().split()
    train_ids = (tmp_path / "tr.txt").read_text().split()
    want = "".join(
        f"{test_ids[t]}\t{train_ids[j]}\t{float(row[j])!r}\n"
        for t, row in enumerate(scores)
        for j in sorted(np.flatnonzero(row > -0.5).tolist(), key=lambda j: (-row[j], j))
    )
    assert (tmp_path / "ties" / "rec_joint_inner.tsv").read_text() == want


def test_recommend_rejects_two_similarity_sources(tmp_path, capsys):
    # --similarity used to win silently over --edges
    recommend_setup(tmp_path)
    write_matrix_market(tmp_path / "S.mtx", np.eye(21))
    args = recommend_args(tmp_path, "rec7")
    args[-2:-2] = ["--similarity", str(tmp_path / "S.mtx")]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage error: recommend needs exactly one of --similarity or --edges"
    ]
    assert not (tmp_path / "rec7").exists()


def test_recommend_without_k_is_a_usage_error(tmp_path, capsys):
    recommend_setup(tmp_path)
    args = recommend_args(tmp_path, "rec11")
    del args[args.index("--k"):args.index("--k") + 2]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["usage error: --k is required"]
    assert not (tmp_path / "rec11").exists()


@pytest.mark.parametrize("side, message", [
    ("train", "20 train ids for 21 columns"), ("test", "2 test ids for 3 columns"),
])
def test_recommend_ids_that_miscount_their_columns_exit_2(tmp_path, capsys, side, message):
    recommend_setup(tmp_path)
    ids = tmp_path / {"train": "tr.txt", "test": "te.txt"}[side]
    ids.write_text("".join(ids.read_text().splitlines(keepends=True)[:-1]))
    assert main(recommend_args(tmp_path, "rec12")) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not (tmp_path / "rec12").exists()


def test_recommend_similarity_of_the_raw_adjacency_equals_the_edges_run(tmp_path, capsys):
    recommend_setup(tmp_path)
    edges = [tuple(map(int, line.split())) for line in
             (tmp_path / "tr_edges.tsv").read_text().splitlines()]
    A, _ = dense_similarity(edges=edges, n=21, raw_adjacency=True)
    write_matrix_market(tmp_path / "A.mtx", sparse.csc_array(A))
    runs = []
    for out, source in (("by_edges", []), ("by_similarity", ["--similarity", str(tmp_path / "A.mtx")])):
        args = recommend_args(tmp_path, out)
        if source:
            args[args.index("--edges"):args.index("--edges") + 2] = source
        assert main(args) == 0
        printed = capsys.readouterr().out.splitlines()
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / out).glob("r*_*.tsv"))}
        runs.append(([line for line in printed if line.startswith("auc_")], files))
    assert len(runs[0][0]) == 7 and len(runs[0][1]) == 14
    assert runs[0] == runs[1]


def test_recommend_unknown_citation_id_exits_2(tmp_path):
    recommend_setup(tmp_path)
    (tmp_path / "bad_cites.tsv").write_text("docX\tdoc0\n")
    args = recommend_args(tmp_path, "rec4")
    args[args.index("--citations") + 1] = str(tmp_path / "bad_cites.tsv")
    assert main(args) == 2


def test_recommend_duplicate_test_id_exits_2(tmp_path, capsys):
    # the citation flags are indexed by id, so an id must name one document
    recommend_setup(tmp_path)
    (tmp_path / "te_dup.txt").write_text("doc7\ndoc7\ndoc23\n")
    args = recommend_args(tmp_path, "rec6")
    args[args.index("--test-ids") + 1] = str(tmp_path / "te_dup.txt")
    assert main(args) == 2
    assert "test ids are not unique" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# preprocess


def preprocess_setup(tmp_path):
    C = np.array([
        [3.0, 2.0, 0.0, 1.0, 1.0, 3.0, 2.0],
        [2.0, 3.0, 4.0, 0.0, 1.0, 2.0, 3.0],
        [1.0, 0.0, 2.0, 3.0, 0.0, 1.0, 1.0],
        [0.0, 4.0, 1.0, 2.0, 1.0, 0.0, 2.0],
        [5.0, 1.0, 3.0, 4.0, 0.0, 5.0, 1.0],
        [0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0],
    ])
    write_matrix_market(tmp_path / "counts.mtx", sparse.csc_array(C))
    (tmp_path / "vocab.txt").write_text("alpha\nbravo\ncharlie\ndelta\necho\nrare\n")
    (tmp_path / "docs.txt").write_text("d0\nd1\nd2\nd3\nd4\nd5\nd6\n")
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n2\t3\n4\t0\n5\t3\n")


def test_preprocess_end_to_end(tmp_path):
    preprocess_setup(tmp_path)
    out = tmp_path / "pp"
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        "--edges", str(tmp_path / "edges.tsv"), "--out-dir", str(out),
    ]) == 0
    assert (out / "vocab.txt").read_text().splitlines() == [
        "alpha", "bravo", "charlie", "delta", "echo",
    ]
    # d4 is short, d5 duplicates d0, d6 has no edges
    assert (out / "doc_ids.txt").read_text().splitlines() == ["d0", "d1", "d2", "d3"]
    X = read_matrix_market(out / "X.mtx")
    S = read_matrix_market(out / "S.mtx")
    assert X.shape == (5, 4) and S.shape == (4, 4)
    norms = np.sqrt((X.toarray() ** 2).sum(axis=0))
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    report = (out / "report.txt").read_text()
    assert "term\trare" in report
    assert "short\td4" in report
    assert "duplicate\td5" in report
    assert "outside\td6" in report


def test_preprocess_hyperedges_reports_outside_in_order(tmp_path):
    preprocess_setup(tmp_path)
    # after filtering d0 d1 d2 d3 d6 remain; the component is d1 d2 d6
    (tmp_path / "hyper.txt").write_text("1 2 6\n0 4\n3 5\n")
    out = tmp_path / "pph"
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        "--hyperedges", str(tmp_path / "hyper.txt"), "--out-dir", str(out),
    ]) == 0
    assert (out / "doc_ids.txt").read_text().splitlines() == ["d1", "d2", "d6"]
    report = (out / "report.txt").read_text().splitlines()
    assert "docs_outside_component\t2" in report
    assert [line for line in report if line.startswith("outside\t")] == [
        "outside\td0", "outside\td3",
    ]


def test_preprocess_hyperedges_take_n_from_the_corpus(tmp_path):
    # d4, d5 and d6 are in no hyperedge, so the largest id is 3 of 7
    preprocess_setup(tmp_path)
    (tmp_path / "hyper.txt").write_text("0 1 2\n1 2 3\n")
    out = tmp_path / "pph"
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        "--hyperedges", str(tmp_path / "hyper.txt"), "--out-dir", str(out),
    ]) == 0
    assert (out / "doc_ids.txt").read_text().splitlines() == ["d0", "d1", "d2", "d3"]
    assert "outside\td6" in (out / "report.txt").read_text().splitlines()
    assert read_matrix_market(out / "S.mtx").shape == (4, 4)


def test_preprocess_without_graph(tmp_path):
    preprocess_setup(tmp_path)
    out = tmp_path / "pp2"
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        "--out-dir", str(out),
    ]) == 0
    assert not (out / "S.mtx").exists()
    assert (out / "doc_ids.txt").read_text().splitlines() == ["d0", "d1", "d2", "d3", "d6"]


@pytest.mark.parametrize("edges", [False, True], ids=["no-graph", "edges"])
def test_preprocess_repeated_doc_id_exits_2(tmp_path, capsys, edges):
    # d1 is listed again in place of d3
    preprocess_setup(tmp_path)
    (tmp_path / "docs.txt").write_text("d0\nd1\nd2\nd1\nd4\nd5\nd6\n")
    out = tmp_path / "pp"
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        *(["--edges", str(tmp_path / "edges.tsv")] if edges else []), "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err == "data error: doc ids are not unique: 'd1' repeats\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "topics"])
def test_repeated_vocab_term_exits_2(tmp_path, capsys, command):
    # a term listed twice would be ranked twice by topics; alpha is
    # listed again in place of delta
    preprocess_setup(tmp_path)
    (tmp_path / "vocab.txt").write_text("alpha\nbravo\ncharlie\nalpha\necho\nrare\n")
    write_matrix_market(tmp_path / "W.mtx", np.ones((6, 2)))
    given = {
        "preprocess": ["--doc-ids", "docs.txt", "--counts", "counts.mtx", "--edges", "edges.tsv"],
        "topics": ["--w", "W.mtx"],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--vocab", str(tmp_path / "vocab.txt"),
                 *(str(tmp_path / a) if "." in a else a for a in given),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "data error: vocab terms are not unique: 'alpha' repeats\n"
    assert not out.exists()


def test_preprocess_empty_corpus_exits_2(tmp_path):
    preprocess_setup(tmp_path)
    assert main([
        "preprocess", "--vocab", str(tmp_path / "vocab.txt"),
        "--doc-ids", str(tmp_path / "docs.txt"), "--counts", str(tmp_path / "counts.mtx"),
        "--min-doc-len", "1000", "--out-dir", str(tmp_path / "pp3"),
    ]) == 2


# ---------------------------------------------------------------------------
# parser behavior


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_runs_without_runtime_warning(child_env):
    # `python -m jointnmf.cli` must not find jointnmf.cli already imported
    # by the package, which Python reports as a RuntimeWarning
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "jointnmf.cli", "--help"],
        env=child_env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    assert main(["topics"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["--k", "x", "--out-dir", "o"], "argument --k: invalid int value: 'x'"),
    (["--method", "bogus", "--out-dir", "o"],
     "argument --method: invalid choice: 'bogus' (choose from 'joint', 'nmf', 'symnmf')"),
    (["--k", "3", "--out-dir", "o", "--bogus"], "unrecognized arguments: --bogus"),
    (["--k", "3"], "the following arguments are required: --out-dir"),
], ids=["bad-int", "bad-choice", "unknown-option", "missing-out-dir"])
def test_a_parse_error_is_one_usage_line(tmp_path, capsys, monkeypatch, argv, message):
    # argparse used to print its usage block before the error
    monkeypatch.chdir(tmp_path)
    assert main(["cluster", *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not (tmp_path / "o").exists()
