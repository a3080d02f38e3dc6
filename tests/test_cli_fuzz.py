"""Garbled input files and inputs at their limits: the CLI exits with a
one-line message, never a traceback.

Every input file the cluster and recommend commands read, a finished
cluster run's manifest among them, is truncated, flipped and spliced
with seeded tokens.  The cases run through
`cli.main` in one child process (this file run as a script), so a
crash in a parser fails the test instead of killing pytest.  The
limit cases (ids at and past int64, huge Matrix Market headers, k at
min(m, n), a vertex count set by one large id, complex Matrix Market
files, entries whose squared norm overflows) run in-process.
"""

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import sparse

from jointnmf.cli import main
from jointnmf.matrix import write_matrix_market

VARIANTS_PER_FILE = 40
TOKENS = (b"\t", b"-", b"x", b"\xff", b"1e400", b"nan", b"\n")


def _fixture(root):
    """Two planted clusters of 4 documents each, every input file of cluster and recommend."""
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1], 4)
    X = np.zeros((12, 8))
    X[:6, labels == 0] = 1.0
    X[6:, labels == 1] = 1.0
    X = sparse.csc_array(X + 0.1 * (rng.random(X.shape) < 0.3))
    write_matrix_market(root / "X.mtx", X)
    write_matrix_market(root / "S.mtx", sparse.csc_array(X.T @ X))
    ring = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)]
    (root / "edges.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in ring))
    (root / "hyper.txt").write_text("0 1 2\n2 3 0\n4 5 6\n6 7 4\n3 4\n")
    (root / "ids.txt").write_text("".join(f"doc{i}\n" for i in range(8)))
    (root / "truth.tsv").write_text("".join(f"doc{i}\tc{c}\n" for i, c in enumerate(labels)))
    # recommend: train on the first 6 documents, query with the last 2
    write_matrix_market(root / "Xtr.mtx", sparse.csc_array(X[:, :6]))
    write_matrix_market(root / "Xte.mtx", sparse.csc_array(X[:, 6:]))
    (root / "tr.txt").write_text("".join(f"doc{i}\n" for i in range(6)))
    (root / "te.txt").write_text("doc6\ndoc7\n")
    (root / "tr_edges.tsv").write_text("0\t1\n1\t2\n2\t3\n3\t0\n4\t5\n5\t0\n")
    (root / "cites.tsv").write_text("doc6\tdoc4\ndoc6\tdoc5\ndoc7\tdoc4\n")


def _commands(root, out):
    """Per garbled file, the command that reads it; {} stands for the file."""
    r = lambda name: str(root / name)  # noqa: E731
    cluster = ["cluster", "--k", "2", "--max-sweeps", "5", "--out-dir", str(out)]
    recommend = [
        "recommend", "--train-x", r("Xtr.mtx"), "--train-ids", r("tr.txt"),
        "--edges", r("tr_edges.tsv"), "--test-x", r("Xte.mtx"), "--test-ids", r("te.txt"),
        "--citations", "{}", "--k", "2", "--max-sweeps", "5", "--out-dir", str(out),
    ]
    return {
        "X.mtx": cluster + ["--x", "{}", "--similarity", r("S.mtx")],
        "S.mtx": cluster + ["--x", r("X.mtx"), "--similarity", "{}"],
        "edges.tsv": cluster + ["--x", r("X.mtx"), "--edges", "{}"],
        "hyper.txt": cluster + ["--x", r("X.mtx"), "--hyperedges", "{}"],
        "truth.tsv": cluster + ["--x", r("X.mtx"), "--edges", r("edges.tsv"),
                                "--doc-ids", r("ids.txt"), "--truth", "{}"],
        "ids.txt": cluster + ["--x", r("X.mtx"), "--edges", r("edges.tsv"),
                              "--doc-ids", "{}", "--truth", r("truth.tsv")],
        "cites.tsv": recommend,
        "manifest.tsv": ["cluster", "--manifest", "{}", "--out-dir", str(out)],
    }


def _variants(data, rng, count):
    """Seeded truncations, byte flips and inserted tokens of data."""
    out = []
    for v in range(count):
        at = int(rng.integers(0, len(data) + 1))
        kind = v % 3
        if kind == 0:
            out.append(data[:at])
        elif kind == 1 and at < len(data):
            flipped = data[at] ^ int(rng.integers(1, 256))
            out.append(data[:at] + bytes([flipped]) + data[at + 1:])
        else:
            token = TOKENS[int(rng.integers(0, len(TOKENS)))]
            out.append(data[:at] + token + data[at:])
    return out


def _run_all(root):
    """Run every garbled case; return the ones that broke the exit contract."""
    _fixture(root)
    argv = _commands(root, root / "run")["edges.tsv"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(root / "edges.tsv") if a == "{}" else a for a in argv]) == 0
    (root / "manifest.tsv").write_bytes((root / "run" / "manifest.tsv").read_bytes())
    rng = np.random.default_rng(0)
    bad = []
    for name, argv in _commands(root, root / "out").items():
        original = (root / name).read_bytes()
        for i, data in enumerate(_variants(original, rng, VARIANTS_PER_FILE)):
            garbled = root / f"garbled_{i}_{name}"
            garbled.write_bytes(data)
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                try:
                    code = main([str(garbled) if a == "{}" else a for a in argv])
                except Exception as exc:  # an escape from main is a failure
                    code = f"raised {type(exc).__name__}: {exc}"
            lines = err.getvalue().splitlines()
            if code not in (0, 2, 3) or len(lines) != (code != 0):
                bad.append({"file": name, "data": data.decode("latin-1"),
                            "code": code, "stderr": lines})
            garbled.unlink()
    return bad


def test_garbled_inputs_exit_0_2_or_3_with_one_line(tmp_path, child_env):
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, f"child exited {done.returncode}: {done.stderr[-2000:]}"
    bad = json.loads(done.stdout)
    assert bad == [], f"{len(bad)} case(s), first: {bad[0]}"


TOP = 2**63 - 1  # the largest id that fits int64
HUGE_HEADER = "%%MatrixMarket matrix coordinate real general\n3 100000000000 1\n1 1 1.0\n"


def _limit_cases(root):
    """(argv, exit code, a fragment of its stderr line) per input at its limit."""
    r = lambda name: str(root / name)  # noqa: E731
    for top in (TOP, 2**64):
        (root / f"edges_{top}.tsv").write_text(f"0\t1\n1\t{top}\n")
    (root / "hyper_top.txt").write_text(f"0 1\n1 {TOP}\n")
    (root / "huge.mtx").write_text(HUGE_HEADER)
    (root / "vocab.txt").write_text("".join(f"t{i}\n" for i in range(12)))
    out = ["--out-dir", r("out")]
    symnmf = ["cluster", "--method", "symnmf", "--k", "2", "--max-sweeps", "5", *out]
    recommend = [
        "recommend", "--train-x", r("Xtr.mtx"), "--train-ids", r("tr.txt"),
        "--test-x", r("Xte.mtx"), "--test-ids", r("te.txt"), "--citations", r("cites.tsv"),
        "--k", "2", "--max-sweeps", "5", *out,
    ]
    preprocess = ["preprocess", "--vocab", r("vocab.txt"), "--doc-ids", r("ids.txt"),
                  "--counts", r("X.mtx"), "--min-term-df", "1", "--min-doc-len", "1", *out]
    outside = "outside [0, "
    at_line = ":2: expected"  # an id past int64 is a malformed line
    for top in (TOP, 2**64):
        edges = ["--edges", r(f"edges_{top}.tsv")]
        given_n = outside if top == TOP else at_line
        yield [*symnmf, *edges], 2, "belongs to no edge" if top == TOP else at_line
        yield [*symnmf, *edges, "--doc-ids", r("ids.txt")], 2, given_n
        yield [*recommend, *edges], 2, given_n
        yield [*preprocess, *edges], 2, given_n
    hyper = ["--hyperedges", r("hyper_top.txt")]
    yield ["hypergraph-sim", *hyper, *out], 2, f"the largest id {TOP} sets"
    yield ["hypergraph-sim", *hyper, "--dual", *out], 0, ""
    yield [*symnmf, *hyper], 2, f"the largest id {TOP} sets"
    yield ["cluster", "--x", r("X.mtx"), *hyper, "--k", "2", *out], 2, outside
    yield ["cluster", "--method", "nmf", "--x", r("huge.mtx"), "--k", "1", *out], 2, "huge.mtx"
    yield ["cluster", "--method", "symnmf", "--similarity", r("huge.mtx"), "--k", "1", *out], 2, "huge.mtx"
    yield [*recommend[:2], r("huge.mtx"), *recommend[3:], "--similarity", r("S.mtx")], 2, "huge.mtx"
    yield ["topics", "--w", r("huge.mtx"), "--vocab", r("vocab.txt")], 2, "huge.mtx"
    gap = "vertex 2 belongs to no edge, but the largest id 10000000 sets 10000001 vertices"
    (root / "gap_edges.tsv").write_text("0\t1\n1\t10000000\n")
    (root / "gap_hyper.txt").write_text("0 1\n1 10000000\n")
    yield [*symnmf, "--edges", r("gap_edges.tsv"), "--raw-adjacency"], 2, gap
    yield [*symnmf, "--hyperedges", r("gap_hyper.txt")], 2, gap
    # X is 12 x 8
    nmf = ["cluster", "--method", "nmf", "--x", r("X.mtx"), "--max-sweeps", "5", *out]
    yield [*nmf, "--k", "8"], 0, ""
    yield [*nmf, "--k", "9"], 1, "k=9 exceeds min(m, n)=8"
    # a complex file is refused, not read as its real part; as topics'
    # W it has a row per vocab term
    header = "%%MatrixMarket matrix {} complex general\n"
    (root / "complex.mtx").write_text(header.format("coordinate") + "12 2 2\n1 1 1 2\n2 2 1 0\n")
    (root / "complex_array.mtx").write_text(header.format("array") + "12 1\n" + "1 1\n" * 12)
    for name in ("complex.mtx", "complex_array.mtx"):
        yield ["cluster", "--method", "nmf", "--x", r(name), "--k", "1", *out], 2, f"{name}: complex"
        yield ["topics", "--w", r(name), "--vocab", r("vocab.txt")], 2, f"{name}: complex"
    # a squared norm past float64's range would turn a weight to 0 or
    # the fit's products to inf
    coordinate = "%%MatrixMarket matrix coordinate real general\n"
    (root / "X_two.mtx").write_text(coordinate + "3 2 2\n1 1 1\n2 2 1\n")
    (root / "X_huge.mtx").write_text(coordinate + "3 2 2\n1 1 1e200\n2 2 1\n")
    (root / "S_huge.mtx").write_text(coordinate + "2 2 2\n1 1 1e200\n2 2 1\n")
    yield ["cluster", "--method", "nmf", "--x", r("X_huge.mtx"), "--k", "1", *out], 2, \
        "the squared norm of X overflows"
    yield ["cluster", "--x", r("X_two.mtx"), "--similarity", r("S_huge.mtx"), "--k", "1", *out], \
        2, "the squared norm of S overflows"


def test_inputs_at_their_limits_exit_with_one_line(tmp_path):
    # every case stays under 16 MiB traced: the gap cases set 10,000,001
    # vertices, whose int64 array alone is 76 MiB, so a gap check made
    # after anything n-sized is built fails here; tracemalloc counts the
    # huge header's refused 745 GiB request, so those cases are exempt
    _fixture(tmp_path)
    for argv, want, fragment in _limit_cases(tmp_path):
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = err.getvalue().splitlines()
        assert (code, len(lines)) == (want, int(want != 0)), (argv, lines)
        assert fragment in "".join(lines), (argv, lines)
        assert peak < 16 * 2**20 or str(tmp_path / "huge.mtx") in argv, (argv, peak)


if __name__ == "__main__":
    print(json.dumps(_run_all(Path(sys.argv[1]))))
