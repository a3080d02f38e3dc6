"""Garbled input files: the CLI exits 0, 2 or 3 with a one-line message.

Every input file the cluster and recommend commands read is truncated,
flipped and spliced with seeded tokens.  The cases run through
`cli.main` in one child process (this file run as a script), so a
crash in a parser fails the test instead of killing pytest.
"""

import contextlib
import io
import json
import subprocess
import sys
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


if __name__ == "__main__":
    print(json.dumps(_run_all(Path(sys.argv[1]))))
