"""One benchmark worker: set up one workload and run it once.

The launcher (run.py) starts every worker as a fresh interpreter, so the
set-up time and peak RSS reported here belong to one execution of this
workload alone.  The worker prints one JSON object on stdout:

    {"setup_s": ..., "peak_rss_mb": ..., "ops": [...], "env": {...}, "layers": {...}}

"ops" lists the workload's operations with wall time, whether the output
checks passed, and the quality anchors read from the outputs.  With
--spans the public functions of every package module are wrapped (see
spans.py) and the per-layer metrics of the run are added.

The package is driven only through its public entry points:
jointnmf.cli.main for the CLI workloads, and the public functions of
matrix, graph, factorize and metrics for solve-k10.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
TRACER = None  # a spans.Tracer when the worker runs traced

K = 10
SOLVE_SWEEPS = 10
CLUSTER_SWEEPS = 3
RECOMMEND_SWEEPS = 5
AUC_NAMES = ("joint_inner", "joint_cosine", "nmf1_inner", "nmf1_cosine",
             "nmf2_inner", "nmf2_cosine", "sharedwords")
# the objective may rise by rounding only
DESCENT_RTOL = 1e-12


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def _finite_unit(x, what):
    check(math.isfinite(x) and 0.0 <= x <= 1.0, f"{what}={x!r} not a finite value in [0, 1]")


def _non_increasing(history, what):
    for a, b in zip(history, history[1:]):
        check(b <= a + DESCENT_RTOL * abs(a), f"{what} increases: {a!r} -> {b!r}")


# ---------------------------------------------------------------------------
# workloads: setup(data_dir) -> state, then ops(state, scratch) lists
# (name, thunk) pairs.  A thunk makes the timed call and returns a
# verifier, which runs untimed and returns the anchors it read.


class SolveK10:
    """joint_nmf at k=10 on a planted M-case problem, then F1 against truth."""

    name = "solve-k10"

    def setup(self, data):
        from jointnmf import graph, matrix, metrics

        X = matrix.read_matrix_market(data / "X.mtx")
        g = graph.symmetrize(graph.read_edge_list(data / "edges.tsv"), n_vertices=X.shape[1])
        S = graph.normalized_adjacency(g)
        matrix.require_symmetric(S, what="S")
        truth_map = metrics.read_labels(data / "truth.tsv")
        truth = [truth_map[str(i)] for i in range(X.shape[1])]
        return X, S, truth

    def ops(self, state, scratch):
        from jointnmf import factorize, metrics

        X, S, truth = state
        opts = factorize.FactorizeOptions(k=K, max_sweeps=SOLVE_SWEEPS, rel_tol=0.0, seed=0)
        out = {}

        def solve():
            out["res"] = factorize.joint_nmf(X, S, opts)

            def verify():
                hist = out["res"].objective_history
                check(len(hist) == SOLVE_SWEEPS, f"{len(hist)} sweeps, expected {SOLVE_SWEEPS}")
                check(all(math.isfinite(v) for v in hist), "nonfinite objective")
                _non_increasing(hist, "objective")
                return {"objective": hist[-1]}
            return verify

        def score():
            labels = factorize.hard_assign(out["res"].H)
            f1 = metrics.average_f1(metrics.confusion(labels, truth, n_pred_clusters=K))

            def verify():
                check(len(labels) == X.shape[1], "labels do not cover every document")
                _finite_unit(f1, "average_f1")
                return {"avg_f1": f1}
            return verify

        return [("solve", solve), ("score", score)]

class CorpusCli:
    """preprocess --edges, cluster --method joint --truth, eval, all through cli.main."""

    name = "corpus-cli"

    def setup(self, data):
        kept = [line.split("\t")[0] for line in (data / "truth.tsv").read_text().splitlines()]
        return data, kept

    def ops(self, state, scratch):
        data, kept = state
        pre, clu = scratch / "pre", scratch / "cluster"
        captured = {}

        def preprocess():
            _cli(captured, "preprocess", [
                "--counts", data / "counts.mtx", "--vocab", data / "vocab.txt",
                "--doc-ids", data / "ids.txt", "--edges", data / "edges.tsv",
                "--out-dir", pre,
            ])

            def verify():
                ids = (pre / "doc_ids.txt").read_text().split()
                check(sorted(ids) == sorted(kept), "preprocess kept other documents than planted")
                return {}
            return verify

        def cluster():
            _cli(captured, "cluster", [
                "--method", "joint", "--x", pre / "X.mtx", "--similarity", pre / "S.mtx",
                "--doc-ids", pre / "doc_ids.txt", "--truth", data / "truth.tsv",
                "--k", K, "--max-sweeps", CLUSTER_SWEEPS, "--tol", 0, "--seed", 0,
                "--out-dir", clu,
            ])

            def verify():
                hist = [float(line.split("\t")[1])
                        for line in (clu / "objective.log").read_text().splitlines()]
                check(len(hist) == CLUSTER_SWEEPS, f"objective.log has {len(hist)} sweeps")
                check(all(math.isfinite(v) for v in hist), "nonfinite objective")
                _non_increasing(hist, "objective.log")
                labelled = [line.split("\t")[0]
                            for line in (clu / "labels.tsv").read_text().splitlines()]
                check(sorted(labelled) == sorted(kept), "labels.tsv does not cover every kept doc")
                return {"objective": hist[-1]}
            return verify

        def evaluate():
            _cli(captured, "eval", ["--pred", clu / "labels.tsv", "--truth", data / "truth.tsv"])

            def verify():
                rows = dict(line.split("\t") for line in captured["eval"].splitlines())
                f1 = float(rows["average_f1"])
                _finite_unit(f1, "average_f1")
                return {"avg_f1": f1}
            return verify

        return [("preprocess", preprocess), ("cluster", cluster), ("eval", evaluate)]

class RecommendCli:
    """recommend --edges with the paper's method and the three baselines."""

    name = "recommend-cli"

    def setup(self, data):
        return data

    def ops(self, state, scratch):
        data = state
        out = scratch / "recommend"
        captured = {}

        def recommend():
            _cli(captured, "recommend", [
                "--train-x", data / "train_X.mtx", "--train-ids", data / "train_ids.txt",
                "--edges", data / "train_edges.tsv", "--test-x", data / "test_X.mtx",
                "--test-ids", data / "test_ids.txt", "--citations", data / "citations.tsv",
                "--k", K, "--max-sweeps", RECOMMEND_SWEEPS, "--tol", 0, "--seed", 0,
                "--out-dir", out,
            ])

            def verify():
                aucs = {}
                for line in captured["recommend"].splitlines():
                    if line.startswith("auc_"):
                        key, val = line.split("\t")
                        aucs[key[4:]] = float(val)
                check(set(aucs) == set(AUC_NAMES), f"AUCs printed: {sorted(aucs)}")
                for key, val in aucs.items():
                    _finite_unit(val, f"auc_{key}")
                return {"auc_" + key: val for key, val in aucs.items()}
            return verify

        return [("recommend", recommend)]


WORKLOADS = {w.name: w for w in (SolveK10(), CorpusCli(), RecommendCli())}


def _cli(captured, command, args):
    """Run one CLI command in-process; a nonzero exit fails the operation."""
    import jointnmf.cli

    argv = [command] + [str(a) for a in args]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), _span(f"cli.{command}", "cli"):
        code = jointnmf.cli.main(argv)
    captured[command] = buf.getvalue()
    check(code == 0, f"`jointnmf {command}` exited {code}")


def _span(name, layer):
    return TRACER.span(name, layer) if TRACER is not None else contextlib.nullcontext()


def run_ops(workload, state, scratch):
    """One execution of the workload: a list of operation records."""
    scratch.mkdir(parents=True, exist_ok=True)
    records = []
    for name, thunk in workload.ops(state, scratch):
        rec = {"op": name, "ok": False, "anchors": {}}
        records.append(rec)
        if len(records) > 1 and not records[-2]["ok"]:
            rec["error"] = "skipped after an earlier failure"
            continue
        t = time.perf_counter()
        try:
            verify = thunk()
            rec["wall_s"] = time.perf_counter() - t
            rec["anchors"] = verify()
            rec["ok"] = True
        except CheckFailed as exc:
            rec["error"] = str(exc)
        except Exception:  # a crash in the program is a failed operation
            rec["error"] = traceback.format_exc(limit=3)
        rec.setdefault("wall_s", time.perf_counter() - t)
        if not rec["ok"]:
            print(f"operation {name} failed: {rec['error']}", file=sys.stderr)
    return records


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    global TRACER
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--scratch", required=True, type=Path)
    ap.add_argument("--spans", type=Path, help="trace, writing spans as JSONL here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    import jointnmf

    if args.spans:
        sys.path.insert(0, str(BENCH))
        from spans import Tracer, layer_metrics

        TRACER = Tracer()
        TRACER.install()
    with _span("setup", "bench"):
        state = workload.setup(args.data)
    setup_s = time.perf_counter() - T0
    here = Path(jointnmf.__file__).resolve()
    if ROOT / "src" not in here.parents:
        sys.exit(f"imported jointnmf from {here}, not from {ROOT / 'src'}")

    with _span("run", "bench"):
        ops = run_ops(workload, state, args.scratch)
    shutil.rmtree(args.scratch, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "env": environment(),
    }
    if TRACER is not None:
        TRACER.uninstall()
        TRACER.write_jsonl(args.spans)
        wall_s = sum(op.get("wall_s", 0.0) for op in ops)
        result["layers"] = layer_metrics(TRACER.spans, wall_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
