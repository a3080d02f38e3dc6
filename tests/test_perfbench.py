"""The benchmark's own self-test, run as part of the suite.

perfbench/selftest.py pins what the benchmark relies on in the package:
the names its span wrappers rebind (`cli.recommend_above`, the nls
import in factorize) and where fits sit in the span tree.  A refactor
that moves those breaks the benchmark, so it must break a test too.
The set-up of solve-k10 calls graph, matrix and metrics functions
directly, so it runs here too, on tiny hand-written inputs.  The nls
counters read the kernel's spans, so a traced fit checks that they
count the blocks run and the columns solved.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
from graph_reference import dense_similarity

import jointnmf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_package_loads_every_traced_layer(child_env):
    # Tracer.install looks each layer up in sys.modules right after
    # `import jointnmf`, so the package import alone must load them all
    layers = perfbench_module("spans").LAYERS
    code = ("import sys, jointnmf; "
            f"print(sorted(l for l in {layers!r} if 'jointnmf.' + l not in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_solve_k10_setup_reads_tiny_inputs(tmp_path):
    workloads = perfbench_module("workloads")
    (tmp_path / "X.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 4 5\n1 1 1.0\n2 2 0.5\n3 3 2.0\n1 4 1.5\n2 4 0.25\n"
    )
    # a path 0-1-2-3 given in both directions, with a repeat
    (tmp_path / "edges.tsv").write_text("0\t1\n2\t1\n2\t3\n1\t0\n")
    (tmp_path / "truth.tsv").write_text("0\ta\n1\ta\n2\tb\n3\tb\n")
    X, S, truth = workloads.SolveK10().setup(tmp_path)
    assert X.shape == (3, 4) and X.toarray()[1, 3] == 0.25
    expect, _ = dense_similarity([(0, 1), (2, 1), (2, 3), (1, 0)], n=4)
    assert S.shape == (4, 4) and np.max(np.abs(S.toarray() - expect)) <= 1e-14
    assert truth == [{"a"}, {"a"}, {"b"}, {"b"}]


def test_traced_nls_counters_count_the_blocks_and_their_columns():
    # one kernel entry per block: two trials of a joint fit advance in
    # lockstep, so each of the 3 blocks of a sweep is one call over both
    # runs' columns (W: 8 per run, each H block: 12 per run)
    spans = perfbench_module("spans")
    rng = np.random.default_rng(0)
    X = rng.random((8, 12))
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = jointnmf.joint_nmf(X, X.T @ X, jointnmf.FactorizeOptions(
            k=2, max_sweeps=3, rel_tol=0.0, trials=2))
    finally:
        tracer.uninstall()
    assert {s["name"] for s in tracer.spans if s["layer"] == "nls"} == {"nls.nls_bpp_gram"}
    m = spans.layer_metrics(tracer.spans, wall_s=1.0)
    assert m["nls.calls"] == len(res.block_objective_history) == 3 * 3
    assert m["nls.columns"] == 3 * 2 * (8 + 12 + 12)
