"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Checks that the generator writes the same bytes for the same seed and
other bytes for another, that the self-time arithmetic is right on a
synthetic span tree, and that the span wrappers intercept calls made
through names the package modules imported from each other.
"""

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


def _span(id, parent, layer, name, start, end, **attrs):
    return {"id": id, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "attrs": attrs}


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in gen.MAKERS:
            with self.subTest(workload=workload):
                a = _files(gen.generate(workload, 5, self.tmp / f"{workload}-a"))
                b = _files(gen.generate(workload, 5, self.tmp / f"{workload}-b"))
                c = _files(gen.generate(workload, 6, self.tmp / f"{workload}-c"))
                self.assertEqual(a, b)
                self.assertEqual(a.keys(), c.keys())
                self.assertNotEqual(a, c)


class SelfTimeTest(unittest.TestCase):
    # the run (0..10) holds a fit (1..4) with one NLS call (2..3), and a
    # pairwise count (5..9) with two reads that overlap (6..7 and 6.5..8,
    # together covering 6..8)
    TREE = [
        _span(0, None, "bench", "run", 0.0, 10.0),
        _span(1, 0, "factorize", "factorize.joint_nmf", 1.0, 4.0, sweeps=2, objective=5.0,
              fingerprint="x"),
        _span(2, 1, "nls", "nls.nls_bpp_gram", 2.0, 3.0, columns=4),
        _span(3, 0, "metrics", "metrics.pairwise_counts", 5.0, 9.0, pairs=6),
        _span(4, 3, "matrix", "matrix.read_matrix_market", 6.0, 7.0, bytes=100),
        _span(5, 3, "matrix", "matrix.read_matrix_market", 6.5, 8.0, bytes=50),
    ]

    def test_self_time_subtracts_union_of_children(self):
        got = spans.self_times(self.TREE)
        want = {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5}
        for k, v in want.items():
            self.assertAlmostEqual(got[k], v, places=12, msg=f"span {k}")

    def test_layer_metrics(self):
        m = spans.layer_metrics(self.TREE, wall_s=10.0)
        self.assertAlmostEqual(m["nls.self_s"], 1.0)
        self.assertAlmostEqual(m["nls.share"], 0.1)
        self.assertAlmostEqual(m["nls.us_per_column"], 250000.0)
        self.assertEqual(m["nls.calls"], 1)
        self.assertAlmostEqual(m["factorize.self_s"], 2.0)
        self.assertAlmostEqual(m["factorize.ms_per_sweep"], 1500.0)
        self.assertAlmostEqual(m["metrics.pairwise_s"], 2.0)
        self.assertEqual(m["metrics.pairs_counted"], 6)
        self.assertAlmostEqual(m["matrix.read_s"], 2.5)
        self.assertEqual(m["matrix.bytes_read"], 150)
        self.assertEqual(m["recommend.fits"], 0)
        self.assertEqual(m["recommend.distinct_fit_ratio"], 0.0)


class WrapperTest(unittest.TestCase):
    def test_wrappers_intercept_imported_names(self):
        import numpy as np

        import jointnmf
        from jointnmf import cli, factorize

        recommend_module = sys.modules["jointnmf.recommend"]
        original = recommend_module.recommend
        original_gram = sys.modules["jointnmf.nls"].nls_bpp_gram
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIs(cli.recommend_above.__wrapped__, original)
            self.assertIs(factorize.nls_bpp_gram.__wrapped__, original_gram)
            rng = np.random.default_rng(0)
            X = rng.random((8, 12))
            opts = factorize.FactorizeOptions(k=2, max_sweeps=2, rel_tol=0.0)
            jointnmf.joint_nmf(X, X.T @ X, opts)
            recommend_module.baseline_nmf2(X, 2, opts, X[:, 0])
        finally:
            tracer.uninstall()
        self.assertIs(recommend_module.recommend, original)

        by_id = {s["id"]: s for s in tracer.spans}
        nls_parents = {by_id[s["parent"]]["name"] for s in tracer.spans
                       if s["name"] == "nls.nls_bpp_gram"}
        self.assertEqual(nls_parents, {"factorize.joint_nmf", "factorize.nmf"})
        fit = next(s for s in tracer.spans if s["name"] == "factorize.nmf")
        self.assertEqual(by_id[fit["parent"]]["name"], "recommend.baseline_nmf2")
        m = spans.layer_metrics(tracer.spans, wall_s=1.0)
        self.assertEqual(m["recommend.fits"], 1)
        self.assertEqual(m["factorize.sweeps"], 4)


if __name__ == "__main__":
    unittest.main()
