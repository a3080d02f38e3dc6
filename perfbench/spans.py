"""In-memory spans around the public functions of every jointnmf module.

The benchmark records spans from its own files: Tracer.install wraps
each public function of each package module and rebinds the wrapper
everywhere the package holds the original.  Callers import names
directly (`from .nls import nls_bpp_gram` in factorize, `recommend as
recommend_above` in cli), so patching the defining module alone would
record nothing.  Modules are reached through sys.modules because the
package attribute `jointnmf.recommend` is the re-exported function, not
the module.

A span is {id, parent, name, layer, start, end, attrs}.  A layer's self
time is each of its spans' duration minus the part of that interval its
child spans cover, summed over the layer's spans.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy import sparse

# matrix's other public functions are small helpers (as_csc, norms,
# symmetry checks) called inside other layers; their time stays with
# the caller, so only its I/O is a layer of its own
LAYERS = ("nls", "factorize", "graph", "textprep", "metrics", "recommend", "matrix")
MATRIX_IO = ("read_matrix_market", "write_matrix_market")
FIT_FUNCTIONS = ("nmf", "symnmf", "joint_nmf")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name, layer, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer, fn):
        hook = _HOOKS.get(f"{layer}.{fn.__name__}")
        sig = inspect.signature(fn) if hook else None
        name = f"{layer}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            with self.span(name, layer) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                rec["attrs"].update(hook(fn.__name__, bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every layer function and rebind it wherever the package holds it."""
        package = [m for name, m in sys.modules.items()
                   if name == "jointnmf" or name.startswith("jointnmf.")]
        for layer in LAYERS:
            module = sys.modules[f"jointnmf.{layer}"]
            names = MATRIX_IO if layer == "matrix" else module.__all__
            for fname in names:
                original = getattr(module, fname)
                if not inspect.isfunction(original):
                    continue
                wrapper = self.wrap(layer, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# counts recorded at the layer boundaries


def _fit_attrs(fname, args, result):
    h = hashlib.sha1(fname.encode())
    for key, value in args.items():
        h.update(key.encode())
        _digest(h, value)
    return {
        "sweeps": result.sweeps_run,
        "objective": result.objective_history[-1],
        "fingerprint": h.hexdigest(),
    }


def _digest(h, value):
    if sparse.issparse(value):
        value = sparse.csc_array(value)
        for part in (value.indptr, value.indices, value.data):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update(repr(value.shape).encode())
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
        h.update(repr(value.shape).encode())
    else:
        h.update(repr(value).encode())


_HOOKS = {
    "nls.nls_bpp_gram": lambda f, a, r: {"columns": int(r.shape[1])},
    **{f"factorize.{name}": _fit_attrs for name in FIT_FUNCTIONS},
    "graph.read_edge_list": lambda f, a, r: {"edges": len(r)},
    "textprep.filter_corpus": lambda f, a, r: {
        "docs_in": len(a["c"].doc_ids), "docs_kept": len(r[0].doc_ids)},
    "metrics.pairwise_counts": lambda f, a, r: {"pairs": r.total},
    "metrics.roc_curve": lambda f, a, r: {"points": len(r[0])},
    "matrix.read_matrix_market": lambda f, a, r: {"bytes": os.path.getsize(a["path"])},
    "matrix.write_matrix_market": lambda f, a, r: {"bytes": os.path.getsize(a["path"])},
}


# ---------------------------------------------------------------------------
# arithmetic on span trees


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ancestors(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        yield span


def layer_metrics(spans, wall_s):
    """The per-layer metrics of one set of spans.

    wall_s is the wall time of the workload's timed operations; shares
    are taken of it.

    Metrics of a layer that did not run read 0.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def layer_self(layer):
        return sum(selfs[s["id"]] for s in spans if s["layer"] == layer)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    nls_calls = named("nls.nls_bpp_gram")
    nls_self = layer_self("nls")
    columns = attr_sum("nls.nls_bpp_gram", "columns")
    m["nls.calls"] = len(nls_calls)
    m["nls.columns"] = columns
    m["nls.self_s"] = nls_self
    m["nls.us_per_column"] = ratio(nls_self * 1e6, columns)
    m["nls.share"] = ratio(nls_self, wall_s)

    fits = [s for s in spans if s["name"] in {f"factorize.{f}" for f in FIT_FUNCTIONS}]
    sweeps = sum(s["attrs"].get("sweeps", 0) for s in fits)
    m["factorize.calls"] = len(fits)
    m["factorize.sweeps"] = sweeps
    m["factorize.self_s"] = layer_self("factorize")
    m["factorize.ms_per_sweep"] = ratio(sum(s["end"] - s["start"] for s in fits) * 1e3, sweeps)
    m["factorize.final_objective"] = fits[-1]["attrs"]["objective"] if fits else 0.0

    m["graph.calls"] = sum(1 for s in spans if s["layer"] == "graph")
    m["graph.self_s"] = layer_self("graph")
    m["graph.edges_read"] = attr_sum("graph.read_edge_list", "edges")

    m["textprep.self_s"] = layer_self("textprep")
    m["textprep.docs_kept_ratio"] = ratio(
        attr_sum("textprep.filter_corpus", "docs_kept"),
        attr_sum("textprep.filter_corpus", "docs_in"),
    )

    m["metrics.self_s"] = layer_self("metrics")
    m["metrics.pairwise_s"] = sum(selfs[s["id"]] for s in named("metrics.pairwise_counts"))
    m["metrics.pairs_counted"] = attr_sum("metrics.pairwise_counts", "pairs")
    m["metrics.roc_points"] = attr_sum("metrics.roc_curve", "points")

    # fits made for recommendation: below a recommend function or the
    # recommend command, which also fits the NMF-1 baseline itself
    rec_fits = [s for s in fits
                if any(a["layer"] == "recommend" or a["name"] == "cli.recommend"
                       for a in _ancestors(s, by_id))]
    m["recommend.self_s"] = layer_self("recommend")
    m["recommend.fits"] = len(rec_fits)
    m["recommend.distinct_fit_ratio"] = ratio(
        len({s["attrs"]["fingerprint"] for s in rec_fits}), len(rec_fits))

    reads = named("matrix.read_matrix_market")
    writes = named("matrix.write_matrix_market")
    m["matrix.read_s"] = sum(s["end"] - s["start"] for s in reads)
    m["matrix.write_s"] = sum(s["end"] - s["start"] for s in writes)
    m["matrix.bytes_read"] = attr_sum("matrix.read_matrix_market", "bytes")
    m["matrix.bytes_written"] = attr_sum("matrix.write_matrix_market", "bytes")

    for command in ("preprocess", "cluster", "eval", "recommend"):
        m[f"cli.{command}.self_s"] = sum(selfs[s["id"]] for s in named(f"cli.{command}"))
    return m
