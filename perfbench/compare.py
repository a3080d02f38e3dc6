"""Compare two result sets written by run.py --record.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Per workload and metric: median and quartiles over the recorded runs
(normally one per seed) on each side, and the change of the median.  An
end-to-end metric whose median got worse by more than its bound in
BENCHMARK.json is a regression; where the base's own spread (quartile
distance over median) exceeds the bound, a worse median is reported as
unresolved instead.  Per-layer metrics and per-command times are shown
without a verdict.  Exits 1 if any regression was found.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): [record, ...]} from a JSONL file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, new):
    """'', 'REGRESSION' or 'unresolved' for one end-to-end metric."""
    if "bound" not in metric:
        return ""
    q1, med, q3 = quartiles(base)
    new_med = statistics.median(new)
    change = (new_med - med) / abs(med) if med else 0.0
    worse = change if metric["better"] == "lower" else -change
    if worse <= metric["bound"]:
        return ""
    spread = (q3 - q1) / abs(med) if med else 0.0
    if spread > metric["bound"] and not all(_worse(metric, b, n) for b in base for n in new):
        return "unresolved"
    return "REGRESSION"


def _worse(metric, base_value, new_value):
    return new_value > base_value if metric["better"] == "lower" else new_value < base_value


def rows(base_recs, new_recs, metrics, getter):
    for m in metrics:
        base = [getter(r, m["name"]) for r in base_recs]
        new = [getter(r, m["name"]) for r in new_recs]
        base = [v for v in base if v is not None]
        new = [v for v in new if v is not None]
        if not base or not new:
            continue
        yield m, base, new


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)

    def metric_value(rec, name):
        m = rec["result"]["metrics"].get(name)
        return None if m is None else m["value"]

    def op_value(rec, name):
        return rec["ops"].get(name)

    regressions = 0
    for w in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            b, n = base.get((w, trace), []), new.get((w, trace), [])
            if not b or not n:
                continue
            print(f"\n{w} ({'traced' if trace else 'end to end'}; "
                  f"{len(b)} base runs, {len(n)} new runs)")
            print(f"  {'metric':30s} {'base q1 / median / q3':>36s} "
                  f"{'new q1 / median / q3':>36s} {'change':>8s}")
            ops = sorted({k for r in b + n for k in r["ops"]})
            op_metrics = [{"name": k, "unit": "s", "better": "lower"} for k in ops] if not trace else []
            for m, bv, nv in list(rows(b, n, metrics, metric_value)) + \
                    list(rows(b, n, op_metrics, op_value)):
                bq, nq = quartiles(bv), quartiles(nv)
                change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                v = verdict(m, bv, nv)
                regressions += v == "REGRESSION"
                print(f"  {m['name']:30s} {_fmt(bq):>36s} {_fmt(nq):>36s} "
                      f"{change:+8.2%} {v}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def _fmt(q):
    return " / ".join(f"{v:.4g}" for v in q)


if __name__ == "__main__":
    sys.exit(main())
