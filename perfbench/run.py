"""Benchmark for jointnmf: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve-k10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py ... --record results.jsonl    # input for compare.py

Run from the root of a checkout.  The inputs are generated from --seed
(gen.py); the program under test is the checkout's src/jointnmf and
receives only the generated files.  Every execution of the workload runs
in a fresh worker process (workloads.py); workers are started one after
another until --seconds of them are spent, at least three.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the workers of set-up time, wall time of the timed operations and peak
RSS, the quality anchor, and the share of operations whose outputs
passed every check.  --trace 1 alternates untraced and traced workers
and reports the per-layer metrics of the traced ones (medians) plus
trace.overhead_ratio; the spans go to .perfbench/spans/ as JSONL.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it repeat every metric
by name and unit, together with the per-command wall times, anchors and
the environment (library versions, CPUs, BLAS threads).
"""

import os

# Pinned before numpy loads here or in any worker: with OpenBLAS's
# default of one thread per CPU the same solve varied by 40% and its
# final objective changed in the last digit.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
MIN_WORKERS = 3
DEADLINE_S = 170.0  # every run must end within 180 s

QUALITY = {"solve-k10": "avg_f1", "corpus-cli": "avg_f1", "recommend-cli": "auc_joint_cosine"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(workload, data, scratch, spans, timeout):
    """One fresh interpreter running the workload once; None if it crashed."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--data", str(data), "--scratch", str(scratch)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed, seconds, trace, deadline):
    """Generate the inputs, then run workers until the time is spent."""
    sys.path.insert(0, str(BENCH))
    import gen

    work = STATE / f"work-{workload}-s{seed}-{os.getpid()}"
    spans_dir = STATE / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    samples, crashed = [], 0
    try:
        gen.generate(workload, seed, work / "data")
        start = time.perf_counter()
        last = 0.0
        while len(samples) + crashed < MIN_WORKERS + trace or \
                time.perf_counter() - start + last <= seconds:
            traced = trace and (len(samples) + crashed) % 2 == 1
            spans = spans_dir / f"{workload}-s{seed}-{len(samples)}.jsonl" if traced else None
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                break
            t = time.perf_counter()
            out = run_worker(workload, work / "data", work / "scratch", spans, timeout)
            last = time.perf_counter() - t
            if out is None:
                crashed += 1
            else:
                samples.append(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return samples, crashed


def summarize(workload, samples, crashed, trace, spec):
    """The result object, plus the per-command medians and anchors for the report."""
    attempted = crashed + sum(len(s["ops"]) for s in samples)
    failed = crashed + sum(not op["ok"] for s in samples for op in s["ops"])
    clean = [s for s in samples if all(op["ok"] for op in s["ops"])]

    anchor_sets = []
    for s in clean:
        merged = {}
        for op in s["ops"]:
            merged.update(op["anchors"])
        anchor_sets.append(merged)
    anchors = anchor_sets[0] if anchor_sets else {}
    repeatable = all(a == anchors for a in anchor_sets)
    if not repeatable:
        print(f"{workload}: anchors differ between identical runs", file=sys.stderr)

    def wall(s):
        return sum(op.get("wall_s", 0.0) for op in s["ops"])  # skipped ops have none

    plain = [s for s in samples if "layers" not in s]
    op_walls = {}
    for s in plain:
        for op in s["ops"]:
            if op["ok"]:
                op_walls.setdefault(op["op"], []).append(op["wall_s"])
    ops = {f"{name}_s": statistics.median(v) for name, v in op_walls.items()}

    if trace:
        traced = [s for s in samples if "layers" in s]
        if not traced or not plain:
            sys.exit(f"{workload}: the traced run needs a traced and an untraced worker")
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                value = (statistics.median(wall(s) for s in traced)
                         / statistics.median(wall(s) for s in plain) - 1.0)
            else:
                value = statistics.median(s["layers"][m["name"]] for s in traced)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "wall_s": statistics.median(wall(s) for s in clean or samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "quality": anchors.get(QUALITY[workload], 0.0),
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, ops, anchors


def report(workload, seed, samples, result, ops, anchors):
    env = samples[0]["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"# env python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas']} nproc {env['nproc']} affinity {env['affinity']} {threads}")
    print(f"# {workload} seed {seed}: {len(samples)} workers, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"{workload}\t{name}\t{m['value']!r}\t{m['unit']}")
    for name, value in ops.items():
        print(f"{workload}\t{name}\t{value!r}\ts")
    for name, value in anchors.items():
        print(f"{workload}\t{name}\t{value!r}")
    print(f"{workload}\terror_rate\t{result['failed'] / result['attempted']!r}")


def run_one(workload, seed, seconds, trace, deadline, spec, record):
    samples, crashed = collect(workload, seed, seconds, trace, deadline)
    if not samples:
        sys.exit(f"{workload}: no worker produced a result")
    result, ops, anchors = summarize(workload, samples, crashed, trace, spec)
    report(workload, seed, samples, result, ops, anchors)
    if record:
        with open(record, "a") as fh:
            fh.write(json.dumps({
                "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "env": samples[0]["env"], "ops": ops, "anchors": anchors, "result": result,

            }) + "\n")
    return result


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="append the result to this JSONL file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jointnmf" / "__init__.py").is_file():
        sys.exit(f"no jointnmf sources under {ROOT / 'src'}; run from a checkout")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names} or all")

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         started + DEADLINE_S, spec, args.record)
        print(json.dumps(result))
        return
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, args.trace,
                                time.perf_counter() + DEADLINE_S, spec, args.record)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
