"""hopfgal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fiber-p5 --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository; hopfgal is imported from its `src/`.
The run sets up its inputs from the seed, then repeats the workload's fixed
job list (see workloads.py) in passes until `--seconds` have passed and at
least MIN_PASSES passes are complete, checking every job's output.  The clock
is read before each job, so the last pass may be partial.  A job's time is
its best over the run's passes: the host this runs on is shared, and other
load only ever adds time.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` every hopfgal entry point in tracer.ENTRY_POINTS is wrapped and
the metrics are the per-layer ones, for one pass: per job kind the median
over its jobs, summed over the kinds.  The full record of a run (environment
stamp, every job, per-kind best and median times, the trace summary) is
written to perfbench/out/<workload>-seed<seed>-trace<t>.json, and a traced
run also writes its spans to perfbench/out/spans-<workload>-seed<seed>.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

import tracer  # no hopfgal import: safe before _import_hopfgal

# BLAS threads are pinned before numpy is imported; one thread keeps the
# timings steady on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
MIN_PASSES = 2


def _import_hopfgal():
    """Import hopfgal from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import hopfgal
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hopfgal from {src}: {exc}")
    if not os.path.abspath(hopfgal.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: hopfgal was imported from {hopfgal.__file__}, "
                 f"not from {src}")


def env_stamp() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpu": cpu}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters that each import
    hopfgal and build this run's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # with pipes, waiting wakes on pipe close; without, it polls in
        # steps of up to 50 ms, which would quantize these times
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-only", "--workload", workload,
                        "--seed", str(seed)],
                       check=True, timeout=120, capture_output=True)
        times.append(time.perf_counter() - t0)
    return times


def run_passes(wl, seconds: float, tr=None):
    """Passes over the workload's jobs until `seconds` have passed and
    MIN_PASSES passes are complete.  A job that raises or whose output
    mismatches counts as failed; the run goes on."""
    jobs = []
    passes = 0
    start = time.perf_counter()
    while True:
        for kind, fn in wl.jobs:
            if (passes >= MIN_PASSES
                    and time.perf_counter() - start >= seconds):
                return jobs, passes, time.perf_counter() - start
            job_id = f"{passes}:{kind}"
            gc.collect()
            span = (tr.job_span(job_id, kind) if tr is not None
                    else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                with span:
                    problems, fibers = fn()
            except Exception:
                problems, fibers = [traceback.format_exc()], 0
            jobs.append({"id": job_id, "pass": passes, "kind": kind,
                         "s": time.perf_counter() - t0,
                         "fibers": fibers, "problems": problems})
        passes += 1


def by_kind(jobs) -> dict:
    """Per job kind: the best and the median time, over the jobs that
    passed their checks when any did."""
    kinds = {}
    for j in jobs:
        kinds.setdefault(j["kind"], []).append(j)
    out = {}
    for kind, js in kinds.items():
        times = [j["s"] for j in js if not j["problems"]] or [
            j["s"] for j in js]
        out[kind] = {"best_s": min(times), "median_s": median(times),
                     "count": len(js), "fibers": js[0]["fibers"]}
    return out


def end_to_end_metrics(setup, jobs) -> dict:
    failed = sum(1 for j in jobs if j["problems"])
    kinds = by_kind(jobs)
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "pass_s": {"value": sum(k["best_s"] for k in kinds.values()),
                   "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "ok_frac": {"value": (len(jobs) - failed) / len(jobs), "unit": "frac"},
    }


# Entry points whose self time is a metric: those every workload calls.  A
# time that is 0 on every run of a workload tells nothing; the run record
# holds the self time of every entry point.
TIMED = (
    "exactfield.Poly.factor", "exactfield.splitting_extension",
    "_arrays.fmul", "_arrays.fmatmul", "_arrays._imatmul", "_arrays.rref",
    "_arrays.nullspace", "fdalg.center", "fdalg.radical",
    "fdalg.central_idempotents", "fdalg.simples", "fdalg.block_decompose",
    "fdalg.form_rank", "hopf.left_integral_dual", "resliealg.Fiber",
    "resliealg.u_restricted", "galois.frobenius_form",
    "speclab.sl2_eq4_check", "cli.main",
)


def one_pass(summary: dict, jobs) -> dict:
    """The traced numbers of one pass: per job kind the median over its
    jobs, summed over the kinds."""
    groups = {}
    for j in jobs:
        groups.setdefault(j["kind"], []).append(summary["jobs"][j["id"]])
    out = {"fn_calls": {}, "fn_self_s": {},
           "counts": dict.fromkeys(tracer.COUNTS, 0), "spans": 0}
    for recs in groups.values():
        for key in ("fn_calls", "fn_self_s"):
            for name in set().union(*(r[key] for r in recs)):
                out[key][name] = out[key].get(name, 0) + median(
                    r[key].get(name, 0) for r in recs)
        for name in tracer.COUNTS:
            out["counts"][name] += median(r["counts"][name] for r in recs)
        out["spans"] += median(r["spans"] for r in recs)
    out["layer_self_s"] = {
        layer: sum(t for name, t in out["fn_self_s"].items()
                   if name.split(".")[0] == layer)
        for layer in tracer.LAYERS}
    return out


def trace_metrics(summary: dict, jobs) -> dict:
    per = one_pass(summary, jobs)
    m = {}
    for layer, paths in tracer.ENTRY_POINTS.items():
        for path in paths:
            name = f"{layer}.{path}"
            m[f"{name}.calls"] = {"value": per["fn_calls"].get(name, 0),
                                  "unit": "count"}
            if name in TIMED:
                m[f"{name}.self_s"] = {"value": per["fn_self_s"][name],
                                       "unit": "s"}
    for layer, t in per["layer_self_s"].items():
        m[f"{layer}.self_s"] = {"value": t, "unit": "s"}
    for name, v in per["counts"].items():
        m[name] = {"value": v, "unit": "count"}
    covers = [j["cover"] for j in summary["jobs"].values()]
    m["trace.cover_min"] = {"value": min(covers), "unit": "frac"}
    m["trace.pass_s"] = {"value": sum(
        k["best_s"] for k in by_kind(jobs).values()), "unit": "s"}
    m["trace.spans"] = {"value": per["spans"], "unit": "count"}
    # metric names start with a letter or digit: `_arrays.x` becomes `arrays.x`
    return {k.lstrip("_"): v for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_hopfgal()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(
        OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, workdir)
            return 0
        setup = measure_setup(args.workload, args.seed)
        wl = workloads.make(args.workload, args.seed, workdir)
        tr = tracer.Tracer() if args.trace else None
        if tr is not None:
            tr.install()
        try:
            jobs, passes, wall = run_passes(wl, args.seconds, tr)
        finally:
            if tr is not None:
                tr.remove()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["problems"])
    kinds = by_kind(jobs)
    best = sum(k["best_s"] for k in kinds.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_stamp(),
        "setup_s": setup, "passes": passes, "wall_s": wall,
        "job_kinds": kinds,
        # one pass at each job's best time
        "jobs_per_s": {"value": len(kinds) / best, "unit": "1/s"},
        "fibers_per_s": {"value": sum(k["fibers"] for k in kinds.values())
                         / best, "unit": "1/s"},
        "jobs": jobs,
    }
    if tr is None:
        metrics = end_to_end_metrics(setup, jobs)
    else:
        summary = tr.summary()
        metrics = trace_metrics(summary, jobs)
        record["trace_summary"] = summary
        record["overhead_vs_untraced"] = overhead(args, kinds)
        tr.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)

    for j in jobs:
        for msg in j["problems"]:
            print(f"FAILED {j['id']}: {msg}", file=sys.stderr)
    print(json.dumps({k: record.get(k) for k in (
        "env", "passes", "job_kinds", "jobs_per_s", "fibers_per_s",
        "overhead_vs_untraced")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def overhead(args, traced_kinds: dict):
    """Tracing overhead: traced over untraced best pass and job-kind times,
    minus 1, when the untraced run of the same workload and seed has left
    its record in perfbench/out."""
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace0.json")
    try:
        with open(path) as fh:
            plain = {k: v["best_s"] for k, v in json.load(fh)["job_kinds"].items()}
    except (OSError, ValueError, KeyError):
        return None
    out = {"pass": sum(k["best_s"] for k in traced_kinds.values())
           / sum(plain.values()) - 1}
    for k, v in traced_kinds.items():
        if k in plain:
            out[k] = v["best_s"] / plain[k] - 1
    return out


if __name__ == "__main__":
    sys.exit(main())
