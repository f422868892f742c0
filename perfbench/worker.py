"""One workload in one fresh process: set up, then a closed loop of jobs.

Started by ``run.py``; prints ``READY`` once set-up (import, input
generation, warm-up) is done, then runs the workload's fixed job list once,
one job after the other, and goes on in the same order until ``--seconds``
have passed, and prints one ``RESULT`` line of JSON.  After every job run it
times a reference task of its own, which gives the host's speed.  With
``--trace 1`` the layer wrappers of ``tracing.py`` are installed after
set-up and the per-layer metrics replace the end-to-end ones.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20

# The host lends its cores to other tenants, and its speed drifts by a third
# over minutes, for the library and any other code alike.  So the worker
# times a fixed reference task after every job run, and reports every time at
# the host speed at which the task's median time over the run is
# REFERENCE_S.  Each workload has the task that slows down as its own work
# does: SVD of a 600x100 matrix and an 8 MB copy for the chains, whose time
# is in large SVDs; Python arithmetic and 80 SVDs of 3x4 matrices for the
# detectors and the CLI, whose time is in the interpreter.  The tasks call no
# library code, so no change to the library moves them.
REFERENCE_TASK = {"chain-tall": "lapack", "chain-wide": "lapack",
                  "detect-search": "python", "cli-small": "python"}
REFERENCE_S = {"lapack": 0.025, "python": 0.003}
_svd = np.linalg.svd  # taken before tracing.install wraps it


def reference_task(workload: str):
    """The workload's reference task, as a function that runs it once and
    returns its time."""
    rng = np.random.default_rng(0)
    if REFERENCE_TASK[workload] == "lapack":
        big = rng.standard_normal((600, 100))
        src = rng.standard_normal(1_000_000)
        dst = np.empty_like(src)

        def work():
            _svd(big)
            dst[:] = src
    else:
        tiny = [rng.standard_normal((3, 4)) for _ in range(80)]

        def work():
            acc = 0
            for i in range(24000):
                acc += i * i
            for a in tiny:
                _svd(a)

    def timed() -> float:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    return timed


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loc = {}
    for path in sorted((ROOT / "src" / "prolongation").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            loc[f"repo.loc.{path.stem}"] = sum(1 for _ in fh)
    loc["repo.loc.total"] = sum(loc.values())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        **loc,
    }


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten jobs beyond it,
    or the largest latency when that percentile would fall below the 90th
    (a list of fewer than a hundred jobs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_loop(wl, seconds: float, tracer) -> dict:
    """Closed loop over the workload's jobs: the first pass over the job list
    always completes, then jobs go on in the same order until ``seconds``
    have passed.  ``refs`` holds the reference task's time after each job
    run."""
    jobs = wl.jobs
    per_job = {job.id: [] for job in jobs}
    answers, problems, finite = {}, [], set()
    attempted = failed = report_bytes = 0
    reference = reference_task(wl.name)
    for _ in range(5):
        reference()
    refs = []
    deadline = time.perf_counter() + seconds
    while True:
        job = jobs[attempted % len(jobs)]
        first_pass = attempted < len(jobs)
        if not first_pass and time.perf_counter() >= deadline:
            break
        span_job = f"{attempted // len(jobs)}/{job.id}"  # runs of one job stay apart
        attempted += 1
        error = raw = None
        t0 = time.perf_counter()
        try:
            raw = tracer.run_job(span_job, job.kind, job.run) if tracer else job.run()
        except Exception as exc:  # a job that raises is a failed job
            error = exc
        elapsed = time.perf_counter() - t0
        per_job[job.id].append(elapsed)
        refs.append(reference())
        if error is not None:
            failed += 1
            problems.append(f"{job.id}: raised {type(error).__name__}: {error}")
            continue
        try:
            answer, wrong = workloads.check(job, raw)
        except Exception as exc:  # output the check cannot read is a wrong answer
            answer, wrong = {}, [f"unreadable output: {type(exc).__name__}: {exc}"]
        if wrong:
            failed += 1
            problems += [f"{job.id}: {w}" for w in wrong]
        if first_pass:
            answers[job.id] = answer
            if job.out_path is not None and answer.get("rc") == 0:
                report_bytes += os.path.getsize(job.out_path)
        if answer.get("delta", [None])[0] == "finite":
            finite.add(job.id)
    return {"per_job": per_job, "refs": refs,
            "reference_s": REFERENCE_S[REFERENCE_TASK[wl.name]], "answers": answers,
            "problems": problems, "finite": finite, "attempted": attempted,
            "failed": failed, "report_bytes": report_bytes}


def end_to_end(jobs: list, loop: dict) -> dict:
    """Each job's latency is its fastest run, at the reference speed.  The
    host also slows down in bursts shorter than a job; the fastest of a
    job's runs is the one such a burst missed.  ``wall_raw_s`` and
    ``job_p50_raw_s`` are the same figures as measured."""
    reference = statistics.median(loop["refs"])
    best_raw = {job_id: min(ts) for job_id, ts in loop["per_job"].items()}
    best = {job_id: t * loop["reference_s"] / reference for job_id, t in best_raw.items()}
    by_kind = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(best[job.id])
    tail_s, tail_pct = tail(list(best.values()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "wall_s": (sum(best.values()), "s"),
        "job_p50_s": (statistics.median(best.values()), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "wall_raw_s": (sum(best_raw.values()), "s"),
        "job_p50_raw_s": (statistics.median(best_raw.values()), "s"),
        "reference_p50_s": (reference, "s"),
        "error_rate": (loop["failed"] / loop["attempted"], "1"),
        "jobs": (len(best), "count"),
        "job_tail_percentile": (tail_pct, "%"),
        "passes": (loop["attempted"] / len(jobs), "count"),
        "runs_per_job_min": (min(len(ts) for ts in loop["per_job"].values()), "count"),
        **{f"kind.{kind}.p50_s": (statistics.median(ts), "s") for kind, ts in by_kind.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="JSONL file for the first pass's spans")
    args = parser.parse_args(argv)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results)
    try:
        wl = workloads.build(args.workload, args.seed, args.size, workdir)
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            names = tracing.install(tracer)
            cache_before = tracing.derivative_op_counts()
        loop = timed_loop(wl, args.seconds, tracer)
        metrics = end_to_end(wl.jobs, loop)
        if tracer is not None:
            metrics = {"traced_wall_s": metrics["wall_s"], "passes": metrics["passes"]}
            metrics.update(tracing.layer_metrics(tracer.spans, names, loop["finite"]))
            hits, misses = (after - before for after, before in zip(
                tracing.derivative_op_counts(), cache_before))
            metrics["symtensor.derivative_op.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0, "1")
            metrics["cli.report_bytes"] = (loop["report_bytes"], "count")
            if args.spans:
                tracer.write_jsonl(args.spans, {f"0/{job.id}" for job in wl.jobs})
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "seconds": args.seconds,
            "attempted": loop["attempted"],
            "failed": loop["failed"],
            "problems": loop["problems"][:MAX_PROBLEMS],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "answers": loop["answers"],
            "env": environment(args.seed),
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
