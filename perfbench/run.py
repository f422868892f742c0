"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-tall --seed 1 --seconds 25 --trace 0

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace
0``, its per-layer metrics with ``--trace 1``.  The full record of the run
(every metric, each job's answer, the environment) is appended as one line
to ``--out``, which ``compare.py`` reads.

The untraced run first starts five set-up-only processes, then the measured
one; ``setup_s`` is the median over the six of the time from starting a
fresh interpreter to its ``READY`` line, at the reference speed of the
measured run (see ``worker.py``).  BLAS runs on one thread, and every worker
hashes strings with the same fixed salt.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("chain-tall", "chain-wide", "detect-search", "cli-small")
SETUP_ONLY_RUNS = 5
TIME_LIMIT_S = 170  # a run, set-up processes included, ends within this
BLAS_THREADS = "1"
HASH_SEED = "0"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # String hashing is salted per process by default, and the salt alone
    # moved detect-search's times by some 10% between processes on one seed.
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def start_worker(args, extra: list, deadline: float) -> tuple:
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not start ({line.strip()!r}, exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> str:
    """Rest of the worker's output; the worker is killed if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the time limit and was stopped")
    return out


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_ONLY_RUNS):
            proc, setup = start_worker(args, ["--setup-only"], deadline)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up-only worker exited with {proc.returncode}")
            setups.append(setup)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # one file per workload, overwritten by each traced run
        spans = HERE / "results" / f"spans-{args.workload}.jsonl"
        extra += ["--spans", str(spans)]
    proc, setup = start_worker(args, extra, deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    results = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        raise RuntimeError(f"worker exited with {proc.returncode} and no result")
    record = json.loads(results[-1][len("RESULT "):])
    if not args.trace:
        setup = statistics.median(setups)
        scale = record["metrics"]["wall_s"]["value"] / record["metrics"]["wall_raw_s"]["value"]
        record["metrics"]["setup_s"] = {"value": setup * scale, "unit": "s"}
        record["metrics"]["setup_raw_s"] = {"value": setup, "unit": "s"}
        record["setup_samples_s"] = setups
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny instances of the same jobs, for the self-test")
    parser.add_argument("--out", default=str(HERE / "results" / "runs.jsonl"),
                        help="result file that the run's full record is appended to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "prolongation" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        record = measure(args)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"worker did not report {missing}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"WRONG {problem}")
    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
