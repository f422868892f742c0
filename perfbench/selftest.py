"""Tests of the benchmark itself; run with

    python3 -m pytest perfbench/selftest.py

They start the benchmark at its smoke size, so the whole file takes under a
minute.  The file name keeps it out of the library's own test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the library source on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(tmp_path, workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke",
           "--out", str(tmp_path / "runs.jsonl")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric_and_no_error(tmp_path, workload, trace):
    proc = run_benchmark(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in proc.stdout
    if not trace:
        assert "error_rate = 0 1" in proc.stdout
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    record = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])
    assert record["answers"] and record["env"]["repo.loc.total"] > 0
    assert record["env"]["python_hash_seed"] == "0"


def test_tampered_reference_counts_as_failure(tmp_path):
    wl = workloads.build("chain-wide", seed=7, size="smoke")
    wl.jobs[0].expected["alpha"][1] += 1
    loop = worker.timed_loop(wl, seconds=0, tracer=None)
    assert loop["attempted"] == len(wl.jobs)
    assert loop["failed"] == 1
    assert "alpha" in loop["problems"][0]


def test_unreadable_output_counts_as_failure():
    wl = workloads.build("chain-tall", seed=7, size="smoke")
    wl.jobs[0].answer = lambda raw: {}["alpha"]
    loop = worker.timed_loop(wl, seconds=0, tracer=None)
    assert loop["failed"] == 1
    assert "unreadable output" in loop["problems"][0]


def test_tampered_certificate_fails_replay():
    wl = workloads.build("detect-search", seed=7, size="smoke")
    job = next(j for j in wl.jobs if j.kind == "plane-3x4")
    outcome = job.run()
    assert workloads.check(job, outcome)[1] == []
    outcome.complex_pair.A = outcome.complex_pair.A + 1e-3 * np.eye(*outcome.complex_pair.A.shape)
    problems = workloads.check(job, outcome)[1]
    assert any("A is" in p for p in problems)


def test_closed_form_solutions_are_solutions():
    rng = np.random.default_rng(0)
    n = 4
    P, Q = workloads.well_conditioned(rng, n), workloads.well_conditioned(rng, n)
    gens = workloads.conjugated(workloads.conformal_generators(n), P, Q)
    x = rng.standard_normal(n)
    for terms in workloads.conformal_solutions(n, P, Q):
        J = np.zeros((n, n))
        for t in terms:
            e = np.array(t["exponents"])
            for j in range(n):
                if e[j]:
                    d = e.copy()
                    d[j] -= 1
                    J[t["output"] - 1, j] += t["value"] * e[j] * np.prod(x ** d)
        assert workloads.span_residual(gens, J) < 1e-12 or np.allclose(J, 0)


def test_tail_has_ten_jobs_beyond_it():
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert worker.tail([float(i) for i in range(99)]) == (98.0, 100.0)
    latencies = [float(i) for i in range(200)]
    value, pct = worker.tail(latencies)
    assert sum(t > value for t in latencies) == 10
    assert pct == pytest.approx(100 * 190 / 200)


def test_job_latency_is_its_fastest_run_at_reference_speed():
    wl = workloads.build("chain-tall", seed=7, size="smoke")
    loop = {"per_job": {job.id: [0.5, 0.2, 0.9] for job in wl.jobs},
            "refs": [0.01, 0.03, 0.02, 0.02, 0.09], "reference_s": 0.01,
            "attempted": 3 * len(wl.jobs), "failed": 0}
    metrics = worker.end_to_end(wl.jobs, loop)
    assert metrics["wall_s"][0] == pytest.approx(0.1 * len(wl.jobs))
    assert metrics["job_p50_s"][0] == pytest.approx(0.1)
    assert metrics["wall_raw_s"][0] == pytest.approx(0.2 * len(wl.jobs))
    assert metrics["runs_per_job_min"][0] == 3


def test_reference_is_timed_after_every_job_run():
    wl = workloads.build("chain-tall", seed=7, size="smoke")
    loop = worker.timed_loop(wl, seconds=0, tracer=None)
    assert len(loop["refs"]) == loop["attempted"] == len(wl.jobs)
    assert all(r > 0 for r in loop["refs"])


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_benchmark(tmp_path, "chain-tall", 0, cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
