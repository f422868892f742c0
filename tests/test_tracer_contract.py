"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and reads the cache of ``derivative_op``; a traced detector job must
run and be summarised without error."""

import json
import os
import subprocess
import sys
from pathlib import Path

import prolongation

SRC = str(Path(prolongation.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

TRACED = r"""
import json, sys
sys.path.insert(0, sys.argv[1])

import numpy as np
import tracing
from prolongation import obstruct
from prolongation.matspace import make_subspace

tracer = tracing.Tracer()
names = tracing.install(tracer)
rng = np.random.default_rng(5)
V = make_subspace(3, 3, [np.outer(rng.standard_normal(3), rng.standard_normal(3)),
                         rng.standard_normal((3, 3))])
outcome = tracer.run_job("0/planted", "detect",
                         lambda: obstruct.classify_delta_full(V, k_max=3, restarts=2))
metrics = tracing.layer_metrics(tracer.spans, names, set())
print(json.dumps({"status": outcome.delta.status, "metrics": sorted(metrics),
                  "derivative_op": tracing.derivative_op_counts()}))
"""


def test_a_traced_classify_job_runs_and_is_summarised():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", TRACED, PERFBENCH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["status"] == "infinite_certified"
    hits, misses = out["derivative_op"]  # the cache behind the hit-ratio metric
    assert hits + misses > 0
    for name in ("obstruct.find_rank_one.calls", "obstruct.find_complex_pair.calls",
                 "obstruct.classify_delta_full.calls", "kernel.svd.calls", "trace.spans"):
        assert name in out["metrics"]
