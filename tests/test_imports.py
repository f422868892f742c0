"""The package imports numpy alone, and no code path loads scipy: the
search of V (x) C needs no optimizer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import well_conditioned
import prolongation
from prolongation import obstruct
from prolongation.matspace import conjugate, make_subspace

SRC = str(Path(prolongation.__file__).resolve().parents[1])

GUARD = r"""
import json, sys
from pathlib import Path

import numpy as np

import prolongation
from prolongation import cli
from prolongation.manifolds import augment_with_full_range, augmented_to_json
from prolongation.matspace import make_subspace, subspace_from_json
from prolongation.obstruct import find_rank_one

tmp = Path(sys.argv[1])
conformal = str(tmp / "conformal.json")
member = tmp / "member.json"
member.write_text(json.dumps({"n": 3, "m": 3, "terms": [
    {"degree": 1, "output": a + 1, "exponents": [int(j == a) for j in range(3)],
     "value": 1.0} for a in range(3)]}))
aug = tmp / "aug.json"
matrix = tmp / "A.json"
matrix.write_text(json.dumps(np.eye(3).tolist()))
codes = [cli.main(["manifold", "--family", "conformal", "--dim", "3",
                   "--emit-tangent", "--out", conformal])]
aug.write_text(json.dumps(augmented_to_json(augment_with_full_range(
    subspace_from_json(json.loads(Path(conformal).read_text()))))))
for argv in (["chain", "--input", conformal],
             ["polysolve", "--input", conformal],
             ["verify", "--input", conformal, "--poly", str(member), "--samples", "5"],
             ["jet", "--input-augmented", str(aug), "--matrix", str(matrix), "--degree", "2"],
             ["manifold", "--family", "conformal", "--dim", "3", "--samples", "2"]):
    codes.append(cli.main(argv + ["--out", str(tmp / "report.json")]))
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

rng = np.random.default_rng(7)
psi, w = rng.standard_normal(3), rng.standard_normal(3)
V = make_subspace(3, 3, [np.outer(w, psi), rng.standard_normal((3, 3))])
witness = find_rank_one(V, seed=0, restarts=4)
print(json.dumps({"codes": codes, "scipy_before": loaded,
                  "certified": witness is not None,
                  "scipy_after": "scipy" in sys.modules}))
"""


def test_no_code_path_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0] * 6
    assert out["scipy_before"] == []
    assert out["certified"] is True
    assert out["scipy_after"] is False


def test_the_search_never_calls_the_optimizer_bound_on_the_module(monkeypatch):
    # the benchmark's tracer still reads and rebinds obstruct.minimize by name
    assert callable(obstruct.minimize)

    def forbidden(*args, **kwargs):
        raise AssertionError("the search called obstruct.minimize")

    monkeypatch.setattr(obstruct, "minimize", forbidden)
    rng = np.random.default_rng(3)
    V = make_subspace(3, 3, [np.outer(rng.standard_normal(3), rng.standard_normal(3)),
                             rng.standard_normal((3, 3))])
    rank_one, _ = obstruct.find_witnesses(V, restarts=3)
    assert rank_one is not None
    W = conjugate(obstruct.complex_structure_plane(3, 4), well_conditioned(rng, 3),
                  well_conditioned(rng, 4))
    _, pair = obstruct.find_witnesses(W, restarts=3)
    assert pair is not None
    assert obstruct.minimize is forbidden
