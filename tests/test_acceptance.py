"""Acceptance suite: one check per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import prolongation
from conftest import (
    conformal_subspace,
    fd_jacobian,
    random_polymap,
    random_subspace,
    skew_subspace,
    well_conditioned,
)
from prolongation.matspace import largest_principal_angle, make_subspace
from prolongation.manifolds import (
    augmented_jet_space,
    builtin_family,
    quaternion_right_multiplications,
    sample_analysis,
)
from prolongation.obstruct import (
    classify_delta_full,
    complex_structure_plane,
    find_rank_one,
    verify_complex_pair,
)
from prolongation.polyspace import solution_basis, verify_membership
from prolongation.prolong import chain, constants_space, mk_direct, mk_step
from prolongation.symtensor import jacobian
from reference import (
    augment_with_full_range,
    augmented_to_json,
    conjugate,
    evaluate,
    subspaces_equal,
)


def verdict(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_conformal_chain():
    ok = True
    for n in (3, 4, 5):
        start = time.perf_counter()
        report = chain(conformal_subspace(n), 8)
        elapsed = time.perf_counter() - start
        ok &= report.alpha == [n, 1 + n * (n - 1) // 2, n, 0]
        ok &= report.delta.status == "finite" and report.delta.value == 2
        ok &= report.alpha_total == (n + 1) * (n + 2) // 2
        ok &= elapsed < 2.0
    verdict(1, "conformal-chain", ok)


def test_criterion_02_isometry_chain():
    ok = True
    for n in (2, 3, 4, 5):
        start = time.perf_counter()
        report = chain(skew_subspace(n), 8)
        elapsed = time.perf_counter() - start
        ok &= report.delta.status == "finite" and report.delta.value == 1
        ok &= report.alpha_total == n * (n + 1) // 2
        ok &= elapsed < 1.0
    verdict(2, "isometry-chain", ok)


def test_criterion_03_quaternion_rigidity():
    V = quaternion_right_multiplications()
    report = chain(V, 8)
    ok = report.alpha == [4, 4, 0]
    ok &= report.delta.status == "finite" and report.delta.value == 1
    basis = solution_basis(report)
    ok &= all(max(F.components, default=0) <= 1 for F in basis.elements)
    linear = make_subspace(4, 4, [
        F.components[1].coeffs for F, d in zip(basis.elements, basis.degrees) if d == 1
    ])
    ok &= subspaces_equal(linear, V, 1e-8)
    verdict(3, "quaternion-rigidity", ok)


def test_criterion_04_holomorphic_obstruction():
    rng = np.random.default_rng(2024)
    instances = [complex_structure_plane(2, 2)]
    for shape_m, shape_n in ((3, 3), (3, 4)):
        W = complex_structure_plane(shape_m, shape_n)
        for _ in range(5):
            P = well_conditioned(rng, shape_m)
            Q = well_conditioned(rng, shape_n)
            instances.append(conjugate(W, P, Q))
    ok = True
    for idx, V in enumerate(instances):
        start = time.perf_counter()
        outcome = classify_delta_full(V, k_max=8, seed=100 + idx, restarts=64)
        elapsed = time.perf_counter() - start
        ok &= outcome.delta.status == "infinite_certified"
        witness = outcome.delta.witness
        ok &= verify_complex_pair(V, witness)
        ok &= max(witness.residuals.values()) <= 1e-7
        ok &= elapsed <= 60.0
    verdict(4, "holomorphic-obstruction", ok)


def test_criterion_05_rank_one_obstruction():
    rng = np.random.default_rng(2025)
    ok = True
    for idx in range(10):
        psi = rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        V = make_subspace(3, 3, [np.outer(w, psi),
                                 rng.standard_normal((3, 3)),
                                 rng.standard_normal((3, 3))])
        witness = find_rank_one(V, seed=200 + idx, restarts=64)
        ok &= witness is not None and witness.residual <= 1e-8
    verdict(5, "rank-one-obstruction", ok)


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        dim = int(rng.integers(1, 4))
        V = random_subspace(rng, n, m, dim)
        stepped = constants_space(n, m)
        for k in range(5):
            direct = mk_direct(V, k)
            if k > 0:
                stepped = mk_step(V, stepped)
            current = stepped if k > 0 else constants_space(n, m)
            if current.dim != direct.dim:
                ok = False
                continue
            if current.dim:
                ok &= largest_principal_angle(current.rows, direct.rows) <= 1e-8
    verdict(6, "recursive-direct-equivalence", ok)


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(2027)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        F = random_polymap(rng, n, m, 3)
        x = rng.standard_normal(n)
        J = jacobian(F, x)
        J_fd = fd_jacobian(lambda y: evaluate(F, y), x, n, m, step=1e-5)
        ok &= np.linalg.norm(J - J_fd) <= 1e-6 * max(1.0, np.linalg.norm(J))
    verdict(7, "gradient-check", ok)


def test_criterion_08_solution_verification():
    V = conformal_subspace(3)
    basis = solution_basis(chain(V, 8))
    ok = True
    for F in basis.elements:
        report = verify_membership(F, V, samples=100, radius=1.0, tol=1e-9, seed=31)
        ok &= report.passed
    verdict(8, "solution-verification", ok)


def test_criterion_09_constant_alpha_hypothesis():
    conf = sample_analysis(builtin_family("conformal", 3), sample_count=20,
                           k_max=6, seed=32)
    iso = sample_analysis(builtin_family("isometry", 3), sample_count=20,
                          k_max=6, seed=33)
    ok = conf.constant and conf.k == 10
    ok &= iso.constant and iso.k == 6
    verdict(9, "constant-alpha-hypothesis", ok)


def test_criterion_10_jet_dimension_formula():
    V = conformal_subspace(3)
    aug = augment_with_full_range(V)
    A = V.element(np.array([0.8, -0.1, 0.4, 0.3]))
    report = augmented_jet_space(aug, A, 3)
    total = chain(V, 6).alpha_total
    ok = not report.empty
    ok &= report.dimension == 3
    ok &= report.dimension == total - V.m - V.dim
    verdict(10, "jet-dimension-formula", ok)


def test_criterion_11_semicontinuity_probe():
    rng = np.random.default_rng(2028)
    V = conformal_subspace(3)
    base = chain(V, 3).alpha
    base = base + [0] * (4 - len(base))
    ok = True
    for _ in range(20):
        perturbed = make_subspace(3, 3, [
            B + 1e-3 * rng.standard_normal((3, 3)) for B in V.basis
        ])
        alpha = chain(perturbed, 3).alpha
        alpha = alpha + [0] * (4 - len(alpha))
        ok &= all(alpha[l] <= base[l] for l in range(4))
    verdict(11, "semicontinuity-probe", ok)


def _run_cli(args, out_path):
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(prolongation.__file__))
    path = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    result = subprocess.run(
        [sys.executable, "-m", "prolongation.cli", *args, "--out", str(out_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert result.returncode == 0, result.stderr
    return out_path.read_bytes()


def test_criterion_12_deterministic_reports(tmp_path):
    conformal = tmp_path / "conformal3.json"
    _run_cli(["manifold", "--family", "conformal", "--dim", "3", "--emit-tangent"],
             conformal)
    plane = tmp_path / "plane.json"
    from prolongation.matspace import subspace_to_json

    plane.write_text(json.dumps(subspace_to_json(complex_structure_plane(2, 2))))
    w_pad = tmp_path / "w_pad.json"
    w_pad.write_text(json.dumps(subspace_to_json(complex_structure_plane(3, 3))))
    member = tmp_path / "member.json"
    member.write_text(json.dumps({
        "n": 3, "m": 3,
        "terms": [{"degree": 1, "output": a + 1, "exponents": [int(j == a) for j in range(3)],
                   "value": 1.0} for a in range(3)],
    }))
    aug = tmp_path / "aug.json"
    aug.write_text(json.dumps(augmented_to_json(
        augment_with_full_range(conformal_subspace(3)))))
    A_path = tmp_path / "A.json"
    A_path.write_text(json.dumps(np.eye(3).tolist()))

    commands = {
        "chain": ["chain", "--input", str(conformal), "--kmax", "8"],
        "detect": ["detect", "--input", str(w_pad), "--seed", "42", "--restarts", "64"],
        "classify": ["classify", "--input", str(plane), "--kmax", "4", "--seed", "7"],
        "polysolve": ["polysolve", "--input", str(conformal), "--kmax", "8"],
        "manifold": ["manifold", "--family", "isometry", "--dim", "3",
                     "--samples", "3", "--kmax", "4", "--seed", "9"],
        "verify": ["verify", "--input", str(conformal), "--poly", str(member),
                   "--samples", "50", "--radius", "1.0", "--tol", "1e-9",
                   "--seed", "11"],
        "jet": ["jet", "--input-augmented", str(aug), "--matrix", str(A_path),
                "--degree", "3"],
    }
    ok = True
    for name, args in commands.items():
        first = _run_cli(args, tmp_path / f"{name}_a.json")
        second = _run_cli(args, tmp_path / f"{name}_b.json")
        ok &= first == second
    verdict(12, "deterministic-reports", ok)
