import numpy as np
import pytest

from conftest import conformal_subspace, random_polymap, skew_subspace, well_conditioned
from prolongation.matspace import distance, largest_principal_angle, make_subspace
from prolongation.manifolds import quaternion_right_multiplications
from prolongation.polyspace import (
    PolyBasis, _sample_ball, reduced_basis, solution_basis, verify_membership,
)
from prolongation.prolong import chain, mk_direct
from prolongation.symtensor import (
    HomPoly, PolyMap, jacobian, monomial_position, polymap_to_json,
)
from reference import contract, subspaces_equal


def conformal_quadratic(axis, n=3):
    """2 x_l x - |x|^2 e_l, the classical inversion generator."""
    p = HomPoly.zero(n, n, 2)
    for j in range(n):
        sq = tuple(2 if t == j else 0 for t in range(n))
        p.coeffs[axis, monomial_position(sq)] -= 1.0
    for j in range(n):
        beta = tuple(
            (2 if j == axis else 1) if t in (j, axis) else 0 for t in range(n)
        )
        p.coeffs[j, monomial_position(beta)] += 2.0
    return p


def test_solution_basis_conformal_three():
    V = conformal_subspace(3)
    report = chain(V, 8)
    basis = solution_basis(report)
    assert len(basis.elements) == 10
    assert sorted(basis.degrees) == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
    # the linear span equals V, the quadratic span is the inversion family
    lin = make_subspace(3, 3, [
        F.components[1].coeffs for F, d in zip(basis.elements, basis.degrees) if d == 1
    ])
    assert subspaces_equal(lin, V, 1e-8)
    quad_rows = np.array([
        F.components[2].coeffs.ravel()
        for F, d in zip(basis.elements, basis.degrees) if d == 2
    ])
    oracle_rows = np.array([
        conformal_quadratic(axis).coeffs.ravel() for axis in range(3)
    ])
    oracle_rows /= np.linalg.norm(oracle_rows, axis=1, keepdims=True)
    q, _ = np.linalg.qr(oracle_rows.T)
    assert largest_principal_angle(quad_rows, q.T) <= 1e-8


def test_solution_basis_quaternion_is_affine():
    V = quaternion_right_multiplications()
    report = chain(V, 8)
    basis = solution_basis(report)
    assert len(basis.elements) == 8
    assert sorted(basis.degrees) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_solution_basis_of_zero_subspace():
    V = make_subspace(2, 3, [])
    report = chain(V, 4)
    basis = solution_basis(report)
    assert len(basis.elements) == 3
    assert basis.degrees == [0, 0, 0]


def test_solution_basis_requires_finite_chain():
    V = make_subspace(2, 2, [np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])])
    report = chain(V, 4)
    with pytest.raises(ValueError):
        solution_basis(report)


def test_reduced_basis_dimensions():
    V = conformal_subspace(3)
    basis = solution_basis(chain(V, 8))
    red = reduced_basis(basis)
    assert len(red.elements) == 6  # alpha_total minus the linear block

    Vq = quaternion_right_multiplications()
    redq = reduced_basis(solution_basis(chain(Vq, 8)))
    assert len(redq.elements) == 4

    V0 = make_subspace(2, 3, [])
    red0 = reduced_basis(solution_basis(chain(V0, 4)))
    assert len(red0.elements) == 3


def test_reduced_basis_has_exactly_zero_linear_part():
    V = conformal_subspace(3)
    basis = solution_basis(chain(V, 8))
    def vector(F):  # degrees 0 to 2, a missing degree read as zero
        return np.concatenate([F.components.get(k, HomPoly.zero(3, 3, k)).coeffs.ravel()
                               for k in range(3)])

    full = np.array([vector(F) for F in basis.elements])
    for F in reduced_basis(basis).elements:
        lin = F.components.get(1, HomPoly.zero(3, 3, 1)).coeffs
        assert np.all(lin == 0.0)
        # still inside the original span
        vec = vector(F)
        residual = vec - full.T @ (full @ vec)
        assert np.linalg.norm(residual) <= 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_basis_is_the_non_linear_part_of_the_graded_basis(n):
    rng = np.random.default_rng(n)
    P, Q = well_conditioned(rng, n), well_conditioned(rng, n)
    V = make_subspace(n, n, [P @ B @ Q for B in conformal_subspace(n).basis])
    basis = solution_basis(chain(V, 6))
    kept = [i for i, d in enumerate(basis.degrees) if d != 1]
    red = reduced_basis(basis)
    assert red.degrees == [basis.degrees[i] for i in kept] == [0] * n + [2] * n
    assert [polymap_to_json(F) for F in red.elements] == [
        polymap_to_json(basis.elements[i]) for i in kept]


def test_reduced_basis_rejects_a_non_graded_basis():
    mixed = PolyMap(2, 2, {0: HomPoly(2, 2, 0, np.ones((2, 1))), 1: HomPoly.zero(2, 2, 1)})
    for degree in (1, 2):
        with pytest.raises(ValueError):
            reduced_basis(PolyBasis(2, 2, [mixed], [degree]))


def test_verify_membership_conformal_elements():
    V = conformal_subspace(3)
    basis = solution_basis(chain(V, 8))
    for F in basis.elements:
        report = verify_membership(F, V, samples=100, radius=1.0, tol=1e-9, seed=3)
        assert report.passed, report.max_residual


def test_verify_membership_failure_is_a_verdict():
    V = skew_subspace(3)
    p = HomPoly.zero(3, 3, 2)
    p.coeffs[0, monomial_position((2, 0, 0))] = 1.0  # (x1^2, 0, 0)
    report = verify_membership(PolyMap(3, 3, {2: p}), V, samples=20, radius=1.0,
                               tol=1e-9, seed=4)
    assert not report.passed
    assert report.max_residual > 1e-2


def test_verify_membership_constant_map_passes(rng):
    V = skew_subspace(3)
    const = HomPoly(3, 3, 0, rng.standard_normal((3, 1)))
    report = verify_membership(PolyMap(3, 3, {0: const}), V, samples=20,
                               radius=1.0, tol=1e-9, seed=5)
    assert report.passed


def test_verify_membership_rejects_bad_tolerance():
    V = skew_subspace(3)
    with pytest.raises(ValueError):
        verify_membership(PolyMap(3, 3, {0: HomPoly.zero(3, 3, 0)}), V, tol=0.0)


# an infinite tol passes a non-member, x -> (x1^2, 0) against span{I} among them
@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"radius": 0.0}, {"radius": np.nan},
                                    {"radius": np.inf}, {"tol": np.inf}])
def test_verify_membership_rejects_vacuous_sampling(kwargs):
    V = skew_subspace(3)
    with pytest.raises(ValueError):
        verify_membership(PolyMap(3, 3, {0: HomPoly.zero(3, 3, 0)}), V, **kwargs)


def test_verify_membership_fails_on_a_non_finite_residual():
    V = make_subspace(2, 2, [np.eye(2)])
    F = PolyMap(2, 2, {1: HomPoly(2, 2, 1, [[1.0, np.nan], [0.0, 1.0]])})
    report = verify_membership(F, V, samples=5)
    assert not report.passed
    assert np.isnan(report.max_residual)


@pytest.mark.parametrize("scale, passed", [(0.5, True), (2.0, False)])
def test_verify_membership_passes_exactly_up_to_tol(scale, passed):
    # x -> (I + eps E_12) x has Jacobian I + eps E_12 everywhere, at distance
    # exactly eps from span{I}
    tol = 1e-9
    eps = scale * tol
    F = PolyMap(2, 2, {1: HomPoly(2, 2, 1, [[1.0, eps], [0.0, 1.0]])})
    report = verify_membership(F, make_subspace(2, 2, [np.eye(2)]), samples=5, tol=tol)
    assert report.passed is passed
    assert abs(report.max_residual - eps) <= 1e-3 * eps


@pytest.mark.parametrize("V", [conformal_subspace(3), make_subspace(3, 3, [])],
                         ids=["conformal", "dim-0"])
@pytest.mark.parametrize("seed", [0, 9])
def test_verify_membership_is_the_worst_per_point_distance(rng, V, seed):
    # the points are drawn in one call from the seeded generator
    F = random_polymap(rng, 3, 3, 4)
    report = verify_membership(F, V, samples=40, radius=0.8, seed=seed)
    points = _sample_ball(np.random.default_rng(seed), 3, 0.8, 40)
    assert points.shape == (40, 3) and np.all(np.linalg.norm(points, axis=1) <= 0.8)
    worst = max(distance(jacobian(F, x), V) for x in points)
    assert not report.passed
    assert abs(report.max_residual - worst) <= 1e-12 * max(1.0, worst)


def test_grading_closure(rng):
    # degree components of arbitrary span combinations stay in their space
    V = conformal_subspace(3)
    report = chain(V, 8)
    basis = solution_basis(report)
    combo = sum(
        (rng.standard_normal() * F.components[d].coeffs
         for F, d in zip(basis.elements, basis.degrees) if d == 2),
        start=np.zeros_like(basis.elements[-1].components[2].coeffs),
    )
    span = report.spaces[2].rows
    vec = combo.ravel()
    residual = vec - span.T @ (span @ vec)
    assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(vec))


def test_basis_jacobians_are_slot_evaluations(rng):
    V = conformal_subspace(3)
    basis = solution_basis(chain(V, 8))
    quad = next(F for F, d in zip(basis.elements, basis.degrees) if d == 2)
    p = quad.components[2]
    for _ in range(100):
        x = rng.standard_normal(3)
        J = jacobian(quad, x)
        assert np.allclose(J, 2.0 * contract(p, x).coeffs, atol=1e-12)
        assert distance(J, V) <= 1e-8 * max(1.0, np.linalg.norm(J))
