import numpy as np
import pytest

from conftest import (
    conformal_subspace,
    holomorphic_power,
    random_subspace,
    skew_subspace,
)
from prolongation.matspace import make_subspace, principal_angles_rows
from prolongation.prolong import (
    chain,
    constants_space,
    membership_residual,
    mk_direct,
    mk_step,
)
from prolongation.manifolds import quaternion_right_multiplications
from prolongation.symtensor import hom_dim

I2 = np.eye(2)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def spaces_match(s1, s2, tol=1e-8):
    if s1.dim != s2.dim:
        return False
    if s1.dim == 0:
        return True
    angles = principal_angles_rows(s1.rows, s2.rows)
    return angles[0] <= tol


def run_step_chain(V, k_max):
    spaces = [constants_space(V.n, V.m)]
    for _ in range(k_max):
        spaces.append(mk_step(V, spaces[-1]))
    return spaces


def test_mk_direct_skew_three_dies_at_two():
    assert mk_direct(skew_subspace(3), 2).dim == 0


def test_mk_direct_conformal_degree_two():
    assert mk_direct(conformal_subspace(3), 2).dim == 3


def test_mk_direct_holomorphic_degree_five_contains_powers():
    V = make_subspace(2, 2, [I2, J2])
    space = mk_direct(V, 5)
    assert space.dim == 2
    span = space.rows
    for p in (holomorphic_power(5), rotate_power(5)):
        vec = p.coeff_vector()
        vec = vec / np.linalg.norm(vec)
        residual = vec - span.T @ (span @ vec)
        assert np.linalg.norm(residual) < 1e-10


def rotate_power(k):
    # multiplying the power by the imaginary unit gives the second element
    p = holomorphic_power(k)
    rotated = p.coeffs.copy()
    rotated[[0, 1]] = np.vstack([-p.coeffs[1], p.coeffs[0]])
    return type(p)(2, 2, k, rotated)


def test_mk_step_from_constants_returns_the_subspace(rng):
    V = random_subspace(rng, 3, 2, 3)
    space = mk_step(V, constants_space(3, 2))
    assert space.dim == V.dim
    angles = principal_angles_rows(space.rows, V.flat)
    assert angles[0] <= 1e-12


def test_mk_step_from_zero_space_is_zero(rng):
    V = random_subspace(rng, 2, 2, 1)
    zero = mk_direct(skew_subspace(3), 2)
    assert zero.dim == 0
    assert mk_step(skew_subspace(3), zero).dim == 0


def test_mk_step_matches_mk_direct_on_seeded_corpus(rng):
    for trial in range(8):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        dim = int(rng.integers(1, 4))
        V = random_subspace(rng, n, m, dim)
        stepped = run_step_chain(V, 4)
        for k in range(5):
            assert spaces_match(stepped[k], mk_direct(V, k)), (trial, n, m, dim, k)


def test_mk_step_rejects_mismatched_dimensions(rng):
    V = random_subspace(rng, 3, 3, 2)
    with pytest.raises(ValueError):
        mk_step(V, constants_space(2, 2))


def test_chain_conformal_three():
    report = chain(conformal_subspace(3), 8)
    assert report.alpha == [3, 4, 3, 0]
    assert report.delta.status == "finite" and report.delta.value == 2
    assert report.alpha_total == 10 and report.alpha_total_exact


def test_chain_quaternion():
    report = chain(quaternion_right_multiplications(), 8)
    assert report.alpha == [4, 4, 0]
    assert report.delta.status == "finite" and report.delta.value == 1
    assert report.alpha_total == 8


def test_chain_holomorphic_plane_reaches_k_max():
    V = make_subspace(2, 2, [I2, J2])
    report = chain(V, 8)
    assert report.alpha == [2] * 9
    assert report.delta.status == "lower_bound" and report.delta.value == 8
    assert not report.alpha_total_exact
    # oracle: the real and imaginary parts of the k-th power solve every degree
    for space in report.spaces[1:]:
        span = space.rows
        vec = holomorphic_power(space.degree).coeff_vector()
        vec /= np.linalg.norm(vec)
        assert np.linalg.norm(vec - span.T @ (span @ vec)) < 1e-10


def test_chain_on_the_whole_matrix_space():
    # no constraint: every polynomial qualifies, and the complement of each
    # degree is empty
    n, m = 3, 2
    V = make_subspace(n, m, list(np.eye(m * n).reshape(-1, m, n)))
    report = chain(V, 4)
    assert report.alpha == [hom_dim(n, m, k) for k in range(5)]
    assert report.delta.status == "lower_bound" and report.delta.value == 4
    for k, space in enumerate(report.spaces):
        assert spaces_match(space, mk_direct(V, k)), k


def test_chain_rejects_bad_k_max():
    with pytest.raises(ValueError):
        chain(skew_subspace(3), 0)


def test_chain_alpha_prefix(rng):
    for _ in range(5):
        V = random_subspace(rng, 3, 2, int(rng.integers(0, 4)))
        report = chain(V, 3)
        assert report.alpha[0] == 2
        assert report.alpha[1] == V.dim


def test_zero_space_terminates_chain(rng):
    # once a degree dies the next one stays dead
    for _ in range(5):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        V = random_subspace(rng, n, m, int(rng.integers(1, 3)))
        report = chain(V, 6)
        if report.delta.status == "finite":
            dead = report.spaces[-1]
            assert dead.dim == 0
            assert mk_step(V, dead).dim == 0


def test_every_chain_basis_element_satisfies_membership(rng):
    for V in (conformal_subspace(3), skew_subspace(4), random_subspace(rng, 3, 3, 2)):
        report = chain(V, 6)
        for space in report.spaces:
            if space.degree == 0:
                continue
            for p in space.basis:
                assert membership_residual(p, V) <= 1e-8


def test_dimension_upper_semicontinuity_probe(rng):
    V = conformal_subspace(3)
    base = chain(V, 3).alpha
    base = base + [0] * (4 - len(base))
    for _ in range(20):
        perturbed = make_subspace(
            3, 3, [B + 1e-3 * rng.standard_normal((3, 3)) for B in V.basis]
        )
        alpha = chain(perturbed, 3).alpha
        alpha = alpha + [0] * (4 - len(alpha))
        for l in range(4):
            assert alpha[l] <= base[l]


def test_report_json_shape():
    report = chain(conformal_subspace(3), 8)
    data = report.to_json()
    assert data["alpha"] == [3, 4, 3, 0]
    assert data["delta"] == {"status": "finite", "value": 2}
    assert data["alpha_total"] == 10
    assert len(data["bases"]) == 4
    assert len(data["bases"][1]) == 4
