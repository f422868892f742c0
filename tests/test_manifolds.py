from math import comb

import numpy as np
import pytest

from conftest import conformal_subspace, fd_jacobian, skew_subspace
from prolongation.manifolds import (
    AugmentedSubspace,
    DegeneratePointError,
    augmented_from_json,
    augmented_jet_space,
    builtin_family,
    linear_family,
    make_augmented,
    quaternion_right_multiplications,
    sample_analysis,
    tangent_space,
)
from prolongation.matspace import largest_principal_angle, make_subspace, nullspace_rows
from prolongation.obstruct import complex_structure_plane
from prolongation.prolong import chain
from prolongation.symtensor import HomPoly
from reference import augment_with_full_range, augmented_to_json, evaluate, subspaces_equal


def test_isometry_tangent_at_identity_is_skew():
    fam = builtin_family("isometry", 3)
    V = tangent_space(fam, np.eye(3))
    assert V.dim == 3
    assert subspaces_equal(V, skew_subspace(3), 1e-9)


def test_conformal_tangent_at_identity():
    fam = builtin_family("conformal", 3)
    V = tangent_space(fam, np.eye(3))
    assert V.dim == 4
    assert subspaces_equal(V, conformal_subspace(3), 1e-9)


def test_conformal_tangent_translates_with_the_point(rng):
    fam = builtin_family("conformal", 3)
    base = tangent_space(fam, np.eye(3))
    for i in range(5):
        A = fam.sample(np.random.default_rng([9, i]))
        V = tangent_space(fam, A)
        assert V.dim == 4
        # right translation carries the identity tangent onto the one at A
        moved = make_subspace(3, 3, [B @ A for B in base.basis])
        assert largest_principal_angle(V.flat, moved.flat) <= 1e-7


def test_holomorphic_family_is_the_reference_plane():
    fam = builtin_family("holomorphic", 2)
    V = tangent_space(fam, fam.base_point)
    assert subspaces_equal(V, complex_structure_plane(2, 2), 1e-10)


def test_quaternion_matrices_match_the_multiplication_table():
    V = quaternion_right_multiplications()
    assert V.dim == 4
    # right multiplication by the second imaginary unit, written out by hand:
    # the columns are 1*j = j, i*j = k, j*j = -1, k*j = -i
    R_j = np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    from prolongation.matspace import distance

    assert distance(R_j / np.linalg.norm(R_j), V) <= 1e-12


def test_builtin_family_rejections():
    with pytest.raises(ValueError):
        builtin_family("quaternion", 3)
    with pytest.raises(ValueError):
        builtin_family("holomorphic", 3)
    with pytest.raises(ValueError):
        builtin_family("conformal", 1)
    with pytest.raises(ValueError):
        builtin_family("custom-linear", 3)
    with pytest.raises(ValueError):
        builtin_family("moebius", 3)


def test_tangent_space_rejects_off_manifold_points():
    fam = builtin_family("isometry", 3)
    with pytest.raises(ValueError):
        tangent_space(fam, 2 * np.eye(3))


@pytest.mark.parametrize("name", ["isometry", "conformal"])
def test_tangent_space_rejects_non_finite_points(name):
    A = np.eye(3)
    A[0, 0] = np.nan
    with pytest.raises(ValueError, match="does not lie on the constraint set"):
        tangent_space(builtin_family(name, 3), A)


# a symmetric direction off the conformal set: at I + t S its defining residual
# has norm 2 sqrt(2) t, to first order
OFF_CONFORMAL = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("t, on", [(1e-10, True), (1e-9, False), (1e-6, False)])
def test_tangent_space_gates_the_point_at_on_manifold(t, on):
    fam = builtin_family("conformal", 3)
    A = np.eye(3) + t * OFF_CONFORMAL
    assert abs(np.linalg.norm(fam.defining(A)) - 2 * np.sqrt(2) * t) <= 1e-3 * t
    if on:
        assert tangent_space(fam, A).dim == 4
    else:
        with pytest.raises(ValueError, match="does not lie on the constraint set"):
            tangent_space(fam, A)


def test_tangent_space_flags_degenerate_points():
    fam = builtin_family("conformal", 3)
    # the apex of the cone satisfies the residual but the derivative drops rank
    with pytest.raises(DegeneratePointError):
        tangent_space(fam, np.zeros((3, 3)))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", ["isometry", "conformal"])
def test_gram_family_jacobian_matches_finite_differences(name, n):
    fam = builtin_family(name, n)
    expected = skew_subspace(n) if name == "isometry" else conformal_subspace(n)
    assert subspaces_equal(tangent_space(fam, np.eye(n)), expected, 1e-9)
    A = fam.sample(np.random.default_rng([n, 5]))
    J = fam.jacobian_fn(A)
    J_fd = fd_jacobian(lambda a: fam.defining(a.reshape(n, n)), A.ravel(), n * n, len(J))
    assert np.linalg.norm(J - J_fd) <= 1e-6 * max(1.0, np.linalg.norm(J))
    assert tangent_space(fam, A).dim == fam.manifold_dim


def test_linear_family_tangent_is_the_subspace(rng):
    V = conformal_subspace(3)
    fam = linear_family(V)
    for _ in range(5):
        A = fam.sample(rng)
        assert subspaces_equal(tangent_space(fam, A), V, 1e-9)


def test_sample_analysis_conformal():
    report = sample_analysis(builtin_family("conformal", 3), sample_count=20,
                             k_max=6, seed=42)
    assert report.constant and report.all_finite
    assert report.k == 10
    assert report.alpha_per_sample[0] == (3, 4, 3, 0)


def test_sample_analysis_isometry():
    report = sample_analysis(builtin_family("isometry", 3), sample_count=20,
                             k_max=6, seed=43)
    assert report.constant and report.k == 6


def test_sample_analysis_holomorphic_certifies_infinity():
    report = sample_analysis(builtin_family("holomorphic", 2), sample_count=3,
                             k_max=4, seed=44, restarts=8)
    assert report.constant
    assert not report.all_finite
    assert report.k is None
    assert all(s.status == "infinite_certified" for s in report.delta_statuses)
    assert all(s.witness is not None for s in report.delta_statuses)


def test_sample_analysis_needs_two_samples():
    with pytest.raises(ValueError):
        sample_analysis(builtin_family("isometry", 3), sample_count=1)


def test_sample_analysis_is_deterministic():
    fam = builtin_family("conformal", 3)
    a = sample_analysis(fam, sample_count=4, k_max=4, seed=7)
    b = sample_analysis(fam, sample_count=4, k_max=4, seed=7)
    assert a.alpha_per_sample == b.alpha_per_sample
    assert [s.status for s in a.delta_statuses] == [s.status for s in b.delta_statuses]


# --- truncated jet spaces ---------------------------------------------------

def test_jet_full_space_counts_free_coefficients(rng):
    full = make_subspace(2, 2, [e.reshape(2, 2) for e in np.eye(4)])
    aug = augment_with_full_range(full)
    A = rng.standard_normal((2, 2))
    report = augmented_jet_space(aug, A, 4)
    assert not report.empty
    assert report.dimension == sum(2 * comb(j + 1, j) for j in (2, 3, 4))


def test_jet_one_dimensional_exponential_condition():
    # pair (1, 2): the value must equal twice the derivative
    aug = make_augmented(1, 1, [(np.array([[1.0]]), np.array([2.0]))])
    incompatible = augmented_jet_space(aug, np.array([[1.0]]), 6)
    assert incompatible.empty
    compatible = augmented_jet_space(aug, np.array([[0.0]]), 6)
    assert not compatible.empty
    assert compatible.dimension == 0


def test_jet_one_dimensional_against_sampled_identity_oracle():
    # independent route: enforce 2 u'(t) - u(t) = 0 on sampled points for
    # u = sum_{j=2..6} c_j t^j and read the nullspace dimension off directly
    ts = np.linspace(-1.0, 1.0, 25)
    rows = []
    for t in ts:
        rows.append([2 * j * t ** (j - 1) - t ** j for j in range(2, 7)])
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    oracle_dim = int(np.sum(s <= 1e-9 * s[0]))
    aug = make_augmented(1, 1, [(np.array([[1.0]]), np.array([2.0]))])
    report = augmented_jet_space(aug, np.array([[0.0]]), 6)
    assert report.dimension == oracle_dim == 0


def test_jet_matrix_only_constraint_matches_chain_arithmetic(rng):
    for V in (conformal_subspace(3), skew_subspace(3), quaternion_right_multiplications()):
        aug = augment_with_full_range(V)
        A = V.element(rng.standard_normal(V.dim)) if V.dim else np.zeros((V.m, V.n))
        report = augmented_jet_space(aug, A, 4)
        total = chain(V, 6).alpha_total
        assert not report.empty
        assert report.dimension == total - V.m - V.dim


def test_jet_solutions_satisfy_the_constraint_pointwise(rng):
    V = conformal_subspace(3)
    aug = augment_with_full_range(V)
    A = V.element(np.array([0.4, -0.2, 0.7, 0.1]))
    report = augmented_jet_space(aug, A, 3)
    assert report.dimension == 3
    from prolongation.matspace import distance
    from prolongation.symtensor import jacobian

    for F in report.basis:
        for _ in range(10):
            xi = rng.standard_normal(3)
            assert distance(jacobian(F, xi), V) <= 1e-9


def test_jet_degree_one_checks_the_first_order_part():
    aug = augment_with_full_range(conformal_subspace(3))
    consistent = augmented_jet_space(aug, np.eye(3), 1)
    assert not consistent.empty and consistent.dimension == 0
    assert np.array_equal(consistent.particular.components[1].coeffs, np.eye(3))
    # trace-free symmetric, so orthogonal to scalars plus skew matrices
    inconsistent = augmented_jet_space(aug, np.diag([1.0, -1.0, 0.0]), 1)
    assert inconsistent.empty and inconsistent.particular is None


@pytest.mark.parametrize("t, empty", [(0.0, False), (1e-6, True)])
def test_jet_gates_the_first_order_part_at_jet_consistency(t, empty):
    # I + t S lies at distance sqrt(2) t from conformal 3, far above the
    # jet_consistency slack of 1e-8
    aug = augment_with_full_range(conformal_subspace(3))
    report = augmented_jet_space(aug, np.eye(3) + t * OFF_CONFORMAL, 2)
    assert report.empty is empty
    assert report.dimension == (0 if empty else 3)


def test_value_coupled_jet_satisfies_the_constraint_pointwise():
    from prolongation.matspace import nullspace_rows, row_complement
    from prolongation.symtensor import jacobian

    rng = np.random.default_rng(5)
    n, m = 2, 3
    aug = make_augmented(n, m, [(rng.standard_normal((m, n)), rng.standard_normal(m))
                                for _ in range(7)])
    perp = row_complement(aug.basis)
    assert perp.shape[0] == 2 and np.linalg.norm(perp[:, m * n:]) > 0.1
    A = nullspace_rows(perp[:, : m * n])[0].reshape(m, n)
    report = augmented_jet_space(aug, A, 3)
    assert not report.empty and report.dimension > 0
    for F in report.basis + [report.particular]:
        for _ in range(10):
            xi = rng.standard_normal(n)
            pair = np.concatenate([jacobian(F, xi).ravel(), evaluate(F, xi)])
            assert np.linalg.norm(perp @ pair) <= 1e-9 * max(1.0, np.linalg.norm(pair))


def test_jet_rejects_bad_degree(rng):
    aug = augment_with_full_range(conformal_subspace(3))
    with pytest.raises(ValueError):
        augmented_jet_space(aug, np.eye(3), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_jet_rejects_a_non_finite_first_order_part(bad):
    aug = augment_with_full_range(conformal_subspace(3))
    A = np.eye(3)
    A[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        augmented_jet_space(aug, A, 2)


def test_jet_rejects_a_non_finite_augmented_subspace():
    # built directly, past make_augmented's own check
    aug = AugmentedSubspace(1, 1, np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        augmented_jet_space(aug, np.array([[0.0]]), 2)


def test_make_augmented_rejects_a_non_finite_generator():
    with pytest.raises(ValueError, match="generator 1 has non-finite entries"):
        make_augmented(1, 1, [(np.array([[1.0]]), np.array([2.0])),
                              (np.array([[1.0]]), np.array([np.inf]))])


def test_jet_reads_a_nan_residual_as_inconsistent(monkeypatch):
    """The solve's own SVD returns a NaN left factor, so the particular
    solution and its residual are NaN; the gate must read that as
    inconsistent.  The chain's SVDs, called from matspace, are left alone."""
    import sys

    aug = make_augmented(1, 1, [(np.array([[1.0]]), np.array([2.0]))])
    assert not augmented_jet_space(aug, np.array([[0.0]]), 6).empty
    svd = np.linalg.svd

    def nan_left_factor(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        if sys._getframe(1).f_code.co_name == "augmented_jet_space":
            u = np.full_like(u, np.nan)
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", nan_left_factor)
    assert augmented_jet_space(aug, np.array([[0.0]]), 6).empty


def _value_coupled(seed):
    """A seeded subspace of pairs cut out by 1-3 generic constraints, with a
    first-order part that is random (mostly inconsistent), zero, or drawn
    from the pairs (A, 0) of the subspace."""
    rng = np.random.default_rng([7, seed])
    n, m, D = (int(v) for v in rng.integers(1, [4, 4, 5]))
    constraints = int(rng.integers(1, min(4, m * n + m)))
    aug = make_augmented(n, m, [(rng.standard_normal((m, n)), rng.standard_normal(m))
                                for _ in range(m * n + m - constraints)])
    if seed % 3 == 0:
        return aug, rng.standard_normal((m, n)), D
    fixed = nullspace_rows(nullspace_rows(aug.basis)[:, : m * n])
    A = rng.standard_normal(len(fixed)) @ fixed if seed % 3 == 2 else np.zeros(m * n)
    return aug, A.reshape(m, n), D


def _sampled_identity_oracle(aug, A, D, rng):
    """Dimension and emptiness from the identity itself, sampled at more
    generic points than there are monomials of degree <= D, over every
    monomial coefficient of u_2 .. u_D; exponents and derivatives are
    written out here rather than read from the library."""
    from itertools import combinations_with_replacement

    n, m = aug.n, aug.m
    perp = np.linalg.svd(aug.basis)[2][aug.dim:]
    perp_mat, perp_vec = perp[:, : m * n].reshape(-1, m, n), perp[:, m * n:]
    E = np.array([np.bincount(c, minlength=n) for d in range(2, D + 1)
                  for c in combinations_with_replacement(range(n), d)]).reshape(-1, n)
    points = rng.standard_normal((3 * comb(n + D, D) + 5, n))
    value = np.prod(points[:, None, :] ** E, axis=2)                  # (point, e)
    lowered = np.maximum(E - np.eye(n, dtype=int)[:, None, :], 0)     # (j, e, n)
    grad = E.T * np.prod(points[:, None, None, :] ** lowered, axis=3)  # (point, j, e)
    # unknown (a, e): value e_a xi^e, Jacobian e_a (grad xi^e)^T
    b = -(perp_mat.reshape(len(perp), -1) @ A.ravel() + points @ (perp_vec @ A).T).ravel()
    G = (np.einsum("raj,pje->prae", perp_mat, grad)
         + perp_vec[None, :, :, None] * value[:, None, None, :]).reshape(len(b), m * len(E))
    s = np.linalg.svd(G, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    x = np.linalg.lstsq(G, b, rcond=None)[0]
    empty = np.linalg.norm(G @ x - b) > 1e-7 * max(1.0, np.linalg.norm(b))
    return (0 if empty else G.shape[1] - rank), bool(empty)


def test_value_coupled_jets_against_a_sampled_identity_oracle():
    from prolongation.symtensor import jacobian

    rng = np.random.default_rng(0)
    seen = set()
    for seed in range(72):
        aug, A, D = _value_coupled(seed)
        report = augmented_jet_space(aug, A, D)
        dimension, empty = _sampled_identity_oracle(aug, A, D, rng)
        assert (report.dimension, report.empty) == (dimension, empty), seed
        seen.add("empty" if empty else "positive" if dimension else "zero")
        if empty:
            continue
        linear = report.particular.components.get(1, HomPoly.zero(aug.n, aug.m, 1))
        assert np.array_equal(linear.coeffs, A)
        perp = nullspace_rows(aug.basis)
        for F in report.basis + [report.particular]:
            for xi in rng.standard_normal((5, aug.n)):
                pair = np.concatenate([jacobian(F, xi).ravel(), evaluate(F, xi)])
                assert np.linalg.norm(perp @ pair) <= 1e-9 * max(1.0, np.linalg.norm(pair))
    assert seen == {"empty", "zero", "positive"}


def test_jet_never_calls_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("augmented_jet_space called np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    augmented_jet_space(augment_with_full_range(conformal_subspace(3)), np.eye(3), 4)
    for seed in range(6):
        augmented_jet_space(*_value_coupled(seed))


def test_conformal_five_jet_in_chain_coordinates():
    """Full-range conformal 5 to D = 5: alpha is [5, 11, 5], so the jet has
    the 5 free quadratic directions.  A dense system over all 1,230 coefficients
    takes seconds here, so this pins that the unknowns stay the chain's
    coordinates."""
    V = conformal_subspace(5)
    report = augmented_jet_space(augment_with_full_range(V), V.basis[0], 5)
    assert not report.empty and report.dimension == 5


def test_augmented_json_round_trip(rng):
    V = conformal_subspace(3)
    aug = augment_with_full_range(V)
    back = augmented_from_json(augmented_to_json(aug))
    assert back.dim == aug.dim
    gram = aug.basis @ back.basis.T
    s = np.linalg.svd(gram, compute_uv=False)
    assert np.all(s > 1 - 1e-10)
