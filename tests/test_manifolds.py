import numpy as np
import pytest

from conftest import conformal_subspace, skew_subspace, well_conditioned
from prolongation.manifolds import (
    DegeneratePointError,
    augment_with_full_range,
    augmented_from_json,
    augmented_jet_space,
    augmented_to_json,
    builtin_family,
    linear_family,
    make_augmented,
    quaternion_right_multiplications,
    sample_analysis,
    tangent_space,
)
from prolongation.matspace import make_subspace, max_principal_angle, subspaces_equal
from prolongation.obstruct import complex_structure_plane
from prolongation.prolong import chain
from prolongation.symtensor import hom_dim


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
        assert max_principal_angle(V, moved) <= 1e-7


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


def test_tangent_space_flags_degenerate_points():
    fam = builtin_family("conformal", 3)
    # the apex of the cone satisfies the residual but the derivative drops rank
    with pytest.raises(DegeneratePointError):
        tangent_space(fam, np.zeros((3, 3)))


def test_finite_difference_jacobian_fallback(rng):
    fam = builtin_family("conformal", 3)
    A = fam.sample(rng)
    analytic = tangent_space(fam, A)
    fam.jacobian_fn = None
    numeric = tangent_space(fam, A)
    assert numeric.dim == analytic.dim == 4
    assert max_principal_angle(analytic, numeric) <= 1e-6


def test_linear_family_tangent_is_the_subspace(rng):
    V = conformal_subspace(3)
    fam = linear_family(V)
    for _ in range(5):
        A = fam.sample(rng)
        assert subspaces_equal(tangent_space(fam, A), V, 1e-9)


def test_custom_linear_through_builtin_entry(rng):
    V = skew_subspace(3)
    fam = builtin_family("custom-linear", 3, subspace=V)
    assert subspaces_equal(tangent_space(fam, fam.sample(rng)), V, 1e-9)


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
    assert report.dimension == sum(hom_dim(2, 2, j) for j in (2, 3, 4))


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
            pair = np.concatenate([jacobian(F, xi).ravel(), F.evaluate(xi)])
            assert np.linalg.norm(perp @ pair) <= 1e-9 * max(1.0, np.linalg.norm(pair))


def test_jet_rejects_bad_degree(rng):
    aug = augment_with_full_range(conformal_subspace(3))
    with pytest.raises(ValueError):
        augmented_jet_space(aug, np.eye(3), 0)


def test_augmented_json_round_trip(rng):
    V = conformal_subspace(3)
    aug = augment_with_full_range(V)
    back = augmented_from_json(augmented_to_json(aug))
    assert back.dim == aug.dim
    gram = aug.basis @ back.basis.T
    s = np.linalg.svd(gram, compute_uv=False)
    assert np.all(s > 1 - 1e-10)
