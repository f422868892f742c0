import tracemalloc

import numpy as np
import pytest

from conftest import conformal_subspace, random_subspace, skew_subspace, well_conditioned
from prolongation.matspace import (
    distance,
    distances,
    full_row_rank,
    largest_principal_angle,
    make_subspace,
    nullspace_rows,
    project,
    rank_from_singular_values,
    row_complement,
    row_space,
    subspace_from_json,
    subspace_to_json,
)
from reference import conjugate, subspaces_equal, thin_svd_row_space

I2 = np.eye(2)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_make_subspace_drops_dependent_generators():
    assert make_subspace(2, 2, [I2, 2 * I2]).dim == 1


@pytest.mark.parametrize("offset, dim", [(5e-10, 1), (2e-9, 2)])
def test_a_generator_counts_as_dependent_by_the_rank_threshold(offset, dim):
    # the second generator's residual is `offset` times its norm, against rank_rel = 1e-9
    assert make_subspace(2, 2, [I2, I2 + offset * J2]).dim == dim


def test_make_subspace_skew_three():
    assert skew_subspace(3).dim == 3


def test_make_subspace_empty():
    assert make_subspace(2, 2, []).dim == 0


def test_make_subspace_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_subspace(2, 2, [np.zeros((3, 2))])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_make_subspace_rejects_a_non_finite_generator(bad):
    # a NaN generator used to survive Gram-Schmidt as an all-NaN basis row
    with pytest.raises(ValueError, match="generator 1 has non-finite entries"):
        make_subspace(2, 2, [I2, [[bad, 0.0], [0.0, 1.0]]])


def test_basis_is_orthonormal(rng):
    V = random_subspace(rng, 3, 3, 4)
    gram = V.flat @ V.flat.T
    assert np.allclose(gram, np.eye(V.dim), atol=1e-10)


def test_distance_of_member_is_zero(rng):
    V = random_subspace(rng, 3, 2, 3)
    A = V.element(rng.standard_normal(V.dim))
    assert distance(A, V) <= 1e-12


def test_distance_orthogonal_example():
    VJ = make_subspace(2, 2, [J2])
    assert abs(distance(I2, VJ) - np.sqrt(2.0)) < 1e-12
    VIJ = make_subspace(2, 2, [I2, J2])
    assert distance(I2, VIJ) < 1e-12


def test_pythagoras(rng):
    V = random_subspace(rng, 3, 3, 4)
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        lhs = distance(A, V) ** 2 + np.linalg.norm(project(A, V)) ** 2
        assert abs(lhs - np.linalg.norm(A) ** 2) < 1e-10


@pytest.mark.parametrize("n, m, dim", [(3, 2, 0), (3, 2, 1), (3, 3, 4), (4, 4, 16), (1, 1, 1)])
def test_distances_of_a_stack_equal_each_distance_to_the_bit(rng, n, m, dim):
    V = random_subspace(rng, n, m, dim)
    stack = rng.standard_normal((9, m, n))
    assert distances(stack, V).tolist() == [distance(A, V) for A in stack]
    with pytest.raises(ValueError):
        distances(rng.standard_normal((9, n, m + 1)), V)


def test_distance_absolute_homogeneity(rng):
    V = random_subspace(rng, 2, 3, 2)
    A = rng.standard_normal((3, 2))
    base = distance(A, V)
    for t in (-2.5, 0.0, 0.3):
        assert abs(distance(t * A, V) - abs(t) * base) < 1e-10


def test_conjugate_by_identity_is_identity():
    V = conformal_subspace(3)
    assert subspaces_equal(conjugate(V, np.eye(3), np.eye(3)), V, 1e-10)


def test_conjugate_preserves_dimension(rng):
    W = make_subspace(3, 3, [np.pad(I2, ((0, 1), (0, 1))), np.pad(J2, ((0, 1), (0, 1)))])
    P = well_conditioned(rng, 3)
    Q = well_conditioned(rng, 3)
    assert conjugate(W, P, Q).dim == 2


def test_conjugate_of_rank_one_line_stays_rank_one(rng):
    psi = rng.standard_normal(3)
    w = rng.standard_normal(3)
    V = make_subspace(3, 3, [np.outer(w, psi)])
    VC = conjugate(V, well_conditioned(rng, 3), well_conditioned(rng, 3))
    s = np.linalg.svd(VC.basis[0], compute_uv=False)
    assert s[1] / s[0] < 1e-12


def test_conjugate_round_trip(rng):
    V = random_subspace(rng, 3, 3, 3)
    P = well_conditioned(rng, 3)
    Q = well_conditioned(rng, 3)
    back = conjugate(conjugate(V, P, Q), np.linalg.inv(P), np.linalg.inv(Q))
    assert subspaces_equal(back, V, 1e-10)


def test_conjugate_rejects_singular():
    V = conformal_subspace(3)
    singular = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        conjugate(V, singular, np.eye(3))
    with pytest.raises(ValueError):
        conjugate(V, np.eye(3), singular)


@pytest.mark.parametrize("small, accepted", [(1e-10, False), (1e-8, True)])
def test_conjugate_rejects_by_the_rank_threshold(small, accepted):
    # sigma_min/sigma_max = small, against rank_rel = 1e-9
    V = conformal_subspace(3)
    P = np.diag([1.0, 1.0, small])
    if accepted:
        assert conjugate(V, P, np.eye(3)).dim == V.dim
        assert conjugate(V, np.eye(3), P).dim == V.dim
    else:
        for args in ((P, np.eye(3)), (np.eye(3), P)):
            with pytest.raises(ValueError, match="near-singular"):
                conjugate(V, *args)


def test_equality_is_an_equivalence_relation(rng):
    V = conformal_subspace(3)
    # same space with a rotated basis
    R = well_conditioned(rng, V.dim)
    rotated_flat, _ = np.linalg.qr(R)
    V_rot = make_subspace(3, 3, [
        np.tensordot(row, V.basis, axes=1) for row in rotated_flat
    ])
    corpus = [V, V_rot, skew_subspace(3), random_subspace(rng, 3, 3, 4)]
    for A in corpus:
        assert subspaces_equal(A, A, 1e-8)
    for A in corpus:
        for B in corpus:
            assert subspaces_equal(A, B, 1e-8) == subspaces_equal(B, A, 1e-8)
    for A in corpus:
        for B in corpus:
            for C in corpus:
                if subspaces_equal(A, B, 1e-8) and subspaces_equal(B, C, 1e-8):
                    assert subspaces_equal(A, C, 1e-8)
    assert subspaces_equal(V, V_rot, 1e-8)
    assert not subspaces_equal(V, skew_subspace(3), 1e-8)


def test_max_principal_angle_orthogonal_spaces():
    VI = make_subspace(2, 2, [I2])
    VJ = make_subspace(2, 2, [J2])
    assert abs(largest_principal_angle(VI.flat, VJ.flat) - np.pi / 2) < 1e-12


def test_subspace_json_round_trip(rng):
    V = random_subspace(rng, 2, 3, 3)
    W = subspace_from_json(subspace_to_json(V))
    assert subspaces_equal(V, W, 1e-12)


# --- the row space and the kernel split the columns -----------------------

@pytest.mark.parametrize("rows, cols, rank", [
    (40, 7, 7), (7, 40, 7), (9, 9, 9), (0, 6, 0), (30, 10, 4), (6, 15, 3), (12, 12, 5),
    (5, 5, 0), (3, 0, 0)],
    ids=["tall", "wide", "square", "zero-row", "tall-deficient", "wide-deficient",
         "square-deficient", "zero", "zero-column"])
def test_row_space_and_kernel_split_the_columns(rng, rows, cols, rank):
    A = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    rows_part, kernel = row_space(A), nullspace_rows(A)
    assert rows_part.shape == (rank, cols)
    assert kernel.shape == (cols - rank, cols)
    both = np.vstack([rows_part, kernel])
    assert np.linalg.norm(both @ both.T - np.eye(cols)) <= 1e-12
    assert np.linalg.norm(A @ kernel.T) <= 1e-12 * max(1.0, np.linalg.norm(A))
    if rows and cols:
        _, s, vh = np.linalg.svd(A, full_matrices=True)
        full_kernel = vh[rank_from_singular_values(s):]
        assert full_kernel.shape == kernel.shape
        assert largest_principal_angle(kernel, full_kernel) <= 1e-12


def test_nullspace_rows_of_a_tall_matrix_skips_the_left_factor(rng):
    # a full left factor of this matrix alone is 3000 x 3000 doubles, 72 MB
    A = rng.standard_normal((3000, 30))
    A[:, -1] = A[:, 0]
    tracemalloc.start()
    try:
        kernel = nullspace_rows(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.shape == (1, 30)
    assert peak < 8e6


@pytest.mark.parametrize("rows, cols, rank", [
    (7, 40, 7), (6, 15, 3), (40, 7, 7), (12, 12, 5), (0, 6, 0), (5, 5, 0), (3, 0, 0)],
    ids=["wide", "wide-deficient", "tall", "square-deficient", "zero-row", "zero",
         "zero-column"])
def test_row_space_is_the_row_space_half_and_owns_its_rows(rng, rows, cols, rank):
    A = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    rows_only = row_space(A)
    assert rows_only.shape == (rank, cols)
    assert rows_only.base is None or rows_only.base.nbytes <= rows_only.nbytes
    assert np.linalg.norm(rows_only @ rows_only.T - np.eye(rank)) <= 1e-12
    assert np.linalg.norm(rows_only @ nullspace_rows(A).T) <= 1e-12


def count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    return calls


def planted_wide(rng, singular_values, cols):
    u, _ = np.linalg.qr(rng.standard_normal((len(singular_values), len(singular_values))))
    v, _ = np.linalg.qr(rng.standard_normal((cols, len(singular_values))))
    return (u * singular_values) @ v.T


def stored_row_space(A, calls):
    """The row space a wide step stores, as ``mk_direct`` reads it: A itself
    when its Gram matrix certifies full row rank, which must run no SVD,
    else its thin-SVD row space."""
    if full_row_rank(A):
        assert calls == []
        return A
    return row_space(A)


# sigma_min/sigma_1 = ratio: the Gram certificate holds at 0.5 and 1e-4;
# its conditioning bound at 12 x 50 refuses 1e-6, and the thin SVD decides
# 2e-9, 5e-10 and 0; 1e-8 is held to the oracle alone
@pytest.mark.parametrize("ratio, svds", [
    (0.5, 0), (1e-4, 0), (1e-6, 1), (1e-8, None), (2e-9, 1), (5e-10, 1), (0.0, 1)])
def test_row_space_of_a_wide_matrix_matches_the_thin_svd_oracle(rng, monkeypatch, ratio, svds):
    A = planted_wide(rng, np.linspace(1.0, ratio, 12), 50)
    calls = count_svds(monkeypatch)
    rows = stored_row_space(A, calls)
    if svds is not None:
        assert len(calls) == svds
    oracle = thin_svd_row_space(A)
    # a certified A keeps its own rows, so the oracle's rank is 12
    assert rows.shape == oracle.shape
    if rows is not A:
        assert np.linalg.norm(rows @ rows.T - np.eye(len(rows))) <= 1e-12
    if ratio >= 1e-4:
        orthonormal = np.linalg.qr(rows.T)[0].T
        assert largest_principal_angle(orthonormal, oracle) <= 1e-10


@pytest.mark.parametrize("scale, rank, svds", [(1e-8, 12, 0), (5e-10, 0, 1)])
def test_row_space_of_a_small_wide_matrix_keeps_the_rank_rules_absolute_floor(
        rng, monkeypatch, scale, rank, svds):
    # orthonormal rows times scale: perfectly conditioned, so only the rank
    # rule's floor rank_rel * max(1, sigma_1) tells the two apart
    A = scale * planted_wide(rng, np.ones(12), 50)
    calls = count_svds(monkeypatch)
    rows = stored_row_space(A, calls)
    assert len(calls) == svds
    assert rows.shape == thin_svd_row_space(A).shape == (rank, 50)


@pytest.mark.parametrize("shape, certified", [
    ((0, 6), True), ((0, 0), True), ((6, 6), False), ((9, 4), False), ((4, 9), True)],
    ids=["zero-row", "empty", "square", "tall", "wide"])
def test_full_row_rank_certifies_wide_matrices_alone(rng, shape, certified):
    # a Gaussian matrix of full rank: only a wide one is ever certified
    assert full_row_rank(rng.standard_normal(shape)) is certified


@pytest.mark.parametrize("rows, cols", [(0, 6), (6, 6), (4, 9), (1, 30)],
                         ids=["zero-row", "square", "thin", "one-row"])
def test_row_complement_of_orthonormal_rows_is_a_qr_complement(rng, rows, cols, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no SVD may run")

    B = np.linalg.qr(rng.standard_normal((cols, rows)))[0].T
    monkeypatch.setattr(np.linalg, "svd", refuse)
    perp = row_complement(B)
    assert perp.shape == (cols - rows, cols)
    assert np.linalg.norm(perp @ perp.T - np.eye(cols - rows)) <= 1e-12
    assert np.linalg.norm(perp @ B.T) <= 1e-12
    assert perp.base is None


def test_row_complement_of_full_rank_rows_is_the_complement_of_their_span(rng):
    # sigma_min/sigma_1 = 1e-2: the rows are far from orthonormal, yet the
    # complete QR of B^T and of (L^-1 B)^T, L the Cholesky factor of B B^T,
    # run on the same reflectors, so the complements agree to rounding
    B = planted_wide(rng, np.geomspace(1.0, 1e-2, 6), 40)
    orthonormal = np.linalg.solve(np.linalg.cholesky(B @ B.T), B)
    perp = row_complement(B)
    assert np.linalg.norm(perp @ perp.T - np.eye(34)) <= 1e-12
    assert np.linalg.norm(perp @ B.T) <= 1e-12 * np.linalg.norm(B, 2)
    assert np.max(np.abs(perp - row_complement(orthonormal))) <= 1e-12


def _orthonormal_pairs(rng):
    """Seeded pairs of stacks of orthonormal rows: independent, near-equal
    with planted angles in [1e-16, 1e-8], the same with extra rows on one
    side, and one side empty."""
    for case in range(2400):
        N = int(rng.integers(2, 41))
        k1, k2 = (int(k) for k in rng.integers(1, N + 1, size=2))
        kind = case % 4
        if kind == 0:
            yield (np.linalg.qr(rng.standard_normal((N, k1)))[0].T,
                   np.linalg.qr(rng.standard_normal((N, k2)))[0].T)
        elif kind in (1, 2):
            k = max(1, min(k1, N // 2))
            extra = int(rng.integers(0, N - 2 * k + 1)) if kind == 2 else 0
            Q = np.linalg.qr(rng.standard_normal((N, 2 * k + extra)))[0]
            theta = 10.0 ** rng.uniform(-16, -8, size=k)
            yield (np.hstack([Q[:, :k], Q[:, 2 * k:]]).T,
                   (np.cos(theta) * Q[:, :k] + np.sin(theta) * Q[:, k:2 * k]).T)
        else:
            yield np.zeros((0, N)), np.linalg.qr(rng.standard_normal((N, k2)))[0].T


def test_largest_principal_angle_matches_scipy(rng):
    from scipy.linalg import subspace_angles

    for B1, B2 in _orthonormal_pairs(rng):
        for X, Y in ((B1, B2), (B2, B1)):
            oracle = subspace_angles(X.T, Y.T)
            # the largest angle of no angles reads 0
            expected = oracle[0] if oracle.size else 0.0
            assert abs(largest_principal_angle(X, Y) - expected) <= 1e-12


def test_principal_angles_resolve_planted_small_angles(rng):
    Q = np.linalg.qr(rng.standard_normal((12, 6)))[0]

    def planted(theta):
        k = len(theta)
        return Q[:, :k].T, (np.cos(theta) * Q[:, :k] + np.sin(theta) * Q[:, k:2 * k]).T

    # an arccosine alone would read 0 for all three
    tiny = planted(np.array([1e-9, 1e-12, 1e-15]))
    assert abs(largest_principal_angle(*tiny) - 1e-9) <= 1e-15
    # only the largest angle is read, whatever the smaller ones are
    assert abs(largest_principal_angle(*planted(np.array([1.2, 1e-12]))) - 1.2) <= 1e-14
    for B1, B2 in ((Q[:, :0].T, Q[:, :3].T), (Q[:, :3].T, Q[:, :0].T), (Q[:, :0].T,) * 2):
        assert largest_principal_angle(B1, B2) == 0.0
    for B1, B2 in ((Q[:, :2].T, Q[:, 2:5].T), (Q[:, 2:5].T, Q[:, :2].T)):
        assert abs(largest_principal_angle(B1, B2) - np.pi / 2) <= 1e-12
