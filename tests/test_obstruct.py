import numpy as np
import pytest

from conftest import conformal_subspace, random_subspace, skew_subspace, well_conditioned
from prolongation.matspace import (
    conjugate,
    distance,
    make_subspace,
    principal_angles_rows,
    row_complement,
    subspaces_equal,
)
from prolongation.obstruct import (
    ComplexPairWitness,
    RankOneWitness,
    classify_delta,
    classify_delta_full,
    complex_structure_plane,
    find_complex_pair,
    find_rank_one,
    find_witnesses,
    verify_complex_pair,
    verify_rank_one,
)
from prolongation.prolong import mk_direct


def unit(v):
    return v / np.linalg.norm(v)


def test_find_rank_one_on_a_pure_line(rng):
    psi0 = unit(rng.standard_normal(3))
    w0 = unit(rng.standard_normal(3))
    V = make_subspace(3, 3, [np.outer(w0, psi0)])
    witness = find_rank_one(V, seed=1, restarts=8)
    assert witness is not None
    assert witness.residual <= 1e-10
    assert abs(abs(np.dot(witness.psi, psi0) * np.dot(witness.w, w0)) - 1.0) <= 1e-6


def test_find_rank_one_absent_on_skew(rng):
    # sanity oracle: nonzero skew matrices never get close to rank one
    V = skew_subspace(3)
    coeffs = rng.standard_normal((100_000, 3))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    mats = np.tensordot(coeffs, V.basis, axes=1)
    s = np.linalg.svd(mats, compute_uv=False)
    assert np.min(s[:, 1] / s[:, 0]) > 0.99  # skew spectra come in equal pairs
    assert find_rank_one(V, seed=2, restarts=16) is None


def test_find_rank_one_absent_on_conformal():
    assert find_rank_one(conformal_subspace(3), seed=3, restarts=16) is None


def test_find_rank_one_rejects_zero_space():
    with pytest.raises(ValueError):
        find_rank_one(make_subspace(2, 2, []), seed=0, restarts=1)


def test_verify_rank_one_examples(rng):
    psi0 = unit(rng.standard_normal(3))
    w0 = unit(rng.standard_normal(3))
    V = make_subspace(3, 3, [np.outer(w0, psi0), rng.standard_normal((3, 3))])
    exact = RankOneWitness(psi=psi0, w=w0, residual=0.0)
    assert verify_rank_one(V, exact)

    # push the member out of V along an orthogonal direction
    perp = row_complement(V.flat)[0].reshape(3, 3)
    bumped = np.outer(w0, psi0) + 1e-4 * perp
    u, _, vt = np.linalg.svd(bumped)
    off = RankOneWitness(psi=vt[0], w=u[:, 0], residual=0.0)
    assert not verify_rank_one(V, off)
    assert off.residual > 1e-8

    zero = RankOneWitness(psi=np.zeros(3), w=w0, residual=0.0)
    assert not verify_rank_one(V, zero)


def test_find_complex_pair_on_the_reference_plane():
    W = complex_structure_plane(3, 3)
    witness = find_complex_pair(W, seed=4, restarts=8)
    assert witness is not None
    span = make_subspace(3, 3, [witness.A, witness.B])
    assert subspaces_equal(span, W, 1e-10)


def test_find_complex_pair_on_conjugated_planes(rng):
    W = complex_structure_plane(3, 3)
    for trial in range(3):
        P = well_conditioned(rng, 3)
        Q = well_conditioned(rng, 3)
        V = conjugate(W, P, Q)
        witness = find_complex_pair(V, seed=5 + trial, restarts=16)
        assert witness is not None, trial
        assert max(witness.residuals.values()) <= 1e-7


def test_find_complex_pair_absent_on_skew():
    assert find_complex_pair(skew_subspace(3), seed=6, restarts=16) is None


def test_find_complex_pair_rejects_small_inputs(rng):
    with pytest.raises(ValueError):
        find_complex_pair(random_subspace(rng, 3, 3, 1), seed=0, restarts=1)
    with pytest.raises(ValueError):
        find_complex_pair(random_subspace(rng, 1, 3, 2), seed=0, restarts=1)


def test_find_witnesses_runs_only_the_detectors_that_apply(rng):
    # dim 0: neither search applies; n = 1: the complex-pair search would raise
    assert find_witnesses(make_subspace(3, 3, []), seed=0, restarts=1) == (None, None)
    columns = random_subspace(rng, 1, 3, 2)
    rank_one, complex_pair = find_witnesses(columns, seed=0, restarts=1)
    assert rank_one is not None and complex_pair is None
    rank_one, complex_pair = find_witnesses(complex_structure_plane(3, 3), seed=4, restarts=8)
    assert rank_one is None and complex_pair is not None


def pad(M, m, n):
    out = np.zeros((m, n))
    out[: M.shape[0], : M.shape[1]] = M
    return out


def test_verify_complex_pair_examples():
    W = complex_structure_plane(3, 3)
    I_pad = pad(np.eye(2), 3, 3)
    J_pad = pad(np.array([[0.0, -1.0], [1.0, 0.0]]), 3, 3)
    good = ComplexPairWitness(A=I_pad, B=J_pad)
    assert verify_complex_pair(W, good)
    assert good.P is not None and good.Q is not None

    same = ComplexPairWitness(A=I_pad, B=I_pad.copy())
    assert not verify_complex_pair(W, same)
    assert same.residuals["complex_structure"] > 1.0

    full_rank = ComplexPairWitness(A=np.eye(3), B=J_pad)
    assert not verify_complex_pair(make_subspace(3, 3, [np.eye(3), J_pad]), full_rank)
    assert full_rank.residuals["rank_a"] > 1e-7


def test_verify_reconstructs_the_plane():
    W = complex_structure_plane(3, 4)
    witness = ComplexPairWitness(A=W.basis[0].copy(), B=W.basis[1].copy())
    assert verify_complex_pair(W, witness)
    ref = complex_structure_plane(3, 4)
    image = make_subspace(4, 3, [witness.P @ M @ witness.Q for M in ref.basis])
    span = make_subspace(4, 3, [witness.A, witness.B])
    assert subspaces_equal(span, image, 1e-8)


def test_certification_is_conjugation_equivariant(rng):
    W = complex_structure_plane(3, 3)
    A, B = W.basis[0].copy(), W.basis[1].copy()
    assert verify_complex_pair(W, ComplexPairWitness(A=A, B=B))
    P = well_conditioned(rng, 3)
    Q = well_conditioned(rng, 3)
    V = conjugate(W, P, Q)
    moved = ComplexPairWitness(A=P @ A @ Q, B=P @ B @ Q)
    assert verify_complex_pair(V, moved)


def test_classify_conformal_is_finite():
    status = classify_delta(conformal_subspace(3), k_max=4, seed=7, restarts=8)
    assert status.status == "finite" and status.value == 2


def test_classify_reference_plane_is_infinite():
    W = complex_structure_plane(3, 3)
    outcome = classify_delta_full(W, k_max=4, seed=8, restarts=8)
    assert outcome.delta.status == "infinite_certified"
    assert outcome.complex_pair is not None
    assert outcome.rank_one is None
    assert outcome.searches_json() == {
        "rank_one": "inconclusive",
        "complex_pair": "certified",
    }


def test_classify_matches_direct_oracle_on_random_spaces(rng):
    for trial in range(4):
        V = random_subspace(rng, 3, 3, 2)
        status = classify_delta(V, k_max=4, seed=10 + trial, restarts=8)
        assert status.status == "finite"
        dims = [mk_direct(V, k).dim for k in range(status.value + 2)]
        assert dims[status.value] > 0
        assert dims[status.value + 1] == 0


def test_detector_soundness(rng):
    # whatever a search returns must pass its own verifier
    psi0 = unit(rng.standard_normal(3))
    w0 = unit(rng.standard_normal(3))
    V = make_subspace(3, 3, [np.outer(w0, psi0), rng.standard_normal((3, 3))])
    witness = find_rank_one(V, seed=11, restarts=32)
    assert witness is not None and verify_rank_one(V, witness)

    W = conjugate(complex_structure_plane(3, 3), well_conditioned(rng, 3),
                  well_conditioned(rng, 3))
    pair = find_complex_pair(W, seed=12, restarts=8)
    assert pair is not None and verify_complex_pair(W, pair)


def test_detectors_are_deterministic(rng):
    psi0 = unit(rng.standard_normal(3))
    w0 = unit(rng.standard_normal(3))
    V = make_subspace(3, 3, [np.outer(w0, psi0), rng.standard_normal((3, 3))])
    first = find_rank_one(V, seed=13, restarts=16)
    second = find_rank_one(V, seed=13, restarts=16)
    assert np.array_equal(first.psi, second.psi)
    assert np.array_equal(first.w, second.w)
    assert first.residual == second.residual

    W = complex_structure_plane(3, 3)
    a = find_complex_pair(W, seed=14, restarts=8)
    b = find_complex_pair(W, seed=14, restarts=8)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
