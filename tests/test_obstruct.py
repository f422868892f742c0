import itertools

import numpy as np
import pytest

from conftest import conformal_subspace, random_subspace, skew_subspace, well_conditioned
from prolongation import obstruct
from prolongation.matspace import make_subspace, row_complement
from prolongation.obstruct import (
    ClassifyOutcome,
    ComplexPairWitness,
    RankOneWitness,
    classify_delta_full,
    complex_structure_plane,
    find_complex_pair,
    find_rank_one,
    find_witnesses,
    verify_complex_pair,
    verify_rank_one,
)
from prolongation.prolong import DeltaStatus, chain, mk_direct
from reference import conjugate, subspaces_equal


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


@pytest.mark.parametrize("scale, certified", [(1 + 5e-11, True), (1 + 2e-10, False)])
def test_verify_rank_one_binds_the_orthonormality_gate(rng, scale, certified):
    # w psi^T = scale * E_11 lies in V exactly, so the unit-norm slack
    # orthonormality (1e-10) alone decides
    E11 = np.zeros((3, 3))
    E11[0, 0] = 1.0
    V = make_subspace(3, 3, [E11, rng.standard_normal((3, 3))])
    e1 = np.eye(3)[0]
    witness = RankOneWitness(psi=scale * e1, w=e1, residual=0.0)
    assert verify_rank_one(V, witness) is certified


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


def test_find_complex_pair_on_a_plane_inside_a_larger_space(rng):
    # a conjugated 3x4 plane plus two Gaussian directions: dim V = 4
    W = complex_structure_plane(3, 4)
    for trial in range(4):
        plane = conjugate(W, well_conditioned(rng, 3), well_conditioned(rng, 4))
        V = make_subspace(4, 3, [*plane.basis, *rng.standard_normal((2, 3, 4))])
        witness = find_complex_pair(V, seed=trial, restarts=64)
        assert witness is not None, trial
        assert verify_complex_pair(V, witness)
        assert max(witness.residuals.values()) <= 1e-7


def test_complex_rank_one_with_a_real_factor_is_no_pair(rng):
    # every element of V (x) C is w zeta^T: rank one with the real factor w
    w, c, d = rng.standard_normal((3, 3))
    V = make_subspace(3, 3, [np.outer(w, c), np.outer(w, d)])
    assert find_complex_pair(V, seed=15, restarts=8) is None
    outcome = classify_delta_full(V, k_max=4, seed=15, restarts=8)
    assert outcome.delta.status == "infinite_certified"
    assert outcome.delta.witness is outcome.rank_one
    assert outcome.searches_json() == {
        "rank_one": "certified",
        "complex_pair": "inconclusive",
    }


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

    # (1 + i) I_pad has rank two
    same = ComplexPairWitness(A=I_pad, B=I_pad.copy())
    assert not verify_complex_pair(W, same)
    assert same.residuals["rank_one"] > 0.1

    full_rank = ComplexPairWitness(A=np.eye(3), B=J_pad)
    assert not verify_complex_pair(make_subspace(3, 3, [np.eye(3), J_pad]), full_rank)
    assert full_rank.residuals["rank_one"] > 0.1


def test_verify_complex_pair_requires_both_matrices_in_v():
    # the reference pair passes the rank-one and frame gates anywhere; in
    # skew 3 only J_pad is a member, and I_pad lies at distance sqrt(2)
    I_pad = pad(np.eye(2), 3, 3)
    J_pad = pad(np.array([[0.0, -1.0], [1.0, 0.0]]), 3, 3)
    outside = ComplexPairWitness(A=I_pad, B=J_pad)
    assert not verify_complex_pair(skew_subspace(3), outside)
    assert abs(outside.residuals["distance_a"] - np.sqrt(2.0)) <= 1e-12
    assert outside.residuals["distance_b"] <= 1e-12
    assert outside.P is None and "span_gap" not in outside.residuals
    inside = ComplexPairWitness(A=I_pad.copy(), B=J_pad.copy())
    assert verify_complex_pair(complex_structure_plane(3, 3), inside)
    assert max(inside.residuals["distance_a"], inside.residuals["distance_b"]) <= 1e-12


def test_verify_complex_pair_takes_one_svd_before_rejecting(monkeypatch):
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].dtype) or svd(*a, **k))
    V = make_subspace(3, 3, [np.eye(3), pad(np.array([[0.0, -1.0], [1.0, 0.0]]), 3, 3)])
    witness = ComplexPairWitness(A=V.basis[0].copy(), B=V.basis[1].copy())
    assert not verify_complex_pair(V, witness)
    assert calls == [np.dtype(complex)]


def test_verify_complex_pair_rejects_a_real_rank_one_element_turned_by_a_phase(rng):
    w, psi = unit(rng.standard_normal(3)), unit(rng.standard_normal(4))
    V = make_subspace(4, 3, [np.outer(w, psi), rng.standard_normal((3, 4))])
    turned = np.exp(0.7j) * np.outer(w, psi)
    witness = ComplexPairWitness(A=turned.real, B=turned.imag)
    assert not verify_complex_pair(V, witness)
    # rank one and in V, but both factors are real up to a phase: the frame
    # gate, between the rank-one gate and the distances, rejects it
    assert witness.residuals["rank_one"] <= 1e-7
    assert "distance_a" not in witness.residuals


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["B=JA", "B=-JA"])
def test_verify_complex_pair_conjugating_matrices_reproduce_the_pair(rng, sign):
    W = complex_structure_plane(3, 4)
    I_pad, J_pad = np.sqrt(2.0) * W.basis[0], np.sqrt(2.0) * W.basis[1]
    P0, Q0 = well_conditioned(rng, 3), well_conditioned(rng, 4)
    lam = complex(*rng.standard_normal(2))
    X = lam * (P0 @ (I_pad + 1j * sign * J_pad) @ Q0)
    witness = ComplexPairWitness(A=X.real, B=X.imag)
    assert verify_complex_pair(conjugate(W, P0, Q0), witness)
    P, Q = witness.P, witness.Q
    for M, target in ((I_pad, X.real), (J_pad, X.imag)):
        assert np.linalg.norm(P @ M @ Q - target) <= 1e-12 * np.linalg.norm(X)


def test_verify_complex_pair_conditions_p_and_q_by_geometry_not_scale(rng):
    # the complement columns of P and rows of Q are scaled to the frames,
    # so each one's sigma_min/sigma_max is the same at every scale of the pair
    def conditioning(M):
        s = np.linalg.svd(M, compute_uv=False)
        return s[-1] / s[0]

    for m, n in ((3, 3), (2, 2), (4, 3), (5, 4)):
        W = complex_structure_plane(m, n)
        P0, Q0 = well_conditioned(rng, m), well_conditioned(rng, n)
        V = conjugate(W, P0, Q0)
        X = P0 @ (W.basis[0] + 1j * W.basis[1]) @ Q0
        ratios = []
        for scale in (1e-7, 1.0, 1e7):
            witness = ComplexPairWitness(A=scale * X.real, B=scale * X.imag)
            assert verify_complex_pair(V, witness), (m, n, scale)
            ratios.append((conditioning(witness.P), conditioning(witness.Q)))
        assert np.allclose(ratios, ratios[1], rtol=1e-6), (m, n, ratios)
        assert min(min(r) for r in ratios) > 0.1, (m, n, ratios)


def test_verify_complex_pair_gates_the_product_of_the_frame_ratios():
    # each frame's sigma_2/sigma_1 is 1e-4, above the certificate, but
    # A = F G has sigma_2/sigma_1 = 1e-8, below it
    F = pad(np.diag([1.0, 1e-4]), 3, 2)
    G = pad(np.diag([1.0, 1e-4]), 2, 3)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    A, B = F @ G, F @ J @ G
    s = np.linalg.svd(A, compute_uv=False)
    assert s[1] / s[0] < 1e-7
    witness = ComplexPairWitness(A=A, B=B)
    assert not verify_complex_pair(make_subspace(3, 3, [A, B]), witness)
    assert witness.residuals["rank_one"] <= 1e-7
    assert "distance_a" not in witness.residuals


def test_verify_complex_pair_binds_the_certificate_at_a_near_pair(rng):
    # X = z zeta^T / |z zeta^T| + 1e-5 u_2 v_2^H, with u_2 orthogonal to z and
    # v_2 to conj(zeta), has sigma_2/sigma_1 = 1e-5 and lies in
    # V = span{Re X, Im X}; its distances are rounding and its span_gap about
    # 1e-5, so a certificate of 1e-3 would pass it and 1e-7 must not
    def orthogonal_unit(w):
        r = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        r -= np.vdot(w, r) / np.vdot(w, w) * w
        return r / np.linalg.norm(r)

    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    exact = np.outer(z, zeta) / np.linalg.norm(np.outer(z, zeta))
    near = exact + 1e-5 * np.outer(orthogonal_unit(z), orthogonal_unit(zeta.conj()).conj())
    witness = ComplexPairWitness(A=near.real, B=near.imag)
    assert not verify_complex_pair(make_subspace(3, 3, [near.real, near.imag]), witness)
    assert abs(witness.residuals["rank_one"] - 1e-5) <= 1e-9
    witness = ComplexPairWitness(A=exact.real, B=exact.imag)
    assert verify_complex_pair(make_subspace(3, 3, [exact.real, exact.imag]), witness)


def test_verify_complex_pair_fails_closed():
    W = complex_structure_plane(3, 3)
    A, B = W.basis[0].copy(), W.basis[1].copy()
    zero = np.zeros((3, 3))
    nan = np.full((3, 3), np.nan)
    for pair in ((zero, B), (A, zero), (zero, zero), (nan, B), (A, nan)):
        assert not verify_complex_pair(W, ComplexPairWitness(*pair))


def test_verify_complex_pair_rejects_thin_and_mismatched_witnesses():
    line = make_subspace(3, 1, [np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])])
    A, B = line.basis[0].copy(), line.basis[1].copy()
    assert not verify_complex_pair(line, ComplexPairWitness(A, B))
    column = make_subspace(1, 3, [A.T, B.T])
    assert not verify_complex_pair(column, ComplexPairWitness(A.T.copy(), B.T.copy()))
    W = complex_structure_plane(3, 3)
    square = W.basis[0].copy()
    for pair in ((square, np.zeros((3, 4))), (square, square[:2]), (square[0], square[1])):
        assert not verify_complex_pair(W, ComplexPairWitness(*pair))
    # a pair of the wrong shape for V
    wide = complex_structure_plane(3, 4)
    assert not verify_complex_pair(wide, ComplexPairWitness(W.basis[0].copy(), W.basis[1].copy()))


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
    status = classify_delta_full(conformal_subspace(3), k_max=4, seed=7, restarts=8).delta
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


def test_the_verdict_is_read_from_the_chain_and_the_certified_witnesses():
    finite = chain(conformal_subspace(3), 4)
    assert ClassifyOutcome(finite).delta == DeltaStatus("finite", 2)
    # span{I_pad, J_pad, E_33} holds a real rank-one element and the reference plane
    W = complex_structure_plane(3, 3)
    corner = np.zeros((3, 3))
    corner[2, 2] = 1.0
    V = make_subspace(3, 3, [*W.basis, corner])
    rank_one, pair = find_witnesses(V, seed=0, restarts=8)
    assert rank_one is not None and pair is not None
    bound = chain(V, 3)
    assert ClassifyOutcome(bound).delta == DeltaStatus("lower_bound", 3)
    assert ClassifyOutcome(bound, None, pair).delta == DeltaStatus("infinite_certified", 3, pair)
    both = ClassifyOutcome(bound, rank_one, pair)
    assert both.delta.status == "infinite_certified" and both.delta.witness is rank_one
    assert both.searches_json() == {"rank_one": "certified", "complex_pair": "certified"}


def test_classify_matches_direct_oracle_on_random_spaces(rng):
    for trial in range(4):
        V = random_subspace(rng, 3, 3, 2)
        status = classify_delta_full(V, k_max=4, seed=10 + trial, restarts=8).delta
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


# --- one search of V (x) C: which witness each polished element yields ------

def test_planes_certify_as_pairs_and_never_as_rank_one(rng):
    # every rank-one element of P W Q (x) C is genuinely complex
    for trial in range(4):
        for m, n in ((3, 3), (3, 4)):
            V = conjugate(complex_structure_plane(m, n), well_conditioned(rng, m),
                          well_conditioned(rng, n))
            rank_one, pair = find_witnesses(V, seed=30 + trial, restarts=16)
            assert rank_one is None and pair is not None, (trial, m, n)


def test_plane_plus_a_rank_one_direction_certifies_both(rng):
    E = np.zeros((3, 4))
    E[2, 3] = 1.0
    W = complex_structure_plane(3, 4)
    for trial in range(5):
        V = conjugate(make_subspace(4, 3, [*W.basis, E]), well_conditioned(rng, 3),
                      well_conditioned(rng, 4))
        rank_one, pair = find_witnesses(V, seed=40 + trial, restarts=64)
        assert rank_one is not None and pair is not None, trial


def test_planted_rank_one_is_returned_exactly(rng):
    for trial in range(4):
        psi0, w0 = unit(rng.standard_normal(3)), unit(rng.standard_normal(3))
        V = make_subspace(3, 3, [np.outer(w0, psi0), *rng.standard_normal((2, 3, 3))])
        witness = find_rank_one(V, seed=50 + trial, restarts=16)
        plant = np.outer(w0, psi0)
        error = min(np.abs(witness.matrix() - plant).max(),
                    np.abs(witness.matrix() + plant).max())
        assert error <= 1e-10, trial


def test_whole_matrix_spaces_certify_rank_one():
    # V (x) C holds genuinely complex rank-one elements wherever a random
    # start lands, so the rank-one witness comes from polishing a real start
    for m, n in ((2, 2), (2, 3), (3, 4)):
        V = make_subspace(n, m, list(np.eye(m * n).reshape(-1, m, n)))
        for seed in range(3):
            witness = find_rank_one(V, seed=seed, restarts=4)
            assert witness is not None and witness.residual <= 1e-10, (m, n, seed)


def test_isolated_complex_points_get_no_real_polish(rng, monkeypatch):
    # the rank-one points of P W Q (x) C are two conjugate isolated points,
    # so no real element of V is polished after the complex starts; the
    # starts are polished as one stack, so the members are counted
    calls = []
    polish = obstruct._polish
    monkeypatch.setattr(obstruct, "_polish", lambda V, X: calls.append(X) or polish(V, X))
    V = conjugate(complex_structure_plane(3, 4), well_conditioned(rng, 3),
                  well_conditioned(rng, 4))
    rank_one, pair = find_witnesses(V, seed=60, restarts=8)
    assert rank_one is None and pair is not None
    assert sum(len(X) for X in calls) == 8
    assert all(np.iscomplexobj(X) for X in calls)


def test_classify_whole_3x3_space_records_rank_one():
    V = make_subspace(3, 3, list(np.eye(9).reshape(-1, 3, 3)))
    outcome = classify_delta_full(V, k_max=3, seed=0, restarts=16)
    assert outcome.searches_json() == {"rank_one": "certified", "complex_pair": "certified"}
    assert outcome.delta.witness is outcome.rank_one


def test_products_of_planes_certify_rank_one():
    # A (x) B, with A, B real 2-planes, plus one direction: a surface of
    # rank-one elements in V (x) C, nearly all of them genuinely complex
    for seed in range(10):
        g = np.random.default_rng(seed)
        a, b = g.standard_normal((2, 3)), g.standard_normal((2, 4))
        V = make_subspace(4, 3, [*(np.outer(x, y) for x in a for y in b),
                                 g.standard_normal((3, 4))])
        witness = find_rank_one(V, seed=seed, restarts=16)
        assert witness is not None and witness.residual <= 1e-10, seed


def test_badly_conditioned_planes_in_a_larger_space_certify_as_pairs():
    # Gaussian P, Q: alternating projection alone converges too slowly here
    W = complex_structure_plane(3, 4)
    pairs = 0
    for seed in range(1000, 1020):
        g = np.random.default_rng(seed)
        plane = conjugate(W, g.standard_normal((3, 3)), g.standard_normal((4, 4)))
        V = make_subspace(4, 3, [*plane.basis, *g.standard_normal((2, 3, 4))])
        rank_one, pair = find_witnesses(V, seed=seed, restarts=64)
        assert rank_one is None, seed
        pairs += pair is not None
    assert pairs >= 19


# --- the lockstep polish ------------------------------------------------------

def stack_corpus():
    rng = np.random.default_rng(70)
    w_pad = conjugate(complex_structure_plane(3, 4), well_conditioned(rng, 3),
                      well_conditioned(rng, 4))
    w, psi = rng.standard_normal((2, 3))
    planted = make_subspace(3, 3, [np.outer(w, psi), *rng.standard_normal((2, 3, 3))])
    whole = make_subspace(3, 2, list(np.eye(6).reshape(-1, 2, 3)))
    g = np.random.default_rng(1000)
    plane = conjugate(complex_structure_plane(3, 4), g.standard_normal((3, 3)),
                      g.standard_normal((4, 4)))
    sweep = make_subspace(4, 3, [*plane.basis, *g.standard_normal((2, 3, 4))])
    return [conformal_subspace(3), skew_subspace(3), w_pad, planted, whole, sweep]


def polish_one_at_a_time(V, X):
    """Alternating projection on one matrix, written with the per-matrix
    operations the stacked polish must reproduce to the bit."""
    tol = obstruct.TOLERANCES
    mark = np.inf
    for step in itertools.count():
        u, s, vh = np.linalg.svd(X)
        ratio = s[1] / s[0]
        if ratio < tol.polish_newton_ratio:
            return obstruct._newton(V, X, u, s, vh, ratio)
        if step % tol.polish_stall_window == 0:
            if ratio > mark / 2:
                return X, ratio
            mark = ratio
        Y = np.tensordot(V.flat @ (s[0] * np.outer(u[:, 0], vh[0])).ravel(), V.basis, axes=1)
        X = Y / np.linalg.norm(Y)


def test_a_stack_polishes_each_member_as_it_would_alone():
    # members stop at different steps (Newton, stall) and must not share a
    # norm or a stall mark: each matches its own stack of one, to the bit,
    # and that matches the polish of the one matrix.  The second identity
    # holds on numpy 2.4.6 with OpenBLAS 0.3.31 (scipy-openblas); another
    # BLAS may pick a gemv or gemm kernel that rounds one ulp apart, and
    # then only the `single` comparison fails, without a fault in the polish
    for k, V in enumerate(stack_corpus()):
        starts = obstruct._starts(V, seed=71 + k, restarts=6)
        real = starts.real / np.linalg.norm(starts.real, axis=(1, 2), keepdims=True)
        for stack in (starts, real):
            polished = obstruct._polish(V, stack)
            assert len(polished) == len(stack)
            for i, (X, ratio) in enumerate(polished):
                (alone, alone_ratio), = obstruct._polish(V, stack[i:i + 1])
                single, single_ratio = polish_one_at_a_time(V, stack[i])
                assert np.iscomplexobj(X) == np.iscomplexobj(stack), (k, i)
                assert np.array_equal(X, alone) and ratio == alone_ratio, (k, i)
                assert np.array_equal(X, single) and ratio == single_ratio, (k, i)


def test_the_search_polishes_its_restarts_with_few_svds(monkeypatch):
    # one restart at a time made 8,856 calls here: 201 projection steps each
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert find_witnesses(conformal_subspace(3), seed=7, restarts=64) == (None, None)
    assert len(calls) <= 1000


def test_no_restarts_search_nothing(rng):
    V = make_subspace(3, 3, [np.outer(*rng.standard_normal((2, 3))),
                             *rng.standard_normal((2, 3, 3))])
    for restarts in (0, -3):
        assert find_witnesses(V, seed=1, restarts=restarts) == (None, None)
        assert find_rank_one(V, restarts=restarts) is None
        assert find_complex_pair(V, restarts=restarts) is None
        assert obstruct._polish(V, obstruct._starts(V, 1, restarts)) == []
    # a row or column space needs no search
    column = random_subspace(rng, 1, 3, 2)
    assert find_witnesses(column, seed=0, restarts=0)[0] is not None
