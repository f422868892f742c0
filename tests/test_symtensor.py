import json
from math import comb, factorial, prod

import numpy as np
import pytest

from conftest import fd_jacobian, random_hompoly, random_polymap
from prolongation.symtensor import (
    HomPoly,
    PolyMap,
    contract,
    derivative_coords,
    derivative_op,
    derive,
    exponent_array,
    hom_dim,
    jacobian,
    monomial_basis,
    monomial_index,
    polymap_from_json,
    polymap_to_json,
    slot_matrices,
    slot_matrix,
)


def test_monomial_basis_canonical_order():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomial_basis(1, 4) == ((4,),)


def test_monomial_basis_rejects_zero_dimension():
    with pytest.raises(ValueError):
        monomial_basis(0, 2)


def test_hom_dim():
    assert hom_dim(2, 2, 1) == 4
    assert hom_dim(3, 3, 2) == 18
    assert hom_dim(5, 7, 0) == 7


def test_derive_examples():
    # p = (x1^2 x2, 0)
    p = HomPoly.zero(2, 2, 3)
    p.coeffs[0, monomial_index(2, 3)[(2, 1)]] = 1.0
    d = derive(p, 0)
    expected = HomPoly.zero(2, 2, 2)
    expected.coeffs[0, monomial_index(2, 2)[(1, 1)]] = 2.0
    assert np.allclose(d.coeffs, expected.coeffs)

    q = HomPoly(1, 1, 2, [[1.0]])  # x1^2 in one variable has no second coordinate
    with pytest.raises(ValueError):
        derive(q, 1)

    univariate = HomPoly.zero(2, 1, 2)
    univariate.coeffs[0, monomial_index(2, 2)[(2, 0)]] = 1.0
    assert derive(univariate, 1).is_zero()


@pytest.mark.parametrize("n, m, k, dim", [(1, 1, 1, 2), (1, 3, 4, 3), (2, 2, 1, 3),
                                          (3, 2, 3, 4), (4, 1, 2, 2), (3, 2, 2, 0)])
def test_derivative_coords_stacks_every_partial(rng, n, m, k, dim):
    polys = [random_hompoly(rng, n, m, k) for _ in range(dim)]
    rows = np.array([p.coeff_vector() for p in polys]).reshape(dim, m * comb(n + k - 1, k))
    coords = derivative_coords(rows, n, m, k)
    assert coords.shape == (dim, m, comb(n + k - 2, k - 1), n)
    for i, p in enumerate(polys):
        for j in range(n):
            assert np.array_equal(coords[i, ..., j], derive(p, j).coeffs)


def test_derive_rejects_degree_zero():
    with pytest.raises(ValueError):
        derive(HomPoly.zero(2, 2, 0), 0)


def test_mixed_partials_commute(rng):
    for _ in range(10):
        p = random_hompoly(rng, 3, 2, 4)
        a = derive(derive(p, 0), 2)
        b = derive(derive(p, 2), 0)
        assert np.allclose(a.coeffs, b.coeffs)


def test_contract_examples():
    p = HomPoly(1, 1, 2, [[1.0]])  # x^2
    assert np.allclose(contract(p, [1.0]).coeffs, [[1.0]])

    q = HomPoly.zero(2, 1, 2)  # x1 x2
    q.coeffs[0, monomial_index(2, 2)[(1, 1)]] = 1.0
    c = contract(q, [0.0, 1.0])
    assert np.allclose(c.coeffs[0, monomial_index(2, 1)[(1, 0)]], 0.5)
    assert np.allclose(c.coeffs[0, monomial_index(2, 1)[(0, 1)]], 0.0)


def test_contract_zero_vector_gives_zero(rng):
    p = random_hompoly(rng, 3, 2, 3)
    assert contract(p, np.zeros(3)).is_zero()


def test_contract_is_directional_derivative(rng):
    p = random_hompoly(rng, 3, 2, 3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.allclose(contract(p, e).coeffs, derive(p, i).coeffs / p.k)


def test_contract_linearity_and_commutation(rng):
    p = random_hompoly(rng, 3, 2, 4)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    a, b = 0.7, -1.3
    lin = contract(p, a * x + b * y)
    combo = a * contract(p, x).coeffs + b * contract(p, y).coeffs
    assert np.allclose(lin.coeffs, combo)
    assert np.allclose(
        contract(contract(p, x), y).coeffs, contract(contract(p, y), x).coeffs
    )


def test_slot_matrix_examples():
    p = HomPoly.zero(2, 2, 2)  # (x1 x2, 0)
    p.coeffs[0, monomial_index(2, 2)[(1, 1)]] = 1.0
    assert np.allclose(slot_matrix(p, (1, 0)), [[0.0, 0.5], [0.0, 0.0]])

    q = HomPoly(2, 1, 2, [[1.0, 0.0, 0.0]])  # x1^2
    assert np.allclose(slot_matrix(q, (1, 0)), [[1.0, 0.0]])

    lin = HomPoly(2, 2, 1, [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(slot_matrix(lin, (0, 0)), [[1.0, 2.0], [3.0, 4.0]])


def test_slot_matrix_rejects_degree_mismatch():
    p = HomPoly(2, 1, 2, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        slot_matrix(p, (2, 0))


def test_slot_matrix_matches_iterated_contraction(rng):
    # filling k-1 slots one unit vector at a time leaves a linear map whose
    # matrix must agree with the slot matrix entry for entry
    for k in range(2, 5):
        p = random_hompoly(rng, 3, 2, k)
        for beta in monomial_basis(3, k - 1):
            q = p
            for i, count in enumerate(beta):
                e = np.zeros(3)
                e[i] = 1.0
                for _ in range(count):
                    q = contract(q, e)
            assert np.allclose(slot_matrix(p, beta), q.coeffs, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_slot_table_holds_positions_and_weights(rng, n, k):
    # the slot rule reads the derivative table: positions index[b, j] at the
    # weights gamma!/k! = exponent[b, j] * beta!/k!
    index, exponent = derivative_op(n, k)
    lower = monomial_basis(n, k - 1)
    assert index.shape == exponent.shape == (comb(n + k - 2, k - 1), n)
    assert not index.flags.writeable and not exponent.flags.writeable
    p = random_hompoly(rng, n, 2, k)
    # the derivative table against the dense matrices of d/dx_j it replaces,
    # built from the exponent rule d_j x^gamma = gamma_j x^(gamma - e_j)
    dense = np.zeros((n, len(lower), comb(n + k - 1, k)))
    for c, gamma in enumerate(monomial_basis(n, k)):
        for j in range(n):
            if gamma[j] > 0:
                b = monomial_index(n, k - 1)[gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]]
                dense[j, b, c] = gamma[j]
    from_table = np.zeros_like(dense)
    for j in range(n):
        from_table[j, np.arange(len(lower)), index[:, j]] = exponent[:, j]
    assert np.array_equal(from_table, dense)
    for j in range(n):
        partial = derive(p, j).coeffs
        assert np.array_equal(partial, p.coeffs @ dense[j].T) and partial.flags.c_contiguous
    for j in (-1, n):
        with pytest.raises(ValueError):
            derive(p, j)
    slots = slot_matrices(p)
    assert slots.shape == (len(lower), 2, n)
    for b, beta in enumerate(lower):
        for j in range(n):
            gamma = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
            assert index[b, j] == monomial_index(n, k)[gamma]
            assert exponent[b, j] * prod(map(factorial, beta)) == prod(map(factorial, gamma))
        assert np.array_equal(slots[b], slot_matrix(p, beta))
        # the slot matrix is (1/k!) d^beta d_j p, taken here by repeated derivation
        expected = np.zeros((2, n))
        for j in range(n):
            q = derive(p, j)
            for i, count in enumerate(beta):
                for _ in range(count):
                    q = derive(q, i)
            expected[:, j] = q.coeffs[:, 0] / factorial(k)
        assert np.allclose(slots[b], expected, rtol=1e-13, atol=0.0)


def test_jacobian_of_linear_map_is_its_matrix(rng):
    A = rng.standard_normal((3, 2))
    lin = HomPoly(2, 3, 1, A)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert np.allclose(jacobian(lin, x), A)


def test_jacobian_scalar_square():
    p = HomPoly(1, 1, 2, [[1.0]])
    assert np.allclose(jacobian(p, [3.0]), [[6.0]])


def test_jacobian_matches_finite_differences(rng):
    for _ in range(10):
        F = random_polymap(rng, 3, 2, 3)
        x = rng.standard_normal(3)
        J = jacobian(F, x)
        J_fd = fd_jacobian(F.evaluate, x, 3, 2)
        assert np.linalg.norm(J - J_fd) <= 1e-6 * max(1.0, np.linalg.norm(J))


def test_jacobian_is_degree_times_slot_evaluation(rng):
    # D p(x) h = k T(x, ..., x, h): contract k-1 times at x and compare
    for k in range(1, 5):
        p = random_hompoly(rng, 3, 2, k)
        x = rng.standard_normal(3)
        q = p
        for _ in range(k - 1):
            q = contract(q, x)
        assert np.allclose(jacobian(p, x), k * q.coeffs, atol=1e-12)


@pytest.mark.parametrize("F", [
    lambda rng: random_polymap(rng, 3, 2, 4),
    lambda rng: random_polymap(rng, 2, 3, 0),
    lambda rng: random_hompoly(rng, 3, 2, 3),
    lambda rng: random_polymap(rng, 1, 2, 4),
    lambda rng: random_hompoly(rng, 1, 1, 2),
], ids=["polymap-degrees-0-4", "constant", "hompoly", "n1-polymap", "n1-hompoly"])
def test_jacobian_on_a_stack_equals_per_point_calls(rng, F):
    F = F(rng)
    points = rng.standard_normal((7, F.n))
    stacked = jacobian(F, points)
    assert stacked.shape == (7, F.m, F.n)
    for x, J in zip(points, stacked):
        single = jacobian(F, x)
        assert single.shape == (F.m, F.n)
        assert np.linalg.norm(J - single) <= 1e-14 * max(1.0, np.linalg.norm(single))


def _derive_stack_jacobian(p, x):
    """The Jacobian of a HomPoly from a stack of per-coordinate ``derive``
    coefficients, on the same monomials and products as ``jacobian``."""
    points = np.asarray(x, dtype=float).reshape(-1, p.n)
    out = np.zeros((p.n, len(points), p.m))
    if p.k > 0:
        monomials = np.prod(points[:, None, :] ** exponent_array(p.n, p.k - 1), axis=2)
        partials = np.stack([derive(p, j).coeffs for j in range(p.n)])
        out += (partials[:, None] @ monomials[:, :, None])[..., 0]
    return np.moveaxis(out, 0, -1).reshape(np.shape(x)[:-1] + (p.m, p.n))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("n", range(1, 5))
def test_jacobian_equals_the_derive_stack_to_the_bit(rng, n, k):
    p = random_hompoly(rng, n, 3, k)
    for x in (rng.standard_normal(n), rng.standard_normal((6, n))):
        J = jacobian(p, x)
        assert J.shape == x.shape[:-1] + (3, n)
        assert J.tolist() == _derive_stack_jacobian(p, x).tolist()


@pytest.mark.parametrize("F", [random_polymap, lambda rng, n, m, _: random_hompoly(rng, n, m, 2),
                               lambda rng, n, m, _: PolyMap(n, m, {0: random_hompoly(rng, n, m, 0)})],
                         ids=["polymap", "hompoly", "constant"])
@pytest.mark.parametrize("shape", [(4,), (5, 4), (2, 5, 3), ()],
                         ids=["long-point", "long-stack", "three-dims", "scalar"])
def test_jacobian_rejects_points_of_the_wrong_shape(rng, F, shape):
    with pytest.raises(ValueError):
        jacobian(F(rng, 3, 2, 3), np.zeros(shape))


def test_polymap_json_lists_nonzero_terms_by_output_then_monomial(rng):
    p = random_hompoly(rng, 2, 2, 2)
    p.coeffs[0, 1] = 0.0
    p.coeffs[1, 0] = -0.0
    F = PolyMap(2, 2, {2: p, 0: random_hompoly(rng, 2, 2, 0)})
    data = json.loads(json.dumps(polymap_to_json(F)))
    expected = [(0, a + 1, [0, 0]) for a in range(2)]
    expected += [(2, a + 1, list(beta)) for a in range(2)
                 for i, beta in enumerate(monomial_basis(2, 2)) if (a, i) not in ((0, 1), (1, 0))]
    assert [(t["degree"], t["output"], t["exponents"]) for t in data["terms"]] == expected


def test_polymap_json_round_trip(rng):
    F = random_polymap(rng, 2, 3, 3)
    G = polymap_from_json(polymap_to_json(F))
    for k in F.components:
        assert np.allclose(F.components[k].coeffs, G.components[k].coeffs)
    x = rng.standard_normal(2)
    assert np.allclose(F.evaluate(x), G.evaluate(x))


def test_polymap_json_output_index_is_one_based(rng):
    p = HomPoly.zero(2, 2, 1)
    p.coeffs[1, 0] = 2.5
    data = polymap_to_json(PolyMap(2, 2, {1: p}))
    assert data["terms"] == [
        {"degree": 1, "output": 2, "exponents": [1, 0], "value": 2.5}
    ]


def test_polymap_rejects_malformed_term():
    with pytest.raises(ValueError):
        polymap_from_json(
            {"n": 2, "m": 1, "terms": [
                {"degree": 2, "output": 1, "exponents": [1, 0], "value": 1.0}
            ]}
        )
