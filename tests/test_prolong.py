import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    conformal_subspace,
    holomorphic_power,
    random_hompoly,
    random_subspace,
    skew_subspace,
    well_conditioned,
)
from prolongation.matspace import distance, largest_principal_angle, make_subspace, row_complement
import prolongation.prolong as prolong_mod
from prolongation.prolong import (
    DeltaStatus,
    HomSolutionSpace,
    chain,
    constants_space,
    delta_step,
    membership_residual,
    mk_direct,
    mk_step,
)
from prolongation.manifolds import quaternion_right_multiplications
from prolongation.obstruct import complex_structure_plane
from prolongation.symtensor import HomPoly, derivative_op, monomial_basis
from reference import conjugate, slot_matrix, thin_svd_row_space

I2 = np.eye(2)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def spaces_match(s1, s2, tol=1e-8):
    if s1.dim != s2.dim:
        return False
    return largest_principal_angle(s1.rows, s2.rows) <= tol


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
        vec = p.coeffs.ravel()
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
    assert largest_principal_angle(space.rows, V.flat) <= 1e-12


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


def trace_free_subspace(n):
    units = np.eye(n * n).reshape(-1, n, n)
    return make_subspace(n, n, [E - np.trace(E) / n * np.eye(n) for E in units])


def assert_complement_invariants(space):
    # a stored complement has full row rank, not orthonormal rows: it spans
    # exactly the complement when the orthonormal basis is orthogonal to it
    # and its rank, by the thin-SVD oracle, is its row count
    n, m, k = space.n, space.m, space.degree
    rows = space.rows
    perp = row_complement(rows) if space._perp is None else space._perp
    assert perp.shape[1] == rows.shape[1] == m * comb(n + k - 1, k)
    assert space.dim + perp.shape[0] == m * comb(n + k - 1, k)
    assert np.linalg.norm(rows @ rows.T - np.eye(rows.shape[0])) <= 1e-12
    assert thin_svd_row_space(perp).shape[0] == perp.shape[0]
    if perp.size:
        assert np.linalg.norm(perp @ rows.T) <= 1e-12 * np.linalg.norm(perp, 2)


def test_complements_above_degree_two(rng):
    # spaces that stay nonzero in high degree, where each step reuses the
    # complement the previous step's SVD produced
    cases = [(conjugate(complex_structure_plane(3, 3), well_conditioned(rng, 3),
                        well_conditioned(rng, 3)), 7),
             (trace_free_subspace(3), 4)]
    for _ in range(6):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        cases.append((random_subspace(rng, n, m, int(rng.integers(m * n - n, m * n))), 5))
    for V, k_max in cases:
        stepped = run_step_chain(V, k_max)
        assert stepped[-1].dim > 0
        for k, space in enumerate(stepped):
            direct = mk_direct(V, k)
            assert_complement_invariants(space)
            assert_complement_invariants(direct)
            assert spaces_match(space, direct), (V.n, V.m, V.dim, k)


def test_mk_step_runs_one_svd_and_reuses_the_previous_complement(rng, monkeypatch):
    V = random_subspace(rng, 3, 2, 4)
    spaces = run_step_chain(V, 2)
    # degree 2 is a tie, solved directly: build the basis the first delta
    # step reads from its stored complement before counting
    spaces[-1].rows
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    monkeypatch.setattr(prolong_mod, "row_complement", None)
    for _ in range(3):
        calls.clear()
        spaces.append(mk_step(V, spaces[-1]))
        assert len(calls) == 1
    assert spaces[-1].dim > 0


def conjugated_plane(rng, m, n):
    return conjugate(complex_structure_plane(m, n), well_conditioned(rng, m),
                     well_conditioned(rng, n))


def maps_into(n, m, u):
    """All linear maps R^n -> R^m with image in the first u coordinates."""
    units = np.eye(m * n).reshape(-1, m, n)
    return make_subspace(n, m, [E for E in units if E[:u].any()])


def record_routes(monkeypatch):
    routes = []
    for name in ("delta_step", "mk_direct"):
        step = getattr(prolong_mod, name)
        monkeypatch.setattr(prolong_mod, name,
                            lambda V, arg, step=step, name=name:
                            routes.append(name) or step(V, arg))
    return routes


def test_mk_step_delta_route_runs_one_svd_and_no_complement(rng, monkeypatch):
    V = conjugated_plane(rng, 3, 3)
    spaces = run_step_chain(V, 1)
    routes = record_routes(monkeypatch)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    monkeypatch.setattr(prolong_mod, "row_complement", None)
    for _ in range(4):
        calls.clear()
        spaces.append(mk_step(V, spaces[-1]))
        assert len(calls) == 1
    assert routes == ["delta_step"] * 4
    assert [space.dim for space in spaces] == [3, 2, 2, 2, 2, 2]


def record_svd_shapes(monkeypatch):
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices=True, **kw:
                        shapes.append((np.shape(a), full_matrices))
                        or svd(a, full_matrices=full_matrices, **kw))
    return shapes


def refuse_factorizations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no Cholesky, inverse or SVD may run")

    for name in ("cholesky", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)


def thin_svd_mk_direct(V, k, monkeypatch):
    """``mk_direct`` with the certificate refused, which stores the slot
    system's orthonormal row space from one thin SVD."""
    with monkeypatch.context() as patch:
        patch.setattr(prolong_mod, "full_row_rank", lambda A: False)
        return mk_direct(V, k)


def test_a_certified_wide_step_runs_no_svd_of_the_slot_system(monkeypatch):
    # trace-free 3 is wide from degree 2 on: the slot system of V's one
    # complement matrix, C(n+k-2, k-1) rows, has full row rank, which its Gram
    # matrix certifies, so the step stores the system itself as the
    # complement and runs no Cholesky, inverse or SVD; a basis read later
    # comes from one complete QR of it
    V = trace_free_subspace(3)
    prev = mk_step(V, mk_step(V, constants_space(3, 3)))
    routes = record_routes(monkeypatch)
    for k in (3, 4):
        with monkeypatch.context() as patch:
            refuse_factorizations(patch)
            space = mk_step(V, prev)
            assert space._rows is None
            space.rows
        assert_complement_invariants(space)
        assert spaces_match(space, delta_step(V, prev))
        assert spaces_match(space, thin_svd_mk_direct(V, k, monkeypatch))
        prev = space
    assert routes == ["mk_direct"] * 2
    assert prev.dim == 35
    # trace-free 6 at k = 5: the 126 x 1512 system of the benchmark's widest step
    V = trace_free_subspace(6)
    with monkeypatch.context() as patch:
        refuse_factorizations(patch)
        space = mk_direct(V, 5)
        space.rows
    assert space._perp.shape == (126, 1512)
    assert_complement_invariants(space)
    # of equal dimension, so the largest principal angle between the spaces
    # is the one between their complements, whose sine is read cheaply
    oracle = thin_svd_mk_direct(V, 5, monkeypatch)
    assert oracle.dim == space.dim
    assert np.linalg.norm(oracle._perp @ space.rows.T, 2) <= 1e-8


def test_a_rank_deficient_wide_step_runs_one_thin_svd_of_the_slot_system(rng, monkeypatch):
    # maps into 4 of 6 coordinates, conjugated, from degree 3 on: the slot
    # system of V's four complement matrices has rank 8 of its 12 rows at
    # k = 3 and 10 of 16 at k = 4, so no Gram certificate holds and one thin
    # SVD of the system decides its rank
    V = conjugate(maps_into(2, 6, 4), well_conditioned(rng, 6), well_conditioned(rng, 2))
    prev = chain(V, 2).spaces[-1]
    routes = record_routes(monkeypatch)
    shapes = record_svd_shapes(monkeypatch)
    for k in (3, 4):
        shapes.clear()
        prev = mk_step(V, prev)
        assert shapes == [((4 * k, 6 * (k + 1)), False)]
        assert_complement_invariants(prev)
    assert routes == ["mk_direct"] * 2
    assert prev.dim == 20


def test_a_wide_step_reads_nothing_of_prev_but_its_degree_and_dim(rng):
    V = trace_free_subspace(3)
    prev = chain(V, 2).spaces[-1]
    q, _ = np.linalg.qr(rng.standard_normal(prev._perp.T.shape))
    scrambled = HomSolutionSpace(prev.degree, 3, 3, _perp=q.T)
    assert scrambled.dim == prev.dim
    space = mk_step(V, scrambled)
    assert space._rows is None
    assert np.array_equal(space._perp, mk_direct(V, 3)._perp)


def step_route_corpus(rng):
    """(V, previous space) pairs: n = 1, dead previous spaces, tall and wide
    degrees, and the spaces of a chain that switches route."""
    cases = []
    for m in (1, 2, 3):
        V = random_subspace(rng, 1, m, int(rng.integers(1, m + 1)))
        cases += [(V, space) for space in chain(V, 4).spaces[1:]]
    for V in (skew_subspace(3), conformal_subspace(3), quaternion_right_multiplications()):
        cases += [(V, mk_direct(V, k)) for k in range(1, 4)]
    assert any(prev.dim == 0 for _, prev in cases)
    for V, k_max in ((conjugated_plane(rng, 3, 3), 5), (trace_free_subspace(3), 3),
                     (conjugate(maps_into(2, 6, 4), well_conditioned(rng, 6),
                                well_conditioned(rng, 2)), 3)):
        cases += [(V, space) for space in chain(V, k_max).spaces[1:]]
    for _ in range(8):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        V = random_subspace(rng, n, m, int(rng.integers(1, m * n)))
        cases += [(V, space) for space in chain(V, 3).spaces[1:]]
    return cases


def test_delta_step_and_mk_direct_match_on_every_route_case(rng):
    # each route is the other's oracle, on wide degrees as on tall ones
    for V, prev in step_route_corpus(rng):
        direct = mk_direct(V, prev.degree + 1)
        space = delta_step(V, prev)
        assert space.degree == direct.degree
        assert spaces_match(space, direct), (V.n, V.m, V.dim, prev.degree)


def test_steps_reject_the_degree_one_step(rng):
    V = random_subspace(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        delta_step(V, constants_space(2, 2))


def test_chain_switches_from_the_delta_to_the_direct_route(rng, monkeypatch):
    # unknowns n * alpha_{k-1} against m * C(n+k-1, k): 16 < 18, then 24 = 24
    # (a tie goes direct) and 32 > 30
    V = conjugate(maps_into(2, 6, 4), well_conditioned(rng, 6), well_conditioned(rng, 2))
    routes = record_routes(monkeypatch)
    report = chain(V, 4)
    assert routes == ["delta_step", "mk_direct", "mk_direct"]
    assert report.alpha == [6, 8, 12, 16, 20]
    for space in report.spaces:
        assert spaces_match(space, mk_direct(V, space.degree)), space.degree
        assert_complement_invariants(space)


def test_a_tie_in_unknowns_runs_the_direct_route(rng, monkeypatch):
    # a generic 10-dim subspace of 4x4 at k = 2: 4 * 10 unknowns either way
    V = random_subspace(rng, 4, 4, 10)
    prev = mk_step(V, constants_space(4, 4))
    routes = record_routes(monkeypatch)
    space = mk_step(V, prev)
    assert routes == ["mk_direct"]
    assert spaces_match(space, delta_step(V, prev))


def test_spaces_do_not_pin_their_svd_factors(monkeypatch):
    # every degree above 2 of trace-free 4 solves the slot system, whose SVD
    # factor is as wide as the degree
    routes = record_routes(monkeypatch)
    report = chain(trace_free_subspace(4), 4)
    assert routes[1:] == ["mk_direct"] * 2
    for space in report.spaces:
        for array in (space.rows, space._perp):
            if array is not None:
                assert array.base is None or array.base.nbytes <= array.nbytes, space.degree


def test_mk_direct_does_not_pin_its_svd_factor():
    space = mk_direct(complex_structure_plane(4, 4), 6)
    assert space.dim == 2
    for array in (space.rows, space._perp):
        assert array.base is None or array.base.nbytes <= array.nbytes


def test_wide_step_stores_only_its_complement(monkeypatch):
    # trace-free 6 from degree 4 to 5: the 126 x 1512 slot system of V's one
    # complement matrix, whose kernel, the 1386-row basis, is 16.8 MB; its
    # Gram matrix certifies full row rank, so no SVD of it runs
    V = trace_free_subspace(6)
    prev = chain(V, 4).spaces[-1]
    # the derivative table is cached across calls; measure the step alone
    derivative_op(6, 5)
    shapes = record_svd_shapes(monkeypatch)
    tracemalloc.start()
    try:
        space = mk_step(V, prev)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 1386
    assert shapes == []
    assert peak <= 16e6
    assert retained <= 5e6


def clear_monomial_caches():
    monomial_basis.cache_clear()
    derivative_op.cache_clear()


def test_a_long_chain_keeps_no_dense_derivative_operators():
    # span{(x + y/2)^k} has dimension 1 at every degree, so a chain to k = 250
    # is cheap, and what it retains is the report and what its caches keep: the
    # monomial table and the two integer arrays of the derivative table per degree
    clear_monomial_caches()
    V = make_subspace(2, 1, [np.array([[1.0, 0.5]])])
    tracemalloc.start()
    try:
        report = chain(V, 250)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.alpha == [1] * 251
    assert retained <= 3e6


def test_a_long_chain_in_three_variables_keeps_only_integer_tables():
    # the same in three variables to k = 60, where the number of monomials per
    # degree grows as k^2
    clear_monomial_caches()
    V = make_subspace(3, 1, [np.array([[1.0, 0.5, 0.25]])])
    tracemalloc.start()
    try:
        report = chain(V, 60)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.alpha == [1] * 61
    assert retained <= 5e6


def test_complement_only_space_builds_its_basis_without_an_svd(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no SVD may run")

    cases = [(trace_free_subspace(3), 2),
             (conjugate(maps_into(2, 5, 4), well_conditioned(rng, 5),
                        well_conditioned(rng, 2)), 2)]
    for V, degree in cases:
        prev = chain(V, degree).spaces[-1]
        direct, direct_next = mk_direct(V, degree + 1), mk_direct(V, degree + 2)
        space = mk_step(V, prev)
        assert space._rows is None
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", refuse)
            assert space.dim == direct.dim
            space.rows
        assert_complement_invariants(space)
        assert spaces_match(space, direct)
        # the direct-to-delta switch factors the basis built from the complement
        assert spaces_match(delta_step(V, mk_step(V, prev)), direct_next)


def test_chain_cost_scales_with_alpha_on_a_tall_chain(rng, monkeypatch):
    V = conjugated_plane(rng, 5, 5)
    widths = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: widths.append(np.shape(a)[-1]) or svd(a, *args, **kw))
    report = chain(V, 8)
    assert report.alpha == [5] + [2] * 8
    # the slot system at k = 8 is 2475 columns wide
    assert widths and max(widths) <= 64


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), data=st.data())
def test_alpha_is_invariant_under_conjugation_and_matches_mk_direct(n, m, data):
    dim = data.draw(st.integers(0, m * n), label="dim")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    V = random_subspace(rng, n, m, dim)
    alpha = chain(V, 4).alpha
    assert chain(conjugate(V, well_conditioned(rng, m), well_conditioned(rng, n)), 4).alpha == alpha
    direct = [mk_direct(V, k).dim for k in range(5)]
    assert alpha == direct[:len(alpha)]
    assert all(d == 0 for d in direct[len(alpha):])


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
        vec = holomorphic_power(space.degree).coeffs.ravel()
        vec /= np.linalg.norm(vec)
        assert np.linalg.norm(vec - span.T @ (span @ vec)) < 1e-10


def test_chain_on_the_whole_matrix_space():
    # no constraint: every polynomial qualifies, and the complement of each
    # degree is empty
    n, m = 3, 2
    V = make_subspace(n, m, list(np.eye(m * n).reshape(-1, m, n)))
    report = chain(V, 4)
    assert report.alpha == [m * comb(n + k - 1, k) for k in range(5)]
    assert report.delta.status == "lower_bound" and report.delta.value == 4
    for k, space in enumerate(report.spaces):
        assert spaces_match(space, mk_direct(V, k)), k


def test_a_chain_that_dies_at_k_max_is_finite_one_degree_below():
    # the conformal chain's degree-3 space is empty
    report = chain(conformal_subspace(3), 3)
    assert report.alpha == [3, 4, 3, 0]
    assert report.delta == DeltaStatus("finite", 2)
    short = chain(conformal_subspace(3), 2)
    assert short.alpha == [3, 4, 3]
    assert short.delta == DeltaStatus("lower_bound", 2)


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


def test_membership_residual_is_the_worst_slot_distance(rng):
    for V, k in ((conformal_subspace(3), 3), (random_subspace(rng, 2, 3, 4), 1),
                 (make_subspace(2, 3, []), 2)):
        p = random_hompoly(rng, V.n, V.m, k)
        worst = max(distance(slot_matrix(p, beta), V) for beta in monomial_basis(V.n, k - 1))
        assert membership_residual(p, V) == worst
    # a non-finite coefficient is never read as membership
    nan = HomPoly(2, 2, 2, np.full((2, 3), np.nan))
    assert np.isnan(membership_residual(nan, make_subspace(2, 2, [I2])))


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
