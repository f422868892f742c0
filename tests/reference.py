"""Oracles the tests compare the library against: the paper's definitions in
symmetric-tensor form (a partial derivative, a slot contraction, one slot
matrix, a point value), conjugation of a subspace, equality of subspaces up
to an angle, and the full-range augmented subspace with its JSON form.  No
subcommand needs them, so they live beside the tests."""

import numpy as np

from prolongation.config import TOLERANCES
from prolongation.manifolds import AugmentedSubspace, make_augmented
from prolongation.matspace import MatrixSubspace, largest_principal_angle, make_subspace
from prolongation.symtensor import (HomPoly, derivative_coords, derivative_op, monomial_basis,
                                    monomial_position, slot_matrices)


def derive(p: HomPoly, i: int) -> HomPoly:
    """Partial derivative d p / d x_i, one degree down."""
    if not 0 <= i < p.n:
        raise ValueError("coordinate index out of range")
    index, exponent = derivative_op(p.n, p.k)
    return HomPoly(p.n, p.m, p.k - 1, np.take(p.coeffs, index[:, i], axis=1) * exponent[:, i])


def contract(p: HomPoly, x) -> HomPoly:
    """Fill the last tensor slot with ``x``; in coordinates (1/k) sum_i x_i d_i p."""
    if p.k < 1:
        raise ValueError("cannot contract a degree-0 polynomial")
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError("vector has wrong dimension")
    return HomPoly(p.n, p.m, p.k - 1, derivative_coords(p.coeffs, p.n, p.m, p.k)[0] @ x / p.k)


def slot_matrix(p: HomPoly, beta) -> np.ndarray:
    """Matrix of the linear map left after filling k-1 slots according to ``beta``.

    Entry (a, j) equals (1/k!) d^beta d_j p_a, a constant; equivalently the
    underlying symmetric tensor evaluated on beta_1 copies of e_1, ...,
    beta_n copies of e_n and e_j.
    """
    beta = tuple(int(b) for b in beta)
    if p.k < 1 or len(beta) != p.n or sum(beta) != p.k - 1:
        raise ValueError("slot multi-index must have degree k-1")
    return slot_matrices(p)[monomial_position(beta)]


def evaluate(F, x) -> np.ndarray:
    """Value at the point ``x`` of a HomPoly, or of a PolyMap as the sum of its
    components."""
    x = np.asarray(x, dtype=float)
    if x.shape != (F.n,):
        raise ValueError("point has wrong dimension")
    out = np.zeros(F.m)
    for p in [F] if isinstance(F, HomPoly) else F.components.values():
        out += p.coeffs @ np.prod(x ** monomial_basis(p.n, p.k), axis=1)
    return out


def conjugate(V: MatrixSubspace, P, Q) -> MatrixSubspace:
    """Subspace {P B Q : B in V}, re-orthonormalized; rejects a P or Q whose
    sigma_min/sigma_max is at most ``rank_rel``."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != (V.m, V.m) or Q.shape != (V.n, V.n):
        raise ValueError("conjugating matrices have wrong shapes")
    for M in (P, Q):
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= TOLERANCES.rank_rel * s[0]:
            raise ValueError("conjugating matrix is singular or near-singular")
    return make_subspace(V.n, V.m, [P @ B @ Q for B in V.basis])


def subspaces_equal(V1: MatrixSubspace, V2: MatrixSubspace, angle_tol: float) -> bool:
    """Equality up to a largest principal angle of ``angle_tol`` (basis
    independent)."""
    if (V1.n, V1.m) != (V2.n, V2.m) or V1.dim != V2.dim:
        return False
    return largest_principal_angle(V1.flat, V2.flat) <= angle_tol


def augment_with_full_range(V: MatrixSubspace) -> AugmentedSubspace:
    """Pairs (B, v) with B in V and v arbitrary: a constraint on the matrix
    component only."""
    pairs = [(B, np.zeros(V.m)) for B in V.basis]
    pairs += [(np.zeros((V.m, V.n)), e) for e in np.eye(V.m)]
    return make_augmented(V.n, V.m, pairs)


def augmented_to_json(v_aug: AugmentedSubspace) -> dict:
    """The ``--input-augmented`` file form of an augmented subspace."""
    n, m = v_aug.n, v_aug.m
    return {"n": n, "m": m, "generators": [
        {"matrix": row[:m * n].reshape(m, n).tolist(), "vector": row[m * n:].tolist()}
        for row in v_aug.basis]}
