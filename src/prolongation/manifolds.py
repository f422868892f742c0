"""Nonlinear constraint sets: builtin families, tangent spaces, sampled
chain analysis and truncated jet spaces for the augmented (value-coupled)
setting.

A constraint family is the set of admissible Jacobians cut out by a
defining function of the matrix alone, the same at every domain point.  The
tangent space at an admissible matrix is the kernel of the defining
function's derivative; running the chain on sampled tangent spaces checks
the constant-dimension hypothesis under which the solution set has a
well-defined dimension.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .config import TOLERANCES
from .matspace import (MatrixSubspace, _gram_schmidt, make_subspace, nullspace_rows,
                       rank_from_singular_values, row_space)
from .obstruct import ClassifyOutcome, complex_structure_plane, find_witnesses
from .prolong import chain
from .symtensor import (
    HomPoly,
    PolyMap,
    derivative_coords,
    json_entries,
    json_fields,
    polymap_to_json,
)


class DegeneratePointError(ValueError):
    """The defining function's derivative dropped rank at the given point."""


@dataclass
class ConstraintFamily:
    """Admissible-Jacobian set cut out by ``defining(A) = 0``.

    ``defining`` and ``jacobian_fn`` read the matrix alone; ``jacobian_fn(A)``
    is the derivative of ``defining`` as a (residual_dim, m*n) matrix.
    ``manifold_dim`` is the expected tangent dimension, flagging degeneracy.
    """

    name: str
    n: int
    m: int
    manifold_dim: int
    defining: callable
    jacobian_fn: callable
    sample: callable                     # rng -> matrix on the constraint set
    base_point: np.ndarray


def _symmetric_basis(n: int, trace_free: bool) -> list:
    out = []
    diag = [np.zeros((n, n)) for _ in range(n)]
    for i in range(n):
        diag[i][i, i] = 1.0
    if trace_free:
        # orthonormalize the diagonal directions against the identity
        eye = np.eye(n).ravel() / np.sqrt(n)
        vecs = _gram_schmidt([eye] + [d.ravel() for d in diag])
        out.extend(v.reshape(n, n) for v in vecs[1:])
    else:
        out.extend(diag)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            out.append(E)
    return out


def _rotation_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def quaternion_right_multiplications() -> MatrixSubspace:
    """Matrices of x -> x * q over the four unit quaternions q."""
    def quat_mult(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return np.array(
            [
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            ]
        )

    gens = []
    for unit in np.eye(4):
        cols = [quat_mult(basis_vec, unit) for basis_vec in np.eye(4)]
        gens.append(np.column_stack(cols))
    return make_subspace(4, 4, gens)


def linear_family(V: MatrixSubspace, name: str = "custom-linear") -> ConstraintFamily:
    """Family whose constraint set is the subspace V itself."""
    perp = nullspace_rows(V.flat)

    def defining(A):
        return perp @ A.ravel()

    def jac(A):
        return perp

    def sample(rng):
        if V.dim == 0:
            return np.zeros((V.m, V.n))
        return V.element(rng.standard_normal(V.dim))

    base = V.basis[0].copy() if V.dim else np.zeros((V.m, V.n))
    return ConstraintFamily(
        name=name, n=V.n, m=V.m, manifold_dim=V.dim,
        defining=defining, jacobian_fn=jac, sample=sample, base_point=base,
    )


def _gram_family(name: str, n: int, target, trace_free: bool, manifold_dim: int, sample):
    """Family ``A A^T = target`` read on an orthonormal symmetric basis: each
    direction S gives the residual <A A^T - target, S> and its derivative,
    the Jacobian row 2 S A (S is symmetric)."""
    basis = _symmetric_basis(n, trace_free)

    def defining(A):
        R = A @ A.T - target
        return np.array([np.sum(R * S) for S in basis])

    def jac(A):
        return np.array([(2.0 * S @ A).ravel() for S in basis])

    return ConstraintFamily(
        name=name, n=n, m=n, manifold_dim=manifold_dim,
        defining=defining, jacobian_fn=jac, sample=sample, base_point=np.eye(n),
    )


def builtin_family(name: str, n: int) -> ConstraintFamily:
    """Named constraint families; :func:`linear_family` wraps any subspace.

    isometry: A A^T = I on every symmetric direction.  conformal: A A^T
    proportional to the identity, that is A A^T read on the trace-free
    symmetric directions vanishes, which reproduces the tangent space
    {scalar + skew} at the identity.  quaternion and holomorphic are linear.
    """
    if name == "isometry":
        if n < 1:
            raise ValueError("isometry needs n >= 1")
        return _gram_family(name, n, np.eye(n), False, n * (n - 1) // 2,
                            lambda rng: _rotation_sample(rng, n))
    if name == "conformal":
        if n < 2:
            raise ValueError("conformal needs n >= 2")
        # the scale is drawn before the rotation
        return _gram_family(name, n, 0.0, True, 1 + n * (n - 1) // 2, lambda rng: (
            float(np.exp(0.3 * rng.standard_normal())) * _rotation_sample(rng, n)))
    if name == "quaternion":
        if n != 4:
            raise ValueError("the quaternion family lives in dimension 4")
        return linear_family(quaternion_right_multiplications(), name)
    if name == "holomorphic":
        if n != 2:
            raise ValueError("the holomorphic family lives in dimension 2")
        return linear_family(complex_structure_plane(2, 2), name)
    raise ValueError(f"unknown family {name!r}")


def tangent_space(family: ConstraintFamily, A) -> MatrixSubspace:
    """Kernel of the defining function's derivative at an admissible A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (family.m, family.n):
        raise ValueError("point has the wrong shape")
    if not np.linalg.norm(family.defining(A)) <= TOLERANCES.on_manifold:  # NaN fails
        raise ValueError("the point does not lie on the constraint set")
    rows = nullspace_rows(np.asarray(family.jacobian_fn(A)))
    if rows.shape[0] != family.manifold_dim:
        raise DegeneratePointError(
            f"tangent dimension {rows.shape[0]} at this point, expected {family.manifold_dim}"
        )
    return MatrixSubspace(family.n, family.m, rows.reshape(-1, family.m, family.n))


@dataclass
class ManifoldReport:
    """Sampled chain analysis of one family."""

    family: str
    n: int
    m: int
    samples: int
    alpha_per_sample: list
    delta_statuses: list
    constant: bool
    all_finite: bool
    k: int | None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "samples": self.samples,
            "alpha_per_sample": [list(a) for a in self.alpha_per_sample],
            "constant": self.constant,
            "k": self.k,
            "delta_statuses": [d.to_json() for d in self.delta_statuses],
        }


def sample_analysis(family: ConstraintFamily, sample_count: int = 20,
                    k_max: int = 8, seed: int = 0, restarts: int = 64) -> ManifoldReport:
    """Chain invariants on sampled tangent spaces, with constancy verdict.

    Non-terminating chains are escalated to the obstruction detectors so an
    infinite family is reported with a certificate when one is found.  A
    non-constant dimension sequence is a failed-hypothesis verdict, not an
    exception.
    """
    if sample_count < 2:
        raise ValueError("need at least two samples")
    alphas, statuses = [], []
    for i in range(sample_count):
        rng = np.random.default_rng([seed, i])
        A = family.sample(rng)
        Vt = tangent_space(family, A)
        report = chain(Vt, k_max)
        if report.delta.status == "finite":
            statuses.append(report.delta)
        else:
            witnesses = find_witnesses(Vt, 1_000_003 * seed + i, restarts)
            statuses.append(ClassifyOutcome(report, *witnesses).delta)
        alphas.append(tuple(report.alpha))
    constant = len(set(alphas)) == 1
    all_finite = all(s.status == "finite" for s in statuses)
    k = int(sum(alphas[0])) if constant and all_finite else None
    return ManifoldReport(
        family=family.name, n=family.n, m=family.m, samples=sample_count,
        alpha_per_sample=alphas, delta_statuses=statuses,
        constant=constant, all_finite=all_finite, k=k,
    )


# --- augmented (value-coupled) jet spaces ----------------------------------

@dataclass
class AugmentedSubspace:
    """Subspace of pairs (matrix, vector) in L(R^n, R^m) + R^m.

    ``basis`` rows are orthonormal vectors of length m*n + m; the first m*n
    entries hold the matrix part row-major, the tail the vector part.
    """

    n: int
    m: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float).reshape(-1, self.m * self.n + self.m)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def make_augmented(n: int, m: int, pairs) -> AugmentedSubspace:
    """Augmented subspace spanned by (matrix, vector) generator pairs."""
    vecs = []
    for mat, vec in pairs:
        mat = np.asarray(mat, dtype=float)
        vec = np.asarray(vec, dtype=float)
        if mat.shape != (m, n) or vec.shape != (m,):
            raise ValueError("generator pair has wrong shapes")
        vecs.append(np.concatenate([mat.ravel(), vec]))
    return AugmentedSubspace(n, m, np.array(_gram_schmidt(vecs)))


@dataclass
class JetReport:
    """Truncated jet space through a prescribed first-order part."""

    degree: int
    dimension: int
    empty: bool
    basis: list = field(default_factory=list)
    particular: object = None

    def to_json(self) -> dict:
        out = {
            "degree": self.degree,
            "dimension": self.dimension,
            "empty": self.empty,
            "basis": [polymap_to_json(F) for F in self.basis],
        }
        if self.particular is not None:
            out["particular"] = polymap_to_json(self.particular)
        return out


def augmented_jet_space(v_aug: AugmentedSubspace, A, D: int) -> JetReport:
    """Polynomial maps u of degree <= D with u(0) = 0, Du(0) = A and
    (Du(xi), u(xi)) in the augmented subspace for every xi.

    Write u = u_1 + ... + u_D with u_d homogeneous of degree d.  Du(xi)
    lies in V0, the span of the matrix parts, so the unknowns are each u_d's
    coordinates in V0's degree-d chain space.  The xi-degree-e part of the
    identity couples only the Jacobian of u_{e+1} and the value of u_e.
    u_1 = A is one fixed coordinate whose column is the right-hand side, and
    one SVD gives the minimum-norm particular solution and the kernel.  The
    report carries the kernel's dimension and a basis, or ``empty`` when the
    affine constraints are inconsistent.
    """
    n, m = v_aug.n, v_aug.m
    if D < 1:
        raise ValueError("truncation degree must be >= 1")
    A = np.asarray(A, dtype=float)
    if A.shape != (m, n):
        raise ValueError("first-order part has the wrong shape")
    if not np.isfinite(A).all():
        raise ValueError("first-order part has non-finite entries")
    if not np.isfinite(v_aug.basis).all():
        raise ValueError("augmented subspace has non-finite entries")
    perp = nullspace_rows(v_aug.basis)
    perp_mat = perp[:, : m * n].reshape(-1, m, n)  # matrix-part components
    perp_vec = perp[:, m * n:]                      # vector-part components
    spaces = chain(MatrixSubspace(n, m, row_space(v_aug.basis[:, : m * n])), D).spaces
    # the chain stops at its first empty degree, and every degree above is empty
    bases = [A.reshape(1, m * n)] + [space.rows for space in spaces[2:] if space.dim]

    # rows of xi-degree e start at offsets[e]; u_d's block fills degrees d-1 and d
    offsets = np.cumsum([0] + [len(perp) * comb(n + e - 1, e) for e in range(len(bases) + 1)])
    sizes = [len(rows) for rows in bases]
    G = np.zeros((offsets[-1], sum(sizes)))
    for d, rows, col in zip(range(1, len(bases) + 1), bases, np.cumsum([0] + sizes)):
        jac = np.einsum("raj,iabj->rbi", perp_mat, derivative_coords(rows, n, m, d))
        value = np.einsum("ra,iab->rbi", perp_vec, rows.reshape(-1, m, comb(n + d - 1, d)))
        G[offsets[d - 1]:offsets[d + 1], col:col + len(rows)] = np.concatenate(
            [jac.reshape(-1, len(rows)), value.reshape(-1, len(rows))])
    b, G = -G[:, 0], G[:, 1:]

    u, s, vh = np.linalg.svd(G, full_matrices=G.shape[0] < G.shape[1])
    rank = rank_from_singular_values(s)
    particular = vh[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    slack = TOLERANCES.jet_consistency * max(1.0, np.linalg.norm(b))
    # written so that a NaN residual reads inconsistent
    if not np.linalg.norm(G @ particular - b) <= slack:
        return JetReport(degree=D, dimension=0, empty=True)

    def to_polymap(first, coords):
        comps = {}
        pieces = np.split(np.concatenate([[first], coords]), np.cumsum(sizes)[:-1])
        for d, rows, piece in zip(range(1, len(bases) + 1), bases, pieces):
            block = piece @ rows
            if np.max(np.abs(block), initial=0.0) > 0.0:
                comps[d] = HomPoly.from_coeff_vector(n, m, d, block)
        return PolyMap(n, m, comps or {1: HomPoly.zero(n, m, 1)})

    return JetReport(degree=D, dimension=len(vh) - rank, empty=False,
                     basis=[to_polymap(0.0, row) for row in vh[rank:]],
                     particular=to_polymap(1.0, particular))


# --- JSON form --------------------------------------------------------------

def augmented_from_json(data: dict) -> AugmentedSubspace:
    n, m, generators = json_fields(data, "generators")
    pairs = [(g["matrix"], g["vector"])
             for g in json_entries(generators, "generators", ("matrix", "vector"))]
    return make_augmented(n, m, pairs)
