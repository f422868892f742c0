"""Nonlinear constraint sets: builtin families, tangent spaces, sampled
chain analysis and truncated jet spaces for the augmented (value-coupled)
setting.

A constraint family fixes, at every domain point, a set of admissible
Jacobians cut out by a defining function.  The tangent space at an
admissible matrix is the kernel of the defining function's derivative;
running the chain on sampled tangent spaces checks the constant-dimension
hypothesis under which the solution set has a well-defined dimension.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .config import TOLERANCES
from .matspace import (
    MatrixSubspace,
    make_subspace,
    nullspace_rows,
    row_complement,
)
from .obstruct import classify_delta_full, complex_structure_plane
from .prolong import DeltaStatus, chain
from .symtensor import HomPoly, PolyMap, derivative_op, fd_jacobian


class DegeneratePointError(ValueError):
    """The defining function's derivative dropped rank at the given point."""


@dataclass
class ConstraintFamily:
    """Admissible-Jacobian set cut out by ``defining(x, A) = 0``.

    ``jacobian_fn(x, A)`` may supply the derivative of the residual in A as
    a (residual_dim, m*n) matrix; otherwise central finite differences with
    ``manifold_fd_step`` are used.  ``manifold_dim`` is the expected tangent
    dimension, used to flag degenerate points.
    """

    name: str
    n: int
    m: int
    manifold_dim: int
    defining: callable
    sample: callable                     # rng -> matrix on the constraint set
    base_point: np.ndarray
    jacobian_fn: callable = None

    def residual(self, A, x=None) -> np.ndarray:
        if x is None:
            x = np.zeros(self.n)
        return np.asarray(self.defining(x, np.asarray(A, dtype=float)), dtype=float)


def _symmetric_basis(n: int, trace_free: bool) -> list:
    out = []
    diag = [np.zeros((n, n)) for _ in range(n)]
    for i in range(n):
        diag[i][i, i] = 1.0
    if trace_free:
        # orthonormalize the diagonal directions against the identity
        from .matspace import _gram_schmidt

        eye = np.eye(n).ravel() / np.sqrt(n)
        vecs = _gram_schmidt([eye] + [d.ravel() for d in diag], TOLERANCES.symmetric_drop)
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
    perp = row_complement(V.flat)

    def defining(x, A):
        return perp @ A.ravel()

    def jac(x, A):
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


def builtin_family(name: str, n: int, subspace: MatrixSubspace | None = None) -> ConstraintFamily:
    """Named constraint families; ``custom-linear`` wraps a given subspace.

    conformal: A A^T proportional to the identity with positive determinant,
    written as A A^T - (|A|_F^2 / n) I projected on trace-free symmetric
    directions, which reproduces the tangent space {scalar + skew} at the
    identity.  isometry: A A^T = I.  quaternion and holomorphic are linear.
    """
    if name == "isometry":
        if n < 1:
            raise ValueError("isometry needs n >= 1")
        basis = _symmetric_basis(n, trace_free=False)

        def defining(x, A):
            R = A @ A.T - np.eye(n)
            return np.array([np.sum(R * S) for S in basis])

        def jac(x, A):
            rows = []
            for S in basis:
                rows.append(((S + S.T) @ A).ravel())
            return np.array(rows)

        return ConstraintFamily(
            name=name, n=n, m=n, manifold_dim=n * (n - 1) // 2,
            defining=defining, jacobian_fn=jac,
            sample=lambda rng: _rotation_sample(rng, n),
            base_point=np.eye(n),
        )
    if name == "conformal":
        if n < 2:
            raise ValueError("conformal needs n >= 2")
        basis = _symmetric_basis(n, trace_free=True)

        def defining(x, A):
            R = A @ A.T - (np.sum(A * A) / n) * np.eye(n)
            return np.array([np.sum(R * S) for S in basis])

        def jac(x, A):
            rows = []
            for S in basis:
                rows.append((((S + S.T) @ A) - (2.0 * np.trace(S) / n) * A).ravel())
            return np.array(rows)

        def sample(rng):
            scale = float(np.exp(0.3 * rng.standard_normal()))
            return scale * _rotation_sample(rng, n)

        return ConstraintFamily(
            name=name, n=n, m=n, manifold_dim=1 + n * (n - 1) // 2,
            defining=defining, jacobian_fn=jac, sample=sample,
            base_point=np.eye(n),
        )
    if name == "quaternion":
        if n != 4:
            raise ValueError("the quaternion family lives in dimension 4")
        return linear_family(quaternion_right_multiplications(), name)
    if name == "holomorphic":
        if n != 2:
            raise ValueError("the holomorphic family lives in dimension 2")
        return linear_family(complex_structure_plane(2, 2), name)
    if name == "custom-linear":
        if subspace is None:
            raise ValueError("custom-linear needs an explicit subspace")
        return linear_family(subspace, name)
    raise ValueError(f"unknown family {name!r}")


def tangent_space(family: ConstraintFamily, A, x=None) -> MatrixSubspace:
    """Kernel of the defining function's derivative at an admissible A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (family.m, family.n):
        raise ValueError("point has the wrong shape")
    res = family.residual(A, x)
    if np.linalg.norm(res) > TOLERANCES.on_manifold:
        raise ValueError("the point does not lie on the constraint set")
    if family.jacobian_fn is not None:
        J = np.asarray(family.jacobian_fn(x if x is not None else np.zeros(family.n), A))
    else:
        J = fd_jacobian(lambda a: family.residual(a.reshape(A.shape), x), A.ravel(),
                        TOLERANCES.manifold_fd_step)
    rows = nullspace_rows(J)
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
            outcome = classify_delta_full(
                Vt, k_max, seed=1_000_003 * seed + i, restarts=restarts, report=report,
            )
            statuses.append(outcome.delta)
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

    def matrix_part(self, row: int) -> np.ndarray:
        return self.basis[row, : self.m * self.n].reshape(self.m, self.n)

    def vector_part(self, row: int) -> np.ndarray:
        return self.basis[row, self.m * self.n:]


def make_augmented(n: int, m: int, pairs) -> AugmentedSubspace:
    """Augmented subspace spanned by (matrix, vector) generator pairs."""
    from .matspace import _gram_schmidt

    vecs = []
    for mat, vec in pairs:
        mat = np.asarray(mat, dtype=float)
        vec = np.asarray(vec, dtype=float)
        if mat.shape != (m, n) or vec.shape != (m,):
            raise ValueError("generator pair has wrong shapes")
        vecs.append(np.concatenate([mat.ravel(), vec]))
    basis = _gram_schmidt(vecs, TOLERANCES.gram_schmidt_drop)
    if not basis:
        return AugmentedSubspace(n, m, np.zeros((0, m * n + m)))
    return AugmentedSubspace(n, m, np.array(basis))


def augment_with_full_range(V: MatrixSubspace) -> AugmentedSubspace:
    """Pairs (B, v) with B in V and v arbitrary: a constraint on the matrix
    component only."""
    pairs = [(B, np.zeros(V.m)) for B in V.basis]
    pairs += [(np.zeros((V.m, V.n)), e) for e in np.eye(V.m)]
    return make_augmented(V.n, V.m, pairs)


@dataclass
class JetReport:
    """Truncated jet space through a prescribed first-order part."""

    degree: int
    dimension: int
    empty: bool
    basis: list = field(default_factory=list)
    particular: object = None

    def to_json(self) -> dict:
        from .symtensor import polymap_to_json

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

    Write u = u_1 + ... + u_D with u_j homogeneous of degree j.  The
    xi-degree-d part of the identity couples only Du_{d+1} and u_d, so the
    system is block-bidiagonal in d, built from the derivative operators.
    u_1 = A is known and moves to the right-hand side.  The report carries
    the dimension of the solution set's linear part and a basis, or
    ``empty`` when the affine constraints are inconsistent.
    """
    n, m = v_aug.n, v_aug.m
    if D < 1:
        raise ValueError("truncation degree must be >= 1")
    A = np.asarray(A, dtype=float)
    if A.shape != (m, n):
        raise ValueError("first-order part has the wrong shape")
    perp = row_complement(v_aug.basis)
    q = perp.shape[0]
    perp_mat = perp[:, : m * n].reshape(q, m, n)   # matrix-part components
    perp_vec = perp[:, m * n:]                      # vector-part components

    # u_1..u_D side by side; u_j has columns cols[j]:cols[j + 1]
    num = [comb(n + d - 1, d) for d in range(D + 1)]  # monomials of degree d
    cols = np.cumsum([0, 0] + [m * c for c in num[1:]])
    blocks = []
    for d in range(D + 1):
        block = np.zeros((q * num[d], cols[-1]))
        if d < D:  # Jacobian of u_{d+1}: perp_mat against every d_i
            ops = np.stack([derivative_op(n, d + 1, i) for i in range(n)])
            block[:, cols[d + 1]:cols[d + 2]] = np.einsum(
                "rai,ilh->rlah", perp_mat, ops).reshape(q * num[d], m * num[d + 1])
        if d > 0:  # value of u_d
            block[:, cols[d]:cols[d + 1]] = np.kron(perp_vec, np.eye(num[d]))
        blocks.append(block)
    G = np.vstack(blocks)[:, m * n:]
    # the known u_1 = A enters through its Jacobian at xi-degree 0 and its
    # value at xi-degree 1
    b = np.zeros(G.shape[0])
    b[:q] = -(perp_mat.reshape(q, m * n) @ A.ravel())
    b[q:q * (n + 1)] = [-(perp_vec[r] @ A[:, g]) for r in range(q) for g in range(n)]

    particular, *_ = np.linalg.lstsq(G, b, rcond=None)
    slack = TOLERANCES.jet_consistency * max(1.0, np.linalg.norm(b))
    if np.linalg.norm(G @ particular - b) > slack:
        return JetReport(degree=D, dimension=0, empty=True)
    null_rows = nullspace_rows(G)

    def to_polymap(vec):
        comps = {}
        for j in range(1, D + 1):
            block = vec[cols[j]:cols[j + 1]]
            if np.max(np.abs(block), initial=0.0) > 0.0:
                comps[j] = HomPoly.from_coeff_vector(n, m, j, block)
        return PolyMap(n, m, comps or {1: HomPoly.zero(n, m, 1)})

    return JetReport(
        degree=D,
        dimension=null_rows.shape[0],
        empty=False,
        basis=[to_polymap(np.concatenate([np.zeros(m * n), row])) for row in null_rows],
        particular=to_polymap(np.concatenate([A.ravel(), particular])),
    )


# --- JSON forms -------------------------------------------------------------

def augmented_to_json(v_aug: AugmentedSubspace) -> dict:
    return {
        "n": v_aug.n,
        "m": v_aug.m,
        "generators": [
            {
                "matrix": v_aug.matrix_part(r).tolist(),
                "vector": v_aug.vector_part(r).tolist(),
            }
            for r in range(v_aug.dim)
        ],
    }


def augmented_from_json(data: dict) -> AugmentedSubspace:
    n, m = int(data["n"]), int(data["m"])
    pairs = [(g["matrix"], g["vector"]) for g in data.get("generators", [])]
    return make_augmented(n, m, pairs)
