"""Subspaces of L(R^n, R^m) under the Frobenius inner product.

Construction, projection, distances, conjugation by invertible matrices and
rank decisions.  Every rank/nullspace decision in the package funnels through
:func:`rank_from_singular_values` so the threshold lives in one place.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import subspace_angles

from .config import TOLERANCES


def rank_from_singular_values(s: np.ndarray) -> int:
    if s.size == 0:
        return 0
    return int(np.sum(s > TOLERANCES.rank_rel * max(1.0, float(s[0]))))


def nullspace_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning {x : A x = 0}; shape (dim_null, A.shape[1])."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = rank_from_singular_values(s)
    return vh[rank:]


def row_complement(B: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of the row span of B."""
    return nullspace_rows(B)


def principal_angles_rows(B1: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Principal angles (radians, largest first) between two row-orthonormal
    stacks.  Uses the sine-based formulation so angles near zero are resolved
    below the square root of machine precision."""
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return np.zeros(0)
    return subspace_angles(np.asarray(B1).T, np.asarray(B2).T)


@dataclass
class MatrixSubspace:
    """Linear subspace of m-by-n matrices with a Frobenius-orthonormal basis."""

    n: int
    m: int
    basis: np.ndarray  # shape (dim, m, n)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float).reshape(-1, self.m, self.n)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def flat(self) -> np.ndarray:
        """Basis as orthonormal rows of length m*n."""
        return self.basis.reshape(self.dim, self.m * self.n)

    def element(self, coefficients) -> np.ndarray:
        """Linear combination of the basis with the given coefficients."""
        c = np.asarray(coefficients, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError("coefficient vector has wrong length")
        return np.tensordot(c, self.basis, axes=1)

    def coefficients(self, A) -> np.ndarray:
        return self.flat @ np.asarray(A, dtype=float).ravel()


def _gram_schmidt(vectors, drop_tol):
    basis = []
    for v in vectors:
        v = np.asarray(v, dtype=float).ravel().copy()
        orig = np.linalg.norm(v)
        if orig == 0.0:
            continue
        # modified Gram-Schmidt with one re-orthogonalization pass
        for _ in range(2):
            for b in basis:
                v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm < drop_tol * orig:
            continue
        basis.append(v / norm)
    return basis


def make_subspace(n: int, m: int, generators) -> MatrixSubspace:
    """Span of the generators with near-dependent generators dropped."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    for g in gens:
        if g.shape != (m, n):
            raise ValueError(f"generator has shape {g.shape}, expected {(m, n)}")
    basis = _gram_schmidt(gens, TOLERANCES.gram_schmidt_drop)
    if not basis:
        return MatrixSubspace(n, m, np.zeros((0, m, n)))
    return MatrixSubspace(n, m, np.array(basis).reshape(-1, m, n))


def project(A, V: MatrixSubspace) -> np.ndarray:
    """Orthogonal projection of A onto V."""
    A = np.asarray(A, dtype=float)
    if A.shape != (V.m, V.n):
        raise ValueError("matrix shape does not match the subspace")
    if V.dim == 0:
        return np.zeros_like(A)
    return V.element(V.flat @ A.ravel())


def distance(A, V: MatrixSubspace) -> float:
    """Frobenius distance from A to the subspace V."""
    A = np.asarray(A, dtype=float)
    return float(np.linalg.norm(A - project(A, V)))


def conjugate(V: MatrixSubspace, P, Q) -> MatrixSubspace:
    """Subspace {P B Q : B in V}, re-orthonormalized; rejects singular P, Q."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != (V.m, V.m) or Q.shape != (V.n, V.n):
        raise ValueError("conjugating matrices have wrong shapes")
    for M in (P, Q):
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= TOLERANCES.singular_rel * s[0]:
            raise ValueError("conjugating matrix is singular or near-singular")
    return make_subspace(V.n, V.m, [P @ B @ Q for B in V.basis])


def max_principal_angle(V1: MatrixSubspace, V2: MatrixSubspace) -> float:
    angles = principal_angles_rows(V1.flat, V2.flat)
    return float(angles[0]) if angles.size else 0.0


def subspaces_equal(V1: MatrixSubspace, V2: MatrixSubspace,
                    angle_tol: float | None = None) -> bool:
    """Equality up to the principal-angle tolerance (basis independent)."""
    if angle_tol is None:
        angle_tol = TOLERANCES.subspace_angle
    if (V1.n, V1.m) != (V2.n, V2.m) or V1.dim != V2.dim:
        return False
    if V1.dim == 0:
        return True
    return max_principal_angle(V1, V2) <= angle_tol


# --- JSON form shared with the CLI ---------------------------------------
#
# { "n": ..., "m": ..., "generators": [ [[row-major m x n]], ... ] }

def subspace_to_json(V: MatrixSubspace) -> dict:
    return {
        "n": V.n,
        "m": V.m,
        "generators": [B.tolist() for B in V.basis],
    }


def subspace_from_json(data: dict) -> MatrixSubspace:
    n, m = int(data["n"]), int(data["m"])
    gens = [np.asarray(g, dtype=float) for g in data.get("generators", [])]
    return make_subspace(n, m, gens)
