"""Subspaces of L(R^n, R^m) under the Frobenius inner product.

Construction, projection, distances and rank decisions.  Every
numerical-dependence decision compares against the one threshold
``rank_rel``: each rank and nullspace in the package is either counted by
:func:`rank_from_singular_values` or, for a wide matrix that
:func:`full_row_rank` certifies, proved by its Gram matrix to be the full
row rank that rule would count; and a generator counts as dependent unless
its residual exceeds ``rank_rel`` times its norm.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES
from .symtensor import json_fields


def rank_from_singular_values(s: np.ndarray) -> int:
    if s.size == 0:
        return 0
    return int(np.sum(s > TOLERANCES.rank_rel * max(1.0, float(s[0]))))


def row_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the row space of A, shape (rank, A.shape[1]),
    copied out of A's thin SVD, with the rank the rank rule counts on it."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0:
        return np.zeros((0, A.shape[1]))
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return vh[:rank_from_singular_values(s)].copy()


def full_row_rank(A: np.ndarray) -> bool:
    """Whether the r x r Gram matrix of a wide A (r rows < c columns) proves,
    without an SVD, the full row rank r that :func:`rank_from_singular_values`
    would count on A's thin SVD.  With eps the machine epsilon, u = eps / 2
    and t = trace(G) for the computed G = fl(A A^T):

    - G = A A^T + E with ||E||_2 <= c u t (Higham, Accuracy and Stability
      of Numerical Algorithms, 2002, 3.5), and ``eigvalsh`` is exact for
      G + F with ||F||_2 a modest multiple of r u t;
    - so by Weyl's inequality each computed eigenvalue lies within
      delta = 8 (r + c) eps t of a squared singular value sigma_i^2, and a
      backward stable thin SVD computes each sigma_i to within
      eta = 8 (r + c) eps sqrt(t).

    With low = lambda_min - delta and high = lambda_max + delta, A is
    certified when low > 64 r (r + c + 1) eps high, which bounds
    kappa(A)^2 <= high / low and with it the error of the complement
    :func:`row_complement` builds from A, and when every sigma_i the thin
    SVD would compute passes the rank rule:
    sqrt(low) - eta > rank_rel * max(1, sqrt(high) + eta).  An empty A passes.
    """
    A = np.asarray(A, dtype=float)
    rows, cols = A.shape
    if not 0 < rows < cols:
        return rows == 0
    gram = A @ A.T
    eps, t = np.finfo(float).eps, float(np.trace(gram))
    delta, eta = 8 * (rows + cols) * eps * t, 8 * (rows + cols) * eps * np.sqrt(t)
    lam = np.linalg.eigvalsh(gram)
    low, high = lam[0] - delta, lam[-1] + delta
    return bool(low > 64 * rows * (rows + cols + 1) * eps * high
                and np.sqrt(low) - eta > TOLERANCES.rank_rel * max(1.0, np.sqrt(high) + eta))


def nullspace_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning {x : A x = 0}; shape (dim_null, A.shape[1])."""
    A = np.asarray(A, dtype=float)
    rows, cols = A.shape
    if rows == 0:
        return np.eye(cols)
    # vh is cols x cols either way: only a wide A needs the full factors,
    # and a tall one skips its rows x rows left factor
    _, s, vh = np.linalg.svd(A, full_matrices=rows < cols)
    return vh[rank_from_singular_values(s):]


def row_complement(B: np.ndarray) -> np.ndarray:
    """The (c - r) x c orthonormal complement of the row span of an r x c B
    of full row rank, from a complete Householder QR of B^T, which decides
    no rank.  That QR is backward stable (Higham, 19.3): the rows are
    orthogonal to B's to a small multiple of c eps ||B||_2, and within an
    angle of about kappa(B) c eps of the exact complement.  A copy, so that
    it does not keep the square factor alive."""
    q, _ = np.linalg.qr(B.T, mode="complete")
    return q[:, B.shape[0]:].T.copy()


def largest_principal_angle(B1: np.ndarray, B2: np.ndarray) -> float:
    """Largest principal angle (radians) between the row spans of two stacks
    of orthonormal rows; 0.0 when either is empty.  For the smaller stack B2,
    the sine is the norm of B2's residual against B1 and the cosine the least
    singular value of B2 B1^T: together they stay accurate near 0 and pi/2,
    where an arccosine or an arcsine alone loses digits."""
    if B1.shape[0] < B2.shape[0]:
        B1, B2 = B2, B1
    if B2.shape[0] == 0:
        return 0.0
    cross = B2 @ B1.T
    sine = np.linalg.norm(B2 - cross @ B1, 2)
    cosine = np.linalg.svd(cross, compute_uv=False)[-1]
    return float(np.arctan2(sine, cosine))


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


def _gram_schmidt(vectors):
    basis = []
    for i, v in enumerate(vectors):
        v = np.asarray(v, dtype=float).ravel().copy()
        if not np.isfinite(v).all():  # NaN would pass the drop test below
            raise ValueError(f"generator {i} has non-finite entries")
        orig = np.linalg.norm(v)
        if orig == 0.0:
            continue
        # modified Gram-Schmidt with one re-orthogonalization pass
        for _ in range(2):
            for b in basis:
                v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > TOLERANCES.rank_rel * orig:  # the rank rule's comparison
            basis.append(v / norm)
    return basis


def make_subspace(n: int, m: int, generators) -> MatrixSubspace:
    """Span of the generators with near-dependent generators dropped."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    for g in gens:
        if g.shape != (m, n):
            raise ValueError(f"generator has shape {g.shape}, expected {(m, n)}")
    return MatrixSubspace(n, m, np.array(_gram_schmidt(gens)))


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


def distances(stack, V: MatrixSubspace) -> np.ndarray:
    """Frobenius distance from V of each matrix of an (N, m, n) stack, by
    stacked matrix-vector products, the ones :func:`distance` takes on one
    matrix, so that each entry equals its :func:`distance` to the bit."""
    stack = np.asarray(stack, dtype=float)
    if stack.shape[1:] != (V.m, V.n):
        raise ValueError("matrix shape does not match the subspace")
    flat = stack.reshape(len(stack), V.m * V.n)
    coefficients = (V.flat @ flat[:, :, None])[:, :, 0]
    residual = flat - (coefficients[:, None, :] @ V.flat)[:, 0]
    return np.sqrt(residual[:, None, :] @ residual[:, :, None]).ravel()


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
    n, m, generators = json_fields(data, "generators")
    return make_subspace(n, m, [np.asarray(g, dtype=float) for g in generators])
