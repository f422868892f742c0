"""Subspaces of L(R^n, R^m) under the Frobenius inner product.

Construction, projection, distances and rank decisions.  Every
numerical-dependence decision compares against the one threshold
``rank_rel``: each rank and nullspace in the package is either counted by
:func:`rank_from_singular_values` or, for a wide matrix in
:func:`row_space`, certified by its Gram matrix to be the rank that rule
would count; and a generator counts as dependent unless its residual
exceeds ``rank_rel`` times its norm.
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
    with the rank :func:`rank_from_singular_values` counts on A's thin SVD.

    A wide A (r rows < c columns) whose r x r Gram matrix proves full row
    rank skips that SVD.  With eps the machine epsilon, u = eps / 2 and
    t = trace(G) for the computed G = fl(A A^T):

    - G = A A^T + E with |E| <= gamma_c |A| |A|^T, so ||E||_2 <= c u t
      (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.5);
    - ``eigvalsh`` is backward stable, exact for G + F with ||F||_2 a
      modest multiple of r u ||G||_2 <= r u t;
    - so by Weyl's inequality each computed eigenvalue lies within
      delta = 8 (r + c) eps t of a squared singular value sigma_i^2, a
      generous multiple of both terms; likewise a backward stable thin SVD
      computes each sigma_i to within eta = 8 (r + c) eps sqrt(t).

    With low = lambda_min - delta <= sigma_min^2 and
    high = lambda_max + delta >= sigma_max^2, the rows come from CholeskyQR2,
    two passes of L = cholesky(P P^T), P = L^-1 P from P = A (``inv`` forms
    L^-1: numpy has no triangular solve, and ``solve`` is slower), when

    - low > 64 r (r + c + 1) eps high: then kappa(A)^2 <= high / low meets
      CholeskyQR2's condition 64 kappa^2 u (c r + r (r + 1)) <= 1
      (Yamamoto, Nakatsukasa, Yanagisawa and Fukaya, ETNA 44, 2015), under
      which the rows come out orthonormal to a small multiple of
      (c r + r^2) u, and the scaled least eigenvalue of G exceeds
      r gamma_{r+1}, under which its Cholesky runs to completion (Higham,
      Theorem 10.7);
    - sqrt(low) - eta > rank_rel * max(1, sqrt(high) + eta): every sigma_i
      the thin SVD would compute then passes the rank rule, which would
      count r.

    Otherwise the thin SVD runs, and its rows are copied out of the factor,
    so they do not keep it alive.
    """
    A = np.asarray(A, dtype=float)
    rows, cols = A.shape
    if rows == 0:
        return np.zeros((0, cols))
    if rows < cols:
        gram = A @ A.T
        eps, t = np.finfo(float).eps, float(np.trace(gram))
        delta, eta = 8 * (rows + cols) * eps * t, 8 * (rows + cols) * eps * np.sqrt(t)
        lam = np.linalg.eigvalsh(gram)
        low, high = lam[0] - delta, lam[-1] + delta
        if (low > 64 * rows * (rows + cols + 1) * eps * high
                and np.sqrt(low) - eta > TOLERANCES.rank_rel * max(1.0, np.sqrt(high) + eta)):
            P = np.linalg.inv(np.linalg.cholesky(gram)) @ A
            return np.linalg.inv(np.linalg.cholesky(P @ P.T)) @ P
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return vh[:rank_from_singular_values(s)].copy()


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
    """Orthonormal rows spanning the orthogonal complement of the row span of
    B, shape (B.shape[1] - B.shape[0], B.shape[1]).  B must have orthonormal
    rows: the complement is read from a complete QR of B^T, which decides no
    rank.  A copy, so that it does not keep the square factor alive."""
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
