"""Homogeneous vector-valued polynomials as symmetric-tensor avatars.

A symmetric k-tensor T with values in R^m corresponds to the homogeneous
polynomial map p(x) = T(x, ..., x).  We store p in monomial coordinates,
which removes the redundant symmetric entries and turns slot contraction
into differentiation:

    contraction of the last slot by x  <->  (1/k) * sum_i x_i d_i p

All operations are pure functions of immutable inputs.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np


@lru_cache(maxsize=None)
def monomial_basis(n: int, k: int) -> tuple:
    """All exponent multi-indices of total degree ``k`` in ``n`` variables.

    Canonical order: within a degree, lexicographically greater first
    exponent tuple comes first, so for n=2, k=2 the order is
    (2,0), (1,1), (0,2).  Length is C(n+k-1, k).
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    if n == 1:
        return ((k,),)
    out = []
    for first in range(k, -1, -1):
        for rest in monomial_basis(n - 1, k - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, k: int) -> dict:
    """Lookup table multi-index -> position in ``monomial_basis(n, k)``."""
    return {beta: i for i, beta in enumerate(monomial_basis(n, k))}


@lru_cache(maxsize=None)
def exponent_array(n: int, k: int) -> np.ndarray:
    """Monomial exponents as an integer array of shape (C(n+k-1,k), n)."""
    arr = np.array(monomial_basis(n, k), dtype=np.int64).reshape(-1, n)
    arr.setflags(write=False)
    return arr


def hom_dim(n: int, m: int, k: int) -> int:
    """Dimension of the space of degree-k homogeneous maps R^n -> R^m."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    return m * comb(n + k - 1, k)


@lru_cache(maxsize=None)
def derivative_op(n: int, k: int, i: int) -> np.ndarray:
    """Coefficient matrix of d/dx_i from degree k to degree k-1 (scalar case)."""
    if not 0 <= i < n:
        raise ValueError("coordinate index out of range")
    if k < 1:
        raise ValueError("cannot differentiate degree-0 coefficients")
    idx = monomial_index(n, k - 1)
    cols = monomial_basis(n, k)
    op = np.zeros((len(monomial_basis(n, k - 1)), len(cols)))
    for c, beta in enumerate(cols):
        if beta[i] > 0:
            lower = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            op[idx[lower], c] = beta[i]
    op.setflags(write=False)
    return op


@dataclass
class HomPoly:
    """Homogeneous degree-k polynomial map R^n -> R^m in monomial coordinates.

    ``coeffs`` has shape (m, C(n+k-1, k)); row a holds the coefficients of
    the a-th output component against ``monomial_basis(n, k)``, so
    p_a(x) = sum_beta coeffs[a, idx(beta)] * x**beta.
    """

    n: int
    m: int
    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (self.m, comb(self.n + self.k - 1, self.k))
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    @classmethod
    def zero(cls, n, m, k):
        return cls(n, m, k, np.zeros((m, comb(n + k - 1, k))))

    @classmethod
    def from_coeff_vector(cls, n, m, k, vec):
        return cls(n, m, k, np.asarray(vec, dtype=float).reshape(m, -1))

    def coeff_vector(self) -> np.ndarray:
        """Coefficients flattened row-major (output index major)."""
        return self.coeffs.ravel()

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError("point has wrong dimension")
        monomials = np.prod(x ** exponent_array(self.n, self.k), axis=1)
        return self.coeffs @ monomials

    def is_zero(self, tol=0.0) -> bool:
        return bool(np.max(np.abs(self.coeffs), initial=0.0) <= tol)


def derive(p: HomPoly, i: int) -> HomPoly:
    """Partial derivative d p / d x_i, one degree down.  Rejects k = 0."""
    if p.k < 1:
        raise ValueError("cannot differentiate a degree-0 polynomial")
    op = derivative_op(p.n, p.k, i)
    return HomPoly(p.n, p.m, p.k - 1, p.coeffs @ op.T)


def contract(p: HomPoly, x) -> HomPoly:
    """Fill the last tensor slot with ``x``; in coordinates (1/k) sum_i x_i d_i p."""
    if p.k < 1:
        raise ValueError("cannot contract a degree-0 polynomial")
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError("vector has wrong dimension")
    acc = np.zeros((p.m, comb(p.n + p.k - 2, p.k - 1)))
    for i in range(p.n):
        if x[i] != 0.0:
            acc += x[i] * (p.coeffs @ derivative_op(p.n, p.k, i).T)
    return HomPoly(p.n, p.m, p.k - 1, acc / p.k)


def _multiindex_factorial(beta) -> int:
    out = 1
    for b in beta:
        out *= factorial(b)
    return out


def slot_matrix(p: HomPoly, beta) -> np.ndarray:
    """Matrix of the linear map left after filling k-1 slots according to ``beta``.

    Entry (a, j) equals (1/k!) d^beta d_j p_a, a constant; equivalently the
    underlying symmetric tensor evaluated on beta_1 copies of e_1, ...,
    beta_n copies of e_n and e_j.  The 1/k! normalization makes the entries
    exactly the tensor components; subspace membership tests are
    scale-invariant, so the constant only matters for round-trip checks.
    """
    beta = tuple(int(b) for b in beta)
    if p.k < 1 or len(beta) != p.n or sum(beta) != p.k - 1:
        raise ValueError("slot multi-index must have degree k-1")
    idx = monomial_index(p.n, p.k)
    kfact = factorial(p.k)
    out = np.zeros((p.m, p.n))
    for j in range(p.n):
        gamma = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
        out[:, j] = p.coeffs[:, idx[gamma]] * (_multiindex_factorial(gamma) / kfact)
    return out


def _hom_jacobian(p: HomPoly, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros((p.m, p.n))
    if p.k == 0:
        return out
    for j in range(p.n):
        out[:, j] = derive(p, j).evaluate(x)
    return out


@dataclass
class PolyMap:
    """Graded sum of homogeneous components, at most one per degree."""

    n: int
    m: int
    components: dict

    def __post_init__(self):
        for k, p in self.components.items():
            if p.n != self.n or p.m != self.m or p.k != k:
                raise ValueError("component dimensions disagree with the map")

    @classmethod
    def from_homs(cls, homs):
        homs = list(homs)
        if not homs:
            raise ValueError("need at least one homogeneous component")
        n, m = homs[0].n, homs[0].m
        comps = {}
        for p in homs:
            if p.k in comps:
                comps[p.k] = HomPoly(n, m, p.k, comps[p.k].coeffs + p.coeffs)
            else:
                comps[p.k] = p
        return cls(n, m, comps)

    def degree_component(self, k: int) -> HomPoly:
        return self.components.get(k, HomPoly.zero(self.n, self.m, k))

    def max_degree(self) -> int:
        return max(self.components, default=0)

    def evaluate(self, x) -> np.ndarray:
        out = np.zeros(self.m)
        for p in self.components.values():
            out += p.evaluate(x)
        return out


def jacobian(F, x) -> np.ndarray:
    """Jacobian matrix of a PolyMap (or a single HomPoly) at the point x."""
    if isinstance(F, HomPoly):
        return _hom_jacobian(F, x)
    out = np.zeros((F.m, F.n))
    for p in F.components.values():
        out += _hom_jacobian(p, x)
    return out


def fd_jacobian(f, x, step: float) -> np.ndarray:
    """Central-difference Jacobian of any callable f at the point x.

    Returns shape (len(f(x)), len(x)); column j is
    (f(x + step e_j) - f(x - step e_j)) / (2 step).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = np.zeros(x.size)
        h[j] = step
        cols.append((np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2 * step))
    return np.column_stack(cols)


# --- JSON form shared with the CLI ---------------------------------------
#
# { "n": ..., "m": ..., "terms": [ {"degree": k, "output": a, "exponents":
#   [...], "value": c}, ... ] }   with 1-based output index.

def polymap_to_json(F: PolyMap) -> dict:
    terms = []
    for k in sorted(F.components):
        p = F.components[k]
        basis = monomial_basis(F.n, k)
        for a in range(F.m):
            for i, beta in enumerate(basis):
                c = p.coeffs[a, i]
                if c != 0.0:
                    terms.append(
                        {
                            "degree": k,
                            "output": a + 1,
                            "exponents": list(beta),
                            "value": float(c),
                        }
                    )
    return {"n": F.n, "m": F.m, "terms": terms}


def polymap_from_json(data: dict) -> PolyMap:
    n, m = int(data["n"]), int(data["m"])
    comps = {}
    for term in data["terms"]:
        k = int(term["degree"])
        a = int(term["output"]) - 1
        beta = tuple(int(e) for e in term["exponents"])
        if len(beta) != n or sum(beta) != k or not 0 <= a < m:
            raise ValueError(f"malformed polynomial term: {term}")
        if k not in comps:
            comps[k] = HomPoly.zero(n, m, k)
        comps[k].coeffs[a, monomial_index(n, k)[beta]] += float(term["value"])
    return PolyMap(n, m, comps)
