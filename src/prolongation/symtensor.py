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
from math import comb, factorial, prod

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
def derivative_op(n: int, k: int) -> tuple:
    """d/dx_j from degree k to k-1 as two read-only integer arrays, each of
    shape (C(n+k-2, k-1), n): for the b-th degree-(k-1) multi-index beta,
    ``index[b, j]`` is the position of beta + e_j in ``monomial_basis(n, k)``
    and ``exponent[b, j]`` is beta_j + 1, so coefficient b of d_j p is
    ``exponent[b, j] * coeffs[:, index[b, j]]``."""
    if k < 1:
        raise ValueError("cannot differentiate degree-0 coefficients")
    idx = monomial_index(n, k)
    index = np.array([[idx[beta[:j] + (beta[j] + 1,) + beta[j + 1:]] for j in range(n)]
                      for beta in monomial_basis(n, k - 1)], dtype=np.int64)
    exponent = np.array(monomial_basis(n, k - 1), dtype=np.int64) + 1
    index.setflags(write=False)
    exponent.setflags(write=False)
    return index, exponent


def derivative_coords(rows, n: int, m: int, k: int) -> np.ndarray:
    """Partials of a stack of degree-k coefficient rows, shape (dim, m,
    C(n+k-2, k-1), n): entry [i, a, b, j] is coefficient b of d_j of output a
    of row i, so [i, :, b, :] is row i's Jacobian on the b-th monomial."""
    index, exponent = derivative_op(n, k)
    return np.asarray(rows, dtype=float).reshape(-1, m, comb(n + k - 1, k))[:, :, index] * exponent


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
    """Partial derivative d p / d x_i, one degree down, in C order for jacobian."""
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


def slot_matrices(p: HomPoly) -> np.ndarray:
    """Every slot matrix of ``p``, shape (C(n+k-2, k-1), m, n), in the order of
    ``monomial_basis(n, k-1)``: as gamma!/k! = ``exponent[b, j]`` * beta!/k!
    for gamma = beta + e_j, matrix b is beta!/k! times p's Jacobian on the b-th
    degree-(k-1) monomial, block ``[:, b, :]`` of :func:`derivative_coords`."""
    if p.k < 1:
        raise ValueError("a degree-0 map has no slot matrices")
    scale = [prod(map(factorial, beta)) / factorial(p.k) for beta in monomial_basis(p.n, p.k - 1)]
    partials = derivative_coords(p.coeffs, p.n, p.m, p.k)[0].transpose(1, 0, 2)
    return partials * np.array(scale)[:, None, None]


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
    return slot_matrices(p)[monomial_index(p.n, p.k - 1)[beta]]


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
    """Jacobian of a PolyMap (or a single HomPoly): shape (m, n) at one
    point, (N, m, n) at each row of an (N, n) stack of points.

    Per component, the degree-(k-1) monomials are evaluated once at every
    point, and each partial's coefficients are applied to them by stacked
    matrix-vector products, the ones a single point takes.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != F.n:
        raise ValueError("point has wrong dimension")
    points = x.reshape(-1, F.n)
    out = np.zeros((F.n, len(points), F.m))
    for p in [F] if isinstance(F, HomPoly) else F.components.values():
        if p.k == 0:
            continue
        monomials = np.prod(points[:, None, :] ** exponent_array(p.n, p.k - 1), axis=2)
        # a C-ordered copy: the products below then round as on a stack of derive(p, j)
        partials = np.moveaxis(derivative_coords(p.coeffs, p.n, p.m, p.k)[0], -1, 0).copy()
        out += (partials[:, None] @ monomials[:, :, None])[..., 0]
    return np.moveaxis(out, 0, -1).reshape(x.shape[:-1] + (F.m, F.n))


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

def _json_integer(value, key: str, minimum: int) -> int:
    """An integer field of an input file, at least ``minimum``; an integral
    float such as ``2.0`` is accepted, while a bool, a fractional value or a
    non-number raises ValueError naming the field."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < minimum:
        raise ValueError(f"field {key!r} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def json_fields(data: dict, key: str) -> tuple[int, int, list]:
    """The ``n`` and ``m`` fields of an input file, each an integer >= 1, and its
    list field ``key``; a missing field or a top level not an object is an error."""
    if not isinstance(data, dict):
        raise ValueError(f"the top level must be an object, got {type(data).__name__}")
    for name in ("n", "m", key):
        if name not in data:
            raise ValueError(f"missing field {name!r}")
    if not isinstance(data[key], list):
        raise ValueError(f"field {key!r} must be a list")
    return _json_integer(data["n"], "n", 1), _json_integer(data["m"], "m", 1), data[key]


def polymap_to_json(F: PolyMap) -> dict:
    terms = []
    for k in sorted(F.components):
        p = F.components[k]
        basis = monomial_basis(F.n, k)
        for a, i in zip(*np.nonzero(p.coeffs)):
            terms.append({"degree": k, "output": int(a) + 1,
                          "exponents": list(basis[i]), "value": float(p.coeffs[a, i])})
    return {"n": F.n, "m": F.m, "terms": terms}


def polymap_from_json(data: dict) -> PolyMap:
    n, m, terms = json_fields(data, "terms")
    comps = {}
    for term in terms:
        k = _json_integer(term["degree"], "degree", 0)
        a = _json_integer(term["output"], "output", 1) - 1
        beta = tuple(_json_integer(e, "exponents", 0) for e in term["exponents"])
        if len(beta) != n or sum(beta) != k or not 0 <= a < m:
            raise ValueError(f"malformed polynomial term: {term}")
        if k not in comps:
            comps[k] = HomPoly.zero(n, m, k)
        comps[k].coeffs[a, monomial_index(n, k)[beta]] += float(term["value"])
    return PolyMap(n, m, comps)
