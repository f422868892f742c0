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
from itertools import combinations
from math import comb, factorial, prod

import numpy as np


@lru_cache(maxsize=None)
def monomial_basis(n: int, k: int) -> np.ndarray:
    """The monomial table: every exponent row of degree ``k`` in ``n`` variables,
    a read-only int64 array of shape (C(n+k-1, k), n), lexicographically
    greater rows first: (2,0), (1,1), (0,2) for n=2, k=2.  Each row places
    n-1 bars among n+k-1 slots; reverse lex order of the bars gives that order."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    bars = np.array(list(combinations(range(n + k - 1), n - 1)), dtype=np.int64)
    basis = np.diff(bars, axis=1, prepend=-1, append=n + k - 1)[::-1] - 1
    basis.setflags(write=False)
    return basis


def monomial_position(exponents) -> np.ndarray:
    """Positions of an (..., n) array of exponent rows beta, each in the table
    of its own degree: the sum over b = 1, ..., n-1 of C(r_b + b - 1, b), the
    monomials of that degree with more than r_b in their last b variables."""
    exponents = np.asarray(exponents, dtype=np.int64)
    n = exponents.shape[-1]
    tail = np.cumsum(exponents[..., :0:-1], axis=-1)  # tail[..., b - 1] is r_b
    count = np.ones_like(tail)
    position = np.zeros(tail.shape[:-1], dtype=np.int64)
    for b in range(1, n):
        count = count * (tail + (b - 1)) // b  # C(r + b - 1, b) at every r, exactly
        position += count[..., b - 1]
    return position


@lru_cache(maxsize=None)
def derivative_op(n: int, k: int) -> tuple:
    """d/dx_j from degree k to k-1 as two read-only integer arrays, each of
    shape (C(n+k-2, k-1), n): for row b of ``monomial_basis(n, k-1)``, beta,
    ``index[b, j]`` is the position of beta + e_j in ``monomial_basis(n, k)``
    and ``exponent[b, j]`` is beta_j + 1, so coefficient b of d_j p is
    ``exponent[b, j] * coeffs[:, index[b, j]]``.  Both are arithmetic on the
    table: one :func:`monomial_position` call and one addition."""
    if k < 1:
        raise ValueError("cannot differentiate degree-0 coefficients")
    lower = monomial_basis(n, k - 1)
    index = monomial_position(lower[:, None, :] + np.eye(n, dtype=np.int64))
    exponent = lower + 1
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
    the a-th output component against the rows of ``monomial_basis(n, k)``,
    so p_a(x) = sum_beta coeffs[a, monomial_position(beta)] * x**beta.
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

    def is_zero(self) -> bool:
        return not self.coeffs.any()


def slot_matrices(p: HomPoly) -> np.ndarray:
    """Every slot matrix of ``p``, shape (C(n+k-2, k-1), m, n), in the order of
    ``monomial_basis(n, k-1)``: as gamma!/k! = ``exponent[b, j]`` * beta!/k!
    for gamma = beta + e_j, matrix b is beta!/k! times p's Jacobian on the b-th
    degree-(k-1) monomial, block ``[:, b, :]`` of :func:`derivative_coords`."""
    if p.k < 1:
        raise ValueError("a degree-0 map has no slot matrices")
    scale = [prod(map(factorial, beta)) / factorial(p.k)
             for beta in monomial_basis(p.n, p.k - 1).tolist()]
    partials = derivative_coords(p.coeffs, p.n, p.m, p.k)[0].transpose(1, 0, 2)
    return partials * np.array(scale)[:, None, None]


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
        monomials = np.prod(points[:, None, :] ** monomial_basis(p.n, p.k - 1), axis=2)
        # a C-ordered copy: the products below then round as on each partial's own array
        partials = np.moveaxis(derivative_coords(p.coeffs, p.n, p.m, p.k)[0], -1, 0).copy()
        out += (partials[:, None] @ monomials[:, :, None])[..., 0]
    return np.moveaxis(out, 0, -1).reshape(x.shape[:-1] + (F.m, F.n))


# --- JSON form shared with the CLI ---------------------------------------
#
# { "n": ..., "m": ..., "terms": [ {"degree": k, "output": a, "exponents":
#   [...], "value": c}, ... ] }   with 1-based output index.

def _json_integer(value, key: str, minimum: int) -> int:
    """An integer field of an input file, at least ``minimum``; an integral
    float such as ``2.0`` is accepted, while a bool, a fractional value or a
    non-number raises ValueError naming the field."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if type(number) is not int or number < minimum:
        raise ValueError(f"field {key!r} must be an integer >= {minimum}, got {value!r}")
    return number


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


def json_entries(entries: list, key: str, fields: tuple) -> list:
    """The entries of list field ``key``, each an object that holds every
    name in ``fields``; otherwise ValueError naming the entry's index."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i} of {key!r} must be an object, got {type(entry).__name__}")
        for name in fields:
            if name not in entry:
                raise ValueError(f"entry {i} of {key!r} has no field {name!r}")
    return entries


def polymap_to_json(F: PolyMap) -> dict:
    terms = []
    for k in sorted(F.components):
        coeffs = F.components[k].coeffs
        outputs, columns = np.nonzero(coeffs)
        # tolist() gives Python ints and floats, so the JSON bytes do not depend on numpy
        for a, beta, value in zip(outputs.tolist(), monomial_basis(F.n, k)[columns].tolist(),
                                  coeffs[outputs, columns].tolist()):
            terms.append({"degree": k, "output": a + 1, "exponents": beta, "value": value})
    return {"n": F.n, "m": F.m, "terms": terms}


def polymap_from_json(data: dict) -> PolyMap:
    n, m, terms = json_fields(data, "terms")
    comps, entries, rows = {}, [], []
    for i, term in enumerate(json_entries(terms, "terms", ("degree", "output", "exponents", "value"))):
        if not isinstance(term["exponents"], list):
            raise ValueError(f"field 'exponents' of entry {i} of 'terms' must be a list, "
                             f"got {type(term['exponents']).__name__}")
        k = _json_integer(term["degree"], "degree", 0)
        a = _json_integer(term["output"], "output", 1) - 1
        beta = [_json_integer(e, "exponents", 0) for e in term["exponents"]]
        if len(beta) != n or sum(beta) != k or not 0 <= a < m:
            raise ValueError(f"malformed polynomial term: {term}")
        if k not in comps:
            comps[k] = HomPoly.zero(n, m, k)
        entries.append((k, a, float(term["value"])))
        rows.append(beta)
    # a position does not depend on the degree, so one call places every term
    positions = monomial_position(np.array(rows, dtype=np.int64).reshape(-1, n)).tolist()
    for (k, a, value), i in zip(entries, positions):
        comps[k].coeffs[a, i] += value
    return PolyMap(n, m, comps)
