"""Degree-by-degree solution spaces of a linear Jacobian constraint.

Given a subspace V of m-by-n matrices, the degree-k space collects the
homogeneous polynomial maps whose slot matrices all lie in V; equivalently
(for k >= 2) the maps whose partial derivatives lie in the degree-(k-1)
space.  The chain of dimensions alpha_k, their sum alpha and the largest
nonzero degree delta are the invariants everything downstream consumes.

Two routes are provided on purpose: :func:`mk_direct` assembles the full
slot-membership system at a given degree, while :func:`mk_step` exploits
the derivative recursion and keeps each linear system small.  ``chain``
uses the recursion; the direct route is retained as an independent oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .matspace import MatrixSubspace, distance, row_complement, row_space_and_kernel
from .symtensor import (
    HomPoly,
    derivative_op,
    monomial_basis,
    monomial_index,
    polymap_to_json,
    PolyMap,
    slot_matrix,
)
from math import comb, factorial


@dataclass
class HomSolutionSpace:
    """Space of admissible homogeneous maps of one degree.

    ``rows`` holds the basis as orthonormal coefficient vectors, shape
    (dim, m * C(n+k-1, k)); every element has all its slot matrices in V
    up to the nullspace rank decisions.  ``perp`` holds orthonormal rows
    spanning the orthogonal complement of ``rows``, which the next
    recursion step needs; it comes from the same SVD as ``rows``.
    """

    degree: int
    n: int
    m: int
    rows: np.ndarray
    perp: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def basis(self) -> list:
        """The basis elements as homogeneous maps."""
        return [HomPoly.from_coeff_vector(self.n, self.m, self.degree, row) for row in self.rows]


@dataclass
class DeltaStatus:
    """Largest nonzero degree of the chain: finite, bounded below, or
    certified infinite through an obstruction witness."""

    status: str          # "finite" | "lower_bound" | "infinite_certified"
    value: int
    witness: object = None

    @classmethod
    def finite(cls, d):
        return cls("finite", d)

    @classmethod
    def lower_bound(cls, k_max):
        return cls("lower_bound", k_max)

    @classmethod
    def infinite(cls, witness, k_max):
        return cls("infinite_certified", k_max, witness)

    def to_json(self) -> dict:
        return {"status": self.status, "value": self.value}


@dataclass
class ChainReport:
    """Computed chain with its invariants.

    ``alpha_total`` is exact when delta is finite and a partial sum
    (lower bound) otherwise.
    """

    n: int
    m: int
    dim_v: int
    alpha: list
    alpha_total: int
    alpha_total_exact: bool
    delta: DeltaStatus
    spaces: list = field(repr=False)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "dim_v": self.dim_v,
            "alpha": list(self.alpha),
            "alpha_total": int(self.alpha_total),
            "alpha_total_exact": self.alpha_total_exact,
            "delta": self.delta.to_json(),
            "bases": [
                [polymap_to_json(PolyMap(self.n, self.m, {sp.degree: p})) for p in sp.basis]
                for sp in self.spaces
            ],
        }


def constants_space(n: int, m: int) -> HomSolutionSpace:
    """Degree-0 space: every constant map is admissible."""
    return HomSolutionSpace(0, n, m, np.eye(m), np.zeros((0, m)))


def mk_direct(V: MatrixSubspace, k: int) -> HomSolutionSpace:
    """Degree-k space from the full slot-membership linear system.

    Nullspace of the map sending a degree-k coefficient vector to the
    components of all its slot matrices along the orthogonal complement
    of V.  Degree 0 returns all constants.
    """
    n, m = V.n, V.m
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return constants_space(n, m)
    perp = row_complement(V.flat)  # (q, m*n)
    perp3 = perp.reshape(-1, m, n)
    idx = monomial_index(n, k)
    num_mono = comb(n + k - 1, k)
    kfact = factorial(k)
    blocks = []
    for beta in monomial_basis(n, k - 1):
        # slot pattern: coefficient of x**(beta+e_j) feeds matrix entry (:, j)
        pattern = np.zeros((n, num_mono))
        for j in range(n):
            gamma = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
            weight = 1.0
            for g in gamma:
                weight *= factorial(g)
            pattern[j, idx[gamma]] = weight / kfact
        rows = np.einsum("raj,jc->rac", perp3, pattern).reshape(perp.shape[0], m * num_mono)
        blocks.append(rows)
    system = np.vstack(blocks)
    perp_k, rows = row_space_and_kernel(system)
    return HomSolutionSpace(k, n, m, rows, perp_k)


def mk_step(V: MatrixSubspace, prev: HomSolutionSpace) -> HomSolutionSpace:
    """One recursion step: degree k maps whose partials lie in ``prev``.

    The recursion only characterizes degrees >= 2; from the constants it
    returns V itself as linear maps, which is the degree-1 space by
    definition.
    """
    n, m = V.n, V.m
    if prev.n != n or prev.m != m:
        raise ValueError("previous space does not match the subspace dimensions")
    k = prev.degree + 1
    if prev.degree == 0:
        # a degree-1 coefficient vector is exactly the flattened matrix
        return HomSolutionSpace(1, n, m, V.flat.copy(), row_complement(V.flat))
    width = m * comb(n + k - 1, k)
    if prev.dim == 0:
        # derivatives of a nonzero homogeneous map cannot all vanish
        return HomSolutionSpace(k, n, m, np.zeros((0, width)), np.eye(width))
    # complement inside degree-(k-1) coefficients, one (m, monomial) block per row
    r = prev.perp.shape[0]
    perp = prev.perp.reshape(r, m, comb(n + k - 2, k - 1))
    # the partial d_i p lies in prev iff perp annihilates its coefficients
    system = np.vstack([(perp @ derivative_op(n, k, i)).reshape(r, width) for i in range(n)])
    perp_k, rows = row_space_and_kernel(system)
    return HomSolutionSpace(k, n, m, rows, perp_k)


def chain(V: MatrixSubspace, k_max: int = 8) -> ChainReport:
    """Run the recursion until the chain dies or ``k_max`` is reached.

    Reports a lower bound rather than guessing infinity: certification of
    an infinite chain needs an obstruction witness and is handled by the
    detection module.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    spaces = [constants_space(V.n, V.m)]
    alpha = [V.m]
    delta = None
    for k in range(1, k_max + 1):
        nxt = mk_step(V, spaces[-1])
        spaces.append(nxt)
        alpha.append(nxt.dim)
        if nxt.dim == 0:
            delta = DeltaStatus.finite(k - 1)
            break
    exact = delta is not None
    if delta is None:
        delta = DeltaStatus.lower_bound(k_max)
    return ChainReport(
        n=V.n,
        m=V.m,
        dim_v=V.dim,
        alpha=alpha,
        alpha_total=int(sum(alpha)),
        alpha_total_exact=exact,
        delta=delta,
        spaces=spaces,
    )


def membership_residual(p: HomPoly, V: MatrixSubspace) -> float:
    """Largest slot-matrix distance from V over all degree-(k-1) slot fills."""
    if p.k == 0:
        return 0.0
    worst = 0.0
    for beta in monomial_basis(p.n, p.k - 1):
        worst = max(worst, distance(slot_matrix(p, beta), V))
    return worst
