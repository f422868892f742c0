"""Degree-by-degree solution spaces of a linear Jacobian constraint.

Given a subspace V of m-by-n matrices, the degree-k space collects the
homogeneous polynomial maps whose slot matrices all lie in V; equivalently
(for k >= 2) the maps whose partial derivatives lie in the degree-(k-1)
space.  The chain of dimensions alpha_k, their sum alpha and the largest
nonzero degree delta are the invariants everything downstream consumes.

Each degree has two exact constructions, and :func:`mk_step` takes the one
with fewer unknowns.  :func:`mk_direct` solves the definition, the
slot-membership system over all ``m * C(n+k-1, k)`` coefficients of a
degree-k map, which suits a space that fills most of its degree.
:func:`delta_step` solves for the coordinates of the partials in the
previous degree's basis, Spencer's delta complex, whose size follows the
dimension of the space instead.  Each is the other's oracle.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .matspace import (MatrixSubspace, distances, full_row_rank, nullspace_rows, row_complement,
                       row_space)
from .symtensor import (HomPoly, derivative_coords, derivative_op, polymap_to_json, PolyMap,
                        slot_matrices)
from math import comb


@dataclass
class HomSolutionSpace:
    """Space of admissible homogeneous maps of one degree.

    ``rows`` holds the basis as orthonormal coefficient vectors, shape
    (dim, m * C(n+k-1, k)); every element has all its slot matrices in V
    up to the nullspace rank decisions.  A construction stores ``_rows``, or
    ``_perp``, rows of full row rank spanning the orthogonal complement of
    ``rows``, from which :func:`row_complement` builds ``rows`` on first use.
    """

    degree: int
    n: int
    m: int
    _rows: np.ndarray | None = field(default=None, repr=False)
    _perp: np.ndarray | None = field(default=None, repr=False)

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = row_complement(self._perp)
        return self._rows

    @property
    def dim(self) -> int:
        if self._rows is not None:
            return self._rows.shape[0]
        return self._perp.shape[1] - self._perp.shape[0]

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

    def to_json(self) -> dict:
        return {"status": self.status, "value": self.value}


@dataclass
class ChainReport:
    """Computed chain; its integers are read from its spaces.

    ``spaces`` holds degrees 0, 1, ... up to the first empty space or
    ``k_max``, whichever comes first.
    """

    n: int
    m: int
    spaces: list = field(repr=False)

    @property
    def alpha(self) -> list:
        return [space.dim for space in self.spaces]

    @property
    def dim_v(self) -> int:
        return self.spaces[1].dim

    @property
    def delta(self) -> DeltaStatus:
        """Finite at the degree before an empty last space, otherwise a lower
        bound at the last degree computed."""
        if self.spaces[-1].dim == 0:
            return DeltaStatus("finite", len(self.spaces) - 2)
        return DeltaStatus("lower_bound", len(self.spaces) - 1)

    @property
    def alpha_total(self) -> int:
        """The sum of ``alpha``: exact when delta is finite, a lower bound otherwise."""
        return int(sum(self.alpha))

    @property
    def alpha_total_exact(self) -> bool:
        return self.delta.status == "finite"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "dim_v": self.dim_v,
            "alpha": list(self.alpha),
            "alpha_total": self.alpha_total,
            "alpha_total_exact": self.alpha_total_exact,
            "delta": self.delta.to_json(),
            "bases": [
                [polymap_to_json(PolyMap(self.n, self.m, {sp.degree: p})) for p in sp.basis]
                for sp in self.spaces
            ],
        }


def constants_space(n: int, m: int) -> HomSolutionSpace:
    """Degree-0 space: every constant map is admissible."""
    return HomSolutionSpace(0, n, m, np.eye(m))


def mk_direct(V: MatrixSubspace, k: int) -> HomSolutionSpace:
    """Degree-k space from the full slot-membership linear system.

    Nullspace of the map sending a degree-k coefficient vector to the
    components of all its slot matrices along the orthogonal complement
    of V.  Slot matrix b times k!/beta! has column j equal to
    ``exponent[b, j]`` times coefficient ``index[b, j]`` (the
    :func:`derivative_op` table), a row scaling that keeps the kernel and
    keeps every entry between 1 and k.  The row space of the system is the
    complement of the space, and it is all the step stores: the system
    itself when :func:`full_row_rank` certifies it, which runs no SVD and
    bounds its condition number, else its :func:`row_space` by one thin SVD.
    Degree 0 returns all constants.
    """
    n, m = V.n, V.m
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return constants_space(n, m)
    perp = row_complement(V.flat).reshape(-1, m, n)  # (q, m, n)
    index, exponent = derivative_op(n, k)
    monomials = comb(n + k - 1, k)
    # slot b of a map reads coefficient index[b, j] of each output into column j
    system = np.zeros((len(index), len(perp), m, monomials))
    system[np.arange(len(index))[:, None], :, :, index] = (
        np.moveaxis(perp, 2, 0) * exponent[:, :, None, None])
    system = system.reshape(-1, m * monomials)
    return HomSolutionSpace(k, n, m, _perp=system if full_row_rank(system) else row_space(system))


def _step_degree(V: MatrixSubspace, prev: HomSolutionSpace) -> int:
    if prev.n != V.n or prev.m != V.m:
        raise ValueError("previous space does not match the subspace dimensions")
    return prev.degree + 1


def delta_step(V: MatrixSubspace, prev: HomSolutionSpace) -> HomSolutionSpace:
    """Degree k >= 2 maps whose partials lie in ``prev``, solved in the
    coordinates of ``prev``'s basis.

    The unknowns are the coordinates c_i of q_i = d_i p in ``prev.rows``,
    n * dim(prev) of them.  The q_i are the partials of one map iff
    d_j q_i = d_i q_j for every i < j, and that map is
    p = (1/k) sum_i x_i q_i by Euler's formula.  The lifted kernel is
    orthonormalized by QR, so the step still runs a single SVD.
    """
    k = _step_degree(V, prev)
    if k < 2:
        raise ValueError("the recursion characterizes degrees >= 2")
    n, m, dim = V.n, V.m, prev.dim
    above = comb(n + k - 2, k - 1)
    below = m * comb(n + k - 3, k - 2)
    # partials[j] sends c_i to the degree-(k-2) coefficients of d_j q_i
    coords = derivative_coords(prev.rows, n, m, k - 1)
    partials = [coords[..., j].reshape(dim, below).T for j in range(n)]
    pairs = list(combinations(range(n), 2))
    system = np.zeros((len(pairs) * below, n * dim))
    for block, (i, j) in enumerate(pairs):
        band = system[block * below:(block + 1) * below]
        band[:, i * dim:(i + 1) * dim] = partials[j]
        band[:, j * dim:(j + 1) * dim] = -partials[i]
    kernel = nullspace_rows(system)
    q = (kernel.reshape(len(kernel), n, dim) @ prev.rows).reshape(len(kernel), n, m, above)
    monomials = comb(n + k - 1, k)
    lifted = np.zeros((len(kernel), m, monomials))
    for i, column in enumerate(derivative_op(n, k)[0].T):
        lifted[:, :, column] += q[:, i] / k  # x_i times lower monomial b is monomial column[b]
    orthonormal, _ = np.linalg.qr(lifted.reshape(len(kernel), m * monomials).T)
    return HomSolutionSpace(k, n, m, np.ascontiguousarray(orthonormal.T))


def mk_step(V: MatrixSubspace, prev: HomSolutionSpace) -> HomSolutionSpace:
    """One recursion step: degree k maps whose partials lie in ``prev``.

    The recursion only characterizes degrees >= 2; from the constants it
    returns V itself as linear maps, which is the degree-1 space by
    definition.  Above that, the step runs :func:`delta_step` when it has
    fewer unknowns, ``n * dim(prev) < m * C(n+k-1, k)``, and solves degree k
    by :func:`mk_direct` otherwise, reading nothing of ``prev`` but its
    degree and dimension.
    """
    k = _step_degree(V, prev)
    n, m = V.n, V.m
    if prev.degree == 0:
        # a degree-1 coefficient vector is exactly the flattened matrix
        return HomSolutionSpace(1, n, m, V.flat.copy())
    if prev.dim == 0:
        # derivatives of a nonzero homogeneous map cannot all vanish
        return HomSolutionSpace(k, n, m, np.zeros((0, m * comb(n + k - 1, k))))
    if n * prev.dim < m * comb(n + k - 1, k):
        return delta_step(V, prev)
    return mk_direct(V, k)


def chain(V: MatrixSubspace, k_max: int = 8) -> ChainReport:
    """Run the recursion until the chain dies or ``k_max`` is reached.

    Reports a lower bound rather than guessing infinity: certification of
    an infinite chain needs an obstruction witness and is handled by the
    detection module.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    spaces = [constants_space(V.n, V.m)]
    for _ in range(k_max):
        spaces.append(mk_step(V, spaces[-1]))
        if spaces[-1].dim == 0:
            break
    return ChainReport(V.n, V.m, spaces)


def membership_residual(p: HomPoly, V: MatrixSubspace) -> float:
    """Largest slot-matrix distance from V over all degree-(k-1) slot fills."""
    if p.k == 0:
        return 0.0
    return float(np.max(distances(slot_matrices(p), V)))
