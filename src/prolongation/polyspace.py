"""Polynomial solution bases and sampled verification of the constraint.

When the chain terminates, the admissible maps form a finite-dimensional
space of polynomials; this module assembles a basis, extracts the subspace
with vanishing linear part, and checks membership of Jacobians numerically
on sampled points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES
from .matspace import MatrixSubspace, distance, nullspace_rows
from .prolong import ChainReport
from .symtensor import HomPoly, PolyMap, fd_jacobian, hom_dim, jacobian, polymap_to_json


@dataclass
class PolyBasis:
    """Linearly independent polynomial maps with their degree bookkeeping.

    ``degrees[i]`` records the top degree of ``elements[i]``; for graded
    bases each element is homogeneous of that degree.
    """

    n: int
    m: int
    elements: list
    degrees: list

    @property
    def dim(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "degrees": list(self.degrees),
            "elements": [polymap_to_json(F) for F in self.elements],
        }


def solution_basis(V: MatrixSubspace, report: ChainReport) -> PolyBasis:
    """Concatenate the homogeneous bases of a finite chain into one basis."""
    if report.delta.status != "finite":
        raise ValueError("a solution basis requires a finite chain")
    elements, degrees = [], []
    for space in report.spaces:
        for p in space.basis:
            elements.append(PolyMap(report.n, report.m, {space.degree: p}))
            degrees.append(space.degree)
    assert len(elements) == report.alpha_total
    return PolyBasis(report.n, report.m, elements, degrees)


def _full_vector(F: PolyMap, max_degree: int) -> np.ndarray:
    parts = [F.degree_component(k).coeff_vector() for k in range(max_degree + 1)]
    return np.concatenate(parts)


def reduced_basis(basis: PolyBasis) -> PolyBasis:
    """Basis of the part of the span whose degree-1 component vanishes."""
    if basis.dim == 0:
        return PolyBasis(basis.n, basis.m, [], [])
    n, m = basis.n, basis.m
    top = max(max(F.max_degree() for F in basis.elements), 1)
    rows = np.array([_full_vector(F, top) for F in basis.elements])
    offsets = np.cumsum([0] + [hom_dim(n, m, k) for k in range(top + 1)])
    lin_block = rows[:, offsets[1]:offsets[2]]
    combos = nullspace_rows(lin_block.T)  # combinations with no linear part
    new_rows = combos @ rows
    new_rows[:, offsets[1]:offsets[2]] = 0.0
    elements, degrees = [], []
    for row in new_rows:
        comps = {}
        for k in range(top + 1):
            block = row[offsets[k]:offsets[k + 1]]
            if np.any(block != 0.0):
                comps[k] = HomPoly.from_coeff_vector(n, m, k, block)
        if not comps:
            comps = {0: HomPoly.zero(n, m, 0)}
        F = PolyMap(n, m, comps)
        elements.append(F)
        degrees.append(F.max_degree())
    return PolyBasis(n, m, elements, degrees)


@dataclass
class MembershipReport:
    max_residual: float
    samples: int
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {
            # strict JSON has no NaN or Infinity; such a residual never passes
            "max_residual": float(self.max_residual) if math.isfinite(self.max_residual) else None,
            "samples": self.samples,
            "tol": self.tol,
            "pass": self.passed,
        }


def _sample_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    return radius * rng.uniform() ** (1.0 / n) * g


def verify_membership(F, V: MatrixSubspace, samples: int = 100,
                      radius: float = 1.0, tol: float = 1e-9,
                      seed: int = 0) -> MembershipReport:
    """Sample the ball and record the worst Jacobian distance from V.

    ``F`` is a PolyMap (exact Jacobian) or any callable R^n -> R^m, in which
    case central finite differences are used.  Failure, including a
    non-finite residual, is a report outcome, not an error.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if samples < 1 or not radius > 0:
        raise ValueError("need at least one sample and a positive radius")
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(samples):
        x = _sample_ball(rng, V.n, radius)
        if isinstance(F, PolyMap):
            J = jacobian(F, x)
        else:
            J = fd_jacobian(F, x, TOLERANCES.fd_step)
        residuals.append(distance(J, V))
    worst = float(np.max(residuals))  # a NaN propagates and fails the check
    return MembershipReport(max_residual=worst, samples=samples,
                            tol=tol, passed=worst <= tol)
