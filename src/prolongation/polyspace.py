"""Polynomial solution bases and sampled verification of the constraint.

When the chain terminates, the admissible maps form a finite-dimensional
space of polynomials; this module assembles a basis, extracts the subspace
with vanishing linear part, and checks membership of Jacobians numerically
on sampled points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matspace import MatrixSubspace, distances
from .prolong import ChainReport
from .symtensor import PolyMap, jacobian, polymap_to_json


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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "degrees": list(self.degrees),
            "elements": [polymap_to_json(F) for F in self.elements],
        }


def solution_basis(report: ChainReport) -> PolyBasis:
    """Concatenate the homogeneous bases of a finite chain into one basis."""
    if report.delta.status != "finite":
        raise ValueError("a solution basis requires a finite chain")
    elements, degrees = [], []
    for space in report.spaces:
        for p in space.basis:
            elements.append(PolyMap(report.n, report.m, {space.degree: p}))
            degrees.append(space.degree)
    return PolyBasis(report.n, report.m, elements, degrees)


def reduced_basis(basis: PolyBasis) -> PolyBasis:
    """Basis of the part of the span whose degree-1 component vanishes.

    For a graded basis whose degree-1 elements are independent, as
    ``solution_basis`` gives, that part is spanned by the elements of every
    other degree, kept here in their order.
    """
    elements, degrees = [], []
    for F, d in zip(basis.elements, basis.degrees):
        if any(k != d and not p.is_zero() for k, p in F.components.items()):
            raise ValueError(f"basis element is not homogeneous of degree {d}")
        if d != 1:
            elements.append(F)
            degrees.append(d)
    return PolyBasis(basis.n, basis.m, elements, degrees)


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


def _sample_ball(rng: np.random.Generator, n: int, radius: float, count: int) -> np.ndarray:
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return radius * rng.uniform(size=(count, 1)) ** (1.0 / n) * g


def verify_membership(F, V: MatrixSubspace, samples: int = 100,
                      radius: float = 1.0, tol: float = 1e-9,
                      seed: int = 0) -> MembershipReport:
    """Sample the ball and record the worst Jacobian distance from V.

    ``F`` is a PolyMap (or a HomPoly), whose Jacobian is exact.  Failure,
    including a non-finite residual, is a report outcome, not an error.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be finite and positive")
    if samples < 1 or not 0 < radius < math.inf:
        raise ValueError("need at least one sample and a finite positive radius")
    rng = np.random.default_rng(seed)
    points = _sample_ball(rng, V.n, radius, samples)
    J = jacobian(F, points)
    worst = float(np.max(distances(J, V)))  # a NaN propagates and fails the check
    return MembershipReport(max_residual=worst, samples=samples,
                            tol=tol, passed=worst <= tol)
