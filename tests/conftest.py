import numpy as np
import pytest

from prolongation.matspace import make_subspace
from prolongation.symtensor import HomPoly, PolyMap, monomial_position


def skew_generators(n):
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = -1.0
            gens.append(E)
    return gens


def skew_subspace(n):
    return make_subspace(n, n, skew_generators(n))


def conformal_subspace(n):
    return make_subspace(n, n, [np.eye(n)] + skew_generators(n))


def well_conditioned(rng, k, smin=0.5, smax=2.0):
    """Random invertible k x k matrix with singular values in [smin, smax]."""
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return u @ np.diag(rng.uniform(smin, smax, size=k)) @ v


def random_subspace(rng, n, m, dim):
    return make_subspace(n, m, [rng.standard_normal((m, n)) for _ in range(dim)])


def random_hompoly(rng, n, m, k):
    from math import comb

    return HomPoly(n, m, k, rng.standard_normal((m, comb(n + k - 1, k))))


def random_polymap(rng, n, m, max_degree):
    return PolyMap(n, m, {k: random_hompoly(rng, n, m, k) for k in range(max_degree + 1)})


def holomorphic_power(k):
    """The pair (real, imaginary) of (x1 + i x2)**k as a degree-k map of the
    plane, written out from the binomial expansion."""
    from math import comb

    p = HomPoly.zero(2, 2, k)
    for j in range(k + 1):
        c = comb(k, j) * (1j ** j)
        beta = (k - j, j)
        p.coeffs[:, monomial_position(beta)] = c.real, c.imag
    return p


def fd_jacobian(F, x, n, m, step=1e-5):
    """Central finite differences, the independent derivative oracle."""
    J = np.zeros((m, n))
    for j in range(n):
        h = np.zeros(n)
        h[j] = step
        J[:, j] = (np.asarray(F(x + h)) - np.asarray(F(x - h))) / (2 * step)
    return J


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
