"""Detection and certification of the two infiniteness obstructions.

A subspace V of m-by-n matrices supports an infinite-dimensional solution
family exactly when it contains a rank-one operator psi (x) w, or a 2-plane
of the form P W Q where W is spanned by the identity and the rotation by
ninety degrees acting on a fixed 2-plane (padded by zeros) and P, Q are
invertible.  Both are rank-one elements of V (x) C.  The detector below is
one best-effort multi-start search there, whose positive results are
certified; absence of a witness is inconclusive, never a proof of finiteness.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES
from .matspace import (
    MatrixSubspace,
    distance,
    largest_principal_angle,
    make_subspace,
    rank_from_singular_values,
)
from .prolong import ChainReport, DeltaStatus, chain


class InternalInconsistencyError(RuntimeError):
    """Chain says finite but a certified witness exists: tolerances are off."""


@dataclass
class RankOneWitness:
    psi: np.ndarray       # unit covector, length n
    w: np.ndarray         # unit vector, length m
    residual: float

    def matrix(self) -> np.ndarray:
        return np.outer(self.w, self.psi)

    def to_json(self) -> dict:
        return {"type": "rank_one", "psi": self.psi.tolist(), "w": self.w.tolist(),
                "residual": float(self.residual)}


@dataclass
class ComplexPairWitness:
    A: np.ndarray
    B: np.ndarray
    residuals: dict | None = None
    P: np.ndarray | None = None
    Q: np.ndarray | None = None

    def to_json(self) -> dict:
        out = {"type": "complex_pair", "A": self.A.tolist(), "B": self.B.tolist()}
        if self.P is not None:
            out["P"] = self.P.tolist()
        if self.Q is not None:
            out["Q"] = self.Q.tolist()
        if self.residuals is not None:
            out["residuals"] = {k: float(v) for k, v in self.residuals.items()}
        return out


def complex_structure_plane(m: int, n: int) -> MatrixSubspace:
    """The reference 2-plane: identity and quarter-turn on the first two
    coordinates, zero elsewhere.  Requires m, n >= 2."""
    if m < 2 or n < 2:
        raise ValueError("the reference plane needs m, n >= 2")
    I_pad = np.zeros((m, n))
    I_pad[0, 0] = I_pad[1, 1] = 1.0
    J_pad = np.zeros((m, n))
    J_pad[0, 1] = -1.0
    J_pad[1, 0] = 1.0
    return make_subspace(n, m, [I_pad, J_pad])


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(restart)])


# nothing calls it; perfbench/tracing.py still reads and rebinds the name
minimize = None


# --- the rank-one search in V (x) C ----------------------------------------

def _tangent_system(V: MatrixSubspace, u: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """[V.basis | -T], T the cone's tangents u_k vh_0^T, u_0 vh_l^T (k, l >= 1)."""
    tangent = np.concatenate([u[:, 1:].T[:, :, None] * vh[0],
                              u[:, 0][:, None] * vh[1:, None, :]])
    return np.hstack([V.flat.T, -tangent.reshape(len(tangent), -1).T])


def _polish(V: MatrixSubspace, X: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Polish a stack of unit elements X[i] of V (x) C toward the rank-one cone.

    Alternating projection between the cone and V runs on the whole stack
    in lockstep, one stacked SVD per step.  A member leaves the stack when
    its sigma_2/sigma_1 has not halved since the last end of a
    ``polish_stall_window`` of steps, or when the ratio falls below
    ``polish_newton_ratio``; it then finishes alone with :func:`_newton`.
    Each member follows, bit for bit, the trajectory it would follow in a
    stack of one.  Returns each member's best iterate and its ratio, in
    stack order.
    """
    tol = TOLERANCES
    out = [None] * len(X)
    live = np.arange(len(X))
    mark = np.full(len(X), np.inf)
    for step in itertools.count():
        if not live.size:
            return out
        u, s, vh = np.linalg.svd(X)
        ratio = s[:, 1] / s[:, 0]
        done = ratio < tol.polish_newton_ratio
        for i in np.flatnonzero(done):
            out[live[i]] = _newton(V, X[i], u[i], s[i], vh[i], ratio[i])
        if step % tol.polish_stall_window == 0:
            stalled = ~done & (ratio > mark / 2)
            for i in np.flatnonzero(stalled):
                out[live[i]] = X[i], ratio[i]
            done |= stalled
            mark = ratio
        keep = ~done
        live, mark, u, s, vh = live[keep], mark[keep], u[keep], s[keep], vh[keep]
        # project s_1 u_1 vh_1^T onto V, per member; these matmuls and the
        # vecdot norm round as V.flat @ v, tensordot and np.linalg.norm do on
        # one matrix (a gemm against V.flat.T, or a norm over axes, does not);
        # np.vecdot is why the package needs numpy 2.0
        top = s[:, :1, None] * (u[:, :, :1] * vh[:, None, 0])
        coef = np.matmul(V.flat, top.reshape(len(live), V.m * V.n, 1))
        Y = np.matmul(coef.reshape(len(live), 1, V.dim), V.flat)
        # never zero: |Y| >= <X, Y> = s_1^2 >= 1/min(m, n) for a unit X in V (x) C
        norm = np.sqrt(np.vecdot(Y.real, Y.real) + np.vecdot(Y.imag, Y.imag))
        X = (Y / norm[:, :, None]).reshape(-1, V.m, V.n)


def _newton(V: MatrixSubspace, X: np.ndarray, u: np.ndarray, s: np.ndarray,
            vh: np.ndarray, ratio: float) -> tuple[np.ndarray, float]:
    """Newton steps from X, whose SVD is (u, s, vh): intersect V with the
    projective tangent plane of the cone at the nearest rank-one matrix
    while sigma_2/sigma_1 falls; returns the best iterate and its ratio."""
    best, best_ratio = X, ratio
    while True:
        target = s[0] * np.outer(u[:, 0], vh[0]).ravel()
        coef = np.linalg.lstsq(_tangent_system(V, u, vh), target, rcond=None)[0][:V.dim]
        X = np.tensordot(coef, V.basis, axes=1)
        X /= np.linalg.norm(X)
        u, s, vh = np.linalg.svd(X)
        ratio = s[1] / s[0]
        if not ratio < best_ratio:
            return best, best_ratio
        best, best_ratio = X, ratio


def _starts(V: MatrixSubspace, seed: int, restarts: int) -> np.ndarray:
    """The stack of the restarts' unit random complex combinations of the
    basis, shape (max(restarts, 0), m, n)."""
    starts = []
    for r in range(restarts):
        rng = _restart_rng(seed, r)
        c = np.empty(V.dim, dtype=complex)
        c.real, c.imag = rng.standard_normal((2, V.dim))
        starts.append(np.tensordot(c / np.linalg.norm(c), V.basis, axes=1))
    return np.array(starts).reshape(-1, V.m, V.n)


def _search(V: MatrixSubspace, seed: int, restarts: int):
    """Multi-start search of V (x) C for rank-one elements, yielding both
    witnesses; returns ``(rank_one, complex_pair)``, each None when nothing
    verified.

    Each restart draws a random complex combination of the basis, and
    :func:`_polish` polishes all of them as one stack.  From each polished
    X, in restart order, the phase is rotated out: ``R = Re(X exp(-i theta))``
    with ``theta`` half the argument of the sum of the squared entries, and
    the R with the least sigma_2/sigma_1 over all restarts is offered to
    :func:`verify_rank_one`; a rank-one X neither isolated nor real up to a
    phase has R polished first.
    A complex rank-one element z zeta^T of V (x) C, with z = a + ib and
    zeta = c + id, has real and imaginary parts [a b] diag(1, -1) [c d]^T and
    [a b] [[0, 1], [1, 0]] [c d]^T; unless a factor is real up to a phase,
    they span a plane equivalent to the reference one, so the first
    (Re X, Im X) that passes :func:`verify_complex_pair` is kept.
    """
    if min(V.m, V.n) < 2:
        # a nonzero row or column matrix is already rank one
        witness = _extract_rank_one(V, V.basis[0])
        return (witness if verify_rank_one(V, witness) else None), None
    best_ratio, best, pair = np.inf, None, None
    for X, ratio in _polish(V, _starts(V, seed, restarts)):
        R = (X * np.exp(-0.5j * np.angle(np.sum(X * X)))).real
        s = np.linalg.svd(R, compute_uv=False)
        R_ratio = s[1] / s[0]
        if ratio < TOLERANCES.certificate <= R_ratio:
            # X is genuinely complex; unless V meets the cone's tangent plane
            # at X in X alone (X isolated), real rank-one points may lie near R
            system = _tangent_system(V, *np.linalg.svd(X)[::2])
            s = np.linalg.svd(system, compute_uv=False)
            if rank_from_singular_values(s) < system.shape[1]:
                R, R_ratio = _polish(V, (R / np.linalg.norm(R))[None])[0]
        if R_ratio < best_ratio:
            best_ratio, best = R_ratio, R
        if pair is None and V.dim >= 2:
            candidate = ComplexPairWitness(A=X.real, B=X.imag)
            if verify_complex_pair(V, candidate):
                pair = candidate
    if best_ratio < TOLERANCES.certificate:
        witness = _extract_rank_one(V, best)
        if verify_rank_one(V, witness):
            return witness, pair
    return None, pair


# no subcommand calls it; perfbench/tracing.py still reads the name
def find_rank_one(V: MatrixSubspace, seed: int = 0, restarts: int = 64):
    """Search V for a rank-one element; return a certified witness or None.

    The rank-one half of :func:`_search`: a candidate is returned only when
    it passes :func:`verify_rank_one`.
    """
    if V.dim < 1:
        raise ValueError("the subspace must have dimension >= 1")
    return _search(V, seed, restarts)[0]


def _extract_rank_one(V: MatrixSubspace, X: np.ndarray) -> RankOneWitness:
    u, _, vt = np.linalg.svd(X)
    w, psi = u[:, 0], vt[0]
    # canonical sign: largest-magnitude entry of psi is positive
    lead = np.argmax(np.abs(psi))
    if psi[lead] < 0:
        psi, w = -psi, -w
    return RankOneWitness(psi=psi, w=w, residual=distance(np.outer(w, psi), V))


def verify_rank_one(V: MatrixSubspace, witness: RankOneWitness) -> bool:
    """Certificate check: unit Frobenius norm and membership distance."""
    mat = witness.matrix()
    norm = np.linalg.norm(mat)
    if abs(norm - 1.0) > TOLERANCES.orthonormality:
        return False
    witness.residual = distance(mat, V)
    return witness.residual <= TOLERANCES.certificate_distance


# --- embedded complex-structure plane detector -----------------------------

# no subcommand calls it; perfbench/tracing.py still reads the name
def find_complex_pair(V: MatrixSubspace, seed: int = 0, restarts: int = 64):
    """Search V for an embedded plane equivalent to the reference one.

    The complex-pair half of :func:`_search`: a pair is returned only when
    it passes :func:`verify_complex_pair`.
    """
    if V.dim < 2:
        raise ValueError("the subspace must have dimension >= 2")
    if V.n < 2 or V.m < 2:
        raise ValueError("the ambient matrices must be at least 2x2")
    return _search(V, seed, restarts)[1]


def verify_complex_pair(V: MatrixSubspace, witness: ComplexPairWitness) -> bool:
    """Certify X = A + iB as a rank-one element z zeta^T of V (x) C whose
    factors are not real up to a phase; on success annotate P and Q.

    One SVD of X gives its sigma_2/sigma_1 (residual ``rank_one``) and
    z = sigma_1 u_1, zeta = vh_1.  With the frames F = [Re z, Im z] and
    G = [Re zeta; -Im zeta], P = [F | column complement] and
    Q = [G; row complement] give P I_pad Q = Re(z zeta^T) and
    P J_pad Q = Im(z zeta^T); the complements are scaled to each frame's
    sigma_1, so P and Q are conditioned by the pair's geometry alone.  The
    product of the frames' sigma_2/sigma_1 must exceed ``certificate``; it
    bounds that ratio of A and of B from below.  Both matrices must lie in
    V, and the span of the pair is re-checked against that of P I_pad Q,
    P J_pad Q.
    """
    A = np.asarray(witness.A, dtype=float)
    B = np.asarray(witness.B, dtype=float)
    tol = TOLERANCES
    residuals: dict = {}
    witness.residuals = residuals
    m, n = V.m, V.n
    # a rank-two pair needs two rows and two columns
    if A.shape != (m, n) or B.shape != (m, n) or min(m, n) < 2:
        return False
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        return False
    u, s, vh = np.linalg.svd(A + 1j * B)
    residuals["rank_one"] = float(s[1] / s[0]) if s[0] > 0 else np.inf  # a zero X fails
    if residuals["rank_one"] > tol.certificate:
        return False
    z, zeta = s[0] * u[:, 0], vh[0]
    F = np.column_stack([z.real, z.imag])
    G = np.vstack([zeta.real, -zeta.imag])
    uf, sf, _ = np.linalg.svd(F)
    _, sg, vhg = np.linalg.svd(G)
    if not sf[1] * sg[1] > tol.certificate * sf[0] * sg[0]:
        return False
    residuals["distance_a"] = distance(A, V)
    residuals["distance_b"] = distance(B, V)
    if max(residuals["distance_a"], residuals["distance_b"]) > tol.certificate_distance:
        return False
    P = np.hstack([F, sf[0] * uf[:, 2:]])
    Q = np.vstack([G, sg[0] * vhg[2:]])
    witness.P, witness.Q = P, Q
    ref = complex_structure_plane(m, n)
    image = make_subspace(n, m, [P @ M @ Q for M in ref.basis])
    span = make_subspace(n, m, [A, B])
    residuals["span_gap"] = largest_principal_angle(span.flat, image.flat)
    return bool(span.dim == image.dim == 2 and residuals["span_gap"] <= tol.certificate)


# --- combined classification ----------------------------------------------

@dataclass
class ClassifyOutcome:
    """A chain and the witnesses its search of V (x) C certified."""

    chain_report: ChainReport
    rank_one: RankOneWitness | None = None
    complex_pair: ComplexPairWitness | None = None

    @property
    def delta(self) -> DeltaStatus:
        """The chain's delta, unless the chain did not terminate and a witness
        was certified: then ``infinite_certified`` with that witness, the
        rank-one witness before the pair."""
        delta = self.chain_report.delta
        witness = self.rank_one if self.rank_one is not None else self.complex_pair
        if delta.status == "finite" or witness is None:
            return delta
        return DeltaStatus("infinite_certified", delta.value, witness)

    def searches_json(self) -> dict:
        return {
            "rank_one": "certified" if self.rank_one is not None else "inconclusive",
            "complex_pair": "certified" if self.complex_pair is not None else "inconclusive",
        }


def find_witnesses(V: MatrixSubspace, seed: int = 0, restarts: int = 64):
    """Run the search of V (x) C once when dim V >= 1; the complex pair can
    certify only when also dim V >= 2 and m, n >= 2.

    Returns ``(rank_one, complex_pair)``; an entry is None when its search
    does not apply or certified nothing.
    """
    return _search(V, seed, restarts) if V.dim >= 1 else (None, None)


def classify_delta_full(V: MatrixSubspace, k_max: int = 8, seed: int = 0,
                        restarts: int = 64) -> ClassifyOutcome:
    """Chain first, then the search; certified witnesses decide infinity.

    The search runs even when the chain terminates, as a consistency
    guard: a finite chain together with a certified witness means the
    tolerance configuration is broken and raises
    :class:`InternalInconsistencyError`.
    """
    outcome = ClassifyOutcome(chain(V, k_max), *find_witnesses(V, seed, restarts))
    certified = outcome.rank_one is not None or outcome.complex_pair is not None
    if outcome.delta.status == "finite" and certified:
        raise InternalInconsistencyError(
            f"chain terminated at degree {outcome.delta.value} but a witness was certified")
    return outcome
