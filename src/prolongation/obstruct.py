"""Detection and certification of the two infiniteness obstructions.

A subspace V of m-by-n matrices supports an infinite-dimensional solution
family exactly when it contains a rank-one operator psi (x) w, or a 2-plane
of the form P W Q where W is spanned by the identity and the rotation by
ninety degrees acting on a fixed 2-plane (padded by zeros) and P, Q are
invertible.  The detectors below are best-effort multi-start searches whose
positive results are certified; absence of a witness is inconclusive, never
a proof of finiteness.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .config import TOLERANCES
from .matspace import (
    MatrixSubspace,
    distance,
    make_subspace,
    principal_angles_rows,
    project,
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
        return {
            "type": "rank_one",
            "psi": self.psi.tolist(),
            "w": self.w.tolist(),
            "residual": float(self.residual),
        }


@dataclass
class ComplexPairWitness:
    A: np.ndarray
    B: np.ndarray
    residuals: dict | None = None
    P: np.ndarray | None = None
    Q: np.ndarray | None = None

    def to_json(self) -> dict:
        out = {
            "type": "complex_pair",
            "A": self.A.tolist(),
            "B": self.B.tolist(),
        }
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


# --- rank-one detector ----------------------------------------------------

def _rank_one_polish(V: MatrixSubspace, X: np.ndarray, iters: int = 120):
    """Alternate between the rank-one cone and V; returns the refined matrix."""
    for _ in range(iters):
        u, s, vt = np.linalg.svd(X)
        rank_one = s[0] * np.outer(u[:, 0], vt[0])
        Y = project(rank_one, V)
        norm = np.linalg.norm(Y)
        if norm < 1e-14:
            return X
        Y = Y / norm
        if np.linalg.norm(Y - X) < 1e-15:
            return Y
        X = Y
    return X


def find_rank_one(V: MatrixSubspace, seed: int = 0, restarts: int = 64):
    """Search V for a rank-one element; return a certified witness or None.

    Multi-start simplex descent on sigma_2/sigma_1 of unit combinations of
    the basis, followed by an alternating-projection polish.  A candidate is
    returned only when it passes :func:`verify_rank_one`.
    """
    if V.dim < 1:
        raise ValueError("the subspace must have dimension >= 1")
    if min(V.m, V.n) < 2:
        # a nonzero row or column matrix is already rank one
        witness = _extract_rank_one(V, V.basis[0])
        return witness if verify_rank_one(V, witness) else None

    def objective(c):
        norm = np.linalg.norm(c)
        if norm < 1e-12:
            return 1.0
        s = np.linalg.svd(V.element(c / norm), compute_uv=False)
        return float(s[1] / s[0]) if s[0] > 0 else 1.0

    best_ratio = np.inf
    best_matrix = None
    for r in range(restarts):
        rng = _restart_rng(seed, r)
        x0 = rng.standard_normal(V.dim)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": 200 + 40 * V.dim, "xatol": 1e-10, "fatol": 1e-12},
        )
        norm = np.linalg.norm(res.x)
        if norm < 1e-12:
            continue
        X = _rank_one_polish(V, V.element(res.x / norm))
        s = np.linalg.svd(X, compute_uv=False)
        ratio = s[1] / s[0] if s[0] > 0 else 1.0
        if ratio < best_ratio:
            best_ratio = ratio
            best_matrix = X
    if best_matrix is None or best_ratio >= TOLERANCES.rank_one_ratio:
        return None
    witness = _extract_rank_one(V, best_matrix)
    return witness if verify_rank_one(V, witness) else None


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
    return witness.residual <= TOLERANCES.rank_one_residual


# --- embedded complex-structure plane detector -----------------------------

def _pair_penalty(V: MatrixSubspace, c1, c2) -> float:
    n1, n2 = np.linalg.norm(c1), np.linalg.norm(c2)
    if n1 < 1e-12 or n2 < 1e-12:
        return 1e3
    A = V.element(c1 / n1)
    B = V.element(c2 / n2)
    ua, sa, vta = np.linalg.svd(A)
    ub, sb, vtb = np.linalg.svd(B)
    if sa[1] < 1e-9 or sb[1] < 1e-9:
        return 1e3
    s3a = sa[2] if sa.size > 2 else 0.0
    s3b = sb[2] if sb.size > 2 else 0.0
    Ua, Ub = ua[:, :2], ub[:, :2]
    Va, Vb = vta[:2].T, vtb[:2].T
    col_gap2 = max(0.0, 2.0 - np.linalg.norm(Ua.T @ Ub) ** 2)
    row_gap2 = max(0.0, 2.0 - np.linalg.norm(Va.T @ Vb) ** 2)
    A_t = Ua.T @ A @ Va
    B_t = Ua.T @ B @ Va
    det = A_t[0, 0] * A_t[1, 1] - A_t[0, 1] * A_t[1, 0]
    if abs(det) < 1e-12:
        return 1e3
    C = B_t @ np.linalg.inv(A_t)
    j_res2 = np.linalg.norm(C @ C + np.eye(2)) ** 2
    return float(s3a ** 2 + s3b ** 2 + col_gap2 + row_gap2 + j_res2)


def _pair_polish(V: MatrixSubspace, A, B, rounds: int = 50):
    """Drive the pair toward rank two with shared spaces, then solve the
    quarter-turn relation exactly inside the plane spanned by the pair."""
    for _ in range(rounds):
        ua, sa, vta = np.linalg.svd(A)
        A_new = project(ua[:, :2] @ np.diag(sa[:2]) @ vta[:2], V)
        norm = np.linalg.norm(A_new)
        if norm < 1e-14:
            return None
        A_new /= norm
        Ua, Va = np.linalg.svd(A_new)[0][:, :2], np.linalg.svd(A_new)[2][:2].T
        B_new = project(Ua @ (Ua.T @ B @ Va) @ Va.T, V)
        normb = np.linalg.norm(B_new)
        if normb < 1e-14:
            return None
        B_new /= normb
        if np.linalg.norm(A_new - A) < 1e-15 and np.linalg.norm(B_new - B) < 1e-15:
            A, B = A_new, B_new
            break
        A, B = A_new, B_new
    ua, sa, vta = np.linalg.svd(A)
    if sa[1] < 1e-10:
        return None
    Ua, Va = ua[:, :2], vta[:2].T
    A_t = Ua.T @ A @ Va
    B_t = Ua.T @ B @ Va
    if abs(np.linalg.det(A_t)) < 1e-12:
        return None
    C = B_t @ np.linalg.inv(A_t)
    tr, det = float(np.trace(C)), float(np.linalg.det(C))
    disc = det - tr ** 2 / 4.0
    if disc <= 1e-12:
        return None  # real eigenvalues: no quarter-turn combination exists
    y = 1.0 / np.sqrt(disc)
    x = -y * tr / 2.0
    B_star = x * A + y * B
    scale = np.linalg.norm(A)
    return A / scale, B_star / scale


def find_complex_pair(V: MatrixSubspace, seed: int = 0, restarts: int = 64):
    """Search V for an embedded plane equivalent to the reference one.

    Multi-start simplex descent over pairs of unit coefficient vectors on
    the penalty (rank-two defects, column/row space gaps, quarter-turn
    defect); candidates are polished, completed to an exact quarter-turn
    relation inside their plane, and returned only when certified by
    :func:`verify_complex_pair`.
    """
    if V.dim < 2:
        raise ValueError("the subspace must have dimension >= 2")
    if V.n < 2 or V.m < 2:
        raise ValueError("the ambient matrices must be at least 2x2")
    d = V.dim

    def objective(z):
        return _pair_penalty(V, z[:d], z[d:])

    best = None
    best_penalty = np.inf
    for r in range(restarts):
        rng = _restart_rng(seed, r)
        z0 = rng.standard_normal(2 * d)
        res = minimize(
            objective,
            z0,
            method="Nelder-Mead",
            options={"maxfev": 300 + 60 * 2 * d, "xatol": 1e-10, "fatol": 1e-12},
        )
        c1, c2 = res.x[:d], res.x[d:]
        if np.linalg.norm(c1) < 1e-12 or np.linalg.norm(c2) < 1e-12:
            continue
        polished = _pair_polish(V, V.element(c1 / np.linalg.norm(c1)),
                                V.element(c2 / np.linalg.norm(c2)))
        if polished is None:
            continue
        witness = ComplexPairWitness(A=polished[0], B=polished[1])
        if verify_complex_pair(V, witness):
            penalty = sum(witness.residuals[k] ** 2 for k in
                          ("rank_a", "rank_b", "colspace_gap", "rowspace_gap",
                           "complex_structure"))
            if penalty < best_penalty:
                best_penalty = penalty
                best = witness
    return best


def _extend_to_invertible(columns: np.ndarray, complement: np.ndarray) -> np.ndarray:
    return np.hstack([columns, complement])


def verify_complex_pair(V: MatrixSubspace, witness: ComplexPairWitness) -> bool:
    """Check the certificate and reconstruct explicit conjugating matrices.

    Conditions: both matrices have numerical rank two, share column and row
    spaces, the transition map between their restrictions squares to minus
    the identity, and both lie in V.  On success the witness is annotated
    with P, Q such that the span of the pair equals P times the reference
    plane times Q, which is re-checked by principal angles.
    """
    A = np.asarray(witness.A, dtype=float)
    B = np.asarray(witness.B, dtype=float)
    m, n = A.shape
    tol = TOLERANCES
    residuals: dict = {}
    ua, sa, vta = np.linalg.svd(A)
    ub, sb, vtb = np.linalg.svd(B)
    residuals["rank_a"] = float(sa[2] / sa[0]) if sa.size > 2 else 0.0
    residuals["rank_b"] = float(sb[2] / sb[0]) if sb.size > 2 else 0.0
    witness.residuals = residuals
    if sa[1] / sa[0] <= tol.certificate or sb[1] / sb[0] <= tol.certificate:
        return False  # rank below two: restrictions are not invertible
    if residuals["rank_a"] > tol.certificate or residuals["rank_b"] > tol.certificate:
        return False
    Ua, Ub = ua[:, :2], ub[:, :2]
    Va, Vb = vta[:2].T, vtb[:2].T
    col_angles = principal_angles_rows(Ua.T, Ub.T)
    row_angles = principal_angles_rows(Va.T, Vb.T)
    residuals["colspace_gap"] = float(col_angles[0])
    residuals["rowspace_gap"] = float(row_angles[0])
    if residuals["colspace_gap"] > tol.certificate:
        return False
    if residuals["rowspace_gap"] > tol.certificate:
        return False
    A_t = Ua.T @ A @ Va
    B_t = Ua.T @ B @ Va
    C = B_t @ np.linalg.inv(A_t)
    residuals["complex_structure"] = float(np.linalg.norm(C @ C + np.eye(2)))
    if residuals["complex_structure"] > tol.certificate:
        return False
    residuals["distance_a"] = distance(A, V)
    residuals["distance_b"] = distance(B, V)
    if residuals["distance_a"] > tol.certificate_distance:
        return False
    if residuals["distance_b"] > tol.certificate_distance:
        return False

    # explicit conjugation: with S taking the transition map to the
    # quarter-turn, P = [Ua S | col complement], Q = [S^-1 A_t Va^T ; row
    # complement] satisfy P * I_pad * Q = A and P * J_pad * Q = B.
    s1 = np.array([1.0, 0.0])
    S = np.column_stack([s1, C @ s1])
    if abs(np.linalg.det(S)) < tol.quarter_turn_det:
        return False
    P = _extend_to_invertible(Ua @ S, ua[:, 2:])
    Q = np.vstack([np.linalg.solve(S, A_t) @ Va.T, vta[2:]])
    witness.P, witness.Q = P, Q
    ref = complex_structure_plane(m, n)
    image = make_subspace(n, m, [P @ M @ Q for M in ref.basis])
    span = make_subspace(n, m, [A, B])
    gap = principal_angles_rows(span.flat, image.flat)
    residuals["span_gap"] = float(gap[0]) if gap.size else 0.0
    return bool(
        span.dim == 2 and image.dim == 2 and residuals["span_gap"] <= tol.certificate
    )


# --- combined classification ----------------------------------------------

@dataclass
class ClassifyOutcome:
    """Verdict plus everything the searches produced along the way."""

    delta: DeltaStatus
    chain_report: ChainReport
    rank_one: RankOneWitness | None = None
    complex_pair: ComplexPairWitness | None = None

    def searches_json(self) -> dict:
        return {
            "rank_one": "certified" if self.rank_one is not None else "inconclusive",
            "complex_pair": "certified" if self.complex_pair is not None else "inconclusive",
        }


def find_witnesses(V: MatrixSubspace, seed: int = 0, restarts: int = 64):
    """Run every detector that applies to V: rank-one when dim V >= 1, the
    complex pair when also dim V >= 2 and m, n >= 2.

    Returns ``(rank_one, complex_pair)``; an entry is None when its search
    does not apply or certified nothing.
    """
    rank_one = find_rank_one(V, seed, restarts) if V.dim >= 1 else None
    complex_pair = None
    if V.dim >= 2 and V.m >= 2 and V.n >= 2:
        complex_pair = find_complex_pair(V, seed, restarts)
    return rank_one, complex_pair


def classify_delta_full(V: MatrixSubspace, k_max: int = 8, seed: int = 0,
                        restarts: int = 64,
                        report: ChainReport | None = None) -> ClassifyOutcome:
    """Chain first, then both detectors; certified witnesses decide infinity.

    Both detectors run even when the chain terminates, as a consistency
    guard: a finite chain together with a certified witness means the
    tolerance configuration is broken and raises
    :class:`InternalInconsistencyError`.  Rank-one is tried first; the
    outcome of the other search is still recorded.
    """
    if report is None:
        report = chain(V, k_max)
    rank_one, complex_pair = find_witnesses(V, seed, restarts)
    witness = rank_one if rank_one is not None else complex_pair
    if report.delta.status == "finite":
        if witness is not None:
            raise InternalInconsistencyError(
                "chain terminated at degree "
                f"{report.delta.value} but a witness was certified"
            )
        delta = report.delta
    elif witness is not None:
        delta = DeltaStatus.infinite(witness, k_max)
    else:
        delta = report.delta
    return ClassifyOutcome(delta=delta, chain_report=report,
                           rank_one=rank_one, complex_pair=complex_pair)


def classify_delta(V: MatrixSubspace, k_max: int = 8, seed: int = 0,
                   restarts: int = 64,
                   report: ChainReport | None = None) -> DeltaStatus:
    """Classify the chain length of V; see :func:`classify_delta_full`."""
    return classify_delta_full(V, k_max, seed, restarts, report).delta
