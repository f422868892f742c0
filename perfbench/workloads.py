"""Seeded workloads: inputs, jobs and reference answers.

Every input is drawn from the workload seed with numpy alone; the library
only ever receives the generated subspaces (through ``make_subspace``) and
the generated files (through ``prolongation.cli.main``).  Every job carries
the answer it must produce, taken from a closed form or from the way the
input was built, and certificates are replayed with ``numpy.linalg.lstsq``
against the generators the benchmark made itself, never with the library's
own ``distance``.
"""

import json
import os
from dataclasses import dataclass
from math import comb

import numpy as np

import prolongation
from prolongation import cli

WORKLOADS = ("chain-tall", "chain-wide", "detect-search", "cli-small")

# The jobs of each workload and size, each job on its own seeded input.  Full
# sizes keep every chain job near half a second to a second, so that a
# 25-second run repeats each job eight times or more.  A shape listed twice
# weighs twice: the slow shape is two thirds of the jobs, so that the median
# falls inside one shape's latencies instead of on the step between two
# shapes.
DETECT_SETS = {"full": 2, "smoke": 1}
CHAIN_TALL = {"full": [(5, 5, 5), (4, 4, 8), (4, 4, 8)], "smoke": [(3, 3, 4), (4, 4, 3)]}
CHAIN_WIDE = {"full": [(5, 6), (6, 5), (6, 5)], "smoke": [(3, 4), (4, 3)]}
DETECT_K_MAX = {"full": 4, "smoke": 3}
# far below the library default of 64, so that a run holds enough distinct
# inputs to average out how much search each one needs; four restarts
# certified the planted witness on 300 of 300 seeds of either infinite class
DETECT_RESTARTS = 4
CLI_DIMS = {"full": (3, 4, 5), "smoke": (3,)}
CLI_JET_DEGREES = {"full": {3: (2, 3, 4), 4: (2, 3, 4), 5: (2, 3)}, "smoke": {3: (2,)}}
CLI_MANIFOLDS = {
    "full": [("conformal", 3), ("conformal", 4), ("isometry", 3), ("isometry", 4),
             ("quaternion", 4)],
    "smoke": [("isometry", 3)],
}

REPLAY_TOL = 1e-7   # relative lstsq residual for a certificate element in V
RANK_TOL = 1e-6     # relative singular-value gap for rank decisions in replays


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run`` performs the library call and returns its raw output;
    ``answer`` turns that output into plain values, which are compared with
    ``expected`` key by key; ``replay`` checks certificates independently
    and returns a list of problems.
    """

    id: str
    kind: str
    run: callable
    answer: callable
    expected: dict
    replay: callable = None
    out_path: str | None = None


@dataclass
class Workload:
    name: str
    jobs: list
    warm_up: callable


def check(job: Job, raw) -> tuple:
    """Answer of a finished job and every way it differs from the reference."""
    answer = job.answer(raw)
    problems = [
        f"{key}: got {answer.get(key)!r}, expected {value!r}"
        for key, value in job.expected.items()
        if answer.get(key) != value
    ]
    if job.replay is not None:
        problems += job.replay(raw)
    return answer, problems


# --- input generation -------------------------------------------------------

def well_conditioned(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random invertible matrix with singular values in [1, 2]."""
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q1 @ np.diag(rng.uniform(1.0, 2.0, d)) @ q2


def unit(m: int, n: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((m, n))
    E[i, j] = 1.0
    return E


def plane_generators(m: int, n: int) -> list:
    """Identity and quarter-turn on the first two coordinates, zero-padded."""
    return [unit(m, n, 0, 0) + unit(m, n, 1, 1), unit(m, n, 1, 0) - unit(m, n, 0, 1)]


def trace_free_generators(n: int) -> list:
    gens = [unit(n, n, i, j) for i in range(n) for j in range(n) if i != j]
    gens += [unit(n, n, i, i) - unit(n, n, i + 1, i + 1) for i in range(n - 1)]
    return gens


def skew_generators(n: int) -> list:
    return [unit(n, n, i, j) - unit(n, n, j, i) for i in range(n) for j in range(i + 1, n)]


def conformal_generators(n: int) -> list:
    return [np.eye(n)] + skew_generators(n)


def quaternion_generators() -> list:
    """Matrices of x -> x q for q = 1, i, j, k, from the multiplication table."""
    def mult(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return np.array([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                         a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                         a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                         a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])
    return [np.column_stack([mult(e, q) for e in np.eye(4)]) for q in np.eye(4)]


def conjugated(gens: list, P: np.ndarray, Q: np.ndarray) -> list:
    return [P @ G @ Q for G in gens]


# --- independent replays ----------------------------------------------------

def span_residual(gens: list, M: np.ndarray) -> float:
    """Relative least-squares residual of M against the span of ``gens``."""
    G = np.array([g.ravel() for g in gens]).T
    target = np.asarray(M, dtype=float).ravel()
    coef, *_ = np.linalg.lstsq(G, target, rcond=None)
    return float(np.linalg.norm(G @ coef - target) / max(np.linalg.norm(target), 1e-300))


def replay_rank_one(gens: list, witness) -> list:
    problems = []
    psi, w = np.asarray(witness.psi), np.asarray(witness.w)
    if abs(np.linalg.norm(psi) - 1.0) > RANK_TOL or abs(np.linalg.norm(w) - 1.0) > RANK_TOL:
        problems.append("rank-one witness: psi or w is not a unit vector")
    res = span_residual(gens, np.outer(w, psi))
    if res > REPLAY_TOL:
        problems.append(f"rank-one witness: w psi^T is {res:.2e} away from V")
    return problems


def replay_complex_pair(gens: list, witness) -> list:
    problems = []
    A, B = np.asarray(witness.A), np.asarray(witness.B)
    for label, M in (("A", A), ("B", B)):
        res = span_residual(gens, M)
        if res > REPLAY_TOL:
            problems.append(f"complex pair: {label} is {res:.2e} away from V")
    if witness.P is None or witness.Q is None:
        return problems + ["complex pair: no conjugating matrices"]
    P, Q = np.asarray(witness.P), np.asarray(witness.Q)
    m, n = A.shape
    for label, M in (("P", P), ("Q", Q)):
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= RANK_TOL * s[0]:
            problems.append(f"complex pair: {label} is singular")
    images = [P @ G @ Q for G in plane_generators(m, n)]
    stack = np.array([M.ravel() for M in [A, B] + images])
    s = np.linalg.svd(stack, compute_uv=False)
    if s[1] <= RANK_TOL * s[0] or s[2] > RANK_TOL * s[0]:
        problems.append("complex pair: P I_pad Q, P J_pad Q do not span the witness plane")
    return problems


# --- chain workloads ----------------------------------------------------------

def chain_job(job_id: str, kind: str, n: int, m: int, gens: list, k_max: int,
              expected_alpha: list) -> Job:
    V = prolongation.make_subspace(n, m, gens)
    return Job(
        id=job_id,
        kind=kind,
        run=lambda: prolongation.chain(V, k_max),
        answer=lambda r: {"alpha": [int(a) for a in r.alpha],
                          "delta": [r.delta.status, int(r.delta.value)]},
        expected={"alpha": expected_alpha, "delta": ["lower_bound", k_max]},
    )


def chain_tall(seed: int, size: str) -> Workload:
    """Conjugated complex-structure planes: alpha stays [m, 2, 2, ...] while
    the linear system grows as m C(n+k-1, k), so the tall nullspace SVD
    dominates."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for m, n, k in CHAIN_TALL[size]:
        gens = conjugated(plane_generators(m, n), well_conditioned(rng, m),
                          well_conditioned(rng, n))
        jobs.append(chain_job(f"chain-tall/{m}x{n}-k{k}/{len(jobs)}", f"{m}x{n}-k{k}",
                              n, m, gens, k, [m] + [2] * k))
    warm = prolongation.make_subspace(3, 3, plane_generators(3, 3))
    return Workload("chain-tall", jobs, lambda: prolongation.chain(warm, 3))


def chain_wide(seed: int, size: str) -> Workload:
    """Conjugated trace-free matrices (divergence-free vector fields): alpha
    grows polynomially, so the systems are wide and the nullspace is most of
    the space."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for n, k in CHAIN_WIDE[size]:
        P = well_conditioned(rng, n)
        gens = conjugated(trace_free_generators(n), P, well_conditioned(rng, n))
        alpha = [n] + [n * comb(n + j - 1, j) - comb(n + j - 2, j - 1) for j in range(1, k + 1)]
        jobs.append(chain_job(f"chain-wide/{n}-k{k}/{len(jobs)}", f"{n}-k{k}",
                              n, n, gens, k, alpha))
    warm = prolongation.make_subspace(3, 3, trace_free_generators(3))
    return Workload("chain-wide", jobs, lambda: prolongation.chain(warm, 3))


# --- detector workload ----------------------------------------------------------

def detect_job(job_id: str, kind: str, n: int, m: int, gens: list, k_max: int,
               expected: dict) -> Job:
    V = prolongation.make_subspace(n, m, gens)

    def answer(outcome):
        witness = outcome.delta.witness
        return {
            "alpha": [int(a) for a in outcome.chain_report.alpha],
            "delta": [outcome.delta.status, int(outcome.delta.value)],
            "witness": None if witness is None else witness.to_json()["type"],
            "searches": outcome.searches_json(),
        }

    def replay(outcome):
        problems = []
        if outcome.rank_one is not None:
            problems += replay_rank_one(gens, outcome.rank_one)
        if outcome.complex_pair is not None:
            problems += replay_complex_pair(gens, outcome.complex_pair)
        return problems

    return Job(
        id=job_id,
        kind=kind,
        run=lambda: prolongation.classify_delta_full(V, k_max=k_max, restarts=DETECT_RESTARTS),
        answer=answer,
        expected=expected,
        replay=replay,
    )


def detect_search(seed: int, size: str) -> Workload:
    """classify_delta_full on two infinite classes, each certified by its own
    witness type, and two finite classes, where the detectors run only as the
    consistency guard."""
    rng = np.random.default_rng([seed, 3])
    k = DETECT_K_MAX[size]
    inconclusive = {"rank_one": "inconclusive", "complex_pair": "inconclusive"}
    jobs = []

    def add(kind, n, m, gens, expected):
        jobs.append(detect_job(f"detect-search/{kind}/{len(jobs)}", kind, n, m, gens, k,
                               expected))

    def infinite_pair():
        gens = conjugated(plane_generators(3, 4), well_conditioned(rng, 3),
                          well_conditioned(rng, 4))
        add("plane-3x4", 4, 3, gens, {"alpha": [3] + [2] * k,
                                      "delta": ["infinite_certified", k],
                                      "witness": "complex_pair"})

    def infinite_rank_one():
        w, psi = rng.standard_normal(3), rng.standard_normal(3)
        gens = [np.outer(w, psi), rng.standard_normal((3, 3))]
        add("rank-one-3x3", 3, 3, gens, {"delta": ["infinite_certified", k],
                                         "witness": "rank_one"})

    for _ in range(DETECT_SETS[size]):
        infinite_pair()
        infinite_rank_one()
        gens = conjugated(conformal_generators(3), well_conditioned(rng, 3),
                          well_conditioned(rng, 3))
        add("conformal-3", 3, 3, gens, {"alpha": [3, 4, 3, 0], "delta": ["finite", 2],
                                        "witness": None, "searches": inconclusive})
        infinite_pair()
        infinite_rank_one()
        gens = conjugated(quaternion_generators(), well_conditioned(rng, 4),
                          well_conditioned(rng, 4))
        add("quaternion", 4, 4, gens, {"alpha": [4, 4, 0], "delta": ["finite", 1],
                                       "witness": None, "searches": inconclusive})

    warm = prolongation.make_subspace(3, 2, plane_generators(2, 3))
    return Workload("detect-search", jobs,
                    lambda: prolongation.classify_delta_full(warm, k_max=2, restarts=1))


# --- CLI workload ----------------------------------------------------------------

def poly_terms(constant=None, linear=None, quadratic=None) -> list:
    """Polynomial-file terms of x -> c + L x + (x^T S_a x)_a (1-based outputs)."""
    terms = []
    if constant is not None:
        for a, c in enumerate(constant):
            terms.append({"degree": 0, "output": a + 1, "exponents": [0] * len(constant),
                          "value": float(c)})
    if linear is not None:
        m, n = linear.shape
        for a in range(m):
            for j in range(n):
                e = [0] * n
                e[j] = 1
                terms.append({"degree": 1, "output": a + 1, "exponents": e,
                              "value": float(linear[a, j])})
    if quadratic is not None:
        for a, S in enumerate(quadratic):
            n = S.shape[0]
            for i in range(n):
                for j in range(i, n):
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    value = S[i, i] if i == j else 2.0 * S[i, j]
                    terms.append({"degree": 2, "output": a + 1, "exponents": e,
                                  "value": float(value)})
    return terms


def conformal_solutions(n: int, P: np.ndarray, Q: np.ndarray) -> list:
    """Closed-form basis of the maps x -> P u(Q x) with Du in conformal(n):
    translations, the linear maps P B Q, and the special conformal maps
    u_b(y) = 2 <b, y> y - |y|^2 b."""
    polys = [poly_terms(constant=P[:, a]) for a in range(n)]
    polys += [poly_terms(linear=P @ B @ Q) for B in conformal_generators(n)]
    PQ, G = P @ Q, Q.T @ Q
    for c in range(n):
        q = Q[c]                      # <e_c, Q x> = q . x
        Pb = P[:, c]
        forms = [np.outer(q, PQ[a]) + np.outer(PQ[a], q) - Pb[a] * G for a in range(n)]
        polys.append(poly_terms(quadratic=forms))
    return polys


def cli_job(job_id: str, kind: str, args: list, out_path: str, answer, expected: dict) -> Job:
    argv = args + ["--out", out_path]

    def read(rc):
        if rc != 0:
            return {"rc": rc}
        with open(out_path, encoding="utf-8") as fh:
            return {"rc": rc, **answer(json.load(fh)["result"])}

    return Job(id=job_id, kind=kind, run=lambda: cli.main(argv), answer=read,
               expected={"rc": 0, **expected}, out_path=out_path)


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def cli_small(seed: int, size: str, workdir: str) -> Workload:
    """Thousands of small in-process CLI calls on files written at set-up."""
    rng = np.random.default_rng([seed, 4])
    jobs = []
    out = os.path.join(workdir, "out-{}.json")

    def add(job_id, kind, args, answer, expected):
        jobs.append(cli_job(f"cli-small/{job_id}", kind, args, out.format(len(jobs)),
                            answer, expected))

    for n in CLI_DIMS[size]:
        P, Q = well_conditioned(rng, n), well_conditioned(rng, n)
        gens = conjugated(conformal_generators(n), P, Q)
        dim_v = len(gens)
        total = (n + 1) * (n + 2) // 2
        space = write_json(os.path.join(workdir, f"conformal{n}.json"),
                           {"n": n, "m": n, "generators": [g.tolist() for g in gens]})
        add(f"chain/conformal{n}", "chain", ["chain", "--input", space],
            lambda r: {"alpha": r["alpha"], "delta": [r["delta"]["status"], r["delta"]["value"]],
                       "alpha_total": r["alpha_total"]},
            {"alpha": [n, dim_v, n, 0], "delta": ["finite", 2], "alpha_total": total})
        add(f"polysolve/conformal{n}", "polysolve", ["polysolve", "--input", space],
            lambda r: {"alpha_total": r["alpha_total"],
                       "basis": len(r["solution_basis"]["elements"]),
                       "reduced": len(r["reduced_basis"]["elements"])},
            {"alpha_total": total, "basis": total, "reduced": total - dim_v})

        solutions = conformal_solutions(n, P, Q)
        if len(solutions) != total:
            raise RuntimeError("closed-form conformal basis has the wrong size")
        for i, terms in enumerate(solutions):
            poly = write_json(os.path.join(workdir, f"conformal{n}-solution{i}.json"),
                              {"n": n, "m": n, "terms": terms})
            add(f"verify/conformal{n}/{i}", "verify",
                ["verify", "--input", space, "--poly", poly, "--seed", str(i)],
                lambda r: {"pass": r["pass"]}, {"pass": True})
        # x -> x_1^2 e_1 has Jacobian 2 x_1 E_11, which is not in P V Q
        if span_residual(gens, unit(n, n, 0, 0)) < 1e-3:
            raise RuntimeError("non-member probe unexpectedly lies near V")
        poly = write_json(os.path.join(workdir, f"conformal{n}-nonmember.json"),
                          {"n": n, "m": n, "terms": poly_terms(
                              quadratic=[unit(n, n, 0, 0)] + [np.zeros((n, n))] * (n - 1))})
        add(f"verify/conformal{n}/nonmember", "verify",
            ["verify", "--input", space, "--poly", poly],
            lambda r: {"pass": r["pass"]}, {"pass": False})

        aug = write_json(os.path.join(workdir, f"conformal{n}-augmented.json"), {
            "n": n, "m": n,
            "generators": [{"matrix": g.tolist(), "vector": [0.0] * n} for g in gens]
            + [{"matrix": np.zeros((n, n)).tolist(), "vector": e.tolist()} for e in np.eye(n)],
        })
        A = write_json(os.path.join(workdir, f"conformal{n}-A.json"),
                       sum(c * g for c, g in zip(rng.standard_normal(dim_v), gens)).tolist())
        for degree in CLI_JET_DEGREES[size].get(n, ()):
            add(f"jet/conformal{n}/D{degree}", "jet",
                ["jet", "--input-augmented", aug, "--matrix", A, "--degree", str(degree)],
                lambda r: {"dimension": r["dimension"], "empty": r["empty"]},
                {"dimension": total - n - dim_v, "empty": False})

    closed_form_k = {"conformal": lambda n: (n + 1) * (n + 2) // 2,
                     "isometry": lambda n: n * (n + 1) // 2,
                     "quaternion": lambda n: 8}
    for family, n in CLI_MANIFOLDS[size]:
        add(f"manifold/{family}{n}", "manifold",
            ["manifold", "--family", family, "--dim", str(n),
             "--seed", str(int(rng.integers(2**31)))],
            lambda r: {"k": r["k"], "constant": r["constant"]},
            {"k": closed_form_k[family](n), "constant": True})

    warm_space = os.path.join(workdir, f"conformal{CLI_DIMS[size][0]}.json")
    warm_out = os.path.join(workdir, "warm-up.json")
    return Workload(
        "cli-small", jobs,
        lambda: cli.main(["chain", "--input", warm_space, "--kmax", "2", "--out", warm_out]),
    )


def build(name: str, seed: int, size: str = "full", workdir: str | None = None) -> Workload:
    if name == "chain-tall":
        return chain_tall(seed, size)
    if name == "chain-wide":
        return chain_wide(seed, size)
    if name == "detect-search":
        return detect_search(seed, size)
    if name == "cli-small":
        if workdir is None:
            raise ValueError("cli-small writes its input files into a work directory")
        return cli_small(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
