"""Command-line surface: deterministic JSON reports over the library.

Exit codes: 0 for a completed analysis (inconclusive and failing verdicts
are report content), 1 for invalid input, 2 for an internal numerical
inconsistency.
"""

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .config import TOLERANCES
from .manifolds import (
    augmented_from_json,
    augmented_jet_space,
    builtin_family,
    sample_analysis,
    tangent_space,
)
from .matspace import subspace_from_json, subspace_to_json
from .obstruct import InternalInconsistencyError, classify_delta_full, find_witnesses
from .polyspace import reduced_basis, solution_basis, verify_membership
from .prolong import chain
from .symtensor import polymap_from_json


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in input")
    return value


def _load_json(path: str) -> dict:
    """Parse a JSON input file, rejecting NaN, Infinity and overflowing numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)


def _emit(report: dict, config: dict | None, out: str | None) -> None:
    """Write the report; a None config writes the bare result."""
    if config is None:
        payload = _jsonable(report)
    else:
        payload = _jsonable({"config": config, "result": report})
    if config is not None and config["format"] == "table":
        text = _render_table(payload)
    else:
        # strict JSON: a NaN or Infinity raises ValueError instead of being written
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(payload: dict) -> str:
    lines = [f"command: {payload['config']['subcommand']}"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and all(isinstance(v, (int, float)) for v in value):
            lines.append(f"{prefix[:-1]}: {' '.join(str(v) for v in value)}")
        elif isinstance(value, (int, float, str, bool)) or value is None:
            lines.append(f"{prefix[:-1]}: {value}")
        else:
            lines.append(f"{prefix[:-1]}: <{len(value)} entries>")

    walk("", payload["result"])
    return "\n".join(lines) + "\n"


def _alpha_total_field(report) -> dict:
    body = report.to_json(include_bases=True)
    if not report.alpha_total_exact:
        body["alpha_total_note"] = f">= {report.alpha_total}"
    return body


def _cmd_chain(args) -> dict:
    V = subspace_from_json(_load_json(args.input))
    return _alpha_total_field(chain(V, args.k_max))


def _cmd_detect(args) -> dict:
    V = subspace_from_json(_load_json(args.input))
    rank_one, complex_pair = find_witnesses(V, args.seed, args.restarts)
    return {
        "n": V.n,
        "m": V.m,
        "dim_v": V.dim,
        "rank_one": rank_one.to_json() if rank_one else "inconclusive",
        "complex_pair": complex_pair.to_json() if complex_pair else "inconclusive",
    }


def _cmd_classify(args) -> dict:
    V = subspace_from_json(_load_json(args.input))
    outcome = classify_delta_full(V, args.k_max, args.seed, args.restarts)
    result = {
        "n": V.n,
        "m": V.m,
        "dim_v": V.dim,
        "delta": outcome.delta.to_json(),
        "alpha": list(outcome.chain_report.alpha),
        "searches": outcome.searches_json(),
    }
    if outcome.delta.status == "infinite_certified":
        result["witness"] = outcome.delta.witness.to_json()
    return result


def _cmd_polysolve(args) -> dict:
    V = subspace_from_json(_load_json(args.input))
    report = chain(V, args.k_max)
    if report.delta.status != "finite":
        return {
            "delta": report.delta.to_json(),
            "solution_basis": None,
            "note": "chain did not terminate within k_max; no finite basis",
        }
    basis = solution_basis(V, report)
    reduced = reduced_basis(basis)
    return {
        "delta": report.delta.to_json(),
        "alpha": list(report.alpha),
        "alpha_total": report.alpha_total,
        "solution_basis": basis.to_json(),
        "reduced_basis": reduced.to_json(),
    }


def _cmd_manifold(args) -> dict:
    family = builtin_family(args.family, args.dim)
    if args.emit_tangent:
        # raw subspace file, replayable through the linear subcommands
        V = tangent_space(family, family.base_point)
        return subspace_to_json(V)
    report = sample_analysis(
        family, sample_count=args.samples, k_max=args.k_max,
        seed=args.seed, restarts=args.restarts,
    )
    return report.to_json()


def _cmd_verify(args) -> dict:
    V = subspace_from_json(_load_json(args.input))
    F = polymap_from_json(_load_json(args.poly))
    if (F.n, F.m) != (V.n, V.m):
        raise ValueError("polynomial and subspace dimensions disagree")
    report = verify_membership(
        F, V, samples=args.samples, radius=args.radius, tol=args.tol, seed=args.seed,
    )
    return report.to_json()


def _cmd_jet(args) -> dict:
    v_aug = augmented_from_json(_load_json(args.input))
    A = np.asarray(_load_json(args.matrix), dtype=float)
    report = augmented_jet_space(v_aug, A, args.degree)
    return report.to_json()


# --- options: each declared once, with its one default ---------------------

def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


class Option(NamedTuple):
    """One option of a subcommand.

    ``dest`` names the value on the parsed arguments and, when ``report``
    holds, in the report's config block.  A ``flag`` of None runs the
    subcommand at the default without offering a flag.
    """

    flag: str | None
    dest: str
    kwargs: dict
    report: bool = True


def _fixed(option: Option) -> Option:
    return option._replace(flag=None)


INPUT = Option("--input", "input", dict(required=True, help="subspace file"))
KMAX = Option("--kmax", "k_max", dict(type=_count, default=8))
SEED = Option("--seed", "seed", dict(type=int, default=0))
RESTARTS = Option("--restarts", "restarts", dict(type=_count, default=64))
COMMON = (
    Option("--out", "out", dict(default=None, help="write the report to this path"),
           report=False),
    Option("--format", "format", dict(choices=("json", "table"), default="json")),
)

# subcommand -> (handler, help, options besides COMMON)
SUBCOMMANDS = {
    "chain": (_cmd_chain, "prolongation chain of a subspace file", (INPUT, KMAX)),
    "detect": (_cmd_detect, "search for obstruction witnesses", (INPUT, SEED, RESTARTS)),
    "classify": (_cmd_classify, "chain plus certified classification",
                 (INPUT, KMAX, SEED, _fixed(RESTARTS))),
    "polysolve": (_cmd_polysolve, "polynomial solution basis", (INPUT, KMAX)),
    "manifold": (_cmd_manifold, "sampled analysis of a builtin family", (
        Option("--family", "family", dict(
            required=True, choices=("conformal", "isometry", "quaternion", "holomorphic"))),
        Option("--dim", "dim", dict(type=int, required=True)),
        Option("--samples", "samples", dict(type=_count, default=20)),
        Option("--emit-tangent", "emit_tangent", dict(
            action="store_true",
            help="write the base-point tangent space as a subspace file"), report=False),
        KMAX, SEED, _fixed(RESTARTS),
    )),
    "verify": (_cmd_verify, "sampled Jacobian membership check", (
        INPUT,
        Option("--poly", "poly", dict(required=True, help="polynomial file"), report=False),
        Option("--samples", "samples", dict(type=_count, default=100)),
        Option("--radius", "radius", dict(type=_positive, default=1.0)),
        Option("--tol", "tol", dict(type=_positive, default=1e-9)),
        SEED,
    )),
    "jet": (_cmd_jet, "truncated jet space through a first-order part", (
        Option("--input-augmented", "input", dict(required=True)),
        Option("--matrix", "matrix", dict(required=True), report=False),
        Option("--degree", "degree", dict(type=_count, default=6)),
    )),
}


def _options(subcommand: str) -> tuple:
    return SUBCOMMANDS[subcommand][2] + COMMON


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolongation",
        description="Chain invariants, obstruction witnesses and polynomial "
                    "solution spaces for linear Jacobian constraints.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in _options(name):
            if option.flag is None:
                p.set_defaults(**{option.dest: option.kwargs["default"]})
            else:
                p.add_argument(option.flag, dest=option.dest, **option.kwargs)
    return parser


def _config(args: argparse.Namespace) -> dict:
    """The config block of a report: the options the subcommand consumes."""
    config = {"subcommand": args.subcommand, "tolerances": TOLERANCES.to_dict()}
    for option in _options(args.subcommand):
        if option.report:
            config[option.dest] = getattr(args, option.dest)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handler = SUBCOMMANDS[args.subcommand][0]
    bare = args.subcommand == "manifold" and args.emit_tangent
    try:
        _emit(handler(args), None if bare else _config(args), args.out)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
