"""Command-line surface: deterministic JSON reports over the library.

Exit codes: 0 for a completed analysis (inconclusive and failing verdicts
are report content), 1 for invalid input, 2 for an internal numerical
inconsistency.
"""

import argparse
import functools
import inspect
import json
import math
import sys
from typing import NamedTuple

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


def _finite_numbers(values) -> bool:
    """Whether every value is an int or float that is finite as a double."""
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the double range
        return False


def _load_json(path: str) -> dict:
    """Parse a JSON input file, rejecting NaN, Infinity, overflowing numbers,
    true/false, null and strings, which no input field takes."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a bare ValueError is the integer digit limit
            reason = "an integer too long to read" if type(exc) is ValueError else exc
            raise ValueError(f"{reason} in {path}; fields are finite numbers") from None
    stack = [(None, data)]  # (field name, value); list items keep their field's name
    while stack:
        key, value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.items())
        elif isinstance(value, list):
            if not _finite_numbers(value):
                stack.extend((key, item) for item in value)
        elif not _finite_numbers((value,)):
            where = "top level" if key is None else f"field {key!r}"
            shown = (f"{len(str(abs(value)))}-digit integer" if type(value) is int
                     else json.dumps(value))
            raise ValueError(f"{shown} at {where} of {path}; fields are finite numbers")
    return data


def _emit(report: dict, config: dict | None, out: str | None) -> None:
    """Write the report; a None config writes the bare result."""
    payload = report if config is None else {"config": config, "result": report}
    if config is not None and config["format"] == "table":
        text = _render_table(payload)
    else:
        # one line through the C encoder, which an indent would turn off; strict
        # JSON: a NaN or Infinity raises ValueError instead of being written
        text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"
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


def _cmd_chain(args) -> dict:
    report = chain(subspace_from_json(_load_json(args.input)), args.k_max)
    body = report.to_json()
    if not report.alpha_total_exact:
        body["alpha_total_note"] = f">= {report.alpha_total}"
    return body


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
    basis = solution_basis(report)
    return {
        "delta": report.delta.to_json(),
        "alpha": list(report.alpha),
        "alpha_total": report.alpha_total,
        "solution_basis": basis.to_json(),
        "reduced_basis": reduced_basis(basis).to_json(),
    }


def _cmd_manifold(args) -> dict:
    family = builtin_family(args.family, args.dim)
    if args.emit_tangent:
        if args.format == "table":
            raise ValueError("--emit-tangent writes a JSON file; it takes no --format table")
        # raw subspace file, replayable through the linear subcommands
        return subspace_to_json(tangent_space(family, family.base_point))
    return sample_analysis(
        family, sample_count=args.samples, k_max=args.k_max,
        seed=args.seed, restarts=args.restarts,
    ).to_json()


def _cmd_verify(args) -> dict:
    V = subspace_from_json(_load_json(args.input))
    F = polymap_from_json(_load_json(args.poly))
    if (F.n, F.m) != (V.n, V.m):
        raise ValueError("polynomial and subspace dimensions disagree")
    return verify_membership(
        F, V, samples=args.samples, radius=args.radius, tol=args.tol, seed=args.seed,
    ).to_json()


def _cmd_jet(args) -> dict:
    v_aug = augmented_from_json(_load_json(args.input))
    return augmented_jet_space(v_aug, _load_json(args.matrix), args.degree).to_json()


# --- options: each declared once, with its one default ---------------------

def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
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


def _default(fn, parameter: str):
    """The library's default for one parameter of ``fn``; the CLI repeats
    no default that the library already declares."""
    return inspect.signature(fn).parameters[parameter].default


INPUT = Option("--input", "input", dict(required=True, help="subspace file"))
KMAX = Option("--kmax", "k_max", dict(type=_count, default=_default(chain, "k_max")))
SEED = Option("--seed", "seed",
              dict(type=_non_negative, default=_default(find_witnesses, "seed")))
RESTARTS = Option("--restarts", "restarts",
                  dict(type=_count, default=_default(find_witnesses, "restarts")))
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
        Option("--samples", "samples",
               dict(type=_count, default=_default(sample_analysis, "sample_count"))),
        Option("--emit-tangent", "emit_tangent", dict(
            action="store_true",
            help="write the base-point tangent space as a subspace file"), report=False),
        KMAX, SEED, _fixed(RESTARTS),
    )),
    "verify": (_cmd_verify, "sampled Jacobian membership check", (
        INPUT,
        Option("--poly", "poly", dict(required=True, help="polynomial file"), report=False),
        Option("--samples", "samples",
               dict(type=_count, default=_default(verify_membership, "samples"))),
        Option("--radius", "radius",
               dict(type=_positive, default=_default(verify_membership, "radius"))),
        Option("--tol", "tol", dict(type=_positive, default=_default(verify_membership, "tol"))),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` looks each
    handler up in ``SUBCOMMANDS`` when it runs."""
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
