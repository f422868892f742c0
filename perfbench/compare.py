"""Compare two benchmark result files, or summarise one.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

A result file holds one JSON record a line, as ``run.py --out`` appends
them.  For each workload and each end-to-end metric of ``BENCHMARK.json``
the comparison prints both sides' median and quartiles over their untraced
runs and a verdict against the metric's bound:

- ``regressed``: the new median is worse than the base median by more than
  the bound;
- ``unresolved``: the base runs spread wider than the bound, and not every
  new run reads better than every base run;
- ``improved``: better by more than the base runs' own spread;
- ``within bound`` otherwise.

Per-layer metrics of the traced runs are listed with their medians and no
verdict, with ``trace.overhead_s``, the traced minus the untraced median
``wall_s``.  Every job whose answer (alpha, delta, verdict, counts) differs
between the files, or between two runs of one seed in one file, is listed.
The exit code is 1 when a metric regressed or an answer differs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records: list, workload: str, trace: int, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]]


def quartiles(vals: list) -> tuple:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(base: list, new: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base)
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    worse = sign * (statistics.median(new) - bmed) / abs(bmed) if bmed else 0.0
    if spread > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "improved (every run)"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread:
        return "improved"
    return "within bound"


def answers(records: list) -> tuple:
    """Answers by (workload, seed, size, job id), and jobs whose repeated
    runs in one file disagree."""
    out, unstable = {}, []
    for r in records:
        for job, answer in r.get("answers", {}).items():
            key = (r["workload"], r["seed"], r.get("size", "full"), job)
            if key in out and out[key] != answer:
                unstable.append((key, out[key], answer))
            out.setdefault(key, answer)
    return out, unstable


def fmt(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def workloads_of(*files) -> list:
    seen = []
    for records in files:
        for r in records:
            if r["workload"] not in seen:
                seen.append(r["workload"])
    return seen


def report(spec: dict, files: list, names: list) -> int:
    status = 0
    for wl in workloads_of(*files):
        print(f"== {wl}")
        for m in spec["end_to_end"]:
            sides = [values(records, wl, 0, m["name"]) for records in files]
            if not all(sides):
                continue
            cells = "  ".join(f"{n}: {fmt(quartiles(v))} (n={len(v)})"
                              for n, v in zip(names, sides))
            line = f"  {m['name']} [{m['unit']}]  {cells}"
            if len(files) == 2:
                v = verdict(sides[0], sides[1], m["better"], m["bound"])
                status |= v == "regressed"
                line += f"  -> {v} (bound {m['bound']})"
            print(line)
        for m in spec["per_layer"]:
            sides = [values(records, wl, 1, m["name"]) for records in files]
            if all(sides):
                cells = "  ".join(f"{n}: {statistics.median(v):.6g}"
                                  for n, v in zip(names, sides))
                print(f"  {m['name']} [{m['unit']}]  {cells}")
        for n, records in zip(names, files):
            traced = values(records, wl, 1, "traced_wall_s")
            plain = values(records, wl, 0, "wall_s")
            if traced and plain:
                overhead = statistics.median(traced) - statistics.median(plain)
                print(f"  trace.overhead_s [s]  {n}: {overhead:.4g}")

    found = [answers(records) for records in files]
    for n, (_, unstable) in zip(names, found):
        for key, first, other in unstable:
            status = 1
            print(f"ANSWER VARIES in {n}: {' '.join(map(str, key))}: {first} vs {other}")
    if len(files) == 2:
        base, new = found[0][0], found[1][0]
        for key in sorted(base.keys() & new.keys()):
            if base[key] != new[key]:
                status = 1
                print(f"ANSWER DIFFERS: {' '.join(map(str, key))}: "
                      f"{names[0]} {base[key]} vs {names[1]} {new[key]}")
        print(f"{len(base.keys() & new.keys())} jobs compared by answer")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", help="one or two result files")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two result files")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    files = [load(path) for path in args.files]
    names = ["base", "new"] if len(files) == 2 else ["runs"]
    return report(spec, files, names)


if __name__ == "__main__":
    sys.exit(main())
