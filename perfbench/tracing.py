"""Timing spans recorded from the benchmark's own wrappers.

The library is not edited: :func:`install` replaces every public function of
each layer module (``symtensor``, ``matspace``, ``prolong``, ``obstruct``,
``polyspace``, ``manifolds``, ``cli``) by a wrapper, in every module of the
package that holds a reference to it, and wraps ``numpy.linalg.svd`` as the
``kernel`` layer and the ``scipy.optimize.minimize`` that ``obstruct``
imported.  Functions behind ``functools.lru_cache`` are left alone; their
hit ratio comes from ``cache_info()``.

Spans are recorded only while a job is open, so the benchmark's own checks
and set-up leave none.  Each span is ``(id, parent, job, name, start, end,
attrs)``; all spans stay in memory until the run ends.
"""

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("symtensor", "matspace", "prolong", "obstruct", "polyspace", "manifolds", "cli")


def _matrix_shape(args, kwargs, result):
    a = np.asarray(args[0])
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]) if a.ndim > 1 else 1}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _certified(args, kwargs, result):
    return {"certified": bool(result)}


def _subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"subcommand": argv[0] if argv else None}


ATTRS = {
    "matspace.nullspace_rows": _matrix_shape,
    "kernel.svd": _matrix_shape,
    "obstruct.minimize": _nfev,
    "obstruct.verify_complex_pair": _certified,
    "cli.main": _subcommand,
}


class Tracer:
    """Span recorder: one open-span stack, one open job at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0
        self.job = None

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append((sid, parent, self.job, name, start, end, extra))
            return result

        return wrapper

    def run_job(self, job_id: str, kind: str, fn):
        """Run ``fn`` as the root span ``job.<kind>`` of job ``job_id``."""
        self.job = job_id
        try:
            return self.wrap(f"job.{kind}", fn)()
        finally:
            self.job = None

    def write_jsonl(self, path: str, jobs: set) -> None:
        """Write the spans of the given jobs, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, extra in self.spans:
                if job in jobs:
                    record = {"id": sid, "parent": parent, "job": job, "name": name,
                              "start": start, "end": end}
                    if extra:
                        record.update(extra)
                    fh.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> list:
    """Wrap every layer's public functions; returns the wrapped names."""
    package = importlib.import_module("prolongation")
    modules = {layer: importlib.import_module(f"prolongation.{layer}") for layer in LAYERS}
    originals = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and not hasattr(obj, "cache_info")):
                originals[f"{layer}.{name}"] = obj
    wrapped = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in originals.items()}
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                setattr(mod, attr, wrapped[id(obj)][1])
    obstruct = modules["obstruct"]
    originals["obstruct.minimize"] = obstruct.minimize
    obstruct.minimize = tracer.wrap("obstruct.minimize", obstruct.minimize)
    originals["kernel.svd"] = np.linalg.svd
    np.linalg.svd = tracer.wrap("kernel.svd", np.linalg.svd)
    return list(originals)


def derivative_op_counts() -> tuple:
    """Hits and misses so far of the lru cache behind ``derivative_op``."""
    info = importlib.import_module("prolongation.symtensor").derivative_op.cache_info()
    return info.hits, info.misses


def layer_metrics(spans: list, names, finite_jobs: set) -> dict:
    """Per-layer metrics ``<layer>.<function>.<stat>`` from the spans.

    Span jobs read ``<run>/<job id>``.  Every wrapped function in ``names``
    is reported, with zeros when no job called it.  Counts (``calls``,
    shapes, objective calls) come from each job's first run alone and repeat
    exactly; times (``s``, ``self_s``) add up each job's mean over its runs,
    so they are the time of one pass over the job list; ``max_s`` is over
    all spans; a ``share`` is a layer's time over the time of the jobs.
    ``finite_jobs`` are the job ids whose chain terminated.
    """
    def job_of(span):
        return span[2].split("/", 1)[1]

    def in_first(span):
        return span[2].startswith("0/")

    runs = {}
    for span in spans:
        if span[3].startswith("job."):
            runs[job_of(span)] = runs.get(job_of(span), 0) + 1
    child = {}
    for span in spans:
        if span[1] is not None:
            child[span[1]] = child.get(span[1], 0.0) + span[5] - span[4]

    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0}
             for name in ["job", *names]}
    for span in spans:
        sid, parent, job, name, start, end, extra = span
        name = "job" if name.startswith("job.") else name
        dur = end - start
        weight = 1.0 / runs[job_of(span)]
        st = stats[name]
        st["s"] += dur * weight
        st["self_s"] += (dur - child.get(sid, 0.0)) * weight
        st["max_s"] = max(st["max_s"], dur)
        if in_first(span):
            st["calls"] += 1
    job_seconds = stats.pop("job")["s"]

    metrics = {}
    for name, st in sorted(stats.items()):
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.s"] = (st["s"], "s")
        metrics[f"{name}.self_s"] = (st["self_s"], "s")
        metrics[f"{name}.max_s"] = (st["max_s"], "s")

    def per_pass(name):
        return stats[name]["s"]

    def first(name):
        return [s for s in spans if s[3] == name and in_first(s)]

    for name in ("kernel.svd", "matspace.nullspace_rows", "obstruct.minimize"):
        metrics[f"{name}.share"] = (per_pass(name) / job_seconds if job_seconds else 0.0, "1")
    nullspace = first("matspace.nullspace_rows")
    metrics["matspace.nullspace_rows.max_rows"] = (
        max((s[6]["rows"] for s in nullspace), default=0), "count")
    metrics["matspace.nullspace_rows.max_cols"] = (
        max((s[6]["cols"] for s in nullspace), default=0), "count")
    metrics["matspace.nullspace_rows.in_mb"] = (
        sum(s[6]["rows"] * s[6]["cols"] * 8 for s in nullspace) / 1e6, "MB")

    minimize = first("obstruct.minimize")
    metrics["obstruct.restarts"] = (len(minimize), "count")
    metrics["obstruct.objective_calls"] = (sum(s[6]["nfev"] for s in minimize), "count")
    find_s = per_pass("obstruct.find_rank_one") + per_pass("obstruct.find_complex_pair")
    metrics["obstruct.polish_s"] = (max(find_s - per_pass("obstruct.minimize"), 0.0), "s")
    verified = first("obstruct.verify_complex_pair")
    metrics["obstruct.verify_pass_ratio"] = (
        sum(s[6]["certified"] for s in verified) / len(verified) if verified else 0.0, "1")
    guard = sum((s[5] - s[4]) / runs[job_of(s)] for s in spans
                if job_of(s) in finite_jobs and s[3] in ("obstruct.find_rank_one",
                                                         "obstruct.find_complex_pair"))
    metrics["obstruct.guard_s"] = (guard, "s")

    by_sub = {}
    for s in spans:
        if s[3] == "cli.main":
            key = f"cli.main.{s[6]['subcommand']}.s"
            by_sub[key] = by_sub.get(key, 0.0) + (s[5] - s[4]) / runs[job_of(s)]
    metrics.update((key, (value, "s")) for key, value in sorted(by_sub.items()))
    metrics["trace.spans"] = (sum(1 for s in spans if in_first(s)), "count")
    return metrics
