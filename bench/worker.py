"""One workload in a fresh, single-threaded process.

Reads a job (JSON) on stdin, runs the closed loop, writes one JSON
object on stdout.  The loop has one client: the next task starts when
the previous one returns.  Only qnmrecover and the standard library are
imported here, so peak RSS belongs to the library and the harness.

A job runs ``count`` tasks: the input pool in order, starting over when
it is exhausted.  The count, not a clock, ends the loop, so two runs of
one job attempt the same tasks.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from array import array

import spans
import workloads

_FOREIGN = ("numpy", "scipy", "mpmath")


def _load_library(src):
    lib = importlib.import_module("qnmrecover")
    for name in ("barrier", "cli", "geometry", "recovery", "spectrum"):
        importlib.import_module(f"qnmrecover.{name}")
    path = os.path.realpath(lib.__file__)
    if not path.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qnmrecover imported from {path}, not from {src}")
    return lib


def _run_one(task, lib, inp):
    try:
        return {"ok": task(lib, inp)}
    except (lib.errors.QnmError, ValueError) as err:
        return {"error": type(err).__name__, "message": str(err)}


def main():
    job = json.load(sys.stdin)
    lib = _load_library(job["src"])
    task = workloads.TASKS[job["workload"]]
    inputs = job["inputs"]
    tracer = None
    if job.get("trace"):
        tracer = spans.Tracer()
        tracer.install()

    results = [None] * len(inputs)
    differs = [False] * len(inputs)
    # input index and ms of every attempted task; arrays keep the harness's
    # own memory small next to the library's, whatever the task count
    keys, times = array("l"), array("d")
    clock = time.perf_counter
    count = job["count"]
    start = clock()
    for i in range(count):
        k = i % len(inputs)
        if tracer is not None:
            tracer.task = i
        t0 = clock()
        res = _run_one(task, lib, inputs[k])
        times.append(1e3 * (clock() - t0))
        keys.append(k)
        if results[k] is None:
            results[k] = res
        elif res != results[k]:
            differs[k] = True
    wall = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"wall_s": wall, "samples": list(zip(keys, times)),
           "results": results, "differs": differs, "peak_rss_mb": peak_rss_mb,
           "foreign_modules": [m for m in _FOREIGN if m in sys.modules]}
    if tracer is not None:
        tracer.uninstall()
        out["hits"] = spans.hit_counts(tracer.spans)
        out["layers"] = spans.layer_metrics(tracer.spans)
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
