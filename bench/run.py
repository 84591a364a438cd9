"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload barrier-scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``;
nothing is installed.  Untraced runs (``--trace 0``) measure set-up time
in fresh interpreters, then run the workload's closed loop in a fresh
worker process and print the end-to-end metrics.  The loop attempts a
fixed number of tasks, sized to take about ``--seconds`` (see
workloads.RATE), so two runs of one seed attempt the same tasks.
Traced runs (``--trace 1``) run a fixed prefix of the same seed's inputs
twice, in two fresh workers with different hash seeds: once plain, once
with a span on every public layer boundary.  They print the per-layer
metrics and the tracing overhead, and count a task as failed when the
two runs disagree (which covers the CLI's byte-identical promise).

Every output is checked against a reference computed here, outside
every timed region (see oracle.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  ``failed``
counts tasks whose output is wrong or missing; ``correct`` is false when
the harness itself cannot vouch for the run (a traced wrapper was never
hit, or the library imported numpy, scipy or mpmath).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
TOL = {"barrier-scan": 1e-8, "qnm-scan": 1e-3, "mass-recover": 1e-6}
TOL_UNIT = {"barrier-scan": "|d sigma| and |d L| / L",
            "qnm-scan": "m |d lambda|", "mass-recover": "|d m| / m"}
END_TO_END = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_ms.p50": "ms",
    "task_ms.tail": "ms", "pass_rate": "ratio", "peak_rss_mb": "MB",
}
# ref_err.max, the worst passing deviation as a share of the tolerance,
# is printed but is not an end-to-end metric: a maximum over
# roundoff-sized errors is not steady from seed to seed.
RUN_BUDGET_S = 170.0
_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import qnmrecover, qnmrecover.cli; "
                 "print(repr(time.perf_counter() - t))")


class BenchError(Exception):
    """The run cannot produce a result."""


# ---- environment -------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    if "QNM_THREADS" in os.environ:
        raise BenchError("QNM_THREADS is set; the benchmark measures the "
                         "default single-threaded library")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "loadavg": list(os.getloadavg()),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _child_env(src, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def measure_setup(root, src):
    """Median in-process import time over several fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              cwd=root, env=_child_env(src),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_worker(root, src, job, deadline, hash_seed=None):
    job = dict(job, src=src)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          cwd=root, env=_child_env(src, hash_seed),
                          input=json.dumps(job), capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# ---- checking ----------------------------------------------------------------

def _near_edge(z, window, band):
    re_min, re_max, im_min, im_max = window
    return min(z.real - re_min, re_max - z.real,
               z.imag - im_min, im_max - z.imag) < band


def match(required, optional, got, tol, capture):
    """Pair reported zeros with reference zeros, nearest first.

    Returns (missing, spurious, worst distance over pairs).  A pair
    further apart than tol is a wrong value; a reference zero with no
    reported zero within ``capture`` is missing, and the reverse is
    spurious.  Optional references (on the window edge) may be absent.
    """
    refs = [(z, True) for z in required] + [(z, False) for z in optional]
    pairs = sorted((abs(r - g), i, j) for i, (r, _) in enumerate(refs)
                   for j, g in enumerate(got) if abs(r - g) <= capture)
    used_r, used_g, worst = set(), set(), 0.0
    for d, i, j in pairs:
        if i in used_r or j in used_g:
            continue
        used_r.add(i)
        used_g.add(j)
        worst = max(worst, d)
    missing = sum(1 for i, (_, req) in enumerate(refs)
                  if req and i not in used_r)
    spurious = len(got) - len(used_g)
    return missing, spurious, worst


def _verdict(missing, spurious, err, detail):
    if missing:
        return {"status": "fail", "reason": "missing zero",
                "detail": f"{missing} missing; {detail}"}
    if spurious:
        return {"status": "fail", "reason": "spurious zero",
                "detail": f"{spurious} spurious; {detail}"}
    if err > 1.0:
        return {"status": "fail", "reason": "wrong value",
                "detail": f"off by {err:.3g} x tol; {detail}"}
    return {"status": "pass", "err": err}


def check_barrier(inp, res, ref):
    import oracle
    L = inp["L"]
    got = [complex(*z) for z in res["zeros"]]
    # the scanner may move its rectangle by 1e-6 of the width, so a zero
    # this close to the edge may be reported or not
    band = 1e-5
    required = [z for z in ref if not _near_edge(z, oracle.BARRIER_WINDOW,
                                                 band)]
    optional = [z for z in ref if z not in required]
    tol = TOL["barrier-scan"]
    missing, spurious, worst = match(required, optional, got, tol, 1e-4)
    l_err = max((abs(lh - L) / L for lh in res["L_hat"]), default=0.0)
    return _verdict(missing, spurious, max(worst, l_err) / tol,
                    f"{len(got)} reported, {len(ref)} expected")


def parse_qnm_csv(text):
    lines = text.strip().split("\n")
    if lines[0] != "re,im,residual,multiplicity":
        raise ValueError(f"unexpected header {lines[0]!r}")
    zeros = []
    for line in lines[1:]:
        re, im, _, mult = line.split(",")
        zeros += [complex(float(re), float(im))] * int(mult)
    return zeros


def check_qnm(inp, res, ref):
    band, converged = ref
    if res["rc"] != 0:
        name = res["stderr"].split(":", 1)[0] or f"exit {res['rc']}"
        return {"status": "fail", "reason": "typed error",
                "detail": f"exit {res['rc']}: {res['stderr'].strip()}",
                "error": name}
    if not converged:
        return {"status": "unverified",
                "detail": "collocation did not converge in the window"}
    m, tol = inp["m"], TOL["qnm-scan"]
    try:
        got = [m * z for z in parse_qnm_csv(res["stdout"])]
    except ValueError as err:
        return {"status": "fail", "reason": "wrong value",
                "detail": f"unreadable CSV: {err}"}
    window = [m * v for v in inp["window"]]
    required = [z for z in band if not _near_edge(z, window, tol)
                and window[0] < z.real < window[1]
                and window[2] < z.imag < window[3]]
    optional = [z for z in band if z not in required]
    missing, spurious, worst = match(required, optional, got, tol, 10 * tol)
    return _verdict(missing, spurious, worst / tol,
                    f"{len(got)} reported, {len(required)} expected")


def check_mass(inp, res, ref):
    rel = abs(res["m_hat"] - inp["m"]) / inp["m"]
    if [inp["l"], 0, 1] not in res["blind"]:
        return {"status": "fail", "reason": "wrong value",
                "detail": "blind scan lacks the true (l, 0, +) hypothesis"}
    return _verdict(0, 0, rel / TOL["mass-recover"],
                    f"m_hat = {res['m_hat']!r}")


def references(workload, inputs, indices):
    """Reference for each input index that ran.

    oracle (numpy, scipy, mpmath) is imported only here, after every
    worker has exited: Linux carries a forking parent's resident size
    into the child's ru_maxrss, so a heavy parent would inflate the
    worker's peak_rss_mb.
    """
    import oracle
    out = {}
    for k in indices:
        inp = inputs[k]
        try:
            if workload == "barrier-scan":
                out[k] = oracle.barrier_zeros(inp["L"])
            elif workload == "qnm-scan":
                m, tol = inp["m"], TOL["qnm-scan"]
                re_min, re_max, im_min, im_max = (m * v
                                                  for v in inp["window"])
                out[k] = oracle.sds_band(
                    inp["x"], inp["l"],
                    (re_min - tol, re_max + tol, im_min - tol, im_max + tol))
            else:
                out[k] = None
        except oracle.OracleFailure as err:
            out[k] = err
    return out


CHECKS = {"barrier-scan": check_barrier, "qnm-scan": check_qnm,
          "mass-recover": check_mass}


def verdict(workload, inp, res, ref, differs):
    if differs:
        return {"status": "fail", "reason": "not reproducible",
                "detail": "two runs of the same input disagree"}
    if "error" in res:
        return {"status": "fail", "reason": "typed error",
                "detail": f"{res['error']}: {res['message']}",
                "error": res["error"]}
    if isinstance(ref, Exception):
        return {"status": "unverified", "detail": str(ref)}
    return CHECKS[workload](inp, res["ok"], ref)


def known_defect(workload, inp, v):
    """Name the known defect a failure matches, if any."""
    err = v.get("error", "")
    if workload == "barrier-scan" and err == "NonIntegerWinding":
        return "scanner floor: NonIntegerWinding in the default window"
    if workload == "barrier-scan" and v["reason"] == "missing zero":
        reported, expected = (int(w.split()[0]) for w in
                              v["detail"].split(";")[1].split(","))
        if reported < expected / 2:
            return "scanner floor: default window silently (almost) empty"
    if err in ("NoConvergence", "NonConvergence") and inp["x"] < 0.3:
        return "NoConvergence at low 9 m^2 Lambda"
    if workload == "qnm-scan" and v["reason"] == "spurious zero":
        return "truncation artifact past the filter (as the l = 2 case)"
    return None


def _describe(inp):
    return " ".join(f"{k}={v!r}" if not isinstance(v, float)
                    else f"{k}={v:.6g}" for k, v in inp.items()
                    if k != "window")


# ---- metrics -----------------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 70.0, 60.0, 50.0)


def per_input_ms(samples):
    """Each input's median task time; an input counts once however often
    the loop ran it, so one slow repetition cannot set a percentile."""
    per_input = {}
    for k, ms in samples:
        per_input.setdefault(k, []).append(ms)
    return sorted(statistics.median(v) for v in per_input.values())


def tail(ordered):
    """(value, percentile) of the task-time tail over sorted times.

    The percentile is the highest rung of TAIL_LADDER with at least ten
    inputs above it; a fixed ladder keeps runs whose input counts differ
    by one or two on the same percentile.
    """
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0),
               100.0)
    pos = pct / 100.0 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), pct


def summarize(workload, inputs, worker, verdicts):
    samples = worker["samples"]
    status = [verdicts[k]["status"] for k, _ in samples]
    attempted = len(samples)
    failed = status.count("fail")
    passed = status.count("pass")
    errs = [verdicts[k]["err"] for k, _ in samples
            if verdicts[k]["status"] == "pass"]
    per_input = per_input_ms(samples)
    t_val, t_pct = tail(per_input)
    metrics = {
        "tasks_per_s": attempted / worker["wall_s"],
        "task_ms.p50": statistics.median(per_input),
        "task_ms.tail": t_val,
        "pass_rate": passed / attempted,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    info = {"attempted": attempted, "failed": failed, "passed": passed,
            "unverified": status.count("unverified"),
            "fail_rate": failed / attempted,
            "ref_err.max": max(errs, default=0.0),
            "tail_percentile": t_pct, "inputs": len(per_input),
            "ref_err_unit": f"share of tol {TOL[workload]:g} on "
                            f"{TOL_UNIT[workload]}"}
    return metrics, info


def print_inventory(workload, inputs, verdicts, samples):
    runs = {}
    for k, _ in samples:
        runs[k] = runs.get(k, 0) + 1
    for k in sorted(runs):
        v = verdicts[k]
        if v["status"] == "pass":
            continue
        known = known_defect(workload, inputs[k], v) \
            if v["status"] == "fail" else None
        print(f"{v['status']:<10} input #{k} ({runs[k]}x) "
              f"{_describe(inputs[k])} | {v.get('reason', '-')} | "
              f"{v['detail'][:160]}"
              + (f" | known: {known}" if known else ""))


# ---- runs ----------------------------------------------------------------------

def check_all(workload, inputs, results, differs):
    ran = [k for k, r in enumerate(results) if r is not None]
    refs = references(workload, inputs,
                      [k for k in ran if "ok" in results[k]])
    return {k: verdict(workload, inputs[k], results[k], refs.get(k),
                       differs[k]) for k in ran}


def timed_run(args, root, src, inputs, deadline):
    setup = measure_setup(root, src)
    worker = run_worker(root, src, {"workload": args.workload,
                                    "inputs": inputs,
                                    "count": workloads.task_count(
                                        args.workload, args.seconds)},
                        deadline)
    verdicts = check_all(args.workload, inputs, worker["results"],
                         worker["differs"])
    metrics, info = summarize(args.workload, inputs, worker, verdicts)
    metrics = {"setup_s": setup, **metrics}
    print_inventory(args.workload, inputs, verdicts, worker["samples"])
    digests = {}
    if args.workload == "qnm-scan":
        for k, r in enumerate(worker["results"]):
            if r is not None and "ok" in r:
                body = f"{r['ok']['rc']}\n{r['ok']['stdout']}".encode()
                digests[k] = hashlib.sha256(body).hexdigest()[:16]
        print("cli digests: " + json.dumps(digests))
    print("info: " + json.dumps(info))
    for name, value in metrics.items():
        extra = ""
        if name == "task_ms.tail":
            extra = (f"  (p{info['tail_percentile']:g} of "
                     f"{info['inputs']} inputs)")
        print(f"{name:<14} {value:.6g} {END_TO_END[name]}{extra}")
    print(f"{'fail_rate':<14} {info['fail_rate']:.6g} ratio  "
          f"({info['failed']} of {info['attempted']} tasks)")
    print(f"{'ref_err.max':<14} {info['ref_err.max']:.6g} tol  "
          f"({info['ref_err_unit']})")
    harness_ok = not worker["foreign_modules"]
    return harness_ok, info, {n: {"value": v, "unit": END_TO_END[n]}
                              for n, v in metrics.items()}


def traced_run(args, root, src, inputs, deadline):
    count = min(workloads.TRACE_TASKS[args.workload], len(inputs))
    job = {"workload": args.workload, "inputs": inputs, "count": count}
    plain = run_worker(root, src, job, deadline, hash_seed=1)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir,
                              f"spans-{args.workload}-{args.seed}.jsonl")
    traced = run_worker(root, src, dict(job, trace=True,
                                        spans_path=spans_path),
                        deadline, hash_seed=2)
    differs = [a != b or da or db for a, b, da, db in
               zip(plain["results"], traced["results"], plain["differs"],
                   traced["differs"])]
    verdicts = check_all(args.workload, inputs, traced["results"], differs)
    _, info = summarize(args.workload, inputs, traced, verdicts)
    print_inventory(args.workload, inputs, verdicts, traced["samples"])
    missing = [name for name in workloads.EXPECTED_SPANS[args.workload]
               if traced["hits"][name] == 0]
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.overhead_pct"] = (100.0 * layers["trace.overhead_s"]
                                    / plain["wall_s"])
    print("info: " + json.dumps(info))
    print("wrapper hits: " + json.dumps(traced["hits"]))
    print(f"tracing overhead: {layers['trace.overhead_s']:.4f} s "
          f"({layers['trace.overhead_pct']:.1f}% of {plain['wall_s']:.4f} s "
          f"untraced, {count} tasks); spans in {spans_path}")
    for name, (unit, _) in spans.METRICS.items():
        value = layers[name]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<44} {shown} {unit}")
    if missing:
        print("wrapper never hit: " + ", ".join(missing), file=sys.stderr)
    harness_ok = not missing and not (plain["foreign_modules"]
                                      or traced["foreign_modules"])
    return harness_ok, info, {n: {"value": layers[n], "unit": u}
                              for n, (u, _) in spans.METRICS.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.POOL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        if not os.path.isfile(os.path.join(src, "qnmrecover", "__init__.py")):
            raise BenchError(f"no library sources under {src}")
        print("env: " + json.dumps(environment(args)))
        inputs = workloads.generate(args.workload, args.seed)
        t0 = time.monotonic()
        run = traced_run if args.trace else timed_run
        harness_ok, info, metrics = run(args, root, src, inputs,
                                        t0 + RUN_BUDGET_S)
        print(f"run took {time.monotonic() - t0:.1f} s")
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": harness_ok, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0 if harness_ok else 1


if __name__ == "__main__":
    sys.exit(main())
