"""Seeded inputs and the task each workload runs.

Input generation is pure standard library and depends only on the
workload name and the seed.  Pools are stratified: input i owns one
1/n slice of each continuous range (L, or x = 9 m^2 Lambda and m), the
seed picks the point inside the slice, and the slices are visited in a
fixed low-discrepancy order (a golden-ratio sequence, or a 3-d
Kronecker sequence for the black-hole workloads).  The multipole l
follows the same fixed sequence.  The closed loop runs a pool in order,
starting over when it is exhausted, so every run, whatever its seed,
covers the ranges evenly with the same mix of task costs.

The task functions run inside the worker process and reach the library
only through module attributes, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import math
import random

PHI = (math.sqrt(5.0) - 1.0) / 2.0      # 1 / golden ratio
_G3 = 1.2207440846057594                 # real root of g^4 = g + 1
R3 = (1.0 / _G3, _G3 ** -2, _G3 ** -3)   # steps of a 3-d Kronecker sequence

# barrier-scan: L log-uniform on [0.2, 12]
BARRIER_L = (0.2, 12.0)
# qnm-scan / mass-recover: l log-uniform on 2..16, x = 9 m^2 Lambda uniform,
# m log-uniform on [0.5, 2].  qnm-scan starts at x = 0.35: below it one
# scan costs 3-70 s (measured at l = 7-16, x = 0.08-0.3), longer than a
# run can absorb; mass-recover covers that region.
L_RANGE = (2, 16)
QNM_X = (0.35, 0.95)
MASS_X = (0.05, 0.95)
M_RANGE = (0.5, 2.0)
BLIND_K_MAX = 2

# Pool sizes, and the work of one timed run.  A run attempts a fixed
# number of tasks, RATE tasks per requested second (the rate of the
# library as first measured: 2-core AMD EPYC, Python 3.11), so a run
# takes about the requested time, and two runs of one seed attempt, and
# fail, exactly the same tasks.  At the benchmark's 35 s every run is
# whole passes over its pool: 140 for barrier-scan, one for the others.
# A mass-recover task's cost is chaotic in its inputs (the secant count
# moves by 20% when m moves by 0.1%), so each input runs the same number
# of times and the percentiles range over the whole pool.
POOL = {"barrier-scan": 256, "qnm-scan": 32, "mass-recover": 54}
RATE = {"barrier-scan": 1024.0, "qnm-scan": 32 / 35.0,
        "mass-recover": 54 / 35.0}
TRACE_TASKS = {"barrier-scan": 256, "qnm-scan": 8, "mass-recover": 12}


def task_count(workload, seconds):
    """Tasks a timed run attempts: fixed by the workload and --seconds."""
    return max(1, round(seconds * RATE[workload]))


def _frac(v):
    return v - math.floor(v)


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _strata(n, step):
    """Slice index of each input: ranks of the sequence frac(0.5 + i step)."""
    seq = [_frac(0.5 + i * step) for i in range(n)]
    order = sorted(range(n), key=seq.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def generate(workload, seed):
    """The input pool of one workload for one seed (a list of dicts)."""
    rng = random.Random(f"{workload}:{seed}")
    n = POOL[workload]
    if workload == "barrier-scan":
        return [{"L": _log_uniform((r + rng.random()) / n, *BARRIER_L)}
                for r in _strata(n, PHI)]
    x_lo, x_hi = QNM_X if workload == "qnm-scan" else MASS_X
    out = []
    for i, (rx, rm) in enumerate(zip(_strata(n, R3[0]), _strata(n, R3[2]))):
        x = x_lo + (x_hi - x_lo) * (rx + rng.random()) / n
        # log-uniform in l: the low multipoles, which dominate ringdown
        # signals, get more tasks than the high ones
        l = min(int(_log_uniform(_frac(0.5 + i * R3[1]), L_RANGE[0],
                                 L_RANGE[1] + 1)), L_RANGE[1])
        m = _log_uniform((rm + rng.random()) / n, *M_RANGE)
        lam = x / (9.0 * m * m)
        c = math.sqrt(1.0 - x) / (3.0 ** 1.5 * m)
        if workload == "qnm-scan":
            # around the k = 0 band, which sits near Im = -c / 2
            window = ((l + 0.5) * c * 0.96, (l + 0.5) * c * 1.02,
                      -0.65 * c, -0.32 * c)
            out.append({"m": m, "Lambda": lam, "l": l, "x": x,
                        "window": window})
        elif workload == "mass-recover":
            # start above and below the truth in turn; m_init must stay
            # admissible: m < 1 / (3 sqrt(Lambda))
            sign = 1 if i % 2 == 0 and 1.21 * x < 0.99 else -1
            out.append({"m": m, "Lambda": lam, "l": l, "x": x,
                        "m_init": m * (1.0 + 0.1 * sign)})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


# ---- tasks (worker side) ----------------------------------------------------

def barrier_task(lib, inp):
    model = lib.barrier.BarrierModel(inp["L"])
    zeros = lib.barrier.barrier_resonances(model)
    locs = [z.location for z in zeros]
    lengths = [lib.barrier.recover_length(z) for z in locs]
    return {"zeros": [[z.real, z.imag] for z in locs], "L_hat": lengths}


def qnm_argv(inp):
    return ["sds", "qnm", "--m", repr(inp["m"]),
            "--Lambda", repr(inp["Lambda"]), "--l", str(inp["l"]),
            "--window", ",".join(repr(v) for v in inp["window"])]


def qnm_task(lib, inp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(qnm_argv(inp))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def mass_task(lib, inp):
    spectrum, recovery = lib.spectrum, lib.recovery
    params = lib.geometry.BlackHoleParams(inp["m"], inp["Lambda"])
    mu = spectrum.lattice_point(params, inp["l"], 0, 1).mu
    lam = spectrum.qnm_near(params, inp["l"], mu).location
    res = recovery.recover_mass_numeric(lam, inp["Lambda"], inp["l"],
                                        inp["m_init"])
    blind = recovery.recover_mass_lattice_blind(mu, inp["Lambda"],
                                                L_RANGE[1], BLIND_K_MAX)
    return {"lam": [lam.real, lam.imag], "m_hat": res.m_hat,
            "blind": [[c.l, c.k, c.re_sign] for c in blind]}


TASKS = {"barrier-scan": barrier_task, "qnm-scan": qnm_task,
         "mass-recover": mass_task}

# wrappers each workload must hit in a traced run
EXPECTED_SPANS = {
    "barrier-scan": ("zscan.find_zeros", "zscan.refine_zero",
                     "barrier.resonance_function", "barrier.recover_length"),
    "qnm-scan": ("cli.main", "spectrum.qnm_shooting", "zscan.find_zeros",
                 "zscan.refine_zero", "spectrum.qnm_near",
                 "spectrum.wronskian", "_ode.integrate",
                 "spectrum.TortoiseMap", "geometry.horizons"),
    "mass-recover": ("spectrum.qnm_near", "zscan.refine_zero",
                     "spectrum.wronskian", "_ode.integrate",
                     "spectrum.TortoiseMap", "geometry.horizons",
                     "recovery.recover_mass_numeric",
                     "recovery.recover_mass_lattice_blind"),
}
