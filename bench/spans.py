"""Spans around the library's public layer boundaries.

The library is not modified.  Tracing replaces module attributes with
wrappers; every caller inside the library resolves these names at call
time (spectrum reaches ``_ode.integrate`` and ``zscan.find_zeros`` through
the module, ``qnm_near``'s lambda looks up ``wronskian`` as a global, and
``_tmap`` calls ``TortoiseMap`` as a global), so the wrappers see every
call.  Spans are kept in memory and reduced to per-layer metrics when
the run ends.
"""
from __future__ import annotations

import importlib
import json
import time

# (module, attribute) pairs that get a span; the span name is "module.attr"
WRAPPED = (
    ("zscan", "find_zeros"),
    ("zscan", "refine_zero"),
    ("barrier", "resonance_function"),
    ("barrier", "recover_length"),
    ("_ode", "integrate"),
    ("spectrum", "wronskian"),
    ("spectrum", "qnm_near"),
    ("spectrum", "qnm_shooting"),
    ("spectrum", "TortoiseMap"),
    ("geometry", "horizons"),
    ("recovery", "recover_mass_numeric"),
    ("recovery", "recover_mass_lattice_blind"),
    ("cli", "main"),
)

# span name -> the layer its self time is booked to
_LAYER_OF = {"spectrum.TortoiseMap": "geometry.TortoiseMap"}

# per_layer metrics: name -> (unit, better).  Order is the print order.
# Metric names must start with a letter, so the _ode layer reports as ode.*
METRICS = {
    "zscan.find_zeros.calls": ("count", "lower"),
    "zscan.find_zeros.self_ms": ("ms", "lower"),
    "zscan.evals": ("count", "lower"),
    "zscan.contour_evals": ("count", "lower"),
    "zscan.refine_zero.calls": ("count", "lower"),
    "zscan.refine_zero.iters": ("count", "lower"),
    "zscan.refine_zero.self_ms": ("ms", "lower"),
    "zscan.zeros_found": ("count", "higher"),
    "zscan.errors": ("count", "lower"),
    "barrier.resonance_function.calls": ("count", "lower"),
    "barrier.resonance_function.self_ms": ("ms", "lower"),
    "barrier.us_per_eval": ("us", "lower"),
    "barrier.recover_length.calls": ("count", "lower"),
    "ode.integrate.calls": ("count", "lower"),
    "ode.integrate.self_ms": ("ms", "lower"),
    "ode.steps": ("count", "lower"),
    "ode.us_per_step": ("us", "lower"),
    "spectrum.wronskian.calls": ("count", "lower"),
    "spectrum.wronskian.self_ms": ("ms", "lower"),
    "spectrum.wronskian.ms_per_call": ("ms", "lower"),
    "spectrum.steps_per_wronskian": ("count", "lower"),
    "spectrum.qnm_near.calls": ("count", "lower"),
    "spectrum.qnm_near.wronskian_per_call": ("count", "lower"),
    "spectrum.qnm_near.errors": ("count", "lower"),
    "spectrum.qnm_shooting.calls": ("count", "lower"),
    "spectrum.qnm_shooting.candidates": ("count", "lower"),
    "spectrum.qnm_shooting.kept": ("count", "higher"),
    "spectrum.qnm_shooting.kept_ratio": ("ratio", "higher"),
    "spectrum.qnm_shooting.polish_evals": ("count", "lower"),
    "recovery.recover_mass_numeric.calls": ("count", "lower"),
    "recovery.recover_mass_numeric.self_ms": ("ms", "lower"),
    "recovery.secant_iters": ("count", "lower"),
    "recovery.wronskian_per_recovery": ("count", "lower"),
    "recovery.recover_mass_lattice_blind.calls": ("count", "lower"),
    "recovery.recover_mass_lattice_blind.self_ms": ("ms", "lower"),
    "recovery.blind_candidates": ("count", "lower"),
    "recovery.errors": ("count", "lower"),
    "geometry.TortoiseMap.calls": ("count", "lower"),
    "geometry.TortoiseMap.self_ms": ("ms", "lower"),
    "geometry.horizons.calls": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# counts that must repeat exactly between two traced runs of one seed
EXACT = tuple(name for name, (unit, _) in METRICS.items() if unit == "count")


class Span:
    __slots__ = ("sid", "name", "parent", "task", "t0", "t1", "error",
                 "result")

    def __init__(self, sid, name, parent, task, t0):
        self.sid, self.name, self.parent, self.task = sid, name, parent, task
        self.t0, self.t1 = t0, None
        self.error = False
        self.result = None          # the few numbers the metrics need

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "task": self.task, "t0": self.t0, "t1": self.t1,
                "error": self.error, "result": self.result}


def _summary(name, value):
    """Reduce a return value to what the metrics read from it."""
    if name == "_ode.integrate":
        return value[3]                                  # accepted steps
    if name == "zscan.refine_zero":
        return value.refine_iterations
    if name in ("zscan.find_zeros", "spectrum.qnm_shooting",
                "recovery.recover_mass_lattice_blind"):
        return len(value)
    if name == "cli.main":
        return value
    return None


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self._saved = []

    def wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self.stack[-1].sid if self.stack else None
            span = Span(len(self.spans), name, parent, self.task, clock())
            self.spans.append(span)
            self.stack.append(span)
            try:
                value = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.t1 = clock()
                self.stack.pop()
            span.result = _summary(name, value)
            return value

        return traced

    def install(self):
        for mod_name, attr in WRAPPED:
            mod = importlib.import_module(f"qnmrecover.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def hit_counts(spans):
    counts = {f"{m}.{a}": 0 for m, a in WRAPPED}
    for s in spans:
        counts[s.name] += 1
    return counts


def layer_metrics(spans):
    """Per-layer metrics from a finished span list."""
    by_id = {}
    child_time = {}
    for s in spans:
        by_id[s.sid] = s
        child_time.setdefault(s.sid, 0.0)
        if s.parent is not None:
            child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                    + s.t1 - s.t0)

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    calls, self_ms, total_ms, errors = {}, {}, {}, {}
    for s in spans:
        layer = _LAYER_OF.get(s.name, s.name)
        dur = s.t1 - s.t0
        calls[layer] = calls.get(layer, 0) + 1
        total_ms[layer] = total_ms.get(layer, 0.0) + 1e3 * dur
        self_ms[layer] = (self_ms.get(layer, 0.0)
                          + 1e3 * (dur - child_time[s.sid]))
        errors[layer] = errors.get(layer, 0) + s.error

    ev_total = ev_contour = steps = steps_in_w = 0
    near_w = polish_w = rec_near = rec_w = candidates = 0
    iters = zeros = blind = exit_nonzero = 0
    for s in spans:
        if s.name == "_ode.integrate":
            steps += s.result or 0
            if s.parent is not None and \
                    by_id[s.parent].name == "spectrum.wronskian":
                steps_in_w += s.result or 0
        elif s.name in ("barrier.resonance_function", "spectrum.wronskian"):
            chain = [a.name for a in ancestors(s)]
            zs = [n for n in chain if n.startswith("zscan.")]
            if zs:
                ev_total += 1
                if zs[0] == "zscan.find_zeros":
                    ev_contour += 1
            if s.name == "spectrum.wronskian":
                if "spectrum.qnm_near" in chain:
                    near_w += 1
                    if "spectrum.qnm_shooting" in chain:
                        polish_w += 1
                if "recovery.recover_mass_numeric" in chain:
                    rec_w += 1
        elif s.name == "spectrum.qnm_near":
            if any(a.name == "recovery.recover_mass_numeric"
                   for a in ancestors(s)):
                rec_near += 1
        elif s.name == "zscan.find_zeros":
            zeros += s.result or 0
            if s.parent is not None and \
                    by_id[s.parent].name == "spectrum.qnm_shooting":
                candidates += s.result or 0
        elif s.name == "zscan.refine_zero":
            iters += s.result or 0
        elif s.name == "recovery.recover_mass_lattice_blind":
            blind += s.result or 0
        elif s.name == "cli.main":
            exit_nonzero += bool(s.error or s.result)

    def n(layer):
        return calls.get(layer, 0)

    def per(a, b):
        return a / b if b else 0.0

    kept = sum(s.result or 0 for s in spans
               if s.name == "spectrum.qnm_shooting")
    w_calls = n("spectrum.wronskian")
    rec_calls = n("recovery.recover_mass_numeric")
    ode_ms = self_ms.get("_ode.integrate", 0.0)
    out = {
        "zscan.find_zeros.calls": n("zscan.find_zeros"),
        "zscan.find_zeros.self_ms": self_ms.get("zscan.find_zeros", 0.0),
        "zscan.evals": ev_total,
        "zscan.contour_evals": ev_contour,
        "zscan.refine_zero.calls": n("zscan.refine_zero"),
        "zscan.refine_zero.iters": iters,
        "zscan.refine_zero.self_ms": self_ms.get("zscan.refine_zero", 0.0),
        "zscan.zeros_found": zeros,
        "zscan.errors": (errors.get("zscan.find_zeros", 0)
                         + errors.get("zscan.refine_zero", 0)),
        "barrier.resonance_function.calls":
            n("barrier.resonance_function"),
        "barrier.resonance_function.self_ms":
            self_ms.get("barrier.resonance_function", 0.0),
        "barrier.us_per_eval":
            1e3 * per(total_ms.get("barrier.resonance_function", 0.0),
                      n("barrier.resonance_function")),
        "barrier.recover_length.calls": n("barrier.recover_length"),
        "ode.integrate.calls": n("_ode.integrate"),
        "ode.integrate.self_ms": ode_ms,
        "ode.steps": steps,
        "ode.us_per_step": 1e3 * per(ode_ms, steps),
        "spectrum.wronskian.calls": w_calls,
        "spectrum.wronskian.self_ms": self_ms.get("spectrum.wronskian", 0.0),
        "spectrum.wronskian.ms_per_call":
            per(total_ms.get("spectrum.wronskian", 0.0), w_calls),
        "spectrum.steps_per_wronskian": per(steps_in_w, w_calls),
        "spectrum.qnm_near.calls": n("spectrum.qnm_near"),
        "spectrum.qnm_near.wronskian_per_call":
            per(near_w, n("spectrum.qnm_near")),
        "spectrum.qnm_near.errors": errors.get("spectrum.qnm_near", 0),
        "spectrum.qnm_shooting.calls": n("spectrum.qnm_shooting"),
        "spectrum.qnm_shooting.candidates": candidates,
        "spectrum.qnm_shooting.kept": kept,
        "spectrum.qnm_shooting.kept_ratio": per(kept, candidates),
        "spectrum.qnm_shooting.polish_evals": polish_w,
        "recovery.recover_mass_numeric.calls": rec_calls,
        "recovery.recover_mass_numeric.self_ms":
            self_ms.get("recovery.recover_mass_numeric", 0.0),
        "recovery.secant_iters": per(rec_near, rec_calls),
        "recovery.wronskian_per_recovery": per(rec_w, rec_calls),
        "recovery.recover_mass_lattice_blind.calls":
            n("recovery.recover_mass_lattice_blind"),
        "recovery.recover_mass_lattice_blind.self_ms":
            self_ms.get("recovery.recover_mass_lattice_blind", 0.0),
        "recovery.blind_candidates":
            per(blind, n("recovery.recover_mass_lattice_blind")),
        "recovery.errors": (errors.get("recovery.recover_mass_numeric", 0)
                            + errors.get("recovery.recover_mass_lattice_blind",
                                         0)),
        "geometry.TortoiseMap.calls": n("geometry.TortoiseMap"),
        "geometry.TortoiseMap.self_ms":
            self_ms.get("geometry.TortoiseMap", 0.0),
        "geometry.horizons.calls": n("geometry.horizons"),
        "cli.main.calls": n("cli.main"),
        "cli.main.self_ms": self_ms.get("cli.main", 0.0),
        "cli.exit_nonzero": exit_nonzero,
    }
    return out
