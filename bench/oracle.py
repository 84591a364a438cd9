"""Reference answers for the benchmark, computed without qnmrecover's solvers.

These run in the orchestrating process, after the timed worker has
exited, so nothing here is on a measured path.  They may use mpmath,
numpy and scipy; the library itself never imports them.

* Barrier: the resonance condition K = 0 is equivalent to
  e^{4iqL} = (sigma + q)^4, i.e. for some integer k

      H_k(q) = 2 L q + 2i log(sigma + q) - pi k = 0,   sigma = sqrt(q^2 + 1).

  Each k labels one zero, so the zero set in a window is enumerated
  branch by branch (double-precision Newton, then mpmath at 30 digits)
  rather than by an argument-principle scan.  Completeness is checked
  against a winding count of the exponential form of K on a fixed fine
  grid of the window boundary; a disagreement leaves the input
  unverified.
* De Sitter-Schwarzschild: Chebyshev-Gauss collocation of the radial
  equation with both horizon behaviours stripped,
  v = (r - r_bH)^(-i lam a_b) (r_sI - r)^(i lam a_s) phi(r), which turns
  the problem into a quadratic eigenvalue pencil in lam.  Only
  eigenvalues on which two resolutions agree are kept.
"""
from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import scipy.linalg

BARRIER_WINDOW = (0.01, 5.0, -2.0, -0.01)   # barrier._DEFAULT_WINDOW
_WINDING_NODES = 20000                       # per edge, first try


class OracleFailure(Exception):
    """The reference could not be computed reliably for this input."""


# ---- barrier ----------------------------------------------------------------

def _barrier_k_numpy(s, L):
    q = np.sqrt(s * s - 1.0 + 0j)
    return ((q + s) / (q - s) * np.exp(-2j * q * L)
            - (q - s) / (q + s) * np.exp(2j * q * L))


def _barrier_winding(L, window):
    a, b, c, d = window
    for refine in (1, 4, 16):
        t = np.linspace(0.0, 1.0, refine * _WINDING_NODES, endpoint=False)
        pts = np.concatenate([a + (b - a) * t + 1j * c,
                              b + 1j * (c + (d - c) * t),
                              b + (a - b) * t + 1j * d,
                              a + 1j * (d + (c - d) * t)])
        f = _barrier_k_numpy(pts, L)
        steps = np.angle(np.roll(f, -1) / f)
        if np.abs(steps).max() < 0.5 * math.pi:
            break
    else:
        # a zero sits closer to the contour than the finest grid resolves
        raise OracleFailure(f"winding grid too coarse at L = {L}")
    w = steps.sum() / (2.0 * math.pi)
    if abs(w - round(w)) > 1e-6:
        raise OracleFailure(f"winding {w} is not an integer at L = {L}")
    return int(round(w))


def _barrier_branch_zero(k, L):
    q = complex(math.pi * k / (2.0 * L), -0.1)
    for _ in range(100):
        s = cmath.sqrt(q * q + 1.0)
        step = ((2.0 * L * q + 2j * cmath.log(s + q) - math.pi * k)
                / (2.0 * L + 2j / s))
        q -= step
        if abs(step) < 1e-14 * max(1.0, abs(q)):
            break
    Lm = mpmath.mpf(L)

    def h(qq):
        return 2 * Lm * qq + 2j * mpmath.log(mpmath.sqrt(qq * qq + 1) + qq) \
            - mpmath.pi * k

    with mpmath.workdps(30):
        qq = mpmath.findroot(h, mpmath.mpc(q), tol=mpmath.mpf(10) ** -50,
                             maxsteps=50)
        return complex(mpmath.sqrt(qq * qq + 1))


def barrier_zeros(L, window=BARRIER_WINDOW):
    """All zeros of K(sigma; L) inside the window, sorted by Re sigma."""
    re_min, re_max, im_min, im_max = window
    out = []
    k_max = int(2.0 * L * (re_max + 1.0) / math.pi) + 3
    for k in range(-3, k_max + 1):
        try:
            s = _barrier_branch_zero(k, L)
        except (ValueError, ZeroDivisionError):
            continue
        if (re_min < s.real < re_max and im_min < s.imag < im_max
                and all(abs(s - o) > 1e-9 for o in out)):
            out.append(s)
    expected = _barrier_winding(L, window)
    if len(out) != expected:
        raise OracleFailure(f"{len(out)} branch zeros but winding "
                            f"{expected} at L = {L}")
    return sorted(out, key=lambda z: z.real)


# ---- de Sitter-Schwarzschild ----------------------------------------------

def _cheb_gauss(n, a, b):
    th = np.pi * (np.arange(n) + 0.5) / n
    w = (-1.0) ** np.arange(n) * np.sin(th)
    x = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(th)
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    d = (w[None, :] / w[:, None]) / gap
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return x, d


def _sds_horizons(x):
    """Horizons of alpha^2 = 1 - 2/r - (x/27) r^2 at m = 1, x = 9 m^2 Lambda."""
    lam = x / 9.0
    roots = np.roots([-lam / 3.0, 0.0, 1.0, -2.0])
    pos = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
    if len(pos) != 2:
        raise OracleFailure(f"no static region at 9 m^2 Lambda = {x}")
    return pos[0], pos[1], lam


def sds_eigenvalues(x, l, n):
    """Collocation eigenvalues m*lam at m = 1 (the spectrum scales as 1/m)."""
    rb, rs, lam_c = _sds_horizons(x)

    def fprime(r):
        return 2.0 / r ** 2 - 2.0 * lam_c * r / 3.0

    ab, as_ = 1.0 / fprime(rb), 1.0 / fprime(rs)
    r, d1 = _cheb_gauss(n, rb, rs)
    d2 = d1 @ d1
    f = 1.0 - 2.0 / r - lam_c * r * r / 3.0
    fp = fprime(r)
    pot = f * (l * (l + 1) / r ** 2 + fp / r)
    g = -1j * ab / (r - rb) - 1j * as_ / (rs - r)
    gp = 1j * ab / (r - rb) ** 2 - 1j * as_ / (rs - r) ** 2
    # (A0 + lam A1 + lam^2 A2) phi = 0, every row divided by alpha^2
    a0 = f[:, None] * d2 + fp[:, None] * d1 - np.diag(pot / f)
    a1 = (2.0 * f * g)[:, None] * d1 + np.diag(f * gp + fp * g)
    a2 = np.diag((f * f * g * g + 1.0) / f)
    eye, zero = np.eye(n), np.zeros((n, n))
    ev = scipy.linalg.eigvals(np.block([[zero, eye], [-a0, -a1]]),
                              np.block([[eye, zero], [zero, a2]]))
    return ev[np.isfinite(ev)]


SDS_RESOLUTIONS = (40, 60)
SDS_AGREE = 1e-7        # in units of 1/m


def sds_band(x, l, region):
    """Converged eigenvalues (units of 1/m) inside region, plus a flag.

    region is (re_min, re_max, im_min, im_max) in units of 1/m.  The flag
    is False when some eigenvalue of the finer resolution inside the
    region has no partner at the coarser one, i.e. the reference is not
    converged there.
    """
    coarse, fine = (sds_eigenvalues(x, l, n) for n in SDS_RESOLUTIONS)
    re_min, re_max, im_min, im_max = region
    keep, converged = [], True
    for z in fine:
        if not (re_min <= z.real <= re_max and im_min <= z.imag <= im_max):
            continue
        if np.abs(coarse - z).min() <= SDS_AGREE:
            keep.append(complex(z))
        else:
            converged = False
    return sorted(keep, key=lambda z: z.real), converged
