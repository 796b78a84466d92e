"""First conjugate time via the factored Jacobian J1 = a0 + a1 xi + a2 xi^2.

Along a C1 extremal, with p = sqrt(alpha) t / 2 the half-arc variable and
tau = sqrt(alpha) (phi + t/2) the arc midpoint phase,

    xi = sn^2 tau,   a0 = fv * a01,   a2 = fz * a21,   a1 = -a0 - a2/k^2,

and conjugate times are exactly the zeros of J1 (the full 5x5 Jacobian of
the exponential map equals J1 times a nonvanishing smooth factor).  On C2
the same holds with p = sqrt(alpha) t / (2k), tau = sqrt(alpha)(phi+t/2)/k,

    xi = sn^2 tau,   a0 = fv * a01 / 16,   a2 = fz * a21,
    a1 = -k^2 a0 - a2,

equivalently J1 = a0 (1 - k^2 xi) - a2 xi (1 - xi), the form used here
because it avoids the cancellation of assembling a1.

The C2 coefficient tables stored below were cross-derived from the C1
coefficients through the reciprocal-modulus transformation

    sn(k p, 1/k) = k sn(p, k),  cn(k p, 1/k) = dn(p, k),
    dn(k p, 1/k) = cn(p, k),    E(k p, 1/k) = (E(p, k) - (1 - k^2) p)/k,

and validated against the variational Jacobian; see the tests.  The same
cross-derivation fixes the a01 normalization so that
a01 -> (3/2048) k^8 a010(u1) as k -> 0.

Solver strategy: scan J1 on a t-grid from a modulus-dependent start (below
it the k**2..k**17-suppressed coefficients drown in float64 roundoff; the
leading p**16 behavior of J1 is one-signed there), count a sign change
only when both endpoints clear the tracked noise bound, re-evaluate
ambiguous panels under mpmath, and polish with Brent.  For small C2
moduli the whole scan runs under mpmath.  The variational Jacobian of
``flow`` cross-checks the located zero on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
from scipy.optimize import brentq

from .config import DEFAULT, Tolerances
from .elliptic import complete_K, jacobi_arrays, jacobi_mp
from .errors import NumericalError, SolverDisagreement, StratumError
from .flow import Covector, EllipticCoord, JacobianPath, Stratum, classify, to_elliptic
from .maxwell import (K_ONE_CUTOFF, a01_c1_kernel, a21_c1_kernel,
                      c1_ingredients, c2_ingredients_from_p, c2_ingredients_from_u1,
                      fv_c1_kernel, fv_c2_kernel, fz_c1_kernel, fz_c2_kernel,
                      grid_roots, p1_V, p1_z, sign_changes, t_max1)

_EPS = 2.220446049250313e-16
_NOISE_SAFETY = 16.0
# A float64 J1 sign is trusted only where |J1| exceeds this many noise
# bounds.  The noise bound covers cancellation in the J1 sum but not the
# ~1e-13 relative error of the elliptic kernels feeding it, which has been
# measured at up to 5.8 noise bounds; 20 leaves about 3.5x to spare.
SIGN_MARGIN = 20.0


# ---------------------------------------------------------------------------
# C2 coefficient tables
# ---------------------------------------------------------------------------

def a01_c2_tables(k, k2, sinu, cosu, dnu):
    """(i, j) -> coefficient of F^i E^j in a01 (C2)."""
    s2 = sinu * sinu
    sc = sinu * cosu
    one2 = 1 - 2 * s2
    return {
        (0, 0): -24 * k2 * s2 * cosu * cosu * dnu,
        (1, 0): -12 * sc * (4 - 3 * k2 + k2 * (k2 - 2) * s2),
        (0, 1): 12 * sc * (4 + k2 * (1 - 6 * s2)),
        (2, 0): 12 * (1 - k2) * dnu * one2,
        (1, 1): 12 * (2 - k2) * dnu * one2,
        (0, 2): -36 * dnu * one2,
        (3, 0): -12 * (1 - k2) * (2 - k2) * sc,
        (2, 1): 24 * (1 - k2) * sc,
        (1, 2): 12 * (2 - k2) * sc,
        (0, 3): -24 * sc,
    }


def a21_c2_tables(k, k2, sinu, cosu, dnu):
    """(i, j) -> coefficient of F^i E^j in a21 (C2)."""
    k3 = k2 * k
    k4 = k2 * k2
    k6 = k4 * k2
    s2 = sinu * sinu
    sc = sinu * cosu
    s2c2 = s2 * cosu * cosu
    return {
        (0, 0): -6 * k6 * k * s2c2 * sc,
        (0, 1): 20 * k4 * k * s2c2 * dnu,
        (1, 0): -6 * k4 * k * (2 - k2) * s2c2 * dnu,
        (0, 2): -2 * k3 * sc * (12 - k2 * (1 + 10 * s2)),
        (1, 1): (k3 * sc * (32 - 8 * k2 * (1 + 6 * s2) + 3 * k4 * (1 + 8 * s2))) / 2,
        (2, 0): (k3 * sc * (16 + 3 * k6 * s2 + k4 * (9 - 8 * s2) - 4 * k2 * (7 - 2 * s2))) / 2,
        (0, 3): 8 * k * (2 - k2) * dnu,
        (1, 2): -(k * (32 - 32 * k2 + 15 * k4) * dnu) / 2,
        (2, 1): -(k * (32 - 48 * k2 + 10 * k4 + 3 * k6) * dnu) / 2,
        (3, 0): (k * (32 - 64 * k2 + 41 * k4 - 9 * k6) * dnu) / 2,
        (0, 4): -10 * k3 * sc,
        (1, 3): 12 * k3 * (2 - k2) * sc,
        (2, 2): -(3 * k3 * (8 - 8 * k2 + 3 * k4) * sc) / 2,
        (3, 1): -(k3 * (16 - 24 * k2 + 6 * k4 + k6) * sc) / 2,
        (4, 0): (3 * k3 * (1 - k2) * (2 - k2) ** 2 * sc) / 2,
        (0, 5): 4 * k * dnu,
        (1, 4): -6 * k * (2 - k2) * dnu,
        (2, 3): k * (8 - 8 * k2 + 3 * k4) * dnu,
        (3, 2): (k * (16 - 24 * k2 + 6 * k4 + k6) * dnu) / 2,
        (4, 1): -3 * k * (1 - k2) * (2 - k2) ** 2 * dnu,
        (5, 0): (k * (1 - k2) * (2 - k2) ** 3 * dnu) / 2,
    }


def _table_sum(table, F, E):
    val = None
    mag = None
    aF, aE = abs(F), abs(E)
    for (i, j), cf in table.items():
        term = cf * F ** i * E ** j
        aterm = abs(cf) * aF ** i * aE ** j
        val = term if val is None else val + term
        mag = aterm if mag is None else mag + aterm
    return val, mag


def a01_c2_kernel(k, k2, F, E, sinu, cosu, dnu):
    return _table_sum(a01_c2_tables(k, k2, sinu, cosu, dnu), F, E)


def a21_c2_kernel(k, k2, F, E, sinu, cosu, dnu):
    return _table_sum(a21_c2_tables(k, k2, sinu, cosu, dnu), F, E)


# public coefficient functions ------------------------------------------------

def a01_C1(p, k):
    return a01_c1_kernel(np.asarray(p, dtype=float), *c1_ingredients(p, k))[0]


def a21_C1(p, k):
    return a21_c1_kernel(np.asarray(p, dtype=float), *c1_ingredients(p, k))[0]


def a01_C2(u1, k):
    F, E, s, c, d = c2_ingredients_from_u1(u1, k)
    return a01_c2_kernel(k, k * k, F, E, s, c, d)[0]


def a21_C2(u1, k):
    F, E, s, c, d = c2_ingredients_from_u1(u1, k)
    return a21_c2_kernel(k, k * k, F, E, s, c, d)[0]


# ---------------------------------------------------------------------------
# small-modulus asymptotic profiles (trigonometric polynomials)
# ---------------------------------------------------------------------------

def fz0(p):
    """fz (C2) ~ k^3 fz0(p) as k -> 0."""
    p = np.asarray(p, dtype=float)
    return (4.0 * p - np.sin(4.0 * p)) / 16.0


def a010(u1):
    """a01 (C2) ~ (3/2048) k^8 a010(u1) as k -> 0."""
    u = np.asarray(u1, dtype=float)
    return (64.0 * u ** 3 * np.sin(2 * u) + 48.0 * u * u * np.cos(2 * u)
            - 44.0 * u * np.sin(2 * u) - 4.0 * u * np.cos(4 * u) * np.sin(2 * u)
            + 3.0 * np.cos(2 * u) - 3.0 * np.cos(6 * u))


def a210(u1):
    """a21 (C2) ~ (1/4194304) k^17 a210(u1) as k -> 0."""
    u = np.asarray(u1, dtype=float)
    return (45.0 * u + 608.0 * u ** 3 - 512.0 * u ** 5
            + 16.0 * u * (28.0 * u * u - 3.0) * np.cos(4 * u) + 3.0 * u * np.cos(8 * u)
            + 12.0 * np.sin(4 * u) - 432.0 * u * u * np.sin(4 * u)
            + 256.0 * u ** 4 * np.sin(4 * u) - 6.0 * np.sin(8 * u))


# ---------------------------------------------------------------------------
# sum-of-squares certificates (C1)
# ---------------------------------------------------------------------------

def certificate_x2(p, k):
    """x2 >= 0; (a01/fz)' fz^2 = (3/4) x2 exactly, so a01/fz increases
    between fz-roots.  The identity pins the + sign on alpha0 (checked
    symbolically against the closed-form a01 and fz)."""
    p = np.asarray(p, dtype=float)
    k2, sn, cn, dn, e2 = c1_ingredients(p, k)
    sn2 = sn * sn
    e4 = cn * e2 - 2.0 * sn * dn
    alpha0 = ((1.0 + sn2 - 2.0 * k2 * sn2) * e2 * e2
              - 4.0 * (2.0 * k2 - 1.0) * cn * sn * dn * e2
              + 4.0 * (2.0 * k2 - 1.0) * sn2 * dn * dn)
    beta0 = ((2.0 * k2 * sn2 - 1.0) * e2 * e2
             + 8.0 * k2 * cn * sn * dn * e2 - 8.0 * k2 * sn2 * dn * dn)
    return k2 * (cn * e4 * p + alpha0) ** 2 + (1.0 - k2) * (e2 * p + beta0) ** 2


def certificate_x1(p, k):
    """x1 >= 0; (a21/fv)' fv^2 = -(4/3) k^2 x1 exactly, so a21/fv decreases
    between fv-roots (identity checked symbolically, like x2's)."""
    p = np.asarray(p, dtype=float)
    k2, sn, cn, dn, e2 = c1_ingredients(p, k)
    sn2 = sn * sn
    sn4 = sn2 * sn2
    cd = cn * dn
    beta1 = (-cn * cn * e2 ** 3 + 6.0 * cn * sn * dn * e2 * e2
             - (8.0 - 10.0 * cn * cn - 4.0 * k2 * sn2 * (2.0 - 3.0 * cn * cn)) * e2
             + 4.0 * cn * sn * dn * (2.0 * k2 * sn2 - 1.0))
    gamma1 = (8.0 * cd * e2 ** 3 * (2.0 * k2 - 1.0) * sn
              + e2 ** 4 * (3.0 - sn2 + 2.0 * k2 * (sn2 - 2.0))
              - 4.0 * dn * dn * sn2 * (3.0 + 8.0 * k2 * k2 * (2.0 + sn2) - 4.0 * k2 * (5.0 + sn2))
              - 4.0 * cd * e2 * sn * (-7.0 + 8.0 * k2 * (5.0 + sn2 - 2.0 * k2 * (2.0 + sn2)))
              + e2 * e2 * (-15.0 + 23.0 * sn2
                           + 8.0 * k2 * (10.0 - 10.0 * sn2 - 3.0 * sn4
                                         + k2 * (-8.0 + 4.0 * sn2 + 6.0 * sn4))))
    delta1 = -e2 ** 3 - (2.0 - 4.0 * k2 * sn2) * e2
    eps1 = (16.0 * cd * e2 ** 3 * k2 * sn
            + e2 ** 4 * (1.0 + 2.0 * k2 * (sn2 - 2.0))
            + 32.0 * cd * e2 * k2 * sn * (-3.0 + 2.0 * k2 * (2.0 + sn2))
            - 16.0 * dn * dn * k2 * sn2 * (-3.0 + 2.0 * k2 * (2.0 + sn2))
            + e2 * e2 * (1.0 + 16.0 * k2 * (3.0 - 4.0 * sn2
                                            + k2 * (-4.0 + 2.0 * sn2 + 3.0 * sn4))))
    return (k2 * (cn * cn * p * p + beta1 * p + gamma1) ** 2
            + (1.0 - k2) * (p * p + delta1 * p + eps1) ** 2)


# ---------------------------------------------------------------------------
# J1 along an extremal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianFactors:
    stratum: Stratum
    a0: float
    a1: float
    a2: float
    xi: float
    Delta: float
    J1: float
    noise: float


def _phase_args(ec: EllipticCoord, t):
    """(p, tau) at times t: float64 arrays, or mpf values for an mpf time."""
    sa = mpmath.sqrt(ec.alpha) if isinstance(t, mpmath.mpf) else math.sqrt(ec.alpha)
    if ec.stratum is Stratum.C1:
        return sa * t / 2.0, sa * (ec.phi + t / 2.0)
    return sa * t / (2.0 * ec.k), sa * (ec.phi + t / 2.0) / ec.k


def _j1(ec: EllipticCoord, t):
    """(J1, noise, xi, Delta, a0, a2) along a C1 or C2 extremal.

    Float64 arrays for an array of times; mpf values at the working
    precision for an mpf time.
    """
    mp = isinstance(t, mpmath.mpf)
    k = mpmath.mpf(ec.k) if mp else ec.k
    k2 = k * k
    p, tau = _phase_args(ec, t)
    snt = (jacobi_mp if mp else jacobi_arrays)(tau, k)[0]
    xi = snt * snt
    if ec.stratum is Stratum.C1:
        _, sn, cn, dn, e2 = c1_ingredients(p, k)
        args = (p, k2, sn, cn, dn, e2)
        kernels = (fv_c1_kernel, fz_c1_kernel, a01_c1_kernel, a21_c1_kernel)
        a0_scale = 1.0
        w0 = 1.0 - xi
        w2 = xi * (1.0 - k2 * xi) / k2
    else:
        F, E, sn, cn, dn = c2_ingredients_from_p(p, k)
        args = (k, k2, F, E, sn, cn, dn)
        kernels = (fv_c2_kernel, fz_c2_kernel, a01_c2_kernel, a21_c2_kernel)
        a0_scale = 16.0
        w0 = 1.0 - k2 * xi
        w2 = xi * (1.0 - xi)
    (fv, mfv), (fz, mfz), (a01, m01), (a21, m21) = (kern(*args) for kern in kernels)
    a0 = fv * a01 / a0_scale
    a2 = fz * a21
    j1 = a0 * w0 - a2 * w2
    noise = _EPS * _NOISE_SAFETY * (
        (abs(fv) * m01 + mfv * abs(a01)) / a0_scale * abs(w0)
        + (abs(fz) * m21 + mfz * abs(a21)) * abs(w2))
    delta = 1.0 - k2 * (sn * snt) ** 2
    return j1, noise, xi, delta, a0, a2


# the float64 entry points, one per stratum; _j1_scalar_mp is the mpmath one

def j1_path_c1(ec: EllipticCoord, t):
    """(J1, noise, xi, Delta, a0, a2) float64 arrays along a C1 extremal."""
    return _j1(ec, np.asarray(t, dtype=float))


def j1_path_c2(ec: EllipticCoord, t):
    """(J1, noise, xi, Delta, a0, a2) float64 arrays along a C2 extremal."""
    return _j1(ec, np.asarray(t, dtype=float))


def _j1_scalar_mp(ec: EllipticCoord, t: float, dps: int) -> float:
    """J1 at one time under mpmath (for noise-dominated float64 regions)."""
    with mpmath.workdps(dps):
        return float(_j1(ec, mpmath.mpf(t))[0])


def j1_factors(ec: EllipticCoord, t: float) -> JacobianFactors:
    """The full decomposition at a single time."""
    if ec.stratum is Stratum.C1:
        j1, noise, xi, delta, a0, a2 = (np.atleast_1d(v)[0] for v in j1_path_c1(ec, t))
        a1 = -a0 - a2 / (ec.k * ec.k)
    elif ec.stratum is Stratum.C2:
        j1, noise, xi, delta, a0, a2 = (np.atleast_1d(v)[0] for v in j1_path_c2(ec, t))
        a1 = -ec.k * ec.k * a0 - a2
    else:
        raise StratumError("J1 is defined on C1 and C2")
    return JacobianFactors(ec.stratum, float(a0), float(a1), float(a2),
                           float(xi), float(delta), float(j1), float(noise))


def j1_C1(ec: EllipticCoord, t: float) -> JacobianFactors:
    if ec.stratum is not Stratum.C1:
        raise StratumError("j1_C1 needs a C1 coordinate")
    return j1_factors(ec, t)


def j1_C2(ec: EllipticCoord, t: float) -> JacobianFactors:
    if ec.stratum is not Stratum.C2:
        raise StratumError("j1_C2 needs a C2 coordinate")
    return j1_factors(ec, t)


# ---------------------------------------------------------------------------
# first-zero search
# ---------------------------------------------------------------------------

def scan_start_time(ec: EllipticCoord) -> float:
    """Earliest time where float64 resolves the sign of J1.

    Below this the k- and p-suppressed coefficients sit under the roundoff
    of their O(1) monomials; J1 there behaves like a one-signed power of p
    (no conjugate points on short arcs), which the mp spot checks in the
    test suite confirm.
    """
    k = ec.k
    sa = math.sqrt(ec.alpha)
    if ec.stratum is Stratum.C1:
        p_start = max(5e-3, (1e-8 / (k * k * (1.0 - k * k))) ** 0.125)
        return 2.0 * p_start / sa
    u_start = max(0.15, 0.14 / k)
    return 2.0 * k * u_start / sa


@dataclass(frozen=True)
class ConjugateResult:
    t_conj: float               # may be +inf
    bracket: tuple | None
    method: str
    residual: float
    t_max: float
    upper: float = math.inf     # the C1/C2 upper bound on t_conj

    @property
    def finite(self) -> bool:
        return math.isfinite(self.t_conj)

    def bounds_ok(self, slack: float):
        """(lower_ok, upper_ok) for t_max <= t_conj <= upper, within slack."""
        return bool(self.t_conj >= self.t_max - slack), bool(self.t_conj <= self.upper + slack)


def _first_zero_analytic(ec: EllipticCoord, t_lo: float, t_cap: float,
                         tol: Tolerances):
    """First zero of t -> J1 on (t_lo, t_cap], or None."""
    dt = min(tol.scan_dt, ec.period() / 200.0)
    fmp = lambda t: _j1_scalar_mp(ec, t, tol.mp_dps)

    def refine(a, b, fa_fn):
        root = brentq(fa_fn, a, b, xtol=tol.root_xtol, rtol=4 * _EPS)
        return float(root), (float(a), float(b)), abs(fa_fn(float(root)))

    if ec.stratum is Stratum.C2 and ec.k < tol.c2_mp_k:
        # a few hundred mp evaluations suffice: in this regime J1 tracks
        # a0(p), whose zeros are spaced on the K(k) scale
        ts = np.arange(t_lo, t_cap, max(dt, (t_cap - t_lo) / 300.0))
        hits = grid_roots(fmp, ts, tol.root_xtol)
        if not hits:
            return None
        root, bracket = hits[0]
        return root, bracket, abs(fmp(root))

    path = j1_path_c1 if ec.stratum is Stratum.C1 else j1_path_c2
    ts = np.arange(t_lo, t_cap, dt)
    if len(ts) < 4:
        ts = np.linspace(t_lo, t_cap, 8)
    vals, noise = path(ec, ts)[:2]
    clear = np.abs(vals) > SIGN_MARGIN * noise
    f64 = lambda t: float(path(ec, np.array([t]))[0][0])
    for i in sign_changes(vals):
        if clear[i] and clear[i + 1]:
            return refine(ts[i], ts[i + 1], f64)
        # ambiguous panel: decide under mpmath
        va, vb = fmp(float(ts[i])), fmp(float(ts[i + 1]))
        if va == 0.0 or vb == 0.0:
            t0 = float(ts[i]) if va == 0.0 else float(ts[i + 1])
            return t0, (float(ts[i]), float(ts[i + 1])), 0.0
        if va * vb < 0.0:
            return refine(ts[i], ts[i + 1], fmp)
    # near-tangential pair hiding inside one panel: refine panels whose
    # interior dips far below the neighborhood scale without a sign change
    absv = np.abs(vals)
    scale = np.maximum.accumulate(absv)
    cand = np.nonzero((absv[1:-1] < 1e-6 * scale[1:-1])
                      & (absv[1:-1] < absv[:-2]) & (absv[1:-1] <= absv[2:]))[0]
    for j in cand:
        fine = np.linspace(ts[j], ts[min(j + 2, len(ts) - 1)], 256)
        ff = sign_changes(path(ec, fine)[0])
        if len(ff):
            return refine(fine[ff[0]], fine[ff[0] + 1], f64)
    return None


def _first_zero_variational(lam: Covector, t_lo: float, t_cap: float,
                            tol: Tolerances, n: int = 900):
    """First zero of the variational Jacobian J0 on (t_lo, t_cap], or None."""
    jp = JacobianPath(lam, t_cap, tol)
    ts = np.linspace(t_lo, t_cap, n)
    hits = grid_roots(jp, ts, tol.root_xtol, vals=jp.values(ts))
    return hits[0][0] if hits else None


def first_conjugate_time(lam: Covector, t_cap: float | None = None,
                         cross_validate: bool = False,
                         tol: Tolerances = DEFAULT) -> ConjugateResult:
    """First conjugate time; +inf when no Jacobian zero at or below the cap.

    C3/C4/C5/C7 extremals have none; on C6 the first conjugate time equals
    the first Maxwell time exactly.  On C1/C2 the analytic J1 is scanned and
    (optionally) cross-checked against the variational Jacobian; the two
    must agree to ``tol.agreement_tol`` or SolverDisagreement is raised.
    The result carries the stratum upper bound on t_conj (+inf where the
    period diverges or off C1/C2).
    """
    st = classify(lam)
    if st in (Stratum.C3, Stratum.C4, Stratum.C5, Stratum.C7):
        return ConjugateResult(math.inf, None, "analytic", 0.0, math.inf)
    mr = t_max1(lam, tol)
    if st is Stratum.C6:
        # the cylinder chart is singular at alpha = 0 (beta acts trivially),
        # so the variational Jacobian vanishes identically there and cannot
        # locate the conjugate point; it is the C2 -> C6 limit of t_max1
        return ConjugateResult(mr.t_max, None, "analytic", 0.0, mr.t_max)
    ec = to_elliptic(lam)
    if ec.k > K_ONE_CUTOFF or not math.isfinite(mr.t_max):
        return ConjugateResult(math.inf, None, "analytic", 0.0, mr.t_max)
    sa = math.sqrt(ec.alpha)
    if st is Stratum.C1:
        upper = 2.0 / sa * max(p1_z(ec.k, tol), p1_V(ec.k, Stratum.C1, tol))
    else:
        upper = 4.0 * ec.k * complete_K(ec.k) / sa
    cap = t_cap if t_cap is not None else max(3.0 * mr.t_max, 1.1 * upper)
    if cap <= 0.0:
        raise ValueError("search horizon must be positive")
    t_lo = min(scan_start_time(ec), 0.5 * mr.t_max)
    hit = _first_zero_analytic(ec, t_lo, cap, tol)
    if hit is None:
        result = ConjugateResult(math.inf, None, "analytic", 0.0, mr.t_max, upper)
    else:
        root, bracket, residual = hit
        if root < mr.t_max - 1e-6:
            raise NumericalError(
                f"located Jacobian zero t={root} undercuts the Maxwell time "
                f"{mr.t_max}; the conjugate-time bound excludes this")
        result = ConjugateResult(root, bracket, "analytic", residual, mr.t_max, upper)

    if cross_validate:
        v_cap = min(cap, 1.05 * result.t_conj) if result.finite else cap
        t_v = _first_zero_variational(lam, t_lo, v_cap, tol)
        if result.finite:
            agree = t_v is not None and abs(t_v - result.t_conj) <= \
                tol.agreement_tol * max(1.0, result.t_conj)
            if not agree:
                raise SolverDisagreement(result.t_conj, t_v, tol.agreement_tol)
            result = replace(result, method="analytic+variational")
        elif t_v is not None:
            raise SolverDisagreement(math.inf, t_v, tol.agreement_tol)
    return result


def two_sided_check(lam: Covector, tol: Tolerances = DEFAULT):
    """(lower_ok, upper_ok) for t_max <= t_conj <= the stratum upper bound.

    The flags are read off one default-cap ``first_conjugate_time`` search
    (``ConjugateResult.bounds_ok``); ``conj`` reads them off its own search,
    or calls this when ``--horizon`` caps that search.  A failed flag is a
    reportable finding (the upper bounds are numerical evidence, not
    theorems), so no exception is raised for it.
    Returns (lower_ok, upper_ok, t_conj, t_max, upper).
    """
    if classify(lam) not in (Stratum.C1, Stratum.C2):
        raise StratumError("two_sided_check applies to C1 and C2 only")
    res = first_conjugate_time(lam, tol=tol)
    return (*res.bounds_ok(tol.bound_slack), res.t_conj, res.t_max, res.upper)
