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

The C2 coefficient tables (in ``maxwell``) were cross-derived from the C1
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
moduli J1 is below float64 resolution; there the float64 small-k series of
the kernels screens the grid, mpmath evaluates the times whose sign it
leaves open, up to the first sign change, and Brent runs under mpmath.
The variational Jacobian of ``flow`` cross-checks the located zero on
demand.  The half-arc part of J1 does not depend on the phase, so the
searches of one modulus (a ``sweep`` row) share its float64 grids
(``_half_arc_grid``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import mpmath
import numpy as np

from .elliptic import _EPS, incomplete_F, ipow, jacobi_arrays, jacobi_at
from .errors import NumericalError, SolverDisagreement
from .flow import (ODE_ATOL, ODE_RTOL, Covector, EllipticCoord, JacobianPath, Stratum,
                   classify, to_elliptic)
from .maxwell import (_NOISE_SAFETY, K_ONE_CUTOFF, MP_DPS, SIGN_MARGIN, _brent,
                      _screen_to_first_flip, a01_c1_kernel, a01_c2_kernel, a21_c1_kernel,
                      a21_c2_kernel, c1_kernel_args, c2_kernel_args, c2_series,
                      grid_roots, sign_changes, stratum_forms, t_max1)

# Settings of the first-zero search, fixed like those in ``maxwell`` by the
# ~1e-6 target in time.

# base step of the J1 scan (at most a 200th of the pendulum period)
SCAN_DT = 0.01
# the analytic and variational first zeros must agree to this, relative to
# max(1, t_conj); acceptance criterion 8 measures gaps up to about 5e-6 over
# its 100 draws.
AGREEMENT_TOL = 1e-4
# slack of the two-sided bounds t_max <= t_conj <= upper, and of the guard
# that rejects a located zero undercutting t_max.  The guard raises
# NumericalError for any zero below t_max - BOUND_SLACK, so a returned result
# always meets the lower bound, and the lower_ok flag that ``conj``, ``sweep``
# and ``two_sided_check`` report is the literal True.  The slack is absolute,
# so it does not scale with t_max under dilation.
BOUND_SLACK = 1e-6
# half-arc grids the float64 J1 scan keeps (``_half_arc_grid``): one per
# modulus of a sweep row, whose phases (at most 8 by default) share it
HALF_ARC_GRIDS = 8
# matrices per batched SVD of the lazy sign-certainty scan (``_first_certain``)
_CERTAIN_CHUNK = 64
# times of the variational J0 grid on (t_lo, cap]: the cap is 1.05 t_conj
# when the analytic search found a zero, so a panel is about a 900th of that
# arc, while the zeros of J0 are spaced on the scale of the pendulum period.
# The integration does not depend on it (the grid reads the dense output).
VARIATIONAL_GRID = 900


def _sign_certain(M: np.ndarray) -> np.ndarray:
    """Per matrix of the stack, whether the integration error cannot flip sign(det M).

    No perturbation smaller than the least singular value of M makes it
    singular (Weyl), so the sign of det M is certain where that value exceeds
    SIGN_MARGIN times the Frobenius norm of the entrywise tolerance
    ODE_ATOL + ODE_RTOL |M|.
    """
    tol = np.linalg.norm(ODE_ATOL + ODE_RTOL * np.abs(M), axis=(1, 2))
    return np.linalg.svd(M, compute_uv=False)[:, -1] > SIGN_MARGIN * tol


def _first_certain(M: np.ndarray) -> int:
    """Index of the first matrix of the stack whose det sign is certain, 0 if none.

    Equals ``int(np.argmax(_sign_certain(M)))``, but takes the SVDs a chunk
    at a time and stops at the first chunk that holds a certain matrix.  On
    24 random C1/C2 cross-check grids of 900 times the first certain matrix
    was at most the tenth, so one chunk of _CERTAIN_CHUNK SVDs replaces 900.
    """
    for i in range(0, len(M), _CERTAIN_CHUNK):
        hits = np.flatnonzero(_sign_certain(M[i:i + _CERTAIN_CHUNK]))
        if len(hits):
            return i + int(hits[0])
    return 0


# public coefficient functions ------------------------------------------------

def a01_C1(p, k):
    return a01_c1_kernel(*c1_kernel_args(np.asarray(p, dtype=float), k), mag=False)[0]


def a21_C1(p, k):
    return a21_c1_kernel(*c1_kernel_args(np.asarray(p, dtype=float), k), mag=False)[0]


def a01_C2(u1, k):
    return a01_c2_kernel(*c2_kernel_args(incomplete_F(u1, k), k), mag=False)[0]


def a21_C2(u1, k):
    return a21_c2_kernel(*c2_kernel_args(incomplete_F(u1, k), k), mag=False)[0]


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
    _, k2, sn, cn, dn, e2 = c1_kernel_args(p, k)
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
    _, k2, sn, cn, dn, e2 = c1_kernel_args(p, k)
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


def _half_arc(forms, k, sa, t, mag=True):
    """The half-arc part of J1 at times t, in the arithmetic of t and k:
    (sn p, a0, a2, m0, m2) at the half-arc p = sa t / arc_div(k), with
    sin u1 for sn p on C2, and m0, m2 the noise magnitudes of a0, a2 (None
    without mag, which computes no magnitude)."""
    args = forms.args(sa * t / forms.arc_div(float(k)), k)
    (fv, mfv), (fz, mfz), (a01, m01), (a21, m21) = (
        kern(*args, mag=mag) for kern in (forms.fv, forms.fz, forms.a01, forms.a21))
    a0, a2 = fv * a01 / forms.a0_scale, fz * a21
    if not mag:
        return args[forms.sn_slot], a0, a2, None, None
    return (args[forms.sn_slot], a0, a2,
            (abs(fv) * m01 + mfv * abs(a01)) / forms.a0_scale, abs(fz) * m21 + mfz * abs(a21))


def _j1(ec: EllipticCoord, t, half=None, mag=True):
    """(J1, noise, xi, Delta, a0, a2) along a C1 or C2 extremal.

    Float64 arrays for an array of times; Python floats for a Python float
    time, with the bits of the call on the 1-element array [t] (the
    arithmetics of ``elliptic``); mpf values at the working precision for an
    mpf time.  ``half`` is ``_half_arc`` at t when the caller holds it.
    Without mag the noise is None and no magnitude is computed (the root
    steps, which read J1 only); every other value keeps its bits.
    """
    forms = stratum_forms(ec.stratum)
    mp = isinstance(t, mpmath.mpf)
    sa = mpmath.sqrt(ec.alpha) if mp else math.sqrt(ec.alpha)
    # Python floats: a numpy scalar from the coordinate would carry numpy's
    # scalar rounding of ** into the float route
    kf, phi = float(ec.k), float(ec.phi)
    k = mpmath.mpf(kf) if mp else kf
    k2 = k * k
    if half is None:
        half = _half_arc(forms, k, sa, t, mag)
    sn_p, a0, a2, m0, m2 = half
    tau = sa * (phi + t / 2.0) / forms.phase_div(kf)
    snt = jacobi_at(tau, k)[2]
    xi = snt * snt
    w0, w2 = forms.weights(xi, k2)
    j1 = a0 * w0 - a2 * w2
    noise = _EPS * _NOISE_SAFETY * (m0 * abs(w0) + m2 * abs(w2)) if mag else None
    delta = 1.0 - k2 * ipow(sn_p * snt, 2)
    return j1, noise, xi, delta, a0, a2


@lru_cache(maxsize=HALF_ARC_GRIDS)
def _half_arc_grid(stratum, k, alpha, t_lo, t_end, dt, start, stop):
    """``_half_arc`` on the float64 scan's grid part np.arange(t_lo, t_end,
    dt)[start:stop], as read-only arrays.  The phases of a sweep row share
    their modulus, and with it these grids."""
    half = _half_arc(stratum_forms(stratum), k, math.sqrt(alpha),
                     np.arange(t_lo, t_end, dt)[start:stop])
    for a in half:
        a.flags.writeable = False
    return half


def j1_path(ec: EllipticCoord, t):
    """(J1, noise, xi, Delta, a0, a2) float64 arrays along a C1 or C2 extremal.

    The float64 entry point; ``_j1_scalar_mp`` is the mpmath one.
    """
    return _j1(ec, np.asarray(t, dtype=float))


def _j1_scalar_mp(ec: EllipticCoord, t: float, dps: int) -> float:
    """J1 at one time under mpmath (for noise-dominated float64 regions)."""
    with mpmath.workdps(dps):
        return float(_j1(ec, mpmath.mpf(t), mag=False)[0])


def _j1_c2_series(ec: EllipticCoord, t):
    """(J1, bound) float64 arrays along a C2 extremal from the kernels'
    small-k series (``maxwell.c2_series``): the sign screen of the mpmath
    scan.  The bound carries the kernels' bounds through J1 = a0 w0 - a2 w2
    and adds that sum's roundoff.
    """
    forms = stratum_forms(ec.stratum)
    sa, k = math.sqrt(ec.alpha), ec.k
    t = np.asarray(t, dtype=float)
    u1 = jacobi_arrays(sa * t / forms.arc_div(k), k)[3]
    snt = jacobi_arrays(sa * (ec.phi + t / 2.0) / forms.phase_div(k), k)[0]
    w0, w2 = forms.weights(snt * snt, k * k)
    (fv, bfv), (fz, bfz), (a01, b01), (a21, b21) = (
        c2_series(name, u1, k) for name in ("fv", "fz", "a01", "a21"))
    a0, a2 = fv * a01 / forms.a0_scale, fz * a21
    bound = ((abs(fv) * b01 + bfv * abs(a01) + bfv * b01) / forms.a0_scale * abs(w0)
             + (abs(fz) * b21 + bfz * abs(a21) + bfz * b21) * abs(w2)
             + _EPS * _NOISE_SAFETY * (abs(a0 * w0) + abs(a2 * w2)))
    return a0 * w0 - a2 * w2, bound


def j1_factors(ec: EllipticCoord, t: float) -> JacobianFactors:
    """The full decomposition at a single time, with the bits of ``j1_path``
    on the array [t]."""
    forms = stratum_forms(ec.stratum)
    j1, noise, xi, delta, a0, a2 = _j1(ec, float(t))
    a1 = float(forms.a1(a0, a2, ec.k * ec.k))
    return JacobianFactors(ec.stratum, a0, a1, a2, xi, delta, j1, noise)


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
    return stratum_forms(ec.stratum).scan_start(ec.k, math.sqrt(ec.alpha))


@dataclass(frozen=True)
class ConjugateResult:
    t_conj: float               # may be +inf
    bracket: tuple | None
    method: str
    residual: float
    t_max: float
    # (lo, hi) holding the C1/C2 upper bound on t_conj, and the bound itself
    # on a call (a polish of the larger C1 Maxwell root when lo < hi)
    upper_range: tuple = (math.inf, math.inf)
    polished_upper: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.t_conj)

    @cached_property
    def upper(self) -> float:
        """The C1/C2 upper bound on t_conj (+inf off C1/C2)."""
        lo, hi = self.upper_range
        return lo if lo == hi else self.polished_upper()

    @property
    def upper_ok(self) -> bool:
        """Whether t_conj <= upper, within BOUND_SLACK; the bound is read
        only when t_conj lies between its range's ends (plus the slack)."""
        lo, hi = self.upper_range
        if self.t_conj <= lo + BOUND_SLACK:
            return True
        if self.t_conj > hi + BOUND_SLACK:
            return False
        return bool(self.t_conj <= self.upper + BOUND_SLACK)


def _first_zero_analytic(ec: EllipticCoord, t_lo: float, t_cap: float,
                         t_split: float = math.inf, t_default: float | None = None):
    """First zero of t -> J1 on (t_lo, t_cap], or None.

    The float64 scan evaluates J1 in two array calls at most: on the grid up
    to the first time past t_split (the caller's upper bound on the zero),
    then on the rest, built only now, when the first part holds no decided
    sign change (an arange's elements depend on its start and step alone, so
    a shorter stop gives the same first times).
    Panels are decided in grid order, so the zero is the one a scan of the
    whole grid finds, and the dip rescan runs only when the whole grid holds
    no decided sign change.  Brent starts from the values that the scan or
    an ambiguous panel's mpmath check holds.  The half-arc part of each
    arange part comes from ``_half_arc_grid``, which the searches of one
    modulus share.

    Below ``mp_k`` (small C2 moduli) J1 lies under float64 resolution.  The
    kernels' small-k series (``_j1_c2_series``) decide the sign of J1 at the
    grid times where it exceeds SIGN_MARGIN of their bound; mpmath evaluates
    J1 at the other times, in order, up to the first sign change, and Brent
    runs under mpmath from that panel's mpmath end values.  Whenever each
    screened sign is J1's (the tests check it on the series' range), the
    zero, bracket and residual are those of a point-by-point mpmath scan.
    That grid's step is set by the default cap t_default (t_cap when None),
    whatever t_cap is, and it is screened one default grid's span at a time
    up to t_cap, so a far cap neither stretches the step nor the grid.
    """
    forms = stratum_forms(ec.stratum)
    where = f"on {ec.stratum.value} at k={ec.k!r}, phi={ec.phi!r}"
    dt = min(SCAN_DT, ec.period() / 200.0)

    def fmp(t):
        return _j1_scalar_mp(ec, t, MP_DPS)

    def f64(t):     # the float route: the bits of the scan's array call
        return _j1(ec, float(t), mag=False)[0]

    fmp.__name__ = f"J1 (mpmath) {where}"
    f64.__name__ = f"J1 {where}"

    def refine(xs, fx, i, f):
        a, b = float(xs[i]), float(xs[i + 1])
        root, froot = _brent(f, a, b, fa=fx[i], fb=fx[i + 1])
        return root, (a, b), abs(froot)

    if ec.k < forms.mp_k:
        # a few hundred grid times up to the default cap suffice: in this
        # regime J1 tracks a0(p), whose zeros are spaced on the K(k) scale.
        # The scan stops at the first sign change, which lies just past
        # t_max, at most a third of the way into that grid.
        t_default = t_cap if t_default is None else t_default
        span = t_default - t_lo
        step = max(dt, span / 300.0)
        lo, hi = t_lo, t_default
        while True:
            ts = np.arange(lo, min(t_cap, hi), step)
            screen, bound = _j1_c2_series(ec, ts)
            sure = np.abs(screen) > SIGN_MARGIN * bound
            vals, i = _screen_to_first_flip(fmp, ts, screen, sure)
            if i is not None:
                break
            if hi >= t_cap or len(ts) < 2:
                return None
            lo, hi = ts[-1], ts[-1] + span      # the next span starts at this one's end
        a, b = float(ts[i]), float(ts[i + 1])
        root, froot = _brent(fmp, a, b, fa=None if sure[i] else vals[i],
                             fb=None if sure[i + 1] else vals[i + 1])
        return root, (a, b), abs(froot)

    n = math.ceil((t_cap - t_lo) / dt)          # len(np.arange(t_lo, t_cap, dt))
    if n < 4:
        ts, t_end = np.linspace(t_lo, t_cap, 8), None
    else:
        t_end = min(t_cap, t_split + 2.0 * dt)
        ts = np.arange(t_lo, t_end, dt)
    split = min(len(ts), int(np.searchsorted(ts, t_split, side="right")) + 1)
    vals = noise = np.empty(0)
    for stop in (split, None):
        if stop is None and len(ts) < n:
            t_end = t_cap
            ts = np.arange(t_lo, t_end, dt)
        start, stop = len(vals), len(ts) if stop is None else stop
        part = ts[start:stop]
        if not len(part):
            continue
        first = max(start - 1, 0)           # the panel across the split is new
        half = None if t_end is None else _half_arc_grid(
            ec.stratum, float(ec.k), float(ec.alpha), t_lo, t_end, dt, start, stop)
        v, nz = _j1(ec, part, half)[:2]
        vals, noise = np.concatenate((vals, v)), np.concatenate((noise, nz))
        clear = np.abs(vals) > SIGN_MARGIN * noise
        for i in first + sign_changes(vals[first:]):
            if clear[i] and clear[i + 1]:
                return refine(ts, vals, i, f64)
            # ambiguous panel: decide under mpmath
            va, vb = fmp(float(ts[i])), fmp(float(ts[i + 1]))
            if va == 0.0 or vb == 0.0:
                t0 = float(ts[i]) if va == 0.0 else float(ts[i + 1])
                return t0, (float(ts[i]), float(ts[i + 1])), 0.0
            if va * vb < 0.0:
                return refine(ts[i:i + 2], (va, vb), 0, fmp)
    # near-tangential pair hiding inside one panel: refine panels whose
    # interior dips far below the neighborhood scale without a sign change
    absv = np.abs(vals)
    scale = np.maximum.accumulate(absv)
    cand = np.nonzero((absv[1:-1] < 1e-6 * scale[1:-1])
                      & (absv[1:-1] < absv[:-2]) & (absv[1:-1] <= absv[2:]))[0]
    for j in cand:
        fine = np.linspace(ts[j], ts[min(j + 2, len(ts) - 1)], 256)
        fine_vals = j1_path(ec, fine)[0]
        ff = sign_changes(fine_vals)
        if len(ff):
            return refine(fine, fine_vals, ff[0], f64)
    return None


def _first_zero_variational(lam: Covector, t_lo: float, t_cap: float):
    """First zero of the variational Jacobian J0 on (t_lo, t_cap], or None."""
    jp = JacobianPath(lam, t_cap)
    ts = np.linspace(t_lo, t_cap, VARIATIONAL_GRID)
    M = jp.matrices(ts)
    # J0 vanishes to high order at t = 0, so its first grid values can be
    # integration noise of either sign: the search starts at the first point
    # whose sign is certain (at the first point when none is)
    start = _first_certain(M)
    hits = grid_roots(jp, ts[start:], vals=np.linalg.det(M[start:]))
    return hits[0][0] if hits else None


def first_conjugate_time(lam: Covector, t_cap: float | None = None,
                         cross_validate: bool = False) -> ConjugateResult:
    """First conjugate time; +inf when no Jacobian zero at or below the cap.

    A cap must be positive and finite (ValueError otherwise) on every
    stratum.  C3/C4/C5/C7 extremals have no zero; on C6 the first conjugate
    time equals the first Maxwell time exactly.  On C1/C2 the analytic J1
    is scanned and (optionally) cross-checked against the variational
    Jacobian; the two must agree to ``AGREEMENT_TOL`` or SolverDisagreement
    is raised.  The result carries the stratum upper bound on t_conj (+inf
    where the period diverges or off C1/C2): on C1 as a range from the
    float64 Maxwell roots, which decides the default cap and ``upper_ok``
    unless it holds the value that decides them, and as the polished bound
    on first read of ``upper``.  The covector is converted to elliptic
    coordinates once.
    """
    if t_cap is not None and not (t_cap > 0.0 and math.isfinite(t_cap)):
        raise ValueError("search horizon must be positive and finite")
    st = classify(lam)
    if st in (Stratum.C3, Stratum.C4, Stratum.C5, Stratum.C7):
        return ConjugateResult(math.inf, None, "analytic", 0.0, math.inf)
    if st is Stratum.C6:
        # the cylinder chart is singular at alpha = 0 (beta acts trivially),
        # so the variational Jacobian vanishes identically there and cannot
        # locate the conjugate point; it is the C2 -> C6 limit of t_max1
        t_max = t_max1(lam).t_max
        t_conj = t_max if t_cap is None or t_max <= t_cap else math.inf
        return ConjugateResult(t_conj, None, "analytic", 0.0, t_max)
    ec = to_elliptic(lam)
    forms, k, sa = stratum_forms(st), ec.k, math.sqrt(ec.alpha)
    t_max = forms.maxwell_time(k, sa)[0] if k <= K_ONE_CUTOFF else math.inf
    if not math.isfinite(t_max):
        return ConjugateResult(math.inf, None, "analytic", 0.0, t_max)
    # the upper bound from the float64 Maxwell roots: the polished one lies
    # in [lo, hi], and it is computed only where that range leaves open the
    # default cap max(3 t_max, 1.1 upper) or, in the result, upper_ok
    lo, hi = forms.upper_range(k, sa)
    polished = partial(forms.upper, k, sa)
    t_default = 3.0 * t_max if 1.1 * hi < 3.0 * t_max else max(3.0 * t_max, 1.1 * polished())
    cap = t_cap if t_cap is not None else t_default
    t_lo = min(scan_start_time(ec), 0.5 * t_max)
    hit = _first_zero_analytic(ec, t_lo, cap, hi, t_default)
    if hit is None:
        result = ConjugateResult(math.inf, None, "analytic", 0.0, t_max, (lo, hi), polished)
    else:
        root, bracket, residual = hit
        if root < t_max - BOUND_SLACK:
            raise NumericalError(
                f"located Jacobian zero t={root} undercuts the Maxwell time "
                f"{t_max}; the conjugate-time bound excludes this")
        result = ConjugateResult(root, bracket, "analytic", residual, t_max, (lo, hi), polished)

    if cross_validate:
        v_cap = min(cap, 1.05 * result.t_conj) if result.finite else cap
        t_v = _first_zero_variational(lam, t_lo, v_cap)
        if result.finite:
            agree = t_v is not None and abs(t_v - result.t_conj) <= \
                AGREEMENT_TOL * max(1.0, result.t_conj)
            if not agree:
                raise SolverDisagreement(result.t_conj, t_v, AGREEMENT_TOL)
            result = replace(result, method="analytic+variational")
        elif t_v is not None:
            raise SolverDisagreement(math.inf, t_v, AGREEMENT_TOL)
    return result


def two_sided_check(lam: Covector):
    """(lower_ok, upper_ok) for t_max <= t_conj <= the stratum upper bound.

    lower_ok is True (see BOUND_SLACK); upper_ok is read off one default-cap
    search.  ``conj`` and ``sweep`` read upper_ok off such a search's result
    instead, which polishes no Maxwell root the flag does not need; the
    fifth value here is the polished bound.  A failed upper flag is a reportable
    finding (the upper bounds are numerical evidence, not theorems), so no
    exception is raised for it.
    Returns (lower_ok, upper_ok, t_conj, t_max, upper).
    """
    stratum_forms(classify(lam))           # StratumError off C1/C2
    res = first_conjugate_time(lam)
    return True, res.upper_ok, res.t_conj, res.t_max, res.upper
