"""Phase cylinder, stratification, pendulum flow and the exponential map.

Normal extremals live on the cylinder C = {H = 1/2}, parameterized by
(theta, c, alpha, beta) with h1 = cos theta, h2 = sin theta, c = h3,
h4 = alpha sin beta, h5 = -alpha cos beta.  The vertical dynamics is the
generalized pendulum  theta'' = -alpha sin(theta - beta)  with energy
E = c^2/2 - alpha cos(theta - beta), and the cylinder splits into seven
strata C1..C7 by pendulum motion type.

On C1/C2/C3 the pendulum rectifies in elliptic coordinates
(phi, k, alpha, beta):  phi is pendulum time (phi' = 1) and k the
reparameterized energy.  The phase origin is pinned so that

  C1:  sin((theta-beta)/2) = k sn(u),  c = 2 k sqrt(alpha) cn(u),
       u = sqrt(alpha) (phi + t)
  C2:  sin((theta-beta)/2) = sigma sn(u), c = sigma (2 sqrt(alpha)/k) dn(u),
       u = sqrt(alpha) (phi + t) / k,  sigma = sign(c)
  C3:  sin((theta-beta)/2) = sigma tanh(u), c = 2 sigma sqrt(alpha) sech(u),
       u = sqrt(alpha) (phi + t)

so phi = 0 sits at theta = beta with c > 0 (maximal for C1).  Only phase
differences enter the Jacobian formulas, so any origin satisfying the
round-trip and pendulum-advance invariants is equivalent; this one makes
to_elliptic/from_elliptic exact inverses.

The exponential map integrates the 7-dimensional system in
(theta, c, x, y, z, v, w); its Jacobian with respect to
(theta0, c0, alpha, beta, t) comes from the exact linearized (variational)
flow: 35 equations with all four Jacobi fields (``exp_jacobian``), or 21
with the fields along theta0 and c0 and the other two in closed form from
the rotation and dilation symmetries (``JacobianPath``, the cross-check).
Finite differences are kept only as a test oracle.  Every flow is
integrated by ``dop853``: the 8th-order Dormand-Prince pair with its
7th-degree dense output (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5-II.10), a line-by-line port of scipy 1.17's DOP853 initial-value
solver that makes the same numpy calls on the same memory layout, so it
returns the same bits without loading scipy.  Its tableau is the literal
module ``dop853_tables``, copied from scipy's ``dop853_coefficients``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import dop853_tables as _tab
from .elliptic import complete_K, incomplete_F, jacobi_arrays
from .errors import NumericalError, StratumError
from .group import GroupPoint

_TWO_PI = 2.0 * math.pi
# Tolerances of the extremal and variational flows: six orders below the
# ~1e-6 time target (see ``maxwell``) that their J0 zeros are checked against.
ODE_RTOL = ODE_ATOL = 1e-12


class Stratum(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C7 = "C7"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Covector:
    """Point of the cylinder C = {H = 1/2} in (theta, c, alpha, beta)."""

    theta: float
    c: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("theta", "c", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        object.__setattr__(self, "theta", self.theta % _TWO_PI)
        object.__setattr__(self, "beta", self.beta % _TWO_PI)

    @property
    def h(self):
        """(h1, h2, h3, h4, h5) housed by this chart."""
        return (
            math.cos(self.theta),
            math.sin(self.theta),
            self.c,
            self.alpha * math.sin(self.beta),
            -self.alpha * math.cos(self.beta),
        )

    @property
    def energy(self) -> float:
        return 0.5 * self.c * self.c - self.alpha * math.cos(self.theta - self.beta)


@dataclass(frozen=True)
class EllipticCoord:
    """Rectified coordinates on C1 | C2 | C3.

    ``direction`` is the sign of c, needed on C2/C3 where the pendulum
    rotates one way forever; it is +1 on C1.  Without it the chart could
    not invert those strata.
    """

    stratum: Stratum
    phi: float
    k: float
    alpha: float
    beta: float
    direction: int = 1

    def __post_init__(self):
        if self.stratum not in (Stratum.C1, Stratum.C2, Stratum.C3):
            raise StratumError(f"elliptic coordinates cover C1/C2/C3, not {self.stratum}")
        for name in ("phi", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive on C1/C2/C3")
        if self.stratum is Stratum.C3:
            if self.k != 1.0:
                raise ValueError("C3 requires k = 1")
        elif not 0.0 < self.k < 1.0:
            raise ValueError(f"k must lie in (0, 1) on {self.stratum}, got {self.k!r}")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    def period(self) -> float:
        """Pendulum period in time units (inf on C3)."""
        sa = math.sqrt(self.alpha)
        if self.stratum is Stratum.C1:
            return 4.0 * complete_K(self.k) / sa
        if self.stratum is Stratum.C2:
            return 2.0 * self.k * complete_K(self.k) / sa
        return math.inf


# Classification tolerance band around the E = +/- alpha boundaries.
_BOUNDARY_TOL = 1e-12


def classify(lam: Covector) -> Stratum:
    """Stratum of the covector by pendulum motion type."""
    if lam.alpha == 0.0:
        return Stratum.C7 if lam.c == 0.0 else Stratum.C6
    E = lam.energy
    tol = _BOUNDARY_TOL * max(1.0, lam.alpha)
    if abs(E + lam.alpha) < tol:
        return Stratum.C4
    if abs(E - lam.alpha) < tol:
        psi = _wrapped_angle(lam.theta - lam.beta - math.pi)
        return Stratum.C5 if abs(psi) < 1e-12 else Stratum.C3
    return Stratum.C1 if E < lam.alpha else Stratum.C2


def _wrapped_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    a = a % _TWO_PI
    if a > math.pi:
        a -= _TWO_PI
    return a


def to_elliptic(lam: Covector) -> EllipticCoord:
    """Invert the elliptic parameterization; only valid on C1/C2/C3."""
    return _to_elliptic(lam, classify(lam))


def _to_elliptic(lam: Covector, stratum: Stratum) -> EllipticCoord:
    alpha = lam.alpha
    sa = math.sqrt(alpha) if alpha > 0 else 0.0
    psi = _wrapped_angle(lam.theta - lam.beta)
    E = lam.energy
    if stratum is Stratum.C1:
        k = math.sqrt((E + alpha) / (2.0 * alpha))
        # sn(u0) = sin(psi/2)/k, cn(u0) = c/(2 k sqrt(alpha)); consistent by energy
        amp = math.atan2(math.sin(psi / 2.0) / k, lam.c / (2.0 * k * sa))
        u0 = float(incomplete_F(amp, k))
        return EllipticCoord(stratum, u0 / sa, k, alpha, lam.beta, 1)
    if stratum is Stratum.C2:
        k = math.sqrt(2.0 * alpha / (E + alpha))
        sigma = 1 if lam.c > 0 else -1
        u0 = float(incomplete_F(sigma * psi / 2.0, k))
        return EllipticCoord(stratum, k * u0 / sa, k, alpha, lam.beta, sigma)
    if stratum is Stratum.C3:
        sigma = 1 if lam.c > 0 else -1
        u0 = math.atanh(sigma * math.sin(psi / 2.0))
        return EllipticCoord(stratum, u0 / sa, 1.0, alpha, lam.beta, sigma)
    raise StratumError(f"no elliptic coordinates on {stratum}")


def from_elliptic(ec: EllipticCoord, dt: float = 0.0) -> Covector:
    """Covector at pendulum phase phi + dt."""
    sa = math.sqrt(ec.alpha)
    if ec.stratum is Stratum.C1:
        u = sa * (ec.phi + dt)
        sn, cn, dn, _, _ = jacobi_arrays(u, ec.k)
        psi = 2.0 * math.atan2(ec.k * float(sn), float(dn))
        return Covector(ec.beta + psi, 2.0 * ec.k * sa * float(cn), ec.alpha, ec.beta)
    if ec.stratum is Stratum.C2:
        u = sa * (ec.phi + dt) / ec.k
        sn, cn, dn, _, _ = jacobi_arrays(u, ec.k)
        psi = 2.0 * math.atan2(ec.direction * float(sn), float(cn))
        c = ec.direction * (2.0 * sa / ec.k) * float(dn)
        return Covector(ec.beta + psi, c, ec.alpha, ec.beta)
    u = sa * (ec.phi + dt)
    th = math.tanh(u)
    sech = 1.0 / math.cosh(u)
    psi = 2.0 * math.atan2(ec.direction * th, sech)
    return Covector(ec.beta + psi, 2.0 * ec.direction * sa * sech, ec.alpha, ec.beta)


def reflect3(lam: Covector) -> Covector:
    """The reflection (theta, c, alpha, beta) -> (-theta, -c, alpha, -beta)."""
    return Covector(-lam.theta, -lam.c, lam.alpha, -lam.beta)


def rotate_covector(lam: Covector, s: float) -> Covector:
    """Rotation symmetry on the covector side: theta and beta shift together."""
    return Covector(lam.theta + s, lam.c, lam.alpha, lam.beta + s)


def dilate_covector(lam: Covector, r: float):
    """Dilation symmetry; returns the covector and the time rescale e^r."""
    e = math.exp(-r)
    return Covector(lam.theta, lam.c * e, lam.alpha * e * e, lam.beta), math.exp(r)


# ---------------------------------------------------------------------------
# The integrator: DOP853 with dense output
# ---------------------------------------------------------------------------

# Step-size control of scipy's Runge-Kutta solvers.  At these tight
# tolerances the 8th-order pair takes 2-3x fewer right-hand-side calls than
# the 5th-order RK45.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8          # -1 / (error estimator order 7 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# step limit of ``dop853``: the extremal flow takes 6.5-10.5 steps per unit
# time at |c| <= 3 and alpha <= 2, so it reaches about t = 1e5, and a longer
# arc (``exp --t 1e300``) raises NumericalError instead of running for ever.
ODE_MAX_STEPS = 10**6
_NS = _tab.N_STAGES
# (row of A, c) of each stage after the first, as scipy's loops slice them:
# rk_step's stages 1..11 and the dense output's extra stages 13..15
_STAGES = [(_tab.A[s, :s], _tab.C[s]) for s in range(1, _NS)]
_EXTRA_STAGES = [(_tab.A[s, :s], _tab.C[s]) for s in range(_NS + 1, _tab.N_STAGES_EXTENDED)]


def _rms_norm(x):
    """scipy's ``common.norm``."""
    return np.linalg.norm(x) / x.size ** 0.5


class OdePath:
    """One DOP853 integration from t = 0: its step times ``t``, final state ``y``
    and, when integrated with ``dense=True``, its dense output.

    Calling it at a time, or at an array of times, gives the state, or an
    (m, n) array of states, with the bits of scipy's ``OdeSolution``: each
    time takes the step it lies in (the earlier one at a breakpoint, the end
    steps beyond the ends), and the same elementwise Horner loop runs on all
    times at once.
    """

    def __init__(self, t, y, h=None, y_old=None, F=None):
        self.t = t
        self.y = y
        self._h, self._y_old, self._F = h, y_old, F

    def __call__(self, t):
        t = np.asarray(t)
        ts = t.reshape(-1)
        if self.t[-1] == 0.0:       # t_end = 0 took no step: a constant solution
            y = np.tile(self.y, (len(ts), 1))
            return y[0] if t.ndim == 0 else y
        seg = np.searchsorted(self.t, ts, side="left") - 1
        np.clip(seg, 0, len(self._h) - 1, out=seg)
        x = ((ts - self.t[seg]) / self._h[seg])[:, None]
        y = np.zeros((len(ts), self.y.size))
        for i in range(_tab.INTERPOLATOR_POWER):
            y += self._F[seg, -1 - i]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self._y_old[seg]
        return y[0] if t.ndim == 0 else y


def _select_initial_step(fun, args, t0, y0, t_bound, f0, direction, rtol, atol):
    """scipy's ``common.select_initial_step`` (no maximum step, order 7)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(fun(t0 + h0 * direction, y1, *args), dtype=float)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def dop853(fun, t_end, y0, args=(), rtol=ODE_RTOL, atol=ODE_ATOL, dense=False,
           label="ODE") -> OdePath:
    """Integrate y' = fun(t, y, *args) from t = 0 to t_end with DOP853.

    The bits of scipy 1.17's initial-value solver with method "DOP853" and
    the same args, rtol, atol and dense output: a port of its step loop
    (``integrate/_ivp/ivp.py``), ``rk_step``, ``RungeKutta._step_impl``,
    ``DOP853._estimate_error_norm`` and ``_dense_output_impl``, with the
    same numpy calls on the same memory layout (the extended stage array K,
    every stage a ``np.dot`` on a slice of it, numpy scalars in the step-size
    arithmetic, each right-hand side converted by ``np.asarray``).  A negative
    t_end integrates backwards; dense output needs t_end >= 0.  Raises
    ValueError for a non-finite t_end, which no step reaches, and
    NumericalError, "<label> integration failed: ...", when the step falls
    below ten spacings of the floats at t or ODE_MAX_STEPS steps fall short
    of t_end.
    """
    t_bound = float(t_end)
    if not math.isfinite(t_bound):
        raise ValueError(f"{label} integration needs a finite end time, got {t_bound!r}")
    y = np.asarray(y0).astype(float, copy=False)
    if t_bound == 0.0:
        return OdePath(np.array([0.0, 0.0]), y)
    if dense and t_bound < 0.0:
        raise ValueError("dense output needs t_end >= 0")
    t = 0.0
    n = y.size
    direction = np.sign(t_bound - t)
    f = np.asarray(fun(t, y, *args), dtype=float)
    h_abs = _select_initial_step(fun, args, t, y, t_bound, f, direction, rtol, atol)
    K = np.empty((_tab.N_STAGES_EXTENDED, n))
    # K[:s].T of every stage, and of the solution (B) and error (E3, E5) sums
    KT = [K[:s].T for s in range(_tab.N_STAGES_EXTENDED)]
    ts, hs, y_olds, Fs = [t], [], [], []
    while True:
        if len(ts) > ODE_MAX_STEPS:
            raise NumericalError(f"{label} integration failed: {ODE_MAX_STEPS} steps "
                                 f"reached t = {float(t)!r} of {t_bound!r}")
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(f"{label} integration failed: {_TOO_SMALL_STEP}")
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (a, c) in enumerate(_STAGES, start=1):
                dy = np.dot(KT[s], a) * h
                K[s] = np.asarray(fun(t + c * h, y + dy, *args), dtype=float)
            y_new = y + h * np.dot(KT[_NS], _tab.B)
            f_new = np.asarray(fun(t + h, y_new, *args), dtype=float)
            K[_NS] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(KT[_NS + 1], _tab.E5) / scale
            err3 = np.dot(KT[_NS + 1], _tab.E3) / scale
            err5_norm_2 = np.linalg.norm(err5) ** 2
            err3_norm_2 = np.linalg.norm(err3) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        if dense:
            for s, (a, c) in enumerate(_EXTRA_STAGES, start=_NS + 1):
                dy = np.dot(KT[s], a) * h
                K[s] = np.asarray(fun(t + c * h, y + dy, *args), dtype=float)
            F = np.empty((_tab.INTERPOLATOR_POWER, n))
            f_old = K[0]
            delta_y = y_new - y
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f_new + f_old)
            F[3:] = h * np.dot(_tab.D, K)
            hs.append(h)
            y_olds.append(y)
            Fs.append(F)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if direction * (t - t_bound) >= 0:
            break
    if not dense:
        return OdePath(np.array(ts), y)
    return OdePath(np.array(ts), y, np.array(hs), np.array(y_olds), np.array(Fs))


# ---------------------------------------------------------------------------
# Pendulum flow
# ---------------------------------------------------------------------------

def pendulum_flow(lam: Covector, dt: float) -> Covector:
    """Advance (theta, c) by dt under theta' = c, c' = -alpha sin(theta - beta)."""
    if dt == 0.0:
        return lam
    if lam.alpha == 0.0:
        return Covector(lam.theta + lam.c * dt, lam.c, 0.0, lam.beta)
    if classify(lam) in (Stratum.C4, Stratum.C5):
        return lam
    path = dop853(_rhs_pendulum, dt, [lam.theta, lam.c], (lam.alpha, lam.beta),
                  rtol=1e-12, atol=1e-13, label="pendulum")
    return Covector(path.y[0], path.y[1], lam.alpha, lam.beta)


def _rhs_pendulum(t, y, alpha, beta):
    return [y[1], -alpha * math.sin(y[0] - beta)]


# ---------------------------------------------------------------------------
# Exponential map
# ---------------------------------------------------------------------------

def _rhs_base(t, s, alpha, beta):
    th, c, x, y = s[0], s[1], s[2], s[3]
    st, ct = math.sin(th), math.cos(th)
    r2h = 0.5 * (x * x + y * y)
    return (
        c,
        -alpha * math.sin(th - beta),
        ct,
        st,
        0.5 * (x * st - y * ct),
        r2h * st,
        -r2h * ct,
    )


def _gdot(states):
    """Time derivative of g = (x, y, z, v, w) at 7-dim states (last axis)."""
    th, x, y = states[..., 0], states[..., 2], states[..., 3]
    st, ct = np.sin(th), np.cos(th)
    r2h = 0.5 * (x * x + y * y)
    return np.stack([ct, st, 0.5 * (x * st - y * ct), r2h * st, -r2h * ct], axis=-1)


def exp_map_dense(lam: Covector, t_end: float) -> OdePath:
    """Integrate the extremal (theta, c, x, y, z, v, w) up to t_end, with dense output."""
    if t_end < 0.0:
        raise ValueError("t must be >= 0")
    y0 = [lam.theta, lam.c, 0.0, 0.0, 0.0, 0.0, 0.0]
    return dop853(_rhs_base, t_end, y0, (lam.alpha, lam.beta), dense=True,
                  label="extremal")


def exp_map(lam: Covector, t: float) -> GroupPoint:
    """Endpoint Exp(lam, t) of the arclength-parameterized geodesic: the end
    state of ``exp_map_dense``, integrated without the dense output."""
    if t == 0.0:
        return GroupPoint.identity()
    if t < 0.0:
        raise ValueError("t must be >= 0")
    y0 = [lam.theta, lam.c, 0.0, 0.0, 0.0, 0.0, 0.0]
    path = dop853(_rhs_base, t, y0, (lam.alpha, lam.beta), label="extremal")
    return GroupPoint.from_array(path.y[2:])


def exp_trajectory(lam: Covector, t_end: float, n: int):
    """(n, 6) array of rows (t, x, y, z, v, w), t equally spaced on [0, t_end]."""
    ts = np.linspace(0.0, t_end, n)
    if t_end == 0.0:
        return np.column_stack([ts, np.zeros((n, 5))])
    states = exp_map_dense(lam, t_end)(ts)
    return np.column_stack([ts, states[:, 2:]])


# ---------------------------------------------------------------------------
# Variational (Jacobi field) flow and the exponential-map Jacobian
# ---------------------------------------------------------------------------

# The variational systems are small enough that numpy's per-operation
# overhead dominates a row-sliced array form, so every entry is a Python float
# (about 4x faster per call) and the result a list, which ``dop853`` converts
# with ``np.asarray(..., dtype=float)`` like every right-hand side.  Each entry
# rounds as it did in that numpy form, so the bits are the same
# (tests/test_flow.py keeps the numpy form as a reference).  The c-rows keep
# their terms in d alpha and d beta even where they are 0.0: dropping them
# would change the signs of zeros (-0.0 * sa - x is +0.0, not -x, where sa < 0
# and x is 0.0).  The cross-check integrates the extremal and the Jacobi
# fields along theta0 and c0, whose parameter derivatives are 0: a 3x7 state,
# 21 equations.
def _rhs_two_fields(t, yflat, alpha, beta):
    (th, c, x, y, _, _, _,
     dth1, dc1, dx1, dy1, _, _, _,
     dth2, dc2, dx2, dy2, _, _, _) = yflat.tolist()
    st, ct = math.sin(th), math.cos(th)
    sa, ca = math.sin(th - beta), math.cos(th - beta)
    r2h = 0.5 * (x * x + y * y)
    aca = alpha * ca
    rot = 0.5 * (x * ct + y * st)
    r2c, r2s = r2h * ct, r2h * st
    xdx1 = x * dx1 + y * dy1
    xdx2 = x * dx2 + y * dy2
    return [
        c, -alpha * sa, ct, st, 0.5 * (x * st - y * ct), r2s, -r2c,
        dc1, -0.0 * sa - aca * (dth1 - 0.0), -st * dth1, ct * dth1,
        0.5 * (dx1 * st - dy1 * ct) + rot * dth1,
        xdx1 * st + r2c * dth1, -xdx1 * ct + r2s * dth1,
        dc2, -0.0 * sa - aca * (dth2 - 0.0), -st * dth2, ct * dth2,
        0.5 * (dx2 * st - dy2 * ct) + rot * dth2,
        xdx2 * st + r2c * dth2, -xdx2 * ct + r2s * dth2]


def _rhs_variational(t, yflat, alpha, beta):
    """The 5x7 system: ``_rhs_two_fields``, then the Jacobi fields along
    alpha and beta, whose (d alpha, d beta) are (1, 0) and (0, 1)."""
    th, _, x, y = yflat[:4].tolist()
    fields = yflat[21:].tolist()
    st, ct = math.sin(th), math.cos(th)
    sa, aca = math.sin(th - beta), alpha * math.cos(th - beta)
    r2h = 0.5 * (x * x + y * y)
    rot = 0.5 * (x * ct + y * st)
    r2c, r2s = r2h * ct, r2h * st
    out = _rhs_two_fields(t, yflat[:21], alpha, beta)
    for i, (da, db) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        dth, dc, dx, dy = fields[7 * i:7 * i + 4]
        xdx = x * dx + y * dy
        out += (dc, -da * sa - aca * (dth - db), -st * dth, ct * dth,
                0.5 * (dx * st - dy * ct) + rot * dth,
                xdx * st + r2c * dth, -xdx * ct + r2s * dth)
    return out


def _variational_start(lam: Covector, rows: int) -> np.ndarray:
    """The flattened rows x 7 start: the extremal at (theta0, c0), then the
    Jacobi fields along theta0, c0 and, in a 5-row state, alpha and beta."""
    y0 = np.zeros((rows, 7))
    y0[0, 0] = lam.theta
    y0[0, 1] = lam.c
    y0[1, 0] = 1.0
    y0[2, 1] = 1.0
    return y0.ravel()


# weights of the dilation field Y(g) = (x, y, 2z, 3v, 3w)
_DILATION = np.array([1.0, 1.0, 2.0, 3.0, 3.0])


class JacobianPath:
    """Dense-output evaluator of J0(t) = det d Exp / d(theta, c, alpha, beta, t)
    from two integrated Jacobi fields.

    ``path`` is the integration of the 3x7 state: the extremal, then the
    Jacobi fields J_theta and J_c along theta0 and c0.  The rotations and
    dilations of the problem give the other two in closed form (Sachkov,
    "Exponential mapping in generalized Dido's problem", Sb. Math. 194, 2003):
    J_theta + J_beta = R(g) = (-y, x, 0, -w, v) and
    -c0 J_c - 2 alpha J_alpha + t gdot = Y(g) = (x, y, 2z, 3v, 3w), so column
    operations give J0 = det[J_theta, J_c, -Y(g) / (2 alpha), R(g), gdot].
    The formula divides by alpha: ValueError for alpha <= 0 (C6, C7).
    ``exp_jacobian`` integrates all four fields and stays the reference.
    """

    def __init__(self, lam: Covector, t_end: float):
        if not lam.alpha > 0.0:
            raise ValueError(f"the two-field Jacobian needs alpha > 0, got {lam.alpha!r}")
        self.path = dop853(_rhs_two_fields, t_end, _variational_start(lam, 3),
                           (lam.alpha, lam.beta), dense=True, label="variational")
        self.t_end = t_end
        self.alpha = lam.alpha

    def __call__(self, t: float) -> float:
        return float(self.values([t])[0])

    def matrices(self, ts) -> np.ndarray:
        """(n, 5, 5) stack of [J_theta, J_c, -Y(g) / (2 alpha), R(g), gdot] at
        the times ``ts``, whose determinants are J0."""
        Y = self.path(np.asarray(ts, dtype=float)).reshape(-1, 3, 7)
        x, y, _, v, w = Y[:, 0, 2:].T
        M = np.empty((len(Y), 5, 5))
        M[:, :, :2] = Y[:, 1:, 2:].transpose(0, 2, 1)
        M[:, :, 2] = Y[:, 0, 2:] * _DILATION / (-2.0 * self.alpha)
        M[:, :, 3] = np.stack([-y, x, np.zeros_like(x), -w, v], axis=-1)
        M[:, :, 4] = _gdot(Y[:, 0])
        return M

    def values(self, ts) -> np.ndarray:
        """J0 at each of the times ``ts``: one dense-output call, one batched det."""
        return np.linalg.det(self.matrices(ts))


def exp_jacobian(lam: Covector, t: float) -> float:
    """J0 at a single time from all four Jacobi fields: the 5x7 variational
    system, integrated up to t with dense output and read at t.  The
    reference of ``JacobianPath``, which integrates two fields."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    path = dop853(_rhs_variational, t, _variational_start(lam, 5), (lam.alpha, lam.beta),
                  dense=True, label="variational")
    Y = path(np.asarray([t], dtype=float)).reshape(-1, 5, 7)
    M = np.empty((1, 5, 5))
    M[:, :, :4] = Y[:, 1:, 2:].transpose(0, 2, 1)
    M[:, :, 4] = _gdot(Y[:, 0])
    return float(np.linalg.det(M)[0])


def exp_jacobian_fd(lam: Covector, t: float, h: float = 1e-4) -> float:
    """Finite-difference J0; the independent oracle for the variational flow.

    The Richardson value (4 J(h/2) - J(h)) / 3 of two central differences:
    it cancels their O(h^2) error, which dominates where J0 itself is small
    (about 2e-4 relative at J0 = 2.3e-10 with one central difference).
    """
    return (4.0 * _jacobian_cd(lam, t, 0.5 * h) - _jacobian_cd(lam, t, h)) / 3.0


def _jacobian_cd(lam: Covector, t: float, h: float) -> float:
    """Central-difference J0 with step h.

    Integrates all eight perturbed extremals as one batched system so the
    step-size control is shared.
    """
    base = (lam.theta, lam.c, lam.alpha, lam.beta)
    starts = [base]
    for j in range(4):
        for sgn in (+1.0, -1.0):
            pert = list(base)
            pert[j] += sgn * h
            starts.append(tuple(pert))
    y0 = np.zeros((9, 7))
    alphas = np.empty(9)
    betas = np.empty(9)
    for i, (th, c, al, be) in enumerate(starts):
        y0[i, 0] = th
        y0[i, 1] = c
        alphas[i] = al
        betas[i] = be

    Y = dop853(_rhs_batched, t, y0.ravel(), (alphas, betas), label="batched").y.reshape(9, 7)
    M = np.empty((5, 5))
    for j in range(4):
        M[:, j] = (Y[1 + 2 * j, 2:] - Y[2 + 2 * j, 2:]) / (2.0 * h)
    M[:, 4] = _gdot(Y[0])
    return float(np.linalg.det(M))


def _rhs_batched(t, yflat, alphas, betas):
    """Right-hand side of nine extremals at once, one row of (9, 7) each."""
    Y = yflat.reshape(9, 7)
    out = np.empty((9, 7))
    out[:, 0] = Y[:, 1]
    out[:, 1] = -alphas * np.sin(Y[:, 0] - betas)
    out[:, 2:] = _gdot(Y)
    return out.ravel()


def casimir_drift(lam: Covector, t_end: float, n: int = 200) -> float:
    """Max drift of the energy E along the integrated extremal.

    The other Casimirs h4, h5 are parameters of the theta-chart, constant by
    construction, so E is the only one that checks the integrator.
    """
    ts = np.linspace(0.0, t_end, n)
    # contiguous rows: numpy may run another loop, which can round its last
    # bit differently, on a strided array
    th, c = np.ascontiguousarray(exp_map_dense(lam, t_end)(ts)[:, :2].T)
    E = 0.5 * c * c - lam.alpha * np.cos(th - lam.beta)
    return float(np.max(np.abs(E - E[0])))
