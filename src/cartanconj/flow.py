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
flow, 35 equations in total.  Finite differences are kept only as a test
oracle.  Every flow is integrated by one method, ``ODE_METHOD`` (DOP853).
``scipy.integrate`` is imported inside the functions that integrate, so the
paths that need no ODE never load scipy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K, incomplete_F, jacobi_arrays
from .errors import NumericalError, StratumError
from .group import GroupPoint

_TWO_PI = 2.0 * math.pi
# The one integrator of every flow: DOP853, the 8th-order Dormand-Prince pair
# (Hairer, Norsett & Wanner, Solving ODEs I, II.10).  At these tight
# tolerances it takes 2-3x fewer right-hand-side calls than the 5th-order
# RK45, and its dense output evaluates a batch of times with the same
# elementwise arithmetic as one time, so ``JacobianPath.values`` equals the
# pointwise J0 exactly.
ODE_METHOD = "DOP853"
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
        psi = (lam.theta - lam.beta - math.pi) % _TWO_PI
        if psi > math.pi:
            psi -= _TWO_PI
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
    stratum = classify(lam)
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
    def rhs(t, y):
        return [y[1], -lam.alpha * math.sin(y[0] - lam.beta)]
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (0.0, dt), [lam.theta, lam.c], method=ODE_METHOD,
                    rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise NumericalError(f"pendulum integration failed: {sol.message}")
    return Covector(sol.y[0, -1], sol.y[1, -1], lam.alpha, lam.beta)


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


def exp_map_dense(lam: Covector, t_end: float):
    """Integrate the extremal up to t_end; returns the dense solution object."""
    if t_end < 0.0:
        raise ValueError("t must be >= 0")
    y0 = [lam.theta, lam.c, 0.0, 0.0, 0.0, 0.0, 0.0]
    from scipy.integrate import solve_ivp
    sol = solve_ivp(_rhs_base, (0.0, t_end), y0, args=(lam.alpha, lam.beta),
                    method=ODE_METHOD, rtol=ODE_RTOL, atol=ODE_ATOL,
                    dense_output=True)
    if not sol.success:
        raise NumericalError(f"extremal integration failed: {sol.message}")
    return sol


def exp_map(lam: Covector, t: float) -> GroupPoint:
    """Endpoint Exp(lam, t) of the arclength-parameterized geodesic."""
    if t == 0.0:
        return GroupPoint.identity()
    sol = exp_map_dense(lam, t)
    return GroupPoint.from_array(sol.y[2:, -1])


def exp_trajectory(lam: Covector, t_end: float, n: int):
    """(n, 6) array of rows (t, x, y, z, v, w), t equally spaced on [0, t_end]."""
    ts = np.linspace(0.0, t_end, n)
    if t_end == 0.0:
        return np.column_stack([ts, np.zeros((n, 5))])
    sol = exp_map_dense(lam, t_end)
    states = sol.sol(ts)
    return np.column_stack([ts, states[2:].T])


# ---------------------------------------------------------------------------
# Variational (Jacobi field) flow and the exponential-map Jacobian
# ---------------------------------------------------------------------------

# (d alpha, d beta) of the four Jacobi fields, which start along theta0, c0,
# alpha and beta: the derivatives of the c-row with respect to the parameters.
_DPARAM = ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


# The 5x7 state (the extremal, then one Jacobi field per parameter) is small
# enough that numpy's per-operation overhead dominates a row-sliced array
# form, so every entry is a Python float: about 4x faster per call.  Each
# entry rounds as it did in that numpy form, so the bits are the same
# (tests/test_flow.py keeps the numpy form as a reference).  The c-row keeps
# its terms in d alpha and d beta even where they are 0.0: dropping them would
# change the signs of zeros (-0.0 * sa - x is +0.0, not -x, where sa < 0 and
# x is 0.0).
def _rhs_variational(t, yflat, alpha, beta):
    th, c, x, y, _, _, _, *fields = yflat.tolist()
    st, ct = math.sin(th), math.cos(th)
    sa, ca = math.sin(th - beta), math.cos(th - beta)
    r2h = 0.5 * (x * x + y * y)
    aca = alpha * ca
    rot = 0.5 * (x * ct + y * st)
    r2c, r2s = r2h * ct, r2h * st
    out = [c, -alpha * sa, ct, st, 0.5 * (x * st - y * ct), r2s, -r2c]
    for i, (da, db) in enumerate(_DPARAM):
        dth, dc, dx, dy = fields[7 * i:7 * i + 4]
        xdx = x * dx + y * dy
        out += (dc, -da * sa - aca * (dth - db), -st * dth, ct * dth,
                0.5 * (dx * st - dy * ct) + rot * dth,
                xdx * st + r2c * dth, -xdx * ct + r2s * dth)
    return np.array(out)


class JacobianPath:
    """Dense-output evaluator of J0(t) = det d Exp / d(theta, c, alpha, beta, t)."""

    def __init__(self, lam: Covector, t_end: float):
        y0 = np.zeros((5, 7))
        y0[0, 0] = lam.theta
        y0[0, 1] = lam.c
        y0[1, 0] = 1.0
        y0[2, 1] = 1.0
        from scipy.integrate import solve_ivp
        sol = solve_ivp(_rhs_variational, (0.0, t_end), y0.ravel(),
                        args=(lam.alpha, lam.beta), method=ODE_METHOD,
                        rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=True)
        if not sol.success:
            raise NumericalError(f"variational integration failed: {sol.message}")
        self._sol = sol
        self.t_end = t_end

    def __call__(self, t: float) -> float:
        return float(self.values([t])[0])

    def matrices(self, ts) -> np.ndarray:
        """(n, 5, 5) stack of d Exp / d(theta, c, alpha, beta, t) at the times ``ts``."""
        Y = self._sol.sol(np.asarray(ts, dtype=float)).T.reshape(-1, 5, 7)
        M = np.empty((len(Y), 5, 5))
        M[:, :, :4] = Y[:, 1:, 2:].transpose(0, 2, 1)
        M[:, :, 4] = _gdot(Y[:, 0])
        return M

    def values(self, ts) -> np.ndarray:
        """J0 at each of the times ``ts``: one dense-output call, one batched det."""
        return np.linalg.det(self.matrices(ts))


def exp_jacobian(lam: Covector, t: float) -> float:
    """J0 at a single time (integrates the variational system up to t)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    return JacobianPath(lam, t)(t)


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

    def rhs(t_, yflat):
        Y = yflat.reshape(9, 7)
        th, c, x, y = Y[:, 0], Y[:, 1], Y[:, 2], Y[:, 3]
        st, ct = np.sin(th), np.cos(th)
        r2h = 0.5 * (x * x + y * y)
        out = np.empty((9, 7))
        out[:, 0] = c
        out[:, 1] = -alphas * np.sin(th - betas)
        out[:, 2] = ct
        out[:, 3] = st
        out[:, 4] = 0.5 * (x * st - y * ct)
        out[:, 5] = r2h * st
        out[:, 6] = -r2h * ct
        return out.ravel()

    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (0.0, t), y0.ravel(), method=ODE_METHOD,
                    rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise NumericalError(f"batched integration failed: {sol.message}")
    Y = sol.y[:, -1].reshape(9, 7)
    M = np.empty((5, 5))
    for j in range(4):
        M[:, j] = (Y[1 + 2 * j, 2:] - Y[2 + 2 * j, 2:]) / (2.0 * h)
    M[:, 4] = _gdot(Y[0])
    return float(np.linalg.det(M))


def casimir_drift(lam: Covector, t_end: float, n: int = 200):
    """Max drift of (E, h4, h5) along the integrated extremal.

    h4, h5 are parameters of the theta-chart, so only E is a nontrivial
    check of the integrator; all three are reported for completeness.
    """
    sol = exp_map_dense(lam, t_end)
    ts = np.linspace(0.0, t_end, n)
    states = sol.sol(ts)
    th, c = states[0], states[1]
    E = 0.5 * c * c - lam.alpha * np.cos(th - lam.beta)
    return float(np.max(np.abs(E - E[0]))), 0.0, 0.0
