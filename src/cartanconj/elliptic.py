"""Jacobi elliptic functions and Legendre elliptic integrals.

The workhorse is the arithmetic-geometric mean with a descending Landen
transformation: one AGM chain per modulus gives sn, cn, dn, the continuous
(quasi-periodic) amplitude am(u, k), and the Jacobi epsilon function
E(u, k) = integral of dn^2 from 0 to u via the side recurrence

    E(u, k) = (E(k)/K(k)) * u + sum_i c_i sin(phi_i).

Incomplete Legendre integrals F(phi, k), E(phi, k) use Carlson symmetric
forms plus quasi-periodic reduction, so every function here accepts any
real argument.  The elliptic argument may be a scalar or an ndarray; the
modulus is always a scalar.  Degenerate moduli k = 0 and k = 1 are
explicit analytic branches (trig and tanh/sech respectively); the AGM is
never run at k = 1.

The AGM chain and the Landen loop are written once and run in the
arithmetic of the modulus: float64 (the elliptic argument a scalar or an
ndarray) for a float k, mpmath at the working precision for an mpf k.
Float64 targets 1e-13 relative over k in [0, 1); the mpmath entry points
(suffixed ``_mp``) serve downstream code where float64 cancellation would
destroy k**8-and-smaller suppressed combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class Modulus:
    """Elliptic modulus k, restricted to [0, 1]."""

    k: float

    def __post_init__(self):
        k = self.k
        if not isinstance(k, (int, float)) or not math.isfinite(k):
            raise ValueError(f"modulus must be a finite real, got {k!r}")
        if not 0.0 <= k <= 1.0:
            raise ValueError(f"modulus must lie in [0, 1], got {k!r}")
        object.__setattr__(self, "k", float(k))


def _kval(k) -> float:
    if isinstance(k, Modulus):
        return k.k
    return Modulus(float(k)).k


@dataclass(frozen=True)
class EllipticValues:
    """sn, cn, dn, am and E = int_0^u dn^2 at one argument."""

    sn: float
    cn: float
    dn: float
    am: float
    E_incomplete: float


def _agm_chain(k):
    """AGM sequences a_i, b_i, c_i for modulus k in [0, 1).

    Floats for a float k; mpf values at the working precision for an mpf k.
    """
    mp = isinstance(k, mpmath.mpf)
    sqrt = mpmath.sqrt if mp else math.sqrt
    eps = mpmath.eps if mp else _EPS
    a = [1.0]
    b = [sqrt((1.0 - k) * (1.0 + k))]
    c = [k]
    # stop at the roundoff floor c ~ eps * a; junk levels would otherwise
    # pollute the quadratically weighted E/K sum
    while abs(c[-1]) > 4.0 * eps * a[-1] and len(a) < 64:
        an = 0.5 * (a[-1] + b[-1])
        bn = sqrt(a[-1] * b[-1])
        cn = 0.5 * (a[-1] - b[-1])
        a.append(an)
        b.append(bn)
        c.append(cn)
    return a, b, c


def _landen(u, k):
    """(sn, cn, dn, am, E) by descending Landen on the AGM chain of k in [0, 1).

    u is a float64 scalar or array with a float k, or an mpf with an mpf k;
    the arithmetic follows k.
    """
    if isinstance(k, mpmath.mpf):
        sin, cos, sqrt, asin, fsum = mpmath.sin, mpmath.cos, mpmath.sqrt, mpmath.asin, mpmath.fsum
        clip = lambda s: max(min(s, 1), -1)
    else:
        sin, cos, sqrt, asin, fsum = np.sin, np.cos, np.sqrt, np.arcsin, math.fsum
        clip = lambda s: np.clip(s, -1.0, 1.0)
    a, _, c = _agm_chain(k)
    n = len(a) - 1
    phi = (2.0 ** n * a[n]) * u
    sn = sin(phi)
    esum = c[n] * sn if n >= 1 else 0.0
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + asin(clip(c[i] / a[i] * sn)))
        sn = sin(phi)
        if i > 1:
            esum = esum + c[i - 1] * sn
    dn = sqrt(1.0 - (k * sn) ** 2)
    e_over_k = 1.0 - fsum(2.0 ** (i - 1) * c[i] ** 2 for i in range(n + 1))
    return sn, cos(phi), dn, phi, e_over_k * u + esum


def jacobi_arrays(u, k):
    """Vectorized (sn, cn, dn, am, E) for fixed modulus and array argument."""
    k = _kval(k)
    u = np.asarray(u, dtype=float)
    if k == 0.0:
        return np.sin(u), np.cos(u), np.ones_like(u), u + 0.0, u + 0.0
    if k == 1.0:
        sn = np.tanh(u)
        cn = 1.0 / np.cosh(u)
        return sn, cn, cn.copy(), np.arctan(np.sinh(u)), sn.copy()
    return _landen(u, k)


def jacobi(u: float, k) -> EllipticValues:
    """sn, cn, dn, am(u, k) and E(u, k) at a scalar argument."""
    if not math.isfinite(u):
        raise ValueError(f"elliptic argument must be finite, got {u!r}")
    sn, cn, dn, am, eps = jacobi_arrays(float(u), k)
    return EllipticValues(float(sn), float(cn), float(dn), float(am), float(eps))


def am(u, k):
    return jacobi_arrays(u, k)[3]


def complete_K(k) -> float:
    """Complete integral of the first kind; diverges at k = 1."""
    k = _kval(k)
    if k == 1.0:
        raise ValueError("divergent period: K(k) has no finite value at k = 1")
    if k == 0.0:
        return math.pi / 2.0
    a, _, _ = _agm_chain(k)
    return math.pi / (2.0 * a[-1])


def complete_E(k) -> float:
    """Complete integral of the second kind."""
    k = _kval(k)
    if k == 1.0:
        return 1.0
    if k == 0.0:
        return math.pi / 2.0
    a, _, c = _agm_chain(k)
    e_over_k = 1.0 - math.fsum(2.0 ** (i - 1) * c[i] ** 2 for i in range(len(c)))
    return e_over_k * math.pi / (2.0 * a[-1])


def E2(p, k):
    """2 E(p, k) - p, the combination entering every Jacobian coefficient."""
    return 2.0 * jacobi_arrays(p, k)[4] - np.asarray(p, dtype=float)


# ---------------------------------------------------------------------------
# Carlson symmetric forms (vectorized duplication; double precision)
# ---------------------------------------------------------------------------

def carlson_rf(x, y, z):
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    z = np.asarray(z, dtype=float).copy()
    for _ in range(120):
        mu = (x + y + z) / 3.0
        dev = np.max(np.abs(1.0 - np.stack([x, y, z]) / mu))
        if dev < 1e-4:
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
    mu = (x + y + z) / 3.0
    dx = 1.0 - x / mu
    dy = 1.0 - y / mu
    dz = 1.0 - z / mu
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    s = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
         - 5.0 * e2 ** 3 / 208.0 + 3.0 * e3 * e3 / 104.0 + e2 * e2 * e3 / 16.0)
    return s / np.sqrt(mu)


def carlson_rd(x, y, z):
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    z = np.asarray(z, dtype=float).copy()
    sigma = np.zeros(np.broadcast(x, y, z).shape)
    power = 1.0
    for _ in range(120):
        mu = 0.2 * (x + y + 3.0 * z)
        dev = np.max(np.abs(1.0 - np.stack([x, y, z]) / mu))
        if dev < 1e-4:
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        sigma = sigma + power / (sz * (z + lam))
        power = power * 0.25
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
    mu = 0.2 * (x + y + 3.0 * z)
    dx = 1.0 - x / mu
    dy = 1.0 - y / mu
    dz = 1.0 - z / mu
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ef = ed + ec + ec
    s1 = ed * (-3.0 / 14.0 + 0.25 * 9.0 / 22.0 * ed - 1.5 * 3.0 / 26.0 * dz * ef)
    s2 = dz * (ef / 6.0 + dz * (-9.0 / 22.0 * ec + dz * 3.0 / 26.0 * ea))
    return 3.0 * sigma + power * (1.0 + s1 + s2) / (mu * np.sqrt(mu))


def incomplete_F(phi, k):
    """Quasi-periodic Legendre F(phi, k); inverse of am for fixed k."""
    k = _kval(k)
    phi = np.asarray(phi, dtype=float)
    if k == 0.0:
        return phi + 0.0
    if k == 1.0:
        if np.any(np.abs(phi) >= math.pi / 2.0):
            raise ValueError("F(phi, 1) diverges for |phi| >= pi/2")
        return np.arctanh(np.sin(phi))
    n = np.round(phi / math.pi)
    r = phi - n * math.pi
    s, c = np.sin(r), np.cos(r)
    base = s * carlson_rf(c * c, 1.0 - (k * s) ** 2, np.ones_like(r))
    return 2.0 * n * complete_K(k) + base


def incomplete_E(phi, k):
    """Quasi-periodic Legendre E(phi, k) of the amplitude phi."""
    k = _kval(k)
    phi = np.asarray(phi, dtype=float)
    if k == 0.0:
        return phi + 0.0
    if k == 1.0:
        n = np.round(phi / math.pi)
        r = phi - n * math.pi
        return 2.0 * n + np.sin(r)
    n = np.round(phi / math.pi)
    r = phi - n * math.pi
    s, c = np.sin(r), np.cos(r)
    y = 1.0 - (k * s) ** 2
    one = np.ones_like(r)
    base = s * carlson_rf(c * c, y, one) - (k * k / 3.0) * s ** 3 * carlson_rd(c * c, y, one)
    return 2.0 * n * complete_E(k) + base


# ---------------------------------------------------------------------------
# mpmath backend: the same AGM and Landen steps at the working precision
# ---------------------------------------------------------------------------

def jacobi_mp(u, k):
    """(sn, cn, dn, am, E) as mpf values."""
    return _landen(mpmath.mpf(u), mpmath.mpf(k))


def am_mp(u, k):
    """Quasi-periodic amplitude in mpmath arithmetic (current precision)."""
    return jacobi_mp(u, k)[3]
