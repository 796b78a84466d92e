"""Jacobi elliptic functions and Legendre elliptic integrals.

The workhorse is the arithmetic-geometric mean with a descending Landen
transformation: one AGM chain per modulus gives sn, cn, dn, the continuous
(quasi-periodic) amplitude am(u, k), and the Jacobi epsilon function
E(u, k) = integral of dn^2 from 0 to u via the side recurrence

    E(u, k) = (E(k)/K(k)) * u + sum_i c_i sin(phi_i).

The incomplete Legendre integral F(phi, k) uses Carlson's symmetric form
plus quasi-periodic reduction, so it accepts any real argument.  The
elliptic argument may be a scalar or an ndarray; the modulus is always a
scalar.  Degenerate moduli k = 0 and k = 1 are explicit analytic branches
(trig and tanh/sech respectively); the AGM is never run at k = 1.

The AGM chain and the Landen loop are written once and run in one of
three arithmetics, which ``jacobi_at`` picks from the type of the argument
(the one place that does):

- float64 numpy (``jacobi_arrays``), for an ndarray, a 0-d array or a
  numpy scalar argument;
- Python floats, for a Python ``float`` argument and 0 < k < 1.  They give
  the bits of the numpy call on the 1-element array [u] at a fraction of
  its dispatch cost: ``+ - * /``, ``abs`` and ``sqrt`` are IEEE in both,
  ``sin``, ``cos`` and ``arcsin`` call numpy's ufunc on the scalar (its
  1-element loop; ``math.asin`` differs from it in the last bit on some
  inputs), and every power of an argument-derived value goes through
  ``ipow``;
- mpmath at the working precision (``jacobi_mp``), for an mpf argument, on
  the ``_mpf_`` tuples with ``mpmath.libmp``'s functions (``_landen_mp``):
  the calls the mpf operators make, with their bits, without their
  wrappers.

Float64 targets 1e-13 relative over k in [0, 1); the mpmath route serves
downstream code where float64 cancellation would destroy k**8-and-smaller
suppressed combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import libmp

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


def _agm_chain(k):
    """(a_i, c_i, E(k)/K(k), c_i / a_i, 2**n a_n) of the AGM for modulus k in [0, 1).

    Floats for a float k; mpf values at the working precision for an mpf k.
    The chain depends only on k and that arithmetic, so it is built once per
    (k, precision) and shared as immutable tuples, with the Landen loop's
    constants c_i / a_i and 2**n a_n: each is the single operation that the
    loop would repeat on every call, so the bits are the same.
    """
    return _agm_chain_at(k, mpmath.mp.prec if isinstance(k, mpmath.mpf) else None)


@lru_cache(maxsize=256)
def _agm_chain_at(k, prec):
    # prec is None for float64; it only keys the cache, since an mpf k and a
    # float k of the same value are equal keys otherwise
    mp = prec is not None
    sqrt = mpmath.sqrt if mp else math.sqrt
    eps = mpmath.eps if mp else _EPS
    fsum = mpmath.fsum if mp else math.fsum
    # a_0 = 1 as an mpf on the mp path, so that every entry, and 2**0 a_0,
    # is an mpf; mpf arithmetic converts a float 1.0 exactly, so the bits
    # are those of the float
    a = [mpmath.mpf(1) if mp else 1.0]
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
    e_over_k = 1.0 - fsum(2.0 ** (i - 1) * c[i] ** 2 for i in range(len(c)))
    n = len(a) - 1
    ratio = tuple(ci / ai for ci, ai in zip(c, a))
    return tuple(a), tuple(c), e_over_k, ratio, 2.0 ** n * a[n]


def ipow(x, n: int):
    """x ** n, with the bits of numpy's array loop when x is a Python float.

    numpy squares an array by x * x and takes higher powers with its pow
    loop; Python's ``**`` calls libm's pow, which differs from both in the
    last bit on some inputs.  Any other x (an ndarray, a numpy scalar, an
    mpf) is raised with its own ``**``.
    """
    if type(x) is float and n >= 2:
        return x * x if n == 2 else float(np.power(x, n))
    return x ** n


def _landen(u, k):
    """(sn, cn, dn, am, E) by descending Landen on the AGM chain of k in [0, 1).

    u is a float64 ndarray (or 0-d array) or a Python float, and k a Python
    float; a Python float u gives Python floats with the bits of the call
    on the array [u].  ``_landen_mp`` is the loop for an mpf u and k.
    """
    if type(u) is float:
        # numpy's own loops for the transcendentals, IEEE sqrt, and a clip
        # that keeps NaN and the sign of zero as np.minimum/np.maximum do
        sin = lambda x: float(np.sin(x))
        cos = lambda x: float(np.cos(x))
        asin = lambda x: float(np.arcsin(x))
        sqrt = math.sqrt
        clip = lambda s: min(max(s, -1.0), 1.0)
    else:
        sin, cos, sqrt, asin = np.sin, np.cos, np.sqrt, np.arcsin
        # the same bits as np.clip, without its per-call dispatch overhead
        clip = lambda s: np.minimum(np.maximum(s, -1.0), 1.0)
    _, c, e_over_k, ratio, scale = _agm_chain(k)
    n = len(c) - 1
    phi = scale * u
    sn = sin(phi)
    esum = c[n] * sn if n >= 1 else 0.0
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + asin(clip(ratio[i] * sn)))
        sn = sin(phi)
        if i > 1:
            esum = esum + c[i - 1] * sn
    dn = sqrt(1.0 - ipow(k * sn, 2))
    return sn, cos(phi), dn, phi, e_over_k * u + esum


_HALF = libmp.from_float(0.5)


def _landen_mp(u, k):
    """``_landen`` for an mpf u and k, run on their ``_mpf_`` tuples.

    Each step is the libmp call that the mpf operator or function makes
    (``mpf_mul`` for ``*``, ``mpf_sin`` for ``mpmath.sin``, ...) at the
    context's precision with round-to-nearest, so the values are the bits of
    the same loop in mpf arithmetic, without its wrappers.  The clip is
    Python's ``max(min(s, 1), -1)`` on mpf values: a NaN passes through.
    """
    prec, rnd = mpmath.mp.prec, libmp.round_nearest
    mul, add = libmp.mpf_mul, libmp.mpf_add
    _, c, e_over_k, ratio, scale = _agm_chain(k)
    n = len(c) - 1
    phi = mul(scale._mpf_, u._mpf_, prec, rnd)
    sn = libmp.mpf_sin(phi, prec, rnd)
    esum = mul(c[n]._mpf_, sn, prec, rnd) if n >= 1 else libmp.fzero
    for i in range(n, 0, -1):
        s = mul(ratio[i]._mpf_, sn, prec, rnd)
        s = libmp.fone if libmp.mpf_lt(libmp.fone, s) else s
        s = libmp.fnone if libmp.mpf_gt(libmp.fnone, s) else s
        phi = mul(_HALF, add(phi, libmp.mpf_asin(s, prec, rnd), prec, rnd), prec, rnd)
        sn = libmp.mpf_sin(phi, prec, rnd)
        if i > 1:
            esum = add(esum, mul(c[i - 1]._mpf_, sn, prec, rnd), prec, rnd)
    ksn2 = libmp.mpf_pow_int(mul(k._mpf_, sn, prec, rnd), 2, prec, rnd)
    dn = libmp.mpf_sqrt(libmp.mpf_sub(libmp.fone, ksn2, prec, rnd), prec, rnd)
    e_u = add(mul(e_over_k._mpf_, u._mpf_, prec, rnd), esum, prec, rnd)
    make = mpmath.mp.make_mpf
    return make(sn), make(libmp.mpf_cos(phi, prec, rnd)), make(dn), make(phi), make(e_u)


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


def jacobi_mp(u, k):
    """(sn, cn, dn, am, E) as mpf values at the working precision."""
    return _landen_mp(mpmath.mpf(u), mpmath.mpf(k))


def jacobi_at(u, k):
    """(u, k, sn, cn, dn, E) at u in the arithmetic of u.

    An mpf u gives mpf values at the working precision (``jacobi_mp``), and
    k as an mpf.  A Python ``float`` u with 0 < k < 1 gives Python floats
    with the bits of ``jacobi_arrays`` on the array [u].  Anything else,
    a numpy scalar included, and a Python float at k = 0 or 1, goes to
    ``jacobi_arrays``; an array-like u comes back as a float64 array.
    """
    if isinstance(u, mpmath.mpf):
        k = mpmath.mpf(k)
        sn, cn, dn, _, eps = jacobi_mp(u, k)
        return u, k, sn, cn, dn, eps
    k = _kval(k)
    if type(u) is float:
        sn, cn, dn, _, eps = _landen(u, k) if 0.0 < k < 1.0 else jacobi_arrays(u, k)
        return u, k, sn, cn, dn, eps
    sn, cn, dn, _, eps = jacobi_arrays(u, k)
    return np.asarray(u, dtype=float), k, sn, cn, dn, eps


def am(u, k):
    return jacobi_arrays(u, k)[3]


def complete_K(k) -> float:
    """Complete integral of the first kind; diverges at k = 1."""
    k = _kval(k)
    if k == 1.0:
        raise ValueError("divergent period: K(k) has no finite value at k = 1")
    if k == 0.0:
        return math.pi / 2.0
    return math.pi / (2.0 * _agm_chain(k)[0][-1])


def complete_E(k) -> float:
    """Complete integral of the second kind."""
    k = _kval(k)
    if k == 1.0:
        return 1.0
    if k == 0.0:
        return math.pi / 2.0
    a, _, e_over_k, _, _ = _agm_chain(k)
    return e_over_k * math.pi / (2.0 * a[-1])


# ---------------------------------------------------------------------------
# Carlson symmetric form (vectorized duplication; double precision)
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
