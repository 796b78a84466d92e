"""First Maxwell time: the functions fz, fv, their first roots, and t_max1.

Symmetric geodesics meet again when one of two conditions holds; in the
half-arc variable p these are the zeros of fz (the z-coordinate family)
and fv (the (v, w) family).  The first Maxwell time is

    C1:  t = (2/sqrt(alpha)) min(p1z(k), p1v(k)),   p1z in (K, 3K), p1v in [2K, 4K)
    C2:  t = (2k/sqrt(alpha)) p1v(k),               p1v in (K, 2K)
    C6:  t = (4/|c|) p1v0,                          p1v0 in (pi/2, pi)
    C3, C4, C5, C7:  +inf

fv0 is stored as the unscaled trigonometric numerator (a conventional
1/512 normalization drops out of the root).

Every kernel returns (value, magnitude) where magnitude is the sum of the
absolute values of the summed monomials: eps * magnitude bounds the
float64 cancellation noise, which downstream sign logic uses.  With
``mag=False`` a kernel returns (value, None) and computes no magnitude:
the root steps (``_branch_fn``) read the value only, and it comes from the
same operations in the same order, so it has the same bits.  All kernels
run unchanged on numpy arrays, on mpmath scalars and on Python floats (the
arithmetics of ``elliptic``: every power of a p-derived value is an
``ipow``, so a Python float gives the bits of the array [p]); rational
constants are written as integer multiply/divide so the mp path keeps full
precision.  For small moduli the C2 functions are evaluated under mpmath,
since their values are suppressed by k**3 (fz) and k**8 (fv) against O(1)
monomials and float64 would return noise.  There a float64 series in k
(``c2_series``) screens the mpmath scans: it decides the signs it is sure
of, and mpmath evaluates every value that reaches a root.  Above it every
float64 root is polished under mpmath (``_polish_root_mp``); on C1 only the
one of p1z and p1v that reaches t_max1 is (``_c1_maxwell_root``), and the
C1 upper bound, which needs the other, has a range from the float64 roots
(``_c1_upper_range``) that decides most uses without a polish.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np

from .elliptic import (_EPS, _kval, complete_E, complete_K, incomplete_F, ipow, jacobi_arrays,
                       jacobi_at, jacobi_mp)
from .errors import BracketError, NumericalError, StratumError
from .flow import Covector, EllipticCoord, Stratum, _to_elliptic, classify

# modulus this close to 1 means the period diverges: report +inf times
K_ONE_CUTOFF = 1.0 - 1e-9

# Numerical settings.  Zeros of the exponential-map Jacobian are located to
# about 1e-6 in time, and that target drives every tolerance here and in
# ``conjugate`` and ``flow``.  They are fixed: the results are reproduced at
# these values only.

# Brent tolerance of every root (Maxwell roots, J1 and J0 zeros): six orders
# below the 1e-6 target, so root error never shows in a reported time.
ROOT_XTOL = 1e-12
# step limit of Brent's zeroin, scipy's ``brentq`` default: with superlinear
# steps and bisection as fallback, a root to ROOT_XTOL takes a few dozen
# steps, so hitting the limit points at a defect in the function, not a slow root.
BRENT_MAXITER = 100
# panels of the Maxwell first-root scans over (0, nK), n <= 4: at least 16
# per K, while the roots of fz and fv are spaced on the K scale; a
# near-tangential pair inside one panel is left to the dip rescan.
SCAN_PANELS = 64
# working digits of the high-precision path: C2's a21 falls off like k**17
# against O(1) monomials, so at k = 0.1 about 33 of 50 digits survive.
MP_DPS = 50
# below this modulus every C2 value that reaches a result (the fv root and
# its scan's undecided points, u_v1, the J1 scan's undecided points and its
# Brent) is computed under mpmath, and the small-k series screens the scans'
# signs.  With 0.15 instead, the float64 fv scan at k = 0.16 stops on noise
# and its root escapes (K, 2K).
C2_MP_K = 0.2
# digits of the mpmath re-location of a float64 root near a degeneracy
POLISH_DPS = 40
# half-width of that re-location's bracket around the float64 root: wide
# against the float64 shift of a near-degenerate root (up to about eps**(1/3),
# a few 1e-6) and narrow against the K scale on which the roots of fz and fv
# are spaced, so the bracket holds the intended root only
POLISH_DX = 1e-3
# factor on eps times the summed monomial magnitudes in a float64 noise bound
_NOISE_SAFETY = 16.0
# A float64 sign is trusted only where the value exceeds this many of its
# error bounds.  The J1 noise bound covers cancellation in the J1 sum but not
# the ~1e-13 relative error of the elliptic kernels feeding it, which has been
# measured at up to 5.8 noise bounds; 20 leaves about 3.5x to spare.  The
# small-k series screen of the mpmath scans (``c2_series``) and the
# variational J0 (``conjugate._sign_certain``, over its ODE tolerance bound:
# on 16 random C1/C2 cross-check arcs the RK45 and DOP853 matrices differ by
# up to 8.7 such bounds) take the same margin.
SIGN_MARGIN = 20.0


def mp_dps(k) -> int:
    """Digits of the C2 mpmath searches at modulus k: MP_DPS, and below
    k = 1e-3 17 more per decade, as a21 falls off like k**17."""
    return MP_DPS if k >= 1e-3 else MP_DPS + math.ceil(17 * math.log10(1e-3 / k))


# ---------------------------------------------------------------------------
# kernels over precomputed elliptic ingredients (numpy arrays or mpf scalars)
# ---------------------------------------------------------------------------

def _sum_terms(terms, mag=True):
    """(sum, sum of absolute values) of terms, each summed left to right;
    (sum, None) without mag."""
    val = terms[0]
    for t in terms[1:]:
        val = val + t
    if not mag:
        return val, None
    m = abs(terms[0])
    for t in terms[1:]:
        m = m + abs(t)
    return val, m


def fz_c1_kernel(p, k2, sn, cn, dn, e2, mag=True):
    return _sum_terms([sn * dn, -e2 * cn], mag)


def fv_c1_kernel(p, k2, sn, cn, dn, e2, mag=True):
    inner, m_inner = _sum_terms([
        -p,
        -2 * (1 - 2 * k2 + 6 * k2 * cn * cn) * e2,
        ipow(e2, 3),
        8 * k2 * cn * sn * dn,
    ], mag)
    lead = 4 * sn * dn
    tail = 4 * cn * (1 - 2 * k2 * sn * sn) * e2 * e2
    val = (lead * inner) / 3 + tail
    if not mag:
        return val, None
    return val, (abs(lead) * m_inner) / 3 + abs(tail)


def a01_c1_kernel(p, k2, sn, cn, dn, e2, mag=True):
    sn2 = sn * sn
    A, mA = _sum_terms([
        -3 * e2 * e2,
        4 * e2 * p,
        -8 * e2 * k2 * p,
        -p * p,
        -8 * k2 * sn2,
        6 * k2 * e2 * e2 * sn2,
        8 * k2 * e2 * (2 * k2 - 1) * p * sn2,
        2 * k2 * p * p * sn2,
        8 * k2 * k2 * sn2 * sn2,
    ], mag)
    B, mB = _sum_terms([
        -ipow(e2, 3),
        -2 * p,
        (2 - 4 * k2) * e2 * e2 * p,
        8 * k2 * p,
        8 * k2 * (1 - 2 * k2) * p * sn2,
        2 * e2,
        -e2 * p * p,
        8 * k2 * e2,
        -12 * k2 * e2 * sn2,
    ], mag)
    val = (3 * (cn * A + dn * sn * B)) / 4
    if not mag:
        return val, None
    return val, (3 * (abs(cn) * mA + abs(dn * sn) * mB)) / 4


def a21_c1_kernel(p, k2, sn, cn, dn, e2, mag=True):
    k4 = k2 * k2
    sn2 = sn * sn
    e3, e4 = ipow(e2, 3), ipow(e2, 4)
    C, mC = _sum_terms([
        -ipow(e2, 5),
        (2 - 4 * k2) * e4 * p,
        -(9 - 64 * k2 + 64 * k4) * e2 * e2 * p,
        ipow(p, 3),
        (8 - 16 * k2) * e3,
        -e3 * p * p,
    ], mag)
    D, mD = _sum_terms([
        -4 * e2 * e2,
        5 * e4,
        48 * k2 * e2 * e2,
        2 * e2 * p,
        -8 * e3 * p,
        -96 * k2 * e2 * p,
        16 * k2 * e3 * p,
        128 * k4 * e2 * p,
        2 * p * p,
        3 * e2 * e2 * p * p,
    ], mag)
    G, mG = _sum_terms([5 * e2, -2 * p, 4 * k2 * p], mag)
    H, mH = _sum_terms([-12, 10 * e2 * e2, 8 * e2 * (2 * k2 - 1) * p, p * p], mag)
    val = -(k2 * (cn * C + dn * sn * D - 16 * k2 * cn * G * sn2
                  - 4 * k2 * dn * H * sn2 * sn + 16 * k4 * cn * G * sn2 * sn2
                  - 48 * k4 * dn * sn2 * sn2 * sn))
    if not mag:
        return val, None
    asn = abs(sn)
    return val, k2 * (abs(cn) * mC + abs(dn) * asn * mD + 16 * k2 * abs(cn) * mG * sn2
                      + 4 * k2 * abs(dn) * mH * sn2 * asn + 16 * k4 * abs(cn) * mG * sn2 * sn2
                      + 48 * k4 * abs(dn) * sn2 * sn2 * asn)


def fz_c2_kernel(k, k2, F, E, sinu, cosu, dnu, mag=True):
    val, m = _sum_terms([
        (2 - k2) * F * dnu,
        -2 * E * dnu,
        k2 * cosu * sinu,
    ], mag)
    return (2 * val) / k, None if m is None else (2 * m) / k


def fv_c2_kernel(k, k2, F, E, sinu, cosu, dnu, mag=True):
    k4 = k2 * k2
    D = 2 * E - (2 - k2) * F
    br, m_br = _sum_terms([
        8 * ipow(E, 3),
        -4 * E * (4 + k2),
        -12 * E * E * (2 - k2) * F,
        6 * E * (2 - k2) ** 2 * F * F,
        16 * F,
        -4 * k2 * F,
        -3 * k4 * F,
        -(2 - k2) ** 3 * ipow(F, 3),
    ], mag)
    s2 = sinu * sinu
    terms = [
        3 * dnu * D * D,
        cosu * sinu * br,
        8 * k2 * dnu * s2,
        -6 * dnu * D * D * s2,
        12 * k2 * cosu * D * sinu * s2,
        -8 * k2 * s2 * s2 * dnu,
    ]
    val = _sum_terms(terms, mag=False)[0]
    if not mag:
        return (4 * val) / 3, None
    Dmag = 2 * abs(E) + (2 - k2) * abs(F)
    mags = [
        3 * dnu * 2 * abs(D) * Dmag,
        abs(cosu * sinu) * m_br,
        8 * k2 * dnu * s2,
        6 * dnu * 2 * abs(D) * Dmag * s2,
        12 * k2 * abs(cosu * sinu) * Dmag * s2,
        8 * k2 * s2 * s2 * dnu,
    ]
    return (4 * val) / 3, (4 * _sum_terms(mags, mag=False)[0]) / 3


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


def _table_sum(table, F, E, mag=True):
    # each power once, by ipow (a running product would round differently)
    n = 1 + max(map(sum, table))
    Fp, Ep = [ipow(F, i) for i in range(n)], [ipow(E, j) for j in range(n)]
    val = None
    for (i, j), cf in table.items():
        term = cf * Fp[i] * Ep[j]
        val = term if val is None else val + term
    if not mag:
        return val, None
    aF, aE = abs(F), abs(E)
    aFp, aEp = [ipow(aF, i) for i in range(n)], [ipow(aE, j) for j in range(n)]
    m = None
    for (i, j), cf in table.items():
        aterm = abs(cf) * aFp[i] * aEp[j]
        m = aterm if m is None else m + aterm
    return val, m


def a01_c2_kernel(k, k2, F, E, sinu, cosu, dnu, mag=True):
    return _table_sum(a01_c2_tables(k, k2, sinu, cosu, dnu), F, E, mag)


def a21_c2_kernel(k, k2, F, E, sinu, cosu, dnu, mag=True):
    return _table_sum(a21_c2_tables(k, k2, sinu, cosu, dnu), F, E, mag)


def fv0_kernel(u):
    """Unscaled numerator whose first positive root is p1v0."""
    return (32 * u * u - 1) * np.cos(2 * u) - 8 * u * np.sin(2 * u) + np.cos(6 * u)


# ---------------------------------------------------------------------------
# small-k series of the C2 kernels: the sign screen of the mpmath scans
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _series_table(name):
    """(leading power of k, monomial exponents (a, b, e), coefficients with
    one column per order) of the small-k series of a C2 kernel."""
    from .c2_series_tables import SERIES        # first small-k use only
    lead, monos, orders = SERIES[name]
    return lead, np.array(monos), np.array(orders).T


def c2_series(name, u1, k):
    """(value, bound) of the C2 kernel ``name`` ("fz", "fv", "a01" or "a21")
    at the amplitudes u1 (an array) and modulus k, from its small-k series.

    The series (``c2_series_tables``, written by tools/gen_c2_series.py) is
    the kernel's expansion in k**2 at fixed u1 after its leading power k**n
    (n = 3, 8, 8, 17), with polynomial coefficients in u1, sin u1 and
    cos u1.  Six orders are summed.  The bound adds the float64 roundoff
    (eps times the summed monomial magnitudes, times _NOISE_SAFETY) to twice
    the magnitude of the seventh order: over u1 in [1e-3, 7.5] the summed
    monomial magnitudes grow by at most 1.21x from the sixth order to the
    seventh (at most 3x at any earlier step), while k**2 < 0.04 shrinks
    each order, so the omitted tail stays within about 1.1 of the seventh
    order.  The tests check the bound against 80-digit mpmath for k in
    [0.005, 0.2).
    """
    lead, monos, coef = _series_table(name)
    u = np.asarray(u1, dtype=float)
    s = np.sin(u)
    a, b, e = monos.T
    terms = (u[..., None] ** np.arange(a.max() + 1))[..., a]
    # |s| ** b and the sign apart: pow is many times slower on a negative base
    terms *= (np.abs(s)[..., None] ** np.arange(b.max() + 1))[..., b]
    terms[..., b % 2 == 1] *= np.sign(s)[..., None]
    terms[..., e == 1] *= np.cos(u)[..., None]
    vals = terms @ coef
    mags = np.abs(terms, out=terms) @ np.abs(coef)
    w = k ** (lead + 2 * np.arange(coef.shape[1]))
    value = vals[..., :-1] @ w[:-1]
    bound = _EPS * _NOISE_SAFETY * (mags[..., :-1] @ w[:-1]) + 2.0 * w[-1] * mags[..., -1]
    return value, bound


# ---------------------------------------------------------------------------
# ingredient providers
# ---------------------------------------------------------------------------

def c1_kernel_args(p, k):
    """The C1 kernels' arguments (p, k^2, sn, cn, dn, 2E - p) at p, in the
    arithmetic of p (``elliptic.jacobi_at``)."""
    pa, k, sn, cn, dn, eps = jacobi_at(p, k)
    return p, k * k, sn, cn, dn, 2 * eps - pa


def c2_kernel_args(p, k):
    """The C2 kernels' arguments (k, k^2, F, E, sin u1, cos u1, dn u1) with
    u1 = am(p, k), so F(u1) = p, in the arithmetic of p (``elliptic.jacobi_at``)."""
    p, k, sn, cn, dn, eps = jacobi_at(p, k)
    return k, k * k, p, eps, sn, cn, dn


# ---------------------------------------------------------------------------
# public function surface
# ---------------------------------------------------------------------------

def f_z_C1(p, k):
    return fz_c1_kernel(*c1_kernel_args(np.asarray(p, dtype=float), k), mag=False)[0]


def f_V_C1(p, k):
    return fv_c1_kernel(*c1_kernel_args(np.asarray(p, dtype=float), k), mag=False)[0]


def f_z_C2(u1, k):
    """fz on C2 at the amplitude u1: the kernel at p = F(u1, k)."""
    return fz_c2_kernel(*c2_kernel_args(incomplete_F(u1, k), k), mag=False)[0]


def f_V_C2(u1, k):
    """fv on C2 at the amplitude u1: the C2 kernel at p = F(u1, k), never
    the C1 form."""
    return fv_c2_kernel(*c2_kernel_args(incomplete_F(u1, k), k), mag=False)[0]


def f_V0(u1):
    return fv0_kernel(np.asarray(u1, dtype=float))


# ---------------------------------------------------------------------------
# first positive roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootInfo:
    root: float
    bracket: tuple
    residual: float


def brent_root(f, a, b, xtol=ROOT_XTOL, fa=None, fb=None) -> RootInfo:
    """Root of f in [a, b] by Brent's zeroin; f(a) and f(b) must differ in sign.

    A line-by-line port of the C routine behind ``scipy.optimize.brentq``
    (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4):
    the same iteration on IEEE doubles, with the relative tolerance fixed at
    ``brentq``'s default of 4 eps, so the same root (bit for bit on x86-64,
    where that was checked).  An exact zero at an end is returned as is; a
    bracket without a sign change or a NaN value raises BracketError (a
    NumericalError and, as in ``brentq``, a ValueError), and no convergence
    within BRENT_MAXITER steps raises NumericalError.

    fa and fb are f(a) and f(b) when the caller holds them already: f is
    deterministic, so the iteration and the root are those of an unseeded
    call, and no point is evaluated twice.  The residual |f(root)| is the
    value of the last step, so it needs no further evaluation.
    """
    name = getattr(f, "__name__", "f")

    def checked(x, fx):
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise BracketError(f"{name}({x!r}) is NaN; Brent cannot continue")
        return fx

    a, b, xtol = float(a), float(b), float(xtol)
    rtol = 4 * _EPS
    xpre, xcur = a, b
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    if fpre == 0.0:
        return RootInfo(xpre, (a, b), 0.0)
    if fcur == 0.0:
        return RootInfo(xcur, (a, b), 0.0)
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"{name} has the same sign at both ends of [{a!r}, {b!r}]: "
                           f"f(a) = {fpre!r}, f(b) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return RootInfo(xcur, (a, b), abs(fcur))
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C gets inf or nan here, which bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur, None)
    raise NumericalError(f"Brent on {name} over [{a!r}, {b!r}] did not converge "
                         f"in {BRENT_MAXITER} steps (last x = {xcur!r})")


def sign_changes(vals):
    """Indices i where vals[i] and vals[i + 1] have strictly opposite signs."""
    sign = np.sign(vals)
    return np.nonzero(sign[:-1] * sign[1:] < 0)[0]


def _screen_to_first_flip(f, xs, vals, sure):
    """The screened scan of the mpmath branches: vals approximates f on xs,
    sure marks the values whose sign is f's, and f is called, in order, at
    the other points only, up to the first panel with strictly opposite
    signs (the test of ``sign_changes``: a zero or NaN is no change).

    Returns (vals, i), vals with f's values where it was called, on
    xs[:i + 2] for the first such panel (xs[i], xs[i + 1]), or on all of xs
    with i None.  The panel is the point-by-point scan's whenever each sure
    sign is f's; with nothing sure it is that scan.
    """
    vals = np.array(vals, dtype=float)
    for j in range(len(xs)):
        if not sure[j]:
            vals[j] = f(xs[j])
        if j and (vals[j - 1] < 0 < vals[j] or vals[j] < 0 < vals[j - 1]):
            return vals[:j + 1], j - 1
    return vals, None


def _first_root(f, lo, hi, panels=SCAN_PANELS, xtol=ROOT_XTOL) -> RootInfo:
    """First sign change of f on (lo, hi), refined by Brent.

    The grid and each dip rescan are one call of ``f.on_array``, and the
    values past the first flip are dropped.  A panel before it where |f|
    dips by orders of magnitude without a sign change at its ends is
    rescanned finely: near-tangential root pairs (fv develops one near the
    lower critical modulus) would otherwise be skipped.  Brent re-reads the
    panel's ends through f: a float64 branch's scalar call computes in numpy
    scalars, whose ``x ** n`` can round differently from the array loop, and
    the screened mpmath branch's array values are partly series values.
    """
    ps = np.linspace(lo, hi, panels + 1)
    vals = f.on_array(ps)
    flips = sign_changes(vals)
    first_flip = int(flips[0]) if len(flips) else None
    if first_flip is not None:
        vals = vals[:first_flip + 2]

    # vals ends with the panel of the first flip, so every dip lies before it
    absv = np.abs(vals)
    scale = np.maximum.accumulate(absv)
    dips = np.nonzero((absv[1:-1] < 1e-2 * scale[1:-1])
                      & (absv[1:-1] <= absv[:-2]) & (absv[1:-1] <= absv[2:]))[0]
    for j in dips:
        fine = np.linspace(ps[j], ps[j + 2], 257)
        ff = sign_changes(f.on_array(fine))
        if len(ff):
            return brent_root(f, fine[ff[0]], fine[ff[0] + 1], xtol)
    if first_flip is None:
        exact = np.nonzero(vals == 0.0)[0]
        if len(exact):
            p0 = float(ps[exact[0]])
            return RootInfo(p0, (p0 - xtol, p0 + xtol), 0.0)
        raise NumericalError(
            f"no sign change of {getattr(f, '__name__', 'f')} in ({lo:g}, {hi:g})")
    return brent_root(f, ps[first_flip], ps[first_flip + 1], xtol)


def _polish_ends(info: RootInfo):
    """The ends of the polish's bracket around a float64 root."""
    return info.root - POLISH_DX, info.root + POLISH_DX


def _polish_root_mp(fmp, info: RootInfo) -> RootInfo:
    """Re-locate a float64 root under mpmath.

    Needed where the target function is nearly degenerate: fz has a cubic
    root at p = 2K when 2E(k) = K(k) and fv develops a double root at the
    lower critical modulus, so float64 noise shifts the located root by up
    to (noise)**(1/3).  The mp bracket, POLISH_DX on each side, is kept
    narrow so it contains only the intended root.  If the bracket shows no
    sign change, the root is a tangency: its location is taken as the
    interior minimum of |f|.
    """
    with mpmath.workdps(POLISH_DPS):
        a, b = _polish_ends(info)
        fa, fb = fmp(a), fmp(b)
        if fa == 0.0 or fb == 0.0:
            return info
        if fa * fb < 0.0:
            return brent_root(fmp, a, b, fa=fa, fb=fb)
        from scipy.optimize import minimize_scalar     # tangency only: rare
        res = minimize_scalar(lambda p: abs(fmp(p)), bounds=(a, b),
                              method="bounded", options={"xatol": ROOT_XTOL})
        if res.fun < 1e-4 * max(abs(fa), abs(fb)):
            return RootInfo(float(res.x), (a, b), float(res.fun))
        return info


def _branch_fn(kernel, forms, k, mp=False):
    """p -> float value of a kernel of the stratum record ``forms`` at modulus k.

    With mp the kernel runs under mpmath at the caller's working precision;
    without, it runs in numpy scalars (p a np.float64, which
    ``elliptic.jacobi_at`` sends to the array route, never the Python-float
    one), and ``f.on_array(ps)`` gives its values on an array of p in one
    call.  The numpy-scalar route is what every float64 Maxwell root was
    located with: its ``x ** n`` is libm's pow, and the Python-float route
    would move some roots in the last bits.  The function's name gives the kernel and k for
    error messages.  Both compute the kernel's value only (``mag=False``).
    """
    def f(p):
        p = mpmath.mpf(p) if mp else np.float64(p)
        return float(kernel(*forms.args(p, k), mag=False)[0])
    if not mp:
        f.on_array = lambda ps: kernel(*forms.args(ps, k), mag=False)[0]
    f.__name__ = f"{kernel.__name__}{' (mpmath)' if mp else ''} at k={float(k)!r}"
    return f


def _screened_fv_c2(k):
    """The mpmath branch of fv on C2, whose ``on_array`` is the scan screened
    by its small-k series: ``_first_root`` finds the point-by-point mpmath
    scan's panel, and its Brent re-reads the panel's ends under mpmath.
    """
    f = _branch_fn(fv_c2_kernel, C2_FORMS, k, mp=True)

    def on_array(ps):
        value, bound = c2_series("fv", jacobi_arrays(ps, k)[3], k)
        return _screen_to_first_flip(f, ps, value, np.abs(value) > SIGN_MARGIN * bound)[0]
    f.on_array = on_array
    return f


# the ranges the first roots lie in: (p, K) -> whether p is inside
def _p1z_range(p, K):
    return K < p < 3.0 * K


def _p1v_c1_range(p, K):
    return 2.0 * K - 1e-6 <= p < 4.0 * K


# The C1 roots are located in float64 and polished under mpmath, each step
# with its own cache, so that ``_c1_maxwell_root`` polishes only the root
# that reaches t_max1.  The polished caches are the ones perfbench counts.
@lru_cache(maxsize=4096)
def _p1_z_f64(k: float) -> RootInfo:
    return _first_root(_branch_fn(fz_c1_kernel, C1_FORMS, k), 0.02, 3.0 * complete_K(k) - 1e-9)


@lru_cache(maxsize=4096)
def _p1_v_c1_f64(k: float) -> RootInfo:
    return _first_root(_branch_fn(fv_c1_kernel, C1_FORMS, k), 0.02, 4.0 * complete_K(k) - 1e-9)


@lru_cache(maxsize=4096)
def _p1_z_cached(k: float) -> RootInfo:
    info = _polish_root_mp(_branch_fn(fz_c1_kernel, C1_FORMS, k, mp=True), _p1_z_f64(k))
    if not _p1z_range(info.root, complete_K(k)):
        raise NumericalError(f"p1z(k={k}) = {info.root} escaped (K, 3K)")
    return info


@lru_cache(maxsize=4096)
def _p1_v_c1_cached(k: float) -> RootInfo:
    info = _polish_root_mp(_branch_fn(fv_c1_kernel, C1_FORMS, k, mp=True), _p1_v_c1_f64(k))
    if not _p1v_c1_range(info.root, complete_K(k)):
        raise NumericalError(f"p1v(k={k}) = {info.root} escaped [2K, 4K)")
    return info


def _c1_maxwell_root(k):
    """RootInfo of min(p1z, p1v), the half-arc of t_max1 on C1.

    A polished root lies within POLISH_DX of its float64 root (in the
    polish's bracket), so when the float64 roots lie more than 2 POLISH_DX
    apart the smaller one's polish is the minimum, and only it is polished,
    provided the larger root cannot escape its range check in a polish.
    Otherwise (near k1 and k0, and at a range edge) both are polished, and
    the minimum and the range checks are those of the polished roots.
    """
    z, v = _p1_z_f64(k), _p1_v_c1_f64(k)
    if abs(z.root - v.root) > 2.0 * POLISH_DX:
        K = complete_K(k)
        if z.root < v.root and all(_p1v_c1_range(p, K) for p in _polish_ends(v)):
            return _p1_z_cached(k)
        if v.root < z.root and all(_p1z_range(p, K) for p in _polish_ends(z)):
            return _p1_v_c1_cached(k)
    return min(_p1_z_cached(k), _p1_v_c1_cached(k), key=lambda i: i.root)


def _c1_upper_range(k, sa):
    """(lo, hi) around C1's upper bound from the float64 roots: each
    polished root lies in its polish bracket, and the bound is monotone."""
    m = max(_p1_z_f64(k).root, _p1_v_c1_f64(k).root)
    return 2.0 / sa * (m - POLISH_DX), 2.0 / sa * (m + POLISH_DX)


@lru_cache(maxsize=4096)
def _p1_v_c2_cached(k: float) -> RootInfo:
    K = complete_K(k)
    if k < C2_MP_K:
        with mpmath.workdps(mp_dps(k)):
            info = _first_root(_screened_fv_c2(k), 1e-3, 2.0 * K - 1e-9)
    else:
        info = _first_root(_branch_fn(fv_c2_kernel, C2_FORMS, k), 0.02, 2.0 * K - 1e-9)
        info = _polish_root_mp(_branch_fn(fv_c2_kernel, C2_FORMS, k, mp=True), info)
    if not K < info.root < 2.0 * K:
        raise NumericalError(f"p1v_C2(k={k}) = {info.root} escaped (K, 2K)")
    return info


@lru_cache(maxsize=1)
def _p1_v0_cached() -> RootInfo:
    def fv0(u):
        return float(fv0_kernel(u))
    fv0.on_array = fv0_kernel
    info = _first_root(fv0, 0.05, math.pi - 1e-12, 256, 1e-13)
    if not math.pi / 2.0 < info.root < math.pi:
        raise NumericalError(f"p1v0 = {info.root} escaped (pi/2, pi)")
    return info


def p1_z(k) -> float:
    k = _kval(k)
    if not 0.0 < k < 1.0:
        raise ValueError("p1_z needs k in (0, 1)")
    return _p1_z_cached(k).root


def p1_V(k, stratum) -> float:
    """First root of fv for the given stratum; k = 0 gives the C6 limit."""
    st = Stratum(stratum) if not isinstance(stratum, Stratum) else stratum
    k = _kval(k)
    if k == 0.0:
        if st is not Stratum.C2:
            raise StratumError("k = 0 is the C6 limit of the C2 family only")
        return _p1_v0_cached().root
    if not 0.0 < k < 1.0:
        raise ValueError("p1_V needs k in [0, 1)")
    if st is Stratum.C1:
        return _p1_v_c1_cached(k).root
    if st is Stratum.C2:
        return _p1_v_c2_cached(k).root
    raise StratumError(f"p1_V is defined on C1/C2, not {st}")


def p1_V0() -> float:
    return _p1_v0_cached().root


def u_v1(k) -> float:
    """Amplitude of the first C2 root: u_v1 = am(p1v, k)."""
    k = _kval(k)
    p = p1_V(k, Stratum.C2)
    if k < C2_MP_K:
        with mpmath.workdps(MP_DPS):
            return float(jacobi_mp(p, k)[3])
    return float(jacobi_arrays(p, k)[3])


@lru_cache(maxsize=1)
def critical_moduli():
    """The two moduli (k1, k0) with p1z(k) = p1v(k), k1 < k0."""
    # p1z(k) = p1v(k) exactly when fz and fv share their first root, i.e.
    # when fv vanishes at p1z(k); that formulation stays smooth through the
    # steep region where the first fv root emerges from a tangential pair.
    def shared(k):
        return _branch_fn(fv_c1_kernel, C1_FORMS, k)(_p1_z_cached(k).root)
    ks = np.linspace(0.02, 0.98, 121)
    vals = np.array([shared(k) for k in ks])
    hits = sign_changes(vals)
    if len(hits) != 2:
        raise NumericalError(f"expected 2 critical moduli, found {len(hits)}")
    k1, k0 = sorted(brent_root(shared, ks[i], ks[i + 1], fa=vals[i], fb=vals[i + 1]).root
                    for i in hits)

    # Report each modulus a hair below its true value.  min(p1z, p1v) is
    # attained by the nondegenerate branch on that side (pz simple at k1,
    # pv simple at k0); on the other side a cube-root (k0) or square-root
    # (k1) branch blows a ~1e-12 modulus error up to ~1e-4 in the root.
    def below_k1(k):
        return _polished_shared_sign(k) < 0.0
    while not below_k1(k1):
        k1 = float(np.nextafter(k1, 0.0))
    def below_k0(k):
        return 2.0 * complete_E(k) - complete_K(k) > 0.0
    while not below_k0(k0):
        k0 = float(np.nextafter(k0, 0.0))
    # a few extra ulps of margin: reconstructing k from a covector built at
    # the critical modulus may round it back up across the crossing
    for _ in range(4):
        k1 = float(np.nextafter(k1, 0.0))
        k0 = float(np.nextafter(k0, 0.0))
    return k1, k0


def _polished_shared_sign(k):
    """fv at the first fz root, evaluated fully under mpmath."""
    with mpmath.workdps(POLISH_DPS):
        pz = _p1_z_cached(k).root
        pz = brent_root(_branch_fn(fz_c1_kernel, C1_FORMS, k, mp=True),
                        pz - POLISH_DX, pz + POLISH_DX, xtol=1e-14).root
        return _branch_fn(fv_c1_kernel, C1_FORMS, k, mp=True)(pz)


# ---------------------------------------------------------------------------
# the stratum record: everything that differs between C1 and C2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumForms:
    """What differs between C1 and C2, the two strata that carry J1.

    Along an extremal (phi, k, alpha, beta) the half-arc is p = sqrt(alpha)
    t / arc_div(k) and the arc-midpoint phase tau = sqrt(alpha) (phi + t/2) /
    phase_div(k); at xi = sn^2 tau, J1 = a0 w0 - a2 w2 with a0 = fv a01 /
    a0_scale, a2 = fz a21 and (w0, w2) = weights(xi, k^2), each kernel taking
    ``args(p, k)``.  Methods take sqrt(alpha) as ``sa``.
    """

    stratum: Stratum
    fz: Callable
    fv: Callable
    a01: Callable
    a21: Callable
    args: Callable          # (p, k) -> the kernels' arguments at half-arc p
    sn_slot: int            # position of sn(p, k) among them
    a0_scale: float
    weights: Callable
    a1: Callable            # (a0, a2, k^2) -> a1 of J1 = a0 + a1 xi + a2 xi^2
    arc_div: Callable
    phase_div: Callable
    maxwell_root: Callable  # k -> RootInfo of the half-arc p1 of t_max1
    upper: Callable         # (k, sa) -> the upper bound on t_conj1
    upper_range: Callable   # (k, sa) -> (lo, hi) holding upper, with no polish
    scan_p: Callable        # k -> half-arc where the float64 J1 scan starts
    j1_sign: float          # the sign of J1 on (0, t_max1)
    loci: Callable          # k -> phi + t_max1/2 (alpha = 1) where t_conj1 = t_max1
    mp_k: float = 0.0       # below this modulus the J1 scan is screened, then mpmath

    def maxwell_time(self, k, sa=1.0):
        """(t_max1, RootInfo of its half-arc) at modulus k."""
        info = self.maxwell_root(k)
        return self.arc_div(k) / sa * info.root, info

    def period(self, k, alpha=1.0) -> float:
        return EllipticCoord(self.stratum, 0.0, k, alpha, 0.0).period()

    def scan_start(self, k, sa) -> float:
        return self.arc_div(k) * self.scan_p(k) / sa

    def equality_phases(self, k) -> list:
        """The phases phi at alpha = 1 on the equality loci of modulus k."""
        tm = self.maxwell_time(k)[0]
        return [m - tm / 2.0 for m in self.loci(k)]


def _c1_loci(k):
    # cn tau = 0 (tau = K) off (k1, k0) and sn tau = 0 (tau = 2K) inside;
    # at k1 and k0 every phase is an equality case
    k1, k0 = critical_moduli()
    K = complete_K(k)
    return (2.0 * K,) if k1 < k < k0 else (K,)


C1_FORMS = StratumForms(
    Stratum.C1, fz_c1_kernel, fv_c1_kernel, a01_c1_kernel, a21_c1_kernel, c1_kernel_args, 2,
    a0_scale=1.0,
    weights=lambda xi, k2: (1.0 - xi, xi * (1.0 - k2 * xi) / k2),
    a1=lambda a0, a2, k2: -a0 - a2 / k2,
    arc_div=lambda k: 2.0, phase_div=lambda k: 1.0,
    maxwell_root=_c1_maxwell_root,
    upper=lambda k, sa: 2.0 / sa * max(p1_z(k), p1_V(k, Stratum.C1)),
    upper_range=_c1_upper_range,
    scan_p=lambda k: max(5e-3, (1e-8 / (k * k * (1.0 - k * k))) ** 0.125),
    j1_sign=-1.0, loci=_c1_loci)


def _c2_upper(k, sa):
    return 4.0 * k * complete_K(k) / sa


C2_FORMS = StratumForms(
    Stratum.C2, fz_c2_kernel, fv_c2_kernel, a01_c2_kernel, a21_c2_kernel, c2_kernel_args, 4,
    a0_scale=16.0,
    weights=lambda xi, k2: (1.0 - k2 * xi, xi * (1.0 - xi)),
    a1=lambda a0, a2, k2: -k2 * a0 - a2,
    arc_div=lambda k: 2.0 * k, phase_div=lambda k: k,
    maxwell_root=lambda k: _p1_v_c2_cached(k),      # by name: perfbench rebinds it
    upper=_c2_upper,
    upper_range=lambda k, sa: (_c2_upper(k, sa),) * 2,
    scan_p=lambda k: max(0.15, 0.14 / k),
    j1_sign=1.0, loci=lambda k: (2.0 * k * complete_K(k), k * complete_K(k)),   # sn^2 tau = 0, 1
    mp_k=C2_MP_K)

FORMS = {Stratum.C1: C1_FORMS, Stratum.C2: C2_FORMS}


def stratum_forms(stratum: Stratum) -> StratumForms:
    """The record of C1 or C2; StratumError on any other stratum."""
    try:
        return FORMS[stratum]
    except KeyError:
        raise StratumError(f"J1 and its bounds are defined on C1 and C2, not {stratum}") from None


# ---------------------------------------------------------------------------
# the first Maxwell time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxwellResult:
    t_max: float                # may be +inf
    root_p: float | None
    bracket: tuple | None
    residual: float
    stratum: Stratum
    ec: EllipticCoord | None = field(default=None, compare=False, repr=False)


def t_max1(lam: Covector) -> MaxwellResult:
    """The first Maxwell time: the one stratum dispatch, which
    ``conjugate.first_conjugate_time`` reads.  The elliptic coordinate ``ec``
    is None off C1/C2, the root None where t_max1 is +inf (C3, C4, C5, C7
    and C1/C2 past K_ONE_CUTOFF)."""
    st = classify(lam)
    ec = _to_elliptic(lam, st) if st in FORMS else None
    if st is Stratum.C6:
        info = _p1_v0_cached()
        t = 4.0 / abs(lam.c) * info.root
    elif ec is None or ec.k > K_ONE_CUTOFF:
        return MaxwellResult(math.inf, None, None, 0.0, st, ec)
    else:
        t, info = FORMS[st].maxwell_time(ec.k, math.sqrt(ec.alpha))
    return MaxwellResult(t, info.root, info.bracket, info.residual, st, ec)
