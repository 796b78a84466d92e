import math
import platform
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cartanconj import maxwell
from cartanconj.elliptic import complete_E, complete_K, jacobi_arrays
from cartanconj.errors import NumericalError, StratumError
from cartanconj.flow import (Covector, EllipticCoord, Stratum, dilate_covector, from_elliptic,
                             to_elliptic)
from cartanconj.conjugate import a01_C2, a21_C2
from cartanconj.maxwell import (C1_FORMS, C2_FORMS, C2_MP_K, a01_c2_kernel, a21_c2_kernel, brent_root,
                                c2_kernel_args, critical_moduli, f_V0, f_V_C1, f_V_C2,
                                f_z_C1, f_z_C2, fv_c2_kernel, fz_c2_kernel, p1_V, p1_V0,
                                p1_z, t_max1, u_v1)
from cartanconj.verify import random_c1, random_c2


# ---------------------------------------------------------------------------
# the condition functions
# ---------------------------------------------------------------------------

def test_fz_small_modulus_limit():
    # k -> 0: fz -> sin p - p cos p
    for p in (0.7, 2.1, 4.0):
        assert float(f_z_C1(p, 1e-6)) == pytest.approx(
            math.sin(p) - p * math.cos(p), abs=1e-5)


def test_fz_small_p_cubic():
    for k in (0.3, 0.6, 0.9):
        p = 1e-2
        assert float(f_z_C1(p, k)) / (p ** 3 / 3.0) == pytest.approx(1.0, rel=2e-2)
    assert float(f_z_C1(0.0, 0.5)) == 0.0


def test_fv_small_p_sextic():
    for k in (0.3, 0.6, 0.9):
        p = 1e-2
        assert float(f_V_C1(p, k)) / (-4.0 * p ** 6 / 45.0) == pytest.approx(1.0, rel=2e-2)
    assert float(f_V_C1(0.0, 0.5)) == 0.0


def test_fv_negative_on_first_interval():
    k = 0.5
    pv = p1_V(k, Stratum.C1)
    for p in np.linspace(0.05, pv - 1e-6, 20):
        assert float(f_V_C1(float(p), k)) < 0.0


def test_fv0_special_values():
    assert float(f_V0(math.pi / 2.0)) == pytest.approx(-8.0 * math.pi ** 2, rel=1e-10)
    assert float(f_V0(3.0 * math.pi / 4.0)) == pytest.approx(6.0 * math.pi, rel=1e-10)
    assert float(f_V0(5.0 * math.pi / 8.0)) == pytest.approx(
        (4.0 + 10.0 * math.pi - 25.0 * math.pi ** 2) / (2.0 * math.sqrt(2.0)), rel=1e-10)


def test_fv_c2_u1_zero():
    assert float(f_V_C2(0.0, 0.5)) == 0.0


@pytest.mark.parametrize("u1_form,kernel", [
    (f_V_C2, fv_c2_kernel), (f_z_C2, fz_c2_kernel),
    (a01_C2, a01_c2_kernel), (a21_C2, a21_c2_kernel),
], ids=["f_V_C2", "f_z_C2", "a01_C2", "a21_C2"])
def test_fv_c2_matches_p_form(rng, u1_form, kernel):
    # the u1-form, which evaluates the kernel at p = F(u1, k), inverts u1 = am(p, k)
    from cartanconj.elliptic import jacobi_arrays
    for _ in range(20):
        k = rng.uniform(0.2, 0.9)
        p = rng.uniform(0.2, 2.0 * complete_K(k) - 0.1)
        u1 = float(jacobi_arrays(p, k)[3])
        direct = float(u1_form(u1, k))
        args = c2_kernel_args(p, k)
        via_p = float(kernel(*args)[0])
        assert direct == pytest.approx(via_p, rel=1e-9, abs=1e-12)


def test_c2_smallk_asymptotics_mp():
    """fz ~ k^3 fz0(p) and fv ~ (k^8/512) fv0(u1) at k = 1e-2 (needs mp)."""
    from cartanconj.conjugate import fz0
    from cartanconj.elliptic import jacobi_mp
    with mpmath.workdps(60):
        k = mpmath.mpf("0.01")
        for p in (mpmath.mpf("0.8"), mpmath.mpf("1.9")):
            args = c2_kernel_args(p, k)
            u1 = jacobi_mp(p, k)[3]
            fz = fz_c2_kernel(*args)[0]
            fv = fv_c2_kernel(*args)[0]
            assert float(fz / (k ** 3 * mpmath.mpf(float(fz0(float(p)))))) == pytest.approx(1.0, rel=5e-2)
            fv0 = (32 * u1 ** 2 - 1) * mpmath.cos(2 * u1) - 8 * u1 * mpmath.sin(2 * u1) + mpmath.cos(6 * u1)
            assert float(fv / (k ** 8 / 512 * fv0)) == pytest.approx(1.0, rel=5e-2)


# ---------------------------------------------------------------------------
# Brent's root finder (scipy.optimize.brentq is the oracle)
# ---------------------------------------------------------------------------

BRENT_FAMILIES = {
    "sin": lambda s: lambda x: math.sin(3.0 * s[0] * x + s[1]),
    "cubic": lambda s: lambda x: (x - s[0]) * (x - s[1]) * (x + s[2]),
    "exp": lambda s: lambda x: math.exp(s[0] * x) - 1.5 - s[1],
    "tanh": lambda s: lambda x: math.tanh(4.0 * s[0] * (x - s[1])) + 0.1 * s[2],
}


@pytest.mark.parametrize("family", sorted(BRENT_FAMILIES))
def test_brent_root_matches_scipy_brentq(family):
    # bit identity was checked on x86-64; where the C compiler fuses
    # multiply-adds (aarch64 by default) the last bit may differ
    from scipy.optimize import brentq
    rtol = 4 * np.finfo(float).eps
    exact = platform.machine().lower() in ("x86_64", "amd64")
    rng = np.random.default_rng(sorted(BRENT_FAMILIES).index(family))
    compared = 0
    for _ in range(1000):
        f = BRENT_FAMILIES[family](rng.uniform(-2.0, 2.0, 3))
        a, b = sorted(rng.uniform(-5.0, 5.0, 2))
        if not f(a) * f(b) < 0.0:
            continue
        xtol = 10.0 ** rng.uniform(-14.0, -6.0)
        expected = brentq(f, a, b, xtol=xtol, rtol=rtol)
        root = brent_root(f, a, b, xtol=xtol)
        # started from held end values, Brent runs the same iteration and
        # returns f at the root it found
        seeded, f_seeded = maxwell._brent(f, a, b, xtol, fa=f(a), fb=f(b))
        assert (seeded.hex(), f_seeded) == (root.hex(), maxwell._brent(f, a, b, xtol)[1])
        assert f_seeded == f(root)
        if exact:
            assert root.hex() == expected.hex()
        else:
            # each root lies within xtol + rtol |x| of the true one
            assert root == pytest.approx(expected, rel=0, abs=2 * (xtol + rtol * abs(expected)))
        compared += 1
    assert compared >= 300


def test_brent_root_exact_zero_at_an_end():
    f = lambda x: x - 1.0
    assert brent_root(f, 1.0, 2.0) == 1.0
    assert brent_root(f, 0.0, 1.0) == 1.0


def test_brent_root_needs_a_sign_change():
    with pytest.raises(ValueError, match="same sign"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0)


def test_brent_root_nonconvergence_is_numerical_error(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(maxwell, "BRENT_MAXITER", 2)
        with pytest.raises(NumericalError, match=r"sin over \[3.0, 3.3\] did not converge in 2"):
            brent_root(math.sin, 3.0, 3.3, xtol=1e-14)
    assert brent_root(math.sin, 3.0, 3.3, xtol=1e-14) == pytest.approx(math.pi, abs=1e-14)


# ---------------------------------------------------------------------------
# first-sign-change scans
# ---------------------------------------------------------------------------

def _counting(f):
    """f, recording every argument it is called at in ``calls``."""
    def g(x):
        g.calls.append(float(x))
        return f(x)
    g.calls = []
    return g


def _each_once(calls):
    return len(set(calls)) == len(calls)


def _piecewise(ys):
    """Linear interpolation through (i, ys[i]): f on the grid 0, 1, ... is ys."""
    xs = np.arange(len(ys), dtype=float)
    return xs, lambda x: float(np.interp(x, xs, ys))


def _point_scan(f, xs):
    """The point-by-point scan of f along xs: the screened scan, nothing sure."""
    return maxwell._screen_to_first_flip(f, xs, np.empty(len(xs)), np.zeros(len(xs), dtype=bool))


def _with_array_form(f):
    """f, with the array form that calls f at each point in turn."""
    f.on_array = lambda ps: np.array([f(p) for p in ps])
    return f


def test_unscreened_scan_stops_at_first_flip():
    xs = np.linspace(0.0, 3.0, 61)
    f = _counting(lambda x: math.cos(7.0 * x))
    vals, i = _point_scan(f, xs)
    first = int(np.searchsorted(xs, math.pi / 14.0)) - 1     # the panel of the first zero
    assert i == first
    # the scan reads xs[:first + 2] in order, each once
    assert f.calls == list(xs[:first + 2])
    assert vals.tolist() == [math.cos(7.0 * x) for x in xs[:first + 2]]
    # Brent from the scan's values works inside that panel only
    root = maxwell._brent(f, xs[i], xs[i + 1], fa=vals[i], fb=vals[i + 1])[0]
    assert set(f.calls) & set(xs) == set(xs[:first + 2])
    assert len(f.calls) - (first + 2) < 20
    assert _each_once(f.calls)
    f.calls = []
    grid_vals = np.array([math.cos(7.0 * x) for x in xs])
    assert (root, (xs[i], xs[i + 1])) == maxwell.grid_roots(f, xs, grid_vals, count=None)[0]
    assert _each_once(f.calls) and not set(f.calls) & set(xs)
    assert root == pytest.approx(math.pi / 14.0, abs=1e-12)


@pytest.mark.parametrize("ys,first", [
    ([1.0, 0.0, -1.0, -2.0, 3.0], 3),            # +, 0, - is no sign change
    ([1.0, math.nan, -1.0, 2.0, 4.0], 2),        # neither is a NaN between
    ([2.0, 1.0, 0.0, 0.0, 1.0, 3.0], None),      # touching zero, no flip
    ([1.0, 2.0, 0.5, 4.0], None),
])
def test_grid_roots_sign_test_matches_sign_changes(ys, first):
    # the point-by-point scan, its screened form and grid_roots take the
    # sign test of sign_changes
    xs, g = _piecewise(ys)
    f = _counting(g)
    vals, i = _point_scan(f, xs)
    scan_calls, f.calls = f.calls, []
    full = maxwell.grid_roots(f, xs, np.array(ys), count=None)
    assert _each_once(scan_calls) and _each_once(f.calls)
    hits = maxwell.sign_changes(np.array(ys))
    # a screen sure of the sign of every nonzero value, as |v| > margin * bound
    # is (not of a zero or a NaN, which it asks f for)
    screened = _counting(g)
    svals, si = maxwell._screen_to_first_flip(screened, xs, np.sign(ys), np.abs(ys) > 0.0)
    assert si == i
    assert screened.calls == [x for x, y in zip(xs[:len(svals)], ys) if not y or math.isnan(y)]
    if first is None:
        assert i is None and full == [] and len(hits) == 0
        # no flip: every grid point was evaluated once, and no Brent ran
        assert scan_calls == list(xs) and f.calls == []
    else:
        assert hits[0] == first == i
        assert full[0][1] == (xs[first], xs[first + 1])
        assert scan_calls == list(xs[:first + 2])


def test_first_root_rescans_dip_before_first_flip():
    # a root pair 2e-3 apart near p = 3 inside one panel of the 64-panel grid
    # on (0, 10), then a simple root at 6.3: the dip must give the pair's root
    ps = np.linspace(0.0, 10.0, maxwell.SCAN_PANELS + 1)
    f = _with_array_form(_counting(lambda p: ((p - 3.0) ** 2 - 1e-6) * (6.3 - p)))
    info = maxwell._first_root(f, 0.0, 10.0)
    assert info.root == pytest.approx(2.999, abs=1e-10)
    # one array call on the grid, one on 257 points across the two panels
    # around the grid point below the pair, then Brent inside its fine panel
    j = int(np.searchsorted(ps, 3.0)) - 2
    fine = np.linspace(ps[j], ps[j + 2], 257)
    assert f.calls[:len(ps) + len(fine)] == list(ps) + list(fine)
    brent = f.calls[len(ps) + len(fine):]
    assert len(brent) < 40
    assert all(info.bracket[0] <= x <= info.bracket[1] for x in brent)


def test_first_root_ignores_dip_after_first_flip():
    # a simple root at 2.11, then a root pair near p = 6: the scan stops at
    # the first flip and refines its panel, never reading the pair
    ps = np.linspace(0.0, 10.0, maxwell.SCAN_PANELS + 1)
    f = _with_array_form(_counting(lambda p: (2.11 - p) * ((p - 6.0) ** 2 - 1e-6)))
    info = maxwell._first_root(f, 0.0, 10.0)
    assert info.root == pytest.approx(2.11, abs=1e-12)
    flip = int(np.searchsorted(ps, 2.11)) - 1
    assert info.bracket == (ps[flip], ps[flip + 1])
    # one array call on the grid, then Brent inside the first flip's panel:
    # the pair past it was never rescanned
    assert f.calls[:len(ps)] == list(ps)
    brent = f.calls[len(ps):]
    assert len(brent) < 40
    assert all(ps[flip] <= x <= ps[flip + 1] for x in brent)
    assert info.residual == abs(f(info.root))


def test_polish_evaluates_each_point_once():
    k = 0.5
    info = maxwell._first_root(maxwell._branch_fn(maxwell.fz_c1_kernel, C1_FORMS, k),
                               0.02, 3.0 * complete_K(k) - 1e-9)
    fmp = _counting(maxwell._branch_fn(maxwell.fz_c1_kernel, C1_FORMS, k, mp=True))
    polished = maxwell._polish_root_mp(fmp, info)
    assert _each_once(fmp.calls) and len(fmp.calls) < 20
    assert polished == maxwell._p1_z_cached(k)
    with mpmath.workdps(maxwell.POLISH_DPS):
        assert polished.residual == abs(fmp(polished.root))


# the branches a Maxwell root scan runs in float64, each with its scan interval
F64_BRANCHES = {
    "fz_c1": (maxwell.fz_c1_kernel, C1_FORMS, 3.0),
    "fv_c1": (maxwell.fv_c1_kernel, C1_FORMS, 4.0),
    "fv_c2": (fv_c2_kernel, C2_FORMS, 2.0),
}


@pytest.mark.parametrize("branch", sorted(F64_BRANCHES))
def test_array_scan_matches_point_scan(branch):
    # precondition of the array scan: on an array the kernel gives the bits
    # of its 1-element calls, and the first root found from the array values
    # is the root found from its scalar calls, bracket and residual included.
    # (A scalar call computes in numpy scalars, whose x ** n can round
    # differently, so scalar and array values are not compared bit for bit.)
    kernel, forms, n_k = F64_BRANCHES[branch]
    rng = np.random.default_rng(sorted(F64_BRANCHES).index(branch))
    ks = list(rng.uniform(C2_MP_K if forms is C2_FORMS else 0.02, 0.98, 12))
    if forms is C1_FORMS:
        ks += [0.8022, 0.80223, 0.8023]       # around k1: fv's near-tangential pair
    for k in map(float, ks):
        f = maxwell._branch_fn(kernel, forms, k)
        hi = n_k * complete_K(k) - 1e-9
        ps = np.linspace(0.02, hi, 97)
        arr = f.on_array(ps)
        assert arr.tobytes() == np.concatenate([f.on_array(ps[i:i + 1]) for i in range(97)]).tobytes()
        assert arr[5:60].tobytes() == f.on_array(ps[5:60]).tobytes()

        def point(p):
            return f(p)
        point.on_array = lambda ps: np.array([f(p) for p in ps])
        assert maxwell._first_root(f, 0.02, hi) == maxwell._first_root(point, 0.02, hi)


# (k, float64 first root, its residual, polished root) as float.hex() for
# each float64 branch: frozen from the scalar numpy route that located every
# Maxwell root so far.  Brent's calls of a branch compute in numpy scalars,
# whose x ** n is libm's pow; on the Python-float route of J1 some of these
# roots would move in their last bits.
MAXWELL_BITS = {
    "fz_c1": [
        (0.0472, "0x1.1fb931c7787adp+2", "0x1.2000000000000p-48", "0x1.1fb931c7787ebp+2"),
        (0.0721, "0x1.1feae34193ad7p+2", "0x1.7240000000000p-43", "0x1.1feae34193aeap+2"),
        (0.1675, "0x1.216e2a1da2192p+2", "0x1.1000000000000p-48", "0x1.216e2a1da21cbp+2"),
        (0.3537, "0x1.2842051076263p+2", "0x1.eff0000000000p-41", "0x1.2842051076182p+2"),
        (0.3546, "0x1.284e1832a4d92p+2", "0x1.f7d0000000000p-41", "0x1.284e1832a4cacp+2"),
        (0.3964, "0x1.2aab063b3a2f6p+2", "0x1.a000000000000p-49", "0x1.2aab063b3a31ap+2"),
        (0.4596, "0x1.2eef6a94ee76ep+2", "0x1.c000000000000p-51", "0x1.2eef6a94ee78ap+2"),
        (0.5518, "0x1.36ee663550e07p+2", "0x1.c000000000000p-51", "0x1.36ee663550e18p+2"),
        (0.5673, "0x1.388429849481bp+2", "0x1.0600000000000p-44", "0x1.3884298494813p+2"),
        (0.6812, "0x1.46c9932f8cd4ap+2", "0x1.5400000000000p-45", "0x1.46c9932f8cd37p+2"),
        (0.7056, "0x1.4a85b7b6df42bp+2", "0x1.be00000000000p-46", "0x1.4a85b7b6df43ep+2"),
        (0.7646, "0x1.5487c813a3c3fp+2", "0x1.2800000000000p-47", "0x1.5487c813a3c38p+2"),
        (0.7969, "0x1.5a53bec527676p+2", "0x1.0480000000000p-43", "0x1.5a53bec5275fdp+2"),
        (0.8232, "0x1.5eb9a68837652p+2", "0x1.5300000000000p-44", "0x1.5eb9a6883769ep+2"),
        (0.8658, "0x1.621f6719e6744p+2", "0x1.8000000000000p-50", "0x1.621f6719e6728p+2"),
        (0.9151, "0x1.019558e959d50p+2", "0x1.5280000000000p-44", "0x1.019558e959e5fp+2"),
        (0.9474, "0x1.d510131a66dc3p+1", "0x1.0000000000000p-52", "0x1.d510131a66f7dp+1"),
        (0.8022, "0x1.5b42377260716p+2", "0x1.4b00000000000p-45", "0x1.5b423772606e8p+2"),
        (0.80223, "0x1.5b438e47ad03dp+2", "0x1.4f00000000000p-45", "0x1.5b438e47ad010p+2"),
        (0.8023, "0x1.5b46ae172dd98p+2", "0x1.5c00000000000p-45", "0x1.5b46ae172dd6bp+2"),
    ],
    "fv_c1": [
        (0.1008, "0x1.719e840fefffep+2", "0x1.4400000000000p-40", "0x1.719e840feff2fp+2"),
        (0.2478, "0x1.758664228637fp+2", "0x1.7000000000000p-42", "0x1.75866422862d6p+2"),
        (0.2621, "0x1.76179035498d3p+2", "0x1.0000000000000p-42", "0x1.7617903549830p+2"),
        (0.2636, "0x1.76274e53c04afp+2", "0x1.6800000000000p-41", "0x1.76274e53c040fp+2"),
        (0.273, "0x1.768c34034369fp+2", "0x1.9800000000000p-41", "0x1.768c340343604p+2"),
        (0.3411, "0x1.79ddb9a76bd39p+2", "0x1.1800000000000p-41", "0x1.79ddb9a76bcc5p+2"),
        (0.3698, "0x1.7b8457778a9b9p+2", "0x1.2000000000000p-43", "0x1.7b8457778a956p+2"),
        (0.4693, "0x1.82765ed8e3f2ap+2", "0x1.a000000000000p-44", "0x1.82765ed8e3f27p+2"),
        (0.5323, "0x1.87d7e70ed3914p+2", "0x1.8c00000000000p-40", "0x1.87d7e70ed3925p+2"),
        (0.5825, "0x1.8c95daf02891ap+2", "0x1.3000000000000p-44", "0x1.8c95daf02891ap+2"),
        (0.6623, "0x1.9421d6a594e00p+2", "0x1.2000000000000p-46", "0x1.9421d6a594e00p+2"),
        (0.7484, "0x1.95bb7e20a20f9p+2", "0x1.1300000000000p-43", "0x1.95bb7e20a2103p+2"),
        (0.7664, "0x1.9235bf9f181c4p+2", "0x1.5480000000000p-44", "0x1.9235bf9f181cdp+2"),
        (0.7821, "0x1.8b93e1fa8a376p+2", "0x1.2900000000000p-46", "0x1.8b93e1fa8a373p+2"),
        (0.8841, "0x1.1fd7961c588aap+2", "0x1.4000000000000p-49", "0x1.1fd7961c5886bp+2"),
        (0.918, "0x1.2fdb4efa51873p+2", "0x1.3d00000000000p-48", "0x1.2fdb4efa51869p+2"),
        (0.9393, "0x1.4ecaddbc09cc2p+2", "0x1.a800000000000p-48", "0x1.4ecaddbc09c67p+2"),
        (0.8022, "0x1.614e5abc2027ap+2", "0x1.1000000000000p-47", "0x1.614e5abc200ddp+2"),
        (0.80223, "0x1.59e0ce9d8adc3p+2", "0x1.c000000000000p-50", "0x1.59e0ce9d8a757p+2"),
        (0.8023, "0x1.5335988f99a50p+2", "0x1.5100000000000p-46", "0x1.5335988f99b66p+2"),
    ],
    "fv_c2": [
        (0.22, "0x1.2a2878f7668d8p+1", "0x1.acaaaaaaaaaabp-47", "0x1.2a2878edd543ep+1"),
        (0.2306, "0x1.2a878242cf00cp+1", "0x1.9d55555555555p-48", "0x1.2a87823c8ce91p+1"),
        (0.2684, "0x1.2c03bb01edc39p+1", "0x1.4aaaaaaaaaaabp-50", "0x1.2c03bb02d51ccp+1"),
        (0.3325, "0x1.2f259ea344f0fp+1", "0x1.d555555555555p-50", "0x1.2f259ea3897d5p+1"),
        (0.3554, "0x1.3077f274a75f5p+1", "0x1.12aaaaaaaaaabp-47", "0x1.3077f27497ec5p+1"),
        (0.4004, "0x1.33684f454042ap+1", "0x1.4aaaaaaaaaaabp-49", "0x1.33684f4554ad4p+1"),
        (0.464, "0x1.386d0cd12eb7bp+1", "0x1.d555555555555p-48", "0x1.386d0cd12e341p+1"),
        (0.4685, "0x1.38d2dbbd11bd6p+1", "0x1.0000000000000p-47", "0x1.38d2dbbd130bdp+1"),
        (0.4758, "0x1.397b51d7dbeb2p+1", "0x1.a000000000000p-47", "0x1.397b51d7d73d0p+1"),
        (0.5214, "0x1.3dfa4c8bc89bcp+1", "0x1.0000000000000p-46", "0x1.3dfa4c8bc9883p+1"),
        (0.525, "0x1.3e5ce515c3351p+1", "0x1.dd55555555555p-46", "0x1.3e5ce515c1ce5p+1"),
        (0.5606, "0x1.426f691c1c726p+1", "0x1.eaaaaaaaaaaabp-49", "0x1.426f691c1b611p+1"),
        (0.6805, "0x1.549b139671a12p+1", "0x1.6aaaaaaaaaaabp-47", "0x1.549b139671a42p+1"),
        (0.7952, "0x1.708f8877c4de8p+1", "0x1.3555555555555p-47", "0x1.708f8877c4e33p+1"),
        (0.7964, "0x1.70f13e6d01608p+1", "0x1.2aaaaaaaaaaabp-49", "0x1.70f13e6d01591p+1"),
        (0.8926, "0x1.9b329e5197e07p+1", "0x1.1eaaaaaaaaaabp-43", "0x1.9b329e5197f3cp+1"),
        (0.9517, "0x1.cf3b3e9ab2e89p+1", "0x1.3aaaaaaaaaaabp-43", "0x1.cf3b3e9ab2f39p+1"),
        (0.2001, "0x1.298350ea55c44p+1", "0x1.bd55555555555p-49", "0x1.298350f6351edp+1"),
        (0.95, "0x1.cd0948009db52p+1", "0x1.6d55555555555p-43", "0x1.cd0948009dc2dp+1"),
        (0.99, "0x1.1656de7f954fep+2", "0x1.1800000000000p-43", "0x1.1656de7f954c9p+2"),
    ],
}


# p1v0's RootInfo (root, bracket ends, residual) as float.hex(), frozen from
# the point-by-point scan that located it before fv0 had an array form
P1V0_BITS = ("0x1.26807a30324d2p+1", ("0x1.25eb09b39825fp+1", "0x1.2776c3027601dp+1"),
             "0x1.3c40000000000p-44")


def test_p1v0_keeps_its_bits():
    # precondition of its array scan: on its 257-point grid, fv0's array
    # values are its scalar calls, bit for bit
    ps = np.linspace(0.05, math.pi - 1e-12, 257)
    assert maxwell.fv0_kernel(ps).tobytes() == \
        np.array([float(maxwell.fv0_kernel(p)) for p in ps]).tobytes()
    info = maxwell._p1_v0_cached.__wrapped__()
    assert (info.root.hex(), tuple(x.hex() for x in info.bracket),
            info.residual.hex()) == P1V0_BITS


@pytest.mark.parametrize("branch", sorted(F64_BRANCHES))
def test_maxwell_roots_keep_their_bits(branch):
    kernel, forms, n_k = F64_BRANCHES[branch]
    cached = {"fz_c1": maxwell._p1_z_cached, "fv_c1": maxwell._p1_v_c1_cached,
              "fv_c2": maxwell._p1_v_c2_cached}[branch]
    for k, root, residual, polished in MAXWELL_BITS[branch]:
        info = maxwell._first_root(maxwell._branch_fn(kernel, forms, k),
                                   0.02, n_k * complete_K(k) - 1e-9)
        assert (info.root.hex(), info.residual.hex()) == (root, residual), k
        assert cached(k).root.hex() == polished, k


# the critical moduli (k1, k0): there p1z = p1v, and within a few 1e-10 of
# them the two float64 roots lie within 2 POLISH_DX of each other.  Just
# above k0 the larger root, p1v, rises from its range's edge 2K (by 5e-6 at
# k = 0.9091), so both roots are polished there too.
K1, K0 = 0.8022296433814966, 0.9089085575485409
C1_POLISHES = [(0.05, 1), (0.3, 1), (0.6, 1), (0.85, 1), (0.92, 1), (0.95, 1),
               (K1 - 1e-9, 1), (K1 + 1e-9, 1), (K0 - 1e-9, 1),
               (K1, 2), (K1 - 1e-10, 2), (K1 + 1e-10, 2),
               (K0, 2), (K0 - 1e-10, 2), (K0 + 1e-10, 2), (K0 + 1e-9, 2), (0.9091, 2)]


def _clear_c1_roots():
    for cache in (maxwell._p1_z_f64, maxwell._p1_v_c1_f64,
                  maxwell._p1_z_cached, maxwell._p1_v_c1_cached):
        cache.cache_clear()


def _counted_polish(monkeypatch, moved=None):
    """Patch the polish to record the float64 roots it gets; ``moved`` maps
    a RootInfo to the polished RootInfo to return instead of polishing it."""
    calls = []
    real = maxwell._polish_root_mp

    def polish(fmp, info):
        calls.append(info)
        return moved[info] if moved and info in moved else real(fmp, info)
    monkeypatch.setattr(maxwell, "_polish_root_mp", polish)
    return calls


def test_critical_moduli_of_the_polish_tests():
    assert critical_moduli() == (K1, K0)


@pytest.mark.parametrize("k, polishes", C1_POLISHES)
def test_c1_polishes_only_the_root_that_reaches_t_max1(monkeypatch, k, polishes):
    # away from k1 and k0 only the smaller float64 root is polished; near
    # them both are, as every root was before
    _clear_c1_roots()
    calls = _counted_polish(monkeypatch)
    C1_FORMS.maxwell_root(k)
    assert len(calls) == polishes
    z, v = maxwell._p1_z_f64(k), maxwell._p1_v_c1_f64(k)
    if polishes == 1:
        assert calls == [min(z, v, key=lambda i: i.root)]
        assert abs(z.root - v.root) > 2.0 * maxwell.POLISH_DX


@pytest.mark.parametrize("k", [k for k, _ in C1_POLISHES])
def test_c1_maxwell_root_keeps_its_bits(k):
    # t_max1's root is the smaller of the two polished roots, bracket and
    # residual included, whether one root or both were polished
    _clear_c1_roots()
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.3, k, 1.3, 0.2))
    res = t_max1(lam)
    kk = to_elliptic(lam).k
    want = min(maxwell._p1_z_cached(kk), maxwell._p1_v_c1_cached(kk), key=lambda i: i.root)
    assert ((res.root_p.hex(), tuple(x.hex() for x in res.bracket), res.residual.hex())
            == (want.root.hex(), tuple(x.hex() for x in want.bracket), want.residual.hex()))


def test_larger_root_at_its_range_edge_is_polished_and_checked(monkeypatch):
    # a larger float64 root within POLISH_DX of its range's edge could be
    # polished out of the range, so it is polished and range-checked
    k = 0.5
    K = complete_K(k)
    edge = maxwell.RootInfo(4.0 * K - 0.5 * maxwell.POLISH_DX, (0.0, 0.0), 0.0)
    assert maxwell._p1_z_f64(k).root < edge.root - 2.0 * maxwell.POLISH_DX
    monkeypatch.setattr(maxwell, "_p1_v_c1_f64", lambda k: edge)
    for polished, escapes in ((edge, False), (replace(edge, root=4.0 * K + 1e-4), True)):
        maxwell._p1_z_cached.cache_clear()
        maxwell._p1_v_c1_cached.cache_clear()
        calls = _counted_polish(monkeypatch, {edge: polished})
        if escapes:
            with pytest.raises(NumericalError, match=r"escaped \[2K, 4K\)"):
                C1_FORMS.maxwell_root(k)
        else:
            assert C1_FORMS.maxwell_root(k) == maxwell._p1_z_cached(k)
        assert edge in calls and len(calls) == 2
    maxwell._p1_v_c1_cached.cache_clear()


def test_first_root_error_names_the_kernel_and_modulus():
    f = maxwell._branch_fn(maxwell.fz_c1_kernel, C1_FORMS, 0.5)
    with pytest.raises(NumericalError,
                       match=r"no sign change of fz_c1_kernel at k=0\.5 in \(0\.02, 0\.5\)"):
        maxwell._first_root(f, 0.02, 0.5)
    fmp = maxwell._branch_fn(fv_c2_kernel, C2_FORMS, 0.1, mp=True)
    with pytest.raises(ValueError, match=r"fv_c2_kernel \(mpmath\) at k=0\.1 has the same sign"):
        brent_root(fmp, 0.5, 0.6)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_p1z_limit_tan_equation():
    # k -> 0: root of tan p = p, approximately 4.493409
    from scipy.optimize import brentq
    oracle = brentq(lambda p: math.tan(p) - p, math.pi + 0.2, 1.5 * math.pi - 1e-9,
                    xtol=1e-14)
    assert p1_z(1e-5) == pytest.approx(oracle, abs=1e-3)
    assert math.pi < p1_z(1e-5) < 1.5 * math.pi


def test_p1v0_bracket():
    v = p1_V0()
    assert math.pi / 2.0 < v < math.pi
    assert abs(float(f_V0(v))) < 1e-10


def test_root_residuals():
    for k in (0.3, 0.7):
        assert abs(float(f_z_C1(p1_z(k), k))) < 1e-10
        assert abs(float(f_V_C1(p1_V(k, Stratum.C1), k))) < 1e-10
        u1 = u_v1(k)
        assert abs(float(f_V_C2(u1, k))) < 1e-10


def test_p1v_c2_bracket_below_c2_mp_k():
    # every C2 modulus below c2_mp_k takes the mpmath root; the float64 scan
    # failed at grid points 9 and 23 and at the k below
    grid = np.linspace(0.15, 0.2, 41, endpoint=False)
    for k in [*grid[::8], grid[9], grid[23], 0.1614865489887826]:
        k = float(k)
        K = complete_K(k)
        assert K < p1_V(k, Stratum.C2) < 2.0 * K


# moduli of the small-k identity test: test_p1v_c2_bracket_below_c2_mp_k's,
# the edges of the series range and a spread below
SCREEN_KS = [0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.125,
             *np.linspace(0.15, 0.2, 41, endpoint=False)[[0, 8, 9, 16, 23, 24, 32, 40]],
             0.1614865489887826, 0.1999]


@pytest.mark.parametrize("k", SCREEN_KS)
def test_screened_fv_root_is_the_mpmath_scan_root(k):
    # the series screen changes which points mpmath evaluates, not the root:
    # root, bracket and residual are those of the point-by-point mpmath scan
    k = float(k)
    hi = 2.0 * complete_K(k) - 1e-9
    fmp = maxwell._branch_fn(fv_c2_kernel, C2_FORMS, k, mp=True)
    fmp.on_array = lambda ps: _point_scan(fmp, ps)[0]
    with mpmath.workdps(maxwell.MP_DPS):
        point = maxwell._first_root(fmp, 1e-3, hi)
    assert maxwell._p1_v_c2_cached.__wrapped__(k) == point


def test_screened_fv_root_evaluates_few_points_once(monkeypatch):
    k = 0.1
    branch = maxwell._branch_fn
    calls = []

    def counting_branch(kernel, forms, k, mp=False):
        f = branch(kernel, forms, k, mp)
        if not mp:
            return f
        g = _counting(f)
        g.__name__, g.calls = f.__name__, calls
        return g
    monkeypatch.setattr(maxwell, "_branch_fn", counting_branch)
    info = maxwell._p1_v_c2_cached.__wrapped__(k)
    ps = np.linspace(1e-3, 2.0 * complete_K(k) - 1e-9, maxwell.SCAN_PANELS + 1)
    value, bound = maxwell.c2_series("fv", jacobi_arrays(ps, k)[3], k)
    flagged = set(ps[np.abs(value) <= maxwell.SIGN_MARGIN * bound])
    # at most 12 mpmath values (a scan took 48), each at a point the screen
    # could not decide or in Brent's panel, and none twice
    assert len(calls) <= 12
    assert all(p in flagged or info.bracket[0] <= p <= info.bracket[1] for p in calls)
    assert _each_once(calls)


def test_u_v1_bracket():
    # F(u_v1, k) = p1v in (K, 2K), so u_v1 lies in (pi/2, pi)
    for k in (0.2, 0.5, 0.8):
        u = u_v1(k)
        assert math.pi / 2.0 < u < math.pi


def test_p1v_invalid_stratum():
    with pytest.raises(StratumError):
        p1_V(0.5, Stratum.C6)


# ---------------------------------------------------------------------------
# critical moduli
# ---------------------------------------------------------------------------

def test_critical_moduli_values():
    k1, k0 = critical_moduli()
    assert 0.75 < k1 < 0.85
    assert 0.85 < k0 < 0.95
    assert abs(k1 - 0.8) < 0.05
    assert abs(k0 - 0.9) < 0.05


def test_k0_characterization_2E_equals_K():
    # at the upper critical modulus both roots sit at 2K, where fz(2K) is
    # proportional to 2E(k) - K(k); an independent oracle for k0
    _, k0 = critical_moduli()
    assert abs(2.0 * complete_E(k0) - complete_K(k0)) < 1e-10


def test_gap_sign_flips_across_critical_moduli():
    k1, k0 = critical_moduli()
    def gap(k):
        return p1_z(k) - p1_V(k, Stratum.C1)
    assert gap(k1 - 5e-3) < 0 < gap(k1 + 5e-3)
    assert gap(k0 - 5e-3) > 0 > gap(k0 + 5e-3)


# ---------------------------------------------------------------------------
# the first Maxwell time
# ---------------------------------------------------------------------------

def test_tmax_special_strata():
    assert t_max1(Covector(0.3, 0.0, 1.0, 0.3)).t_max == math.inf        # C4
    assert t_max1(Covector(0.0, 0.0, 0.0, 0.0)).t_max == math.inf        # C7
    assert t_max1(Covector(0.2 + math.pi, 0.0, 1.0, 0.2)).t_max == math.inf  # C5
    c = math.sqrt(2.0 * (1.0 + math.cos(0.7)))
    assert t_max1(Covector(0.7, c, 1.0, 0.0)).t_max == math.inf          # C3


def test_tmax_c6():
    res = t_max1(Covector(0.0, 2.0, 0.0, 0.0))
    assert res.t_max == pytest.approx(2.0 * p1_V0(), rel=1e-12)
    assert res.stratum is Stratum.C6


def test_tmax_c1_dispatch():
    k1, k0 = critical_moduli()
    for k, use_z in ((0.5, True), (0.85, False), (0.95, True)):
        lam = from_elliptic(EllipticCoord(Stratum.C1, 0.3, k, 1.0, 0.0))
        res = t_max1(lam)
        pz, pv = p1_z(k), p1_V(k, Stratum.C1)
        assert res.t_max == pytest.approx(2.0 * min(pz, pv), rel=1e-9)
        assert (min(pz, pv) == pz) == use_z


def test_tmax_c2_formula():
    k = 0.6
    lam = from_elliptic(EllipticCoord(Stratum.C2, 0.2, k, 1.3, 0.1))
    res = t_max1(lam)
    assert res.t_max == pytest.approx(2.0 * k / math.sqrt(1.3) * p1_V(k, Stratum.C2),
                                      rel=1e-10)


def test_tmax_scaling_under_dilation(rng):
    for _ in range(10):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        r = rng.uniform(-0.8, 0.8)
        lam2, scale = dilate_covector(lam, r)
        assert t_max1(lam2).t_max == pytest.approx(scale * t_max1(lam).t_max, rel=1e-9)


def test_tmax_result_invariants(rng):
    for _ in range(10):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        res = t_max1(lam)
        assert math.isfinite(res.t_max)
        lo, hi = res.bracket
        assert lo < res.root_p < hi or res.residual == 0.0
        assert res.residual < 1e-10


def test_tmax_near_degenerate_modulus_is_infinite():
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.1, 1.0 - 1e-10, 1.0, 0.0))
    assert t_max1(lam).t_max == math.inf


def test_c6_limit_of_c2_family():
    from cartanconj.flow import classify
    cbar = 2.0
    t_c6 = t_max1(Covector(0.3, cbar, 0.0, 0.0)).t_max
    lam = Covector(0.3, cbar, 1e-4, math.pi / 2.0)   # h4 = 1e-4, h5 = 0
    assert classify(lam) is Stratum.C2
    t_c2 = t_max1(lam).t_max
    assert abs(t_c2 - t_c6) / t_c6 < 1e-3


def test_p1v_zero_modulus_is_c2_limit_only():
    assert p1_V(0.0, Stratum.C2) == p1_V0()
    with pytest.raises(StratumError):
        p1_V(0.0, Stratum.C1)


# ---------------------------------------------------------------------------
# the stratum record against the paper's formulas, written out here once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0.3, 0.6, 0.85, 0.95])
def test_stratum_record_matches_paper_formulas(k):
    K = complete_K(k)
    pz, pv1, pv2 = p1_z(k), p1_V(k, Stratum.C1), p1_V(k, Stratum.C2)
    for alpha in (1.0, 1.7):
        sa = math.sqrt(alpha)
        # period, t_max1, upper bound and scan start, each times sqrt(alpha)
        for forms, period, t_max, upper, scan in (
                (C1_FORMS, 4 * K, 2 * min(pz, pv1), 2 * max(pz, pv1),
                 2 * max(5e-3, (1e-8 / (k * k * (1 - k * k))) ** 0.125)),
                (C2_FORMS, 2 * k * K, 2 * k * pv2, 4 * k * K, 2 * k * max(0.15, 0.14 / k))):
            assert forms.period(k, alpha) == pytest.approx(period / sa, rel=1e-15)
            assert forms.maxwell_time(k, sa)[0] == pytest.approx(t_max / sa, rel=1e-15)
            assert forms.upper(k, sa) == pytest.approx(upper / sa, rel=1e-15)
            assert forms.scan_start(k, sa) == pytest.approx(scan / sa, rel=1e-15)
    # the equality loci: xi = sn^2 tau at t_max1, tau = phi + t/2 on C1 and
    # (phi + t/2)/k on C2 (alpha = 1); on C1 xi = 1 (cn tau = 0) off (k1, k0)
    # and xi = 0 (sn tau = 0) inside
    k1, k0 = critical_moduli()
    for forms, phase_div, xis in ((C1_FORMS, 1.0, [0.0] if k1 < k < k0 else [1.0]),
                                  (C2_FORMS, k, [0.0, 1.0])):
        tm = forms.maxwell_time(k)[0]
        got = [float(jacobi_arrays((phi + tm / 2) / phase_div, k)[0]) ** 2
               for phi in forms.equality_phases(k)]
        assert got == pytest.approx(xis, abs=1e-12)
    # the sign of J1 before t_max1
    assert (C1_FORMS.j1_sign, C2_FORMS.j1_sign) == (-1.0, 1.0)


# ---------------------------------------------------------------------------
# the value-only route of the kernels
# ---------------------------------------------------------------------------

KERNELS = [(name, getattr(maxwell, f"{name}_{st}_kernel"), forms)
           for st, forms in (("c1", C1_FORMS), ("c2", C2_FORMS))
           for name in ("fz", "fv", "a01", "a21")]


def _bits(x):
    """x's type and bits: the _mpf_ tuple of an mpf, the bytes of anything else."""
    if isinstance(x, mpmath.mpf):
        return type(x), x._mpf_
    return type(x), np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name, kernel, forms", KERNELS, ids=[f"{n}_{f.stratum.value}"
                                                              for n, _, f in KERNELS])
def test_value_only_kernel_has_the_bits_of_the_value(name, kernel, forms):
    # mag=False computes the value only, by the same operations in the same
    # order, in each arithmetic the kernels run in
    rng = np.random.default_rng(len(name) + 10 * (forms is C2_FORMS))
    for k in (0.05, float(rng.uniform(0.2, 0.95)), 0.999999):
        ps = rng.uniform(0.01, 4.0 * complete_K(k), 64)
        inputs = [ps, *ps[:8].tolist(), *map(np.float64, ps[8:16])]
        for p in inputs:
            whole = kernel(*forms.args(p, k))
            value, none = kernel(*forms.args(p, k), mag=False)
            assert none is None and whole[1] is not None
            assert _bits(value) == _bits(whole[0]), (k, p)
        for dps in (40, 50):
            with mpmath.workdps(dps):
                for p in map(mpmath.mpf, ps[16:24]):
                    whole = kernel(*forms.args(p, k))
                    value, none = kernel(*forms.args(p, k), mag=False)
                    assert none is None and _bits(value) == _bits(whole[0]), (k, p, dps)
