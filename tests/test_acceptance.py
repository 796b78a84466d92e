"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run visibly with:  pytest -s tests/test_acceptance.py
Every tolerance is pinned here; time limits are asserted per criterion.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from cartanconj.elliptic import am, complete_K, incomplete_F, jacobi_arrays, jacobi_mp
from cartanconj.flow import (Covector, EllipticCoord, JacobianPath, Stratum,
                             casimir_drift, classify, dilate_covector,
                             exp_jacobian, exp_jacobian_fd, from_elliptic,
                             reflect3, rotate_covector)
from cartanconj import conjugate as cj
from cartanconj import maxwell as mx
from cartanconj.verify import (check_c6_limit, check_coordinate_jacobian, check_root_brackets,
                               random_c1, random_c2)


class Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit = limit_s
        self.t0 = time.perf_counter()

    def done(self, worst=None):
        dt = time.perf_counter() - self.t0
        extra = "" if worst is None else f" worst={worst:.3e}"
        print(f"[PASS] criterion {self.number}: {self.label}{extra} ({dt:.2f}s)",
              flush=True)
        assert dt < self.limit, f"criterion {self.number} exceeded {self.limit}s ({dt:.1f}s)"


def test_criterion_01_elliptic_kernel():
    crit = Criterion(1, "elliptic kernel identities and F(am) round trip", 1.0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        k = rng.uniform(0.0, 1.0)
        u = rng.uniform(-12.0, 12.0)
        sn, cn, dn, _, _ = jacobi_arrays(u, k)
        worst = max(worst, abs(float(sn) ** 2 + float(cn) ** 2 - 1.0),
                    abs(float(dn) ** 2 + (k * float(sn)) ** 2 - 1.0))
    assert worst < 1e-11
    worst_rt = 0.0
    for _ in range(300):
        k = rng.uniform(0.01, 0.99)
        u = rng.uniform(-3.0, 3.0) * complete_K(k)
        worst_rt = max(worst_rt, abs(float(incomplete_F(am(u, k), k)) - u))
    assert worst_rt < 1e-11
    crit.done(max(worst, worst_rt))


def test_criterion_02_series_anchors():
    crit = Criterion(2, "series anchors for fz, fv, a01, a21 (both strata)", 1.0)
    p = 1e-2
    for k in (0.3, 0.6, 0.9):
        assert float(mx.f_z_C1(p, k)) / (p ** 3 / 3.0) == pytest.approx(1.0, rel=2e-2)
        assert float(mx.f_V_C1(p, k)) / (-4.0 * p ** 6 / 45.0) == pytest.approx(1.0, rel=2e-2)
    with mpmath.workdps(60):
        pm = mpmath.mpf("0.01")
        for kk in ("0.3", "0.6", "0.9"):
            k = mpmath.mpf(kk)
            args = mx.c1_kernel_args(pm, k)
            a01 = mx.a01_c1_kernel(*args)[0]
            a21 = mx.a21_c1_kernel(*args)[0]
            assert float(a01 / (mpmath.mpf(4) / 1575 * k * k * (1 - k * k) * pm ** 10)) \
                == pytest.approx(1.0, rel=2e-2)
            assert float(a21 / (mpmath.mpf(16) / 1488375 * k ** 4 * (1 - k * k) * pm ** 15)) \
                == pytest.approx(1.0, rel=2e-2)
        # rotating stratum, small modulus
        k = mpmath.mpf("0.01")
        for pp in ("0.8", "1.7", "2.4"):
            pv = mpmath.mpf(pp)
            args = mx.c2_kernel_args(pv, k)
            u1 = float(jacobi_mp(pv, k)[3])
            fz = mx.fz_c2_kernel(*args)[0]
            fv = mx.fv_c2_kernel(*args)[0]
            a01 = mx.a01_c2_kernel(*args)[0]
            a21 = mx.a21_c2_kernel(*args)[0]
            assert float(fz / (k ** 3 * float(cj.fz0(float(pv))))) == pytest.approx(1.0, rel=5e-2)
            assert float(fv / (k ** 8 / 512 * float(mx.f_V0(u1)))) == pytest.approx(1.0, rel=5e-2)
            assert float(a01 / (mpmath.mpf(3) / 2048 * k ** 8 * float(cj.a010(u1)))) \
                == pytest.approx(1.0, rel=5e-2)
            assert float(a21 / (k ** 17 / 4194304 * float(cj.a210(u1)))) \
                == pytest.approx(1.0, rel=5e-2)
    crit.done()


def test_criterion_03_exact_special_values():
    crit = Criterion(3, "exact special values of fv0 and a010", 1.0)
    checks = [
        (float(mx.f_V0(math.pi / 2.0)), -8.0 * math.pi ** 2),
        (float(mx.f_V0(3.0 * math.pi / 4.0)), 6.0 * math.pi),
        (float(mx.f_V0(5.0 * math.pi / 8.0)),
         (4.0 + 10.0 * math.pi - 25.0 * math.pi ** 2) / (2.0 * math.sqrt(2.0))),
        (float(cj.a010(math.pi)), 48.0 * math.pi ** 2),
    ]
    worst = max(abs(got - want) / abs(want) for got, want in checks)
    assert worst < 1e-10
    crit.done(worst)


def test_criterion_04_root_brackets():
    crit = Criterion(4, "Maxwell root brackets on the k-grid", 5.0)
    assert check_root_brackets().passed     # k = 0.05, 0.10, ..., 0.95 and p1v0
    from scipy.optimize import brentq
    tan_root = brentq(lambda p: math.tan(p) - p, math.pi + 0.2,
                      1.5 * math.pi - 1e-9, xtol=1e-14)
    assert abs(mx.p1_z(1e-6) - tan_root) < 1e-3
    assert abs(tan_root - 4.4934) < 1e-3
    crit.done()


def test_criterion_05_critical_moduli():
    crit = Criterion(5, "critical moduli k1 ~ 0.8, k0 ~ 0.9", 10.0)
    k1, k0 = mx.critical_moduli()
    assert 0.75 < k1 < 0.85
    assert 0.85 < k0 < 0.95
    crit.done()


def _theorem2_grid(forms, k_grid, n_phi, n_t):
    """Sign-constancy of J1 on (0, t_max - 1e-6) with noise-aware handling."""
    ambiguous_rechecked = 0
    for k in k_grid:
        k = float(k)
        tm = forms.maxwell_time(k)[0]
        for phi in np.linspace(0.0, forms.period(k), n_phi, endpoint=False):
            ec = EllipticCoord(forms.stratum, float(phi), k, 1.0, 0.0)
            t_lo = cj.scan_start_time(ec)
            ts = np.linspace(min(t_lo, 0.5 * tm), tm - 1e-6, n_t)
            j1, noise = cj.j1_path(ec, ts)[:2]
            wrong = forms.j1_sign * j1 <= 0.0
            clear_wrong = wrong & (np.abs(j1) > 20.0 * noise)
            assert not np.any(clear_wrong), \
                f"J1 sign violation at k={k}, phi={phi}, t={ts[clear_wrong][:3]}"
            amb = np.nonzero(wrong & ~clear_wrong)[0]
            if len(amb):
                # confirm the worst ambiguous point in high precision
                i = amb[np.argmax(np.abs(j1[amb]))]
                val = cj._j1_scalar_mp(ec, float(ts[i]), 50)
                ambiguous_rechecked += 1
                assert forms.j1_sign * val > 0.0 or abs(val) < 1e-30, \
                    f"mp recheck failed at k={k}, phi={phi}, t={ts[i]}: {val}"
    return ambiguous_rechecked


def _theorem2_smallt_spotchecks(forms, k_grid):
    # below the float64 scan start J1 behaves like a one-signed power; a few
    # high-precision samples confirm the sign there
    for k in k_grid[::8]:
        k = float(k)
        ec = EllipticCoord(forms.stratum, forms.period(k) / 3.0, k, 1.0, 0.0)
        t_lo = cj.scan_start_time(ec)
        for frac in (0.3, 0.7):
            assert forms.j1_sign * cj._j1_scalar_mp(ec, frac * t_lo, 60) > 0.0


def test_criterion_06_theorem2_grid_c1():
    crit = Criterion(6, "J1 < 0 before t_max on a 40x40 C1 grid", 60.0)
    ks = np.linspace(0.03, 0.97, 40)
    _theorem2_grid(mx.C1_FORMS, ks, 40, 400)
    _theorem2_smallt_spotchecks(mx.C1_FORMS, ks)
    crit.done()


def test_criterion_07_theorem2_grid_c2():
    crit = Criterion(7, "J1 > 0 before t_max on a 40x40 C2 grid; J1 = 0 at the"
                        " endpoint with xi in {0, 1}", 60.0)
    c2 = mx.C2_FORMS
    ks = np.linspace(0.2, 0.95, 40)
    _theorem2_grid(c2, ks, 40, 400)
    _theorem2_smallt_spotchecks(c2, ks)
    worst = 0.0
    for k in ks[::4]:
        k = float(k)
        t1 = c2.maxwell_time(k)[0]
        for phi in c2.equality_phases(k):      # sn^2 tau = 0 and 1
            ec = EllipticCoord(c2.stratum, phi, k, 1.0, 0.0)
            worst = max(worst, abs(cj.j1_factors(ec, t1).J1))
    assert worst < 1e-9
    crit.done(worst)


def test_criterion_08_oracle_agreement():
    crit = Criterion(8, "variational J0 vs analytic J1 first zeros;"
                        " finite-difference J0 oracle", 120.0)
    rng = np.random.default_rng(8)
    from scipy.optimize import brentq
    worst = 0.0
    for i in range(100):
        lam = random_c1(rng, k_range=(0.15, 0.9)) if i % 2 == 0 \
            else random_c2(rng, k_range=(0.35, 0.85))
        res = cj.first_conjugate_time(lam)
        assert res.finite
        jp = JacobianPath(lam, 1.04 * res.t_conj)
        ts = np.linspace(0.4 * res.t_conj, 1.04 * res.t_conj, 500)
        vals = jp.values(ts)
        sign = np.sign(vals)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        assert len(flips) > 0, "variational Jacobian found no zero"
        t_var = brentq(jp, float(ts[flips[0]]), float(ts[flips[0] + 1]), xtol=1e-12)
        worst = max(worst, abs(t_var - res.t_conj))
        assert abs(t_var - res.t_conj) < 1e-5
    worst_fd = 0.0
    for i in range(20):
        lam = random_c1(rng, k_range=(0.2, 0.85)) if i % 2 == 0 \
            else random_c2(rng, k_range=(0.4, 0.8))
        t = rng.uniform(0.4, 0.9) * mx.t_max1(lam).t_max
        jv = exp_jacobian(lam, t)
        jf = exp_jacobian_fd(lam, t)
        rel = abs(jf - jv) / max(abs(jv), 1e-300)
        worst_fd = max(worst_fd, rel)
        assert rel < 1e-4
    crit.done(max(worst, worst_fd))


def test_criterion_09_equality_cases():
    crit = Criterion(9, "equality cases give |t_conj - t_max| < 1e-6", 30.0)
    k1, k0 = mx.critical_moduli()
    worst = 0.0
    cases = [EllipticCoord(Stratum.C1, phi, k, 1.0, 0.0)
             for k in (k1, k0) for phi in (0.17, 0.45)]
    # cn tau = 0 at 0.3, 0.6, 0.95 (off (k1, k0)), sn tau = 0 at 0.82, 0.88;
    # C2 with sn^2 tau in {0, 1}
    assert all(k < k1 or k > k0 for k in (0.3, 0.6, 0.95)) and k1 < 0.82 < 0.88 < k0
    for forms, k in [(mx.C1_FORMS, k) for k in (0.3, 0.6, 0.95, 0.82, 0.88)] + \
            [(mx.C2_FORMS, 0.45), (mx.C2_FORMS, 0.7)]:
        cases += [EllipticCoord(forms.stratum, phi, k, 1.0, 0.0) for phi in forms.equality_phases(k)]
    for ec in cases:
        res = cj.first_conjugate_time(from_elliptic(ec))
        worst = max(worst, abs(res.t_conj - res.t_max))
    for c in (0.7, 2.0, -3.1):                 # all of C6
        res = cj.first_conjugate_time(Covector(0.4, c, 0.0, 0.0))
        worst = max(worst, abs(res.t_conj - res.t_max))
    assert worst < 1e-6
    crit.done(worst)


def test_criterion_10_two_sided_bounds():
    crit = Criterion(10, "two-sided bounds on the criterion-6/7 grids;"
                         " phi-periodicity of t_conj", 120.0)
    slack = 1e-6
    for forms, ks in ((mx.C1_FORMS, np.linspace(0.03, 0.97, 40)),
                      (mx.C2_FORMS, np.linspace(0.2, 0.95, 40))):
        for k in ks:
            k = float(k)
            upper = forms.upper(k, 1.0)
            for phi in np.linspace(0.0, forms.period(k), 40, endpoint=False):
                lam = from_elliptic(EllipticCoord(forms.stratum, float(phi), k, 1.0, 0.0))
                res = cj.first_conjugate_time(lam)
                assert res.t_conj >= res.t_max - slack
                assert res.t_conj <= upper + slack
    # periodicity in phi (and nonconstancy), fixed k = 0.5 in C1
    k = 0.5
    period = mx.C1_FORMS.period(k)
    phis = np.linspace(0.0, period, 9, endpoint=False)
    tcs = [cj.first_conjugate_time(
        from_elliptic(EllipticCoord(Stratum.C1, float(p), k, 1.0, 0.0))).t_conj
        for p in phis]
    for p, tc in zip(phis[:4], tcs[:4]):
        shifted = cj.first_conjugate_time(from_elliptic(
            EllipticCoord(Stratum.C1, float(p) + period, k, 1.0, 0.0))).t_conj
        assert abs(shifted - tc) < 1e-6
    assert max(tcs) - min(tcs) > 1e-3
    crit.done()


def test_criterion_11_symmetry_invariance():
    crit = Criterion(11, "t_conj invariant under reflection, rotation,"
                         " dilation-with-rescale", 60.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(20):
        lam = random_c1(rng, k_range=(0.2, 0.9)) if i % 2 == 0 \
            else random_c2(rng, k_range=(0.35, 0.85))
        t0 = cj.first_conjugate_time(lam).t_conj
        t_r = cj.first_conjugate_time(reflect3(lam)).t_conj
        t_s = cj.first_conjugate_time(
            rotate_covector(lam, rng.uniform(0.0, 2 * math.pi))).t_conj
        r = rng.uniform(-0.6, 0.6)
        lam_d, scale = dilate_covector(lam, r)
        t_d = cj.first_conjugate_time(lam_d).t_conj
        worst = max(worst, abs(t_r - t0), abs(t_s - t0), abs(t_d / scale - t0))
        assert abs(t_r - t0) < 1e-6
        assert abs(t_s - t0) < 1e-6
        assert abs(t_d / scale - t0) < 1e-6
    crit.done(worst)


def test_criterion_12_special_strata():
    crit = Criterion(12, "special strata report +inf / C6 value; C2 -> C6 limit", 10.0)
    assert cj.first_conjugate_time(Covector(0.3, 0.0, 1.0, 0.3)).t_conj == math.inf   # C4
    assert cj.first_conjugate_time(Covector(0.2 + math.pi, 0.0, 1.0, 0.2)).t_conj == math.inf  # C5
    assert cj.first_conjugate_time(Covector(0.0, 0.0, 0.0, 0.0)).t_conj == math.inf   # C7
    c3 = Covector(0.7, math.sqrt(2.0 * (1.0 + math.cos(0.7))), 1.0, 0.0)
    assert classify(c3) is Stratum.C3
    assert cj.first_conjugate_time(c3).t_conj == math.inf
    for c in (1.3, -2.0):
        res = cj.first_conjugate_time(Covector(0.1, c, 0.0, 0.0))
        assert res.t_conj == pytest.approx(4.0 / abs(c) * mx.p1_V0(), rel=1e-12)
    c6 = check_c6_limit()                   # h4 = 1e-4 against C6, within 1e-3
    assert c6.passed and c6.tolerance == 1e-3
    crit.done(c6.worst)


def test_criterion_13_casimirs_and_chart_jacobian():
    crit = Criterion(13, "Casimir conservation; chart Jacobian 1/(2 r^9)", 10.0)
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(5):
        lam = random_c1(rng) if i % 2 == 0 else random_c2(rng)
        dE, dh4, dh5 = casimir_drift(lam, 50.0)
        worst = max(worst, dE, dh4, dh5)
        assert max(dE, dh4, dh5) < 1e-9
    jac = check_coordinate_jacobian(rng)      # the chart Jacobian at 20 points
    assert jac.passed and jac.tolerance == 1e-6
    crit.done(max(worst, jac.worst))
