import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cartanconj.elliptic import complete_K, jacobi_arrays
from cartanconj.errors import NumericalError, StratumError
from cartanconj.flow import (Covector, EllipticCoord, JacobianPath, Stratum,
                             dilate_covector, from_elliptic, reflect3,
                             rotate_covector, to_elliptic)
from cartanconj import conjugate as cj
from cartanconj import maxwell as mx
from cartanconj.conjugate import (a01_C1, a21_C1, a010, a210, certificate_x1,
                                  certificate_x2, first_conjugate_time, fz0,
                                  j1_factors, j1_path, scan_start_time,
                                  two_sided_check)
from cartanconj.verify import random_c1, random_c2


# ---------------------------------------------------------------------------
# small-argument anchors (high precision: the targets sit under float64 noise)
# ---------------------------------------------------------------------------

def test_a01_c1_small_p_anchor_mp():
    with mpmath.workdps(60):
        p = mpmath.mpf("0.01")
        for kk in ("0.3", "0.6", "0.9"):
            k = mpmath.mpf(kk)
            args = mx.c1_kernel_args(p, k)
            val = mx.a01_c1_kernel(*args)[0]
            target = mpmath.mpf(4) / 1575 * k * k * (1 - k * k) * p ** 10
            assert float(val / target) == pytest.approx(1.0, rel=2e-2)


def test_a21_c1_small_p_anchor_mp():
    with mpmath.workdps(60):
        p = mpmath.mpf("0.01")
        for kk in ("0.3", "0.6", "0.9"):
            k = mpmath.mpf(kk)
            args = mx.c1_kernel_args(p, k)
            val = mx.a21_c1_kernel(*args)[0]
            target = mpmath.mpf(16) / 1488375 * k ** 4 * (1 - k * k) * p ** 15
            assert float(val / target) == pytest.approx(1.0, rel=2e-2)


def test_c2_table_smallk_anchors_mp():
    """a01 -> (3/2048) k^8 a010(u1) and a21 -> (k^17/4194304) a210(u1)."""
    from cartanconj.elliptic import jacobi_mp
    with mpmath.workdps(60):
        k = mpmath.mpf("0.01")
        for pp in ("0.8", "1.7", "2.4"):
            p = mpmath.mpf(pp)
            args = mx.c2_kernel_args(p, k)
            u1 = float(jacobi_mp(p, k)[3])
            a01 = mx.a01_c2_kernel(*args)[0]
            a21 = mx.a21_c2_kernel(*args)[0]
            t01 = mpmath.mpf(3) / 2048 * k ** 8 * mpmath.mpf(float(a010(u1)))
            t21 = k ** 17 / 4194304 * mpmath.mpf(float(a210(u1)))
            assert float(a01 / t01) == pytest.approx(1.0, rel=5e-2)
            assert float(a21 / t21) == pytest.approx(1.0, rel=5e-2)


def test_j1_c2_joint_origin_anchor_mp():
    """J1 ~ (4/70875) k^16 u1^16 along u1 = k -> 0 (at xi = 0, J1 = a0)."""
    from cartanconj.elliptic import jacobi_mp
    with mpmath.workdps(120):
        for kk in ("0.05", "0.02"):
            k = mpmath.mpf(kk)
            p = k   # u1 = am(p, k) ~ p
            args = mx.c2_kernel_args(p, k)
            u1 = jacobi_mp(p, k)[3]
            a0 = (mx.fv_c2_kernel(*args)[0]
                  * mx.a01_c2_kernel(*args)[0]) / 16
            target = mpmath.mpf(4) / 70875 * k ** 16 * u1 ** 16
            assert float(a0 / target) == pytest.approx(1.0, rel=0.2)


# ---------------------------------------------------------------------------
# asymptotic trigonometric profiles
# ---------------------------------------------------------------------------

def test_a010_special_value():
    assert float(a010(math.pi)) == pytest.approx(48.0 * math.pi ** 2, rel=1e-10)


def test_a010_negative_up_to_three_quarters_pi():
    # below u ~ 0.05 the u^8-small value sits under the roundoff of the
    # O(1) trigonometric terms
    for u in np.linspace(0.05, 0.75 * math.pi, 120):
        assert float(a010(float(u))) < 0.0


def test_a010_first_root_bracket():
    # negative at 3pi/4, positive at pi
    assert float(a010(0.75 * math.pi)) < 0.0 < float(a010(math.pi))


def test_a210_negative():
    for u in np.linspace(0.05, 10.0, 200):
        assert float(a210(float(u))) < 0.0


def test_fz0_positive():
    for p in np.linspace(0.05, 10.0, 50):
        assert float(fz0(float(p))) > 0.0


# ---------------------------------------------------------------------------
# second transcription pass: the C2 tables against the reciprocal-modulus
# transform of the (independently validated) C1 formulas
# ---------------------------------------------------------------------------

def _transform_c1_kernel(kernel, p, k):
    """Evaluate a C1 kernel at modulus 1/k, argument k p, via modulus-k data."""
    sn, cn, dn, _, eps = jacobi_arrays(p, k)
    q = k * p
    sn_t = k * sn
    cn_t = dn
    dn_t = cn
    e2_t = 2.0 * (eps - (1.0 - k * k) * p) / k - q
    return kernel(q, 1.0 / (k * k), sn_t, cn_t, dn_t, e2_t)[0]


@pytest.mark.parametrize("k", [0.35, 0.55, 0.8])
def test_c2_functions_are_transformed_c1(rng, k):
    for _ in range(10):
        p = rng.uniform(0.2, 2.0 * complete_K(k) - 0.2)
        args = mx.c2_kernel_args(p, k)
        fz2 = float(mx.fz_c2_kernel(*args)[0])
        fv2 = float(mx.fv_c2_kernel(*args)[0])
        a012 = float(mx.a01_c2_kernel(*args)[0])
        a212 = float(mx.a21_c2_kernel(*args)[0])
        assert fz2 == pytest.approx(
            2.0 * _transform_c1_kernel(mx.fz_c1_kernel, p, k), rel=1e-9)
        assert fv2 == pytest.approx(
            k * k * _transform_c1_kernel(mx.fv_c1_kernel, p, k), rel=1e-8)
        assert a012 == pytest.approx(
            4.0 * k * k * _transform_c1_kernel(mx.a01_c1_kernel, p, k), rel=1e-7)
        assert a212 == pytest.approx(
            (k ** 8 / 8.0) * _transform_c1_kernel(mx.a21_c1_kernel, p, k), rel=1e-7)


# ---------------------------------------------------------------------------
# J1 structure
# ---------------------------------------------------------------------------

def test_j1_factor_relations(rng):
    for _ in range(20):
        lam = random_c1(rng, k_range=(0.2, 0.9))
        ec = to_elliptic(lam)
        f = j1_factors(ec, rng.uniform(0.5, 4.0))
        k2 = ec.k * ec.k
        scale = max(abs(f.a0), abs(f.a2) / k2, 1e-300)
        assert abs(f.a1 + f.a0 + f.a2 / k2) / scale < 1e-10
        assert abs(f.J1 - (f.a0 + f.a1 * f.xi + f.a2 * f.xi ** 2)) <= \
            1e-10 * max(scale, abs(f.J1)) + 1e2 * f.noise
        assert 0.0 < f.Delta <= 1.0
        assert 0.0 <= f.xi <= 1.0

        lam = random_c2(rng, k_range=(0.35, 0.9))
        ec = to_elliptic(lam)
        f = j1_factors(ec, rng.uniform(0.5, 2.0))
        k2 = ec.k * ec.k
        scale = max(abs(f.a0), abs(f.a2), 1e-300)
        assert abs(f.a1 + k2 * f.a0 + f.a2) / scale < 1e-10
        assert 0.0 < f.Delta <= 1.0


def test_j1_wrong_stratum_rejected():
    # C3 has elliptic coordinates (k = 1) but no J1 and no scan start
    ec = EllipticCoord(Stratum.C3, 0.3, 1.0, 1.0, 0.0)
    for fn in (j1_path, j1_factors, lambda ec, t: scan_start_time(ec)):
        with pytest.raises(StratumError):
            fn(ec, 1.0)


def test_j1_zero_at_uv1_boundary_xi():
    c2 = mx.C2_FORMS
    for k in (0.35, 0.6, 0.85):
        t1 = c2.maxwell_time(k)[0]
        for phi, xi_val in zip(c2.equality_phases(k), (0.0, 1.0)):
            ec = EllipticCoord(c2.stratum, phi, k, 1.0, 0.0)
            f = j1_factors(ec, t1)
            assert abs(f.xi - xi_val) < 1e-12
            assert abs(f.J1) < 1e-9


def test_j1_endpoint_factorization_c2():
    # J1 = -a2 xi (1 - xi) at u1 = u_v1(k); evaluated in high precision
    # since a2 is k**17-suppressed against float64 noise in a0
    from cartanconj.elliptic import jacobi_mp
    for k in (0.4, 0.7):
        t1 = mx.C2_FORMS.maxwell_time(k)[0]
        for phi in (0.15, 0.6):
            ec = EllipticCoord(Stratum.C2, phi, k, 1.0, 0.0)
            f = j1_factors(ec, t1)
            assert f.a2 < 0.0
            with mpmath.workdps(50):
                km = mpmath.mpf(k)
                j1 = cj._j1_scalar_mp(ec, t1, 50)
                p = mpmath.mpf(t1) / (2 * km)
                tau = (mpmath.mpf(phi) + mpmath.mpf(t1) / 2) / km
                args = mx.c2_kernel_args(p, km)
                a2 = float(mx.fz_c2_kernel(*args)[0]
                           * mx.a21_c2_kernel(*args)[0])
                xi = float(jacobi_mp(tau, km)[0]) ** 2
            assert j1 == pytest.approx(-a2 * xi * (1.0 - xi), rel=1e-9)


@pytest.mark.parametrize("stratum", [Stratum.C1, Stratum.C2])
def test_j1_mp_matches_float64_within_noise(stratum):
    # one J1 assembly serves both precisions; the float64 values must sit
    # within the noise margin the scan trusts a sign beyond (20 x noise)
    for k in (0.3, 0.6, 0.9):
        for phi in (0.0, 1.1):
            ec = EllipticCoord(stratum, phi, k, 1.3, 0.2)
            ts = np.linspace(scan_start_time(ec), 3.0 * ec.period(), 10)
            j1, noise = j1_path(ec, ts)[:2]
            for t, val, nz in zip(ts, j1, noise):
                assert abs(cj._j1_scalar_mp(ec, float(t), 50) - val) <= 20.0 * nz


def test_c1_sign_structure(rng):
    for _ in range(10):
        k = rng.uniform(0.1, 0.9)
        p1 = min(mx.p1_z(k), mx.p1_V(k, Stratum.C1))
        ps = np.linspace(0.3, p1 - 1e-6, 50)
        args = mx.c1_kernel_args(ps, k)
        a0 = mx.fv_c1_kernel(*args)[0] * mx.a01_c1_kernel(*args)[0]
        a2 = mx.fz_c1_kernel(*args)[0] * mx.a21_c1_kernel(*args)[0]
        assert np.all(a0 < 0)
        assert np.all(a2 > 0)
        assert np.all(a0 + (-a0 - a2 / (k * k)) + a2 < 0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificates_nonnegative(rng):
    for _ in range(500):
        k = rng.uniform(0.02, 0.98)
        p = rng.uniform(0.05, 9.0)
        assert float(certificate_x2(p, k)) >= 0.0
        assert float(certificate_x1(p, k)) >= 0.0


def test_certificate_x2_derivative_identity(rng):
    h = 1e-5
    for _ in range(8):
        k = rng.uniform(0.15, 0.85)
        p = rng.uniform(0.4, 2.6)
        fz = float(mx.f_z_C1(p, k))
        ratio = lambda pp: float(a01_C1(pp, k)) / float(mx.f_z_C1(pp, k))
        lhs = (ratio(p + h) - ratio(p - h)) / (2 * h) * fz * fz
        assert lhs == pytest.approx(0.75 * float(certificate_x2(p, k)), rel=1e-5)


def _richardson_derivative(f, p, h=2e-4):
    d1 = (f(p + h) - f(p - h)) / (2 * h)
    d2 = (f(p + h / 2) - f(p - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def test_certificate_x1_derivative_identity(rng):
    for _ in range(8):
        k = rng.uniform(0.15, 0.85)
        p = rng.uniform(0.4, 2.6)
        fv = float(mx.f_V_C1(p, k))
        ratio = lambda pp: float(a21_C1(pp, k)) / float(mx.f_V_C1(pp, k))
        lhs = _richardson_derivative(ratio, p) * fv * fv
        assert lhs == pytest.approx(-(4.0 / 3.0) * k * k * float(certificate_x1(p, k)),
                                    rel=1e-5)


# ---------------------------------------------------------------------------
# first conjugate time
# ---------------------------------------------------------------------------

def test_special_strata():
    assert first_conjugate_time(Covector(0.0, 0.0, 0.0, 0.0)).t_conj == math.inf
    assert first_conjugate_time(Covector(0.3, 0.0, 1.0, 0.3)).t_conj == math.inf
    assert first_conjugate_time(Covector(0.2 + math.pi, 0.0, 1.0, 0.2)).t_conj == math.inf
    c = math.sqrt(2.0 * (1.0 + math.cos(0.7)))
    assert first_conjugate_time(Covector(0.7, c, 1.0, 0.0)).t_conj == math.inf


def test_c6_equals_maxwell():
    res = first_conjugate_time(Covector(0.1, 2.0, 0.0, 0.0))
    assert res.t_conj == res.t_max == pytest.approx(2.0 * mx.p1_V0())


def test_lower_bound_runtime_invariant(rng):
    for _ in range(10):
        lam = random_c1(rng, k_range=(0.15, 0.9)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.35, 0.9))
        res = first_conjugate_time(lam)
        assert res.t_conj >= res.t_max - 1e-6


def test_cross_validation_agrees(rng):
    for _ in range(4):
        lam = random_c1(rng, k_range=(0.2, 0.85)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.4, 0.8))
        res = first_conjugate_time(lam, cross_validate=True)
        assert res.method == "analytic+variational"


@pytest.mark.parametrize("stratum,ks,inside", [
    pytest.param("C1", ("k1", "k0"), None, id="critical_moduli"),    # every phase
    pytest.param("C1", (0.4, 0.75, 0.93, 0.96), False, id="cn_tau_zero"),
    pytest.param("C1", (0.82, 0.88), True, id="sn_tau_zero"),
    pytest.param("C2", (0.45, 0.7), None, id="c2"),                  # sn^2 tau in {0, 1}
])
def test_equality_cases(stratum, ks, inside):
    """t_conj = t_max on the loci; ``inside``: whether the moduli lie in (k1, k0)."""
    forms = mx.FORMS[Stratum(stratum)]
    k1, k0 = mx.critical_moduli()
    for k in ks:
        if k in ("k1", "k0"):
            k, phis = (k1 if k == "k1" else k0), (0.17, 0.45)
        else:
            phis = forms.equality_phases(k)
        if inside is not None:
            assert (k1 < k < k0) == inside
        for phi in phis:
            res = first_conjugate_time(from_elliptic(EllipticCoord(forms.stratum, phi, k, 1.0, 0.0)))
            assert abs(res.t_conj - res.t_max) < 1e-6


def test_generic_strict_inequality(rng):
    # away from the equality loci t_conj > t_max strictly
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.37, 0.5, 1.0, 0.4))
    res = first_conjugate_time(lam)
    assert res.t_conj - res.t_max > 1e-3


def test_symmetry_invariance(rng):
    for _ in range(6):
        lam = random_c1(rng, k_range=(0.2, 0.9)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.35, 0.85))
        t0 = first_conjugate_time(lam).t_conj
        assert first_conjugate_time(reflect3(lam)).t_conj == pytest.approx(t0, abs=1e-6)
        s = rng.uniform(0, 2 * math.pi)
        assert first_conjugate_time(rotate_covector(lam, s)).t_conj == \
            pytest.approx(t0, abs=1e-6)
        r = rng.uniform(-0.6, 0.6)
        lam_d, scale = dilate_covector(lam, r)
        assert first_conjugate_time(lam_d).t_conj == pytest.approx(scale * t0, rel=1e-6)


def test_discontinuity_at_c4_limit():
    """Along cn tau = 0 extremals, t_conj stays bounded as k -> 0 while the
    C4 limit point has t_conj = +inf."""
    limit = 2.0 * mx.p1_z(1e-6)     # -> 2 p1z(0) ~ 8.99 for alpha = 1
    for k in (0.05, 0.02):
        phi, = mx.C1_FORMS.equality_phases(k)      # tau = K: cn tau = 0
        lam = from_elliptic(EllipticCoord(Stratum.C1, phi, k, 1.0, 0.0))
        res = first_conjugate_time(lam)
        assert math.isfinite(res.t_conj)
        assert abs(res.t_conj - limit) < 0.2
    assert first_conjugate_time(Covector(0.0, 0.0, 1.0, 0.0)).t_conj == math.inf


def test_continuity_at_infinite_values():
    # k -> 1 along C1: t_conj grows beyond any cap
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.1, 1.0 - 1e-10, 1.0, 0.0))
    assert first_conjugate_time(lam).t_conj == math.inf
    prev = 0.0
    for k in (0.97, 0.99, 0.997):
        lam = from_elliptic(EllipticCoord(Stratum.C1, 0.1, k, 1.0, 0.0))
        t = first_conjugate_time(lam).t_conj
        assert t > prev
        prev = t


# ---------------------------------------------------------------------------
# two-sided bounds
# ---------------------------------------------------------------------------

def test_two_sided_flags(rng):
    for _ in range(8):
        lam = random_c1(rng, k_range=(0.15, 0.9)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.35, 0.85))
        lower, upper, tc, tm, ub = two_sided_check(lam)
        assert lower and upper
        assert tm <= tc + 1e-6
        assert tc <= ub + 1e-6


def test_two_sided_equality_case():
    phi = mx.C2_FORMS.equality_phases(0.6)[0]     # sn tau = 0
    lam = from_elliptic(EllipticCoord(Stratum.C2, phi, 0.6, 1.0, 0.0))
    lower, upper, tc, tm2, _ = two_sided_check(lam)
    assert lower and upper
    assert tc == pytest.approx(tm2, abs=1e-6)


def test_two_sided_dilation_invariance(rng):
    lam = random_c1(rng, k_range=(0.3, 0.7))
    flags = two_sided_check(lam)[:2]
    lam2, _ = dilate_covector(lam, 0.5)
    assert two_sided_check(lam2)[:2] == flags


def test_two_sided_rejects_special_strata():
    with pytest.raises(StratumError):
        two_sided_check(Covector(0.0, 2.0, 0.0, 0.0))


def _clear_c1_roots():
    for cache in (mx._p1_z_f64, mx._p1_v_c1_f64, mx._p1_z_cached, mx._p1_v_c1_cached):
        cache.cache_clear()


def test_c1_upper_is_the_polished_bound():
    # the search polishes the larger Maxwell root only where the float64
    # roots leave the cap open; the reported bound is the polished one
    rng = np.random.default_rng(17)
    for _ in range(20):
        lam = random_c1(rng)
        ec = to_elliptic(lam)
        _clear_c1_roots()
        res = first_conjugate_time(lam)
        want = mx.C1_FORMS.upper(ec.k, math.sqrt(ec.alpha))
        lo, hi = res.upper_range
        assert lo <= want <= hi
        assert res.upper.hex() == want.hex() == two_sided_check(lam)[4].hex()


def test_upper_ok_reads_the_polished_bound_only_near_it():
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.37, 0.5, 1.0, 0.4))
    res = first_conjugate_time(lam)
    ec = to_elliptic(lam)
    upper = mx.C1_FORMS.upper(ec.k, math.sqrt(ec.alpha))
    lo, hi = res.upper_range
    edge = upper + cj.BOUND_SLACK
    reads = []

    def polished():
        reads.append(1)
        return upper
    # near the bound the flag is the polished bound's, read once
    for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf),
              edge - 1e-4, edge + 1e-4, lo + cj.BOUND_SLACK + 1e-9):
        reads.clear()
        near = replace(res, t_conj=float(t), polished_upper=polished)
        assert near.upper_ok == (t <= edge)
        assert near.upper_ok == (t <= edge)         # from the bound read above
        assert len(reads) == 1
    # clear of the range the float64 roots decide it
    for t, ok in ((lo + cj.BOUND_SLACK, True), (hi + cj.BOUND_SLACK + 1e-9, False),
                  (math.inf, False)):
        reads.clear()
        assert replace(res, t_conj=t, polished_upper=polished).upper_ok is ok
        assert not reads


def _row(stratum, k, alpha, nphi):
    """The covectors of one ``sweep`` row."""
    period = mx.stratum_forms(stratum).period(k, alpha)
    return [from_elliptic(EllipticCoord(stratum, float(phi), k, alpha, 0.2))
            for phi in np.linspace(0.0, period, nphi, endpoint=False)]


@pytest.mark.parametrize("stratum, k, nphi", [(Stratum.C1, 0.6, 6), (Stratum.C2, 0.7, 8)])
def test_half_arc_cache_keeps_the_bits(stratum, k, nphi):
    # the phases of a row share moduli (to_elliptic moves k by an ulp or
    # not), and with them the half-arc grids; kept or not, the same results
    lams = _row(stratum, k, 1.3, nphi)
    ks = [to_elliptic(lam).k for lam in lams]
    assert len(set(ks)) < len(ks)
    cj._half_arc_grid.cache_clear()
    kept = [first_conjugate_time(lam) for lam in lams]
    assert cj._half_arc_grid.cache_info().hits >= len(ks) - len(set(ks))
    for lam, res in zip(lams, kept):
        cj._half_arc_grid.cache_clear()
        fresh = first_conjugate_time(lam)
        assert ([x.hex() for x in (res.t_conj, *res.bracket, res.residual)]
                == [x.hex() for x in (fresh.t_conj, *fresh.bracket, fresh.residual)])


def test_half_arc_grids_are_read_only():
    half = cj._half_arc_grid(Stratum.C1, 0.6, 1.3, 0.1, 5.0, 0.01, 3, 200)
    want = cj._half_arc(mx.C1_FORMS, 0.6, math.sqrt(1.3), np.arange(0.1, 5.0, 0.01)[3:200])
    assert [a.tobytes() for a in half] == [a.tobytes() for a in want]
    assert not any(a.flags.writeable for a in half)
    with pytest.raises(ValueError):
        half[1][0] = 0.0


def test_sign_grid_bypasses_the_half_arc_cache():
    from cartanconj import verify
    cj._half_arc_grid.cache_clear()
    assert verify.check_sign_grid_c1(nk=2, nphi=2, nt=20).passed
    assert verify.check_sign_grid_c2(nk=2, npsi=2, nt=20).passed
    assert cj._half_arc_grid.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# variational cross-checks
# ---------------------------------------------------------------------------

def test_j0_delta2_proportional_to_j1(rng):
    """J0(t) * Delta^2 / J1(t) is constant along an extremal (the smooth
    factor linking the variational and factored Jacobians); records the
    empirically fitted constant."""
    for stratum in (Stratum.C1, Stratum.C2):
        lam = random_c1(rng, k_range=(0.3, 0.7)) if stratum is Stratum.C1 \
            else random_c2(rng, k_range=(0.45, 0.8))
        ec = to_elliptic(lam)
        tm = mx.t_max1(lam).t_max
        jp = JacobianPath(lam, 0.9 * tm)
        ratios = []
        for t in np.linspace(0.4 * tm, 0.88 * tm, 9):
            f = j1_factors(ec, float(t))
            ratios.append(jp(float(t)) * f.Delta ** 2 / f.J1)
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-6
        # the factored form absorbs a nonzero constant; only its sign and
        # constancy matter for zero-finding
        assert (ratios[0] < 0) == (stratum is Stratum.C1)


def test_first_zero_matches_variational(rng):
    for _ in range(3):
        lam = random_c1(rng, k_range=(0.25, 0.8)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.45, 0.8))
        res = first_conjugate_time(lam)
        jp = JacobianPath(lam, 1.05 * res.t_conj)
        ts = np.linspace(0.4 * res.t_conj, 1.05 * res.t_conj, 400)
        vals = jp.values(ts)
        sign = np.sign(vals)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        assert len(flips) > 0
        from scipy.optimize import brentq
        t_var = brentq(jp, float(ts[flips[0]]), float(ts[flips[0] + 1]), xtol=1e-12)
        assert t_var == pytest.approx(res.t_conj, abs=1e-5)


def test_cross_check_skips_unresolved_short_arc():
    # C1 with a scan start of 0.19: J0 there is about 1e-24, below the
    # integration error, and its first grid value comes out negative
    lam = from_elliptic(EllipticCoord(Stratum.C1, 4.147273909701569, 0.661594253831675,
                                      1.6299376613589607, 1.0789352206350085))
    res = first_conjugate_time(lam, cross_validate=True)
    assert res.method == "analytic+variational"
    assert res.t_conj == pytest.approx(9.441637527, abs=1e-8)


def test_sign_certain_on_short_and_long_arcs():
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.37, 0.5, 1.0, 0.4))
    M = JacobianPath(lam, 5.0).matrices([0.05, 0.1, 1.0, 5.0])
    assert cj._sign_certain(M).tolist() == [False, False, True, True]


# (covector, t_lo, cap) of two cross-checks: the README C1 example
# (phi 0.37, k 0.5, alpha 1, beta 0.4) and a C2 arc (phi 0.3, k 0.5, alpha 1,
# beta 0.2), each over the range that first_conjugate_time passes
_README_C1_ARC = (Covector(0.7616710142702229, 0.933066837942808, 1.0, 0.4),
                  0.24654990337075253, 10.082658616228692)
_C2_ARC = (Covector(1.3833059885400323, 3.8413190472506797, 1.0, 0.2),
           0.28, 2.5910410960458417)


@pytest.mark.parametrize("arc,want", [(_README_C1_ARC, 9.602532015455719),
                                      (_C2_ARC, 2.4676581866964074)])
def test_first_zero_variational_pinned(arc, want):
    # stdout never prints the variational zero, so these pins are the
    # bit-level guard on J0: the right-hand side, the integrator and the scan
    assert cj._first_zero_variational(*arc) == want


def _certain_stack(rng, n, first):
    """n random 5x5 matrices; those before ``first`` are far below the ODE tolerance."""
    M = rng.standard_normal((n, 5, 5))
    M[:first] *= 1e-14
    return M


@pytest.mark.parametrize("which", ["readme_c1", "short_arc", "beyond_first_chunk", "none"])
def test_first_certain_matches_full_scan(rng, which):
    if which == "readme_c1":
        lam, t_lo, cap = _README_C1_ARC
        M = JacobianPath(lam, cap).matrices(np.linspace(t_lo, cap, 900))
    elif which == "short_arc":
        # the arc of test_cross_check_skips_unresolved_short_arc, whose first
        # grid matrices are integration noise
        lam = from_elliptic(EllipticCoord(Stratum.C1, 4.147273909701569, 0.661594253831675,
                                          1.6299376613589607, 1.0789352206350085))
        M = JacobianPath(lam, 10.0).matrices(np.linspace(0.19, 10.0, 900))
    elif which == "beyond_first_chunk":
        M = _certain_stack(rng, 300, 100)
        M[150:160] *= 1e-14
    else:
        M = _certain_stack(rng, 200, 200)
    full = cj._sign_certain(M)
    assert cj._first_certain(M) == int(np.argmax(full))
    if which == "beyond_first_chunk":
        assert np.argmax(full) == 100
    assert full.any() == (which != "none")


def test_horizon_below_first_zero_gives_infinity():
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.37, 0.5, 1.0, 0.4))
    full = first_conjugate_time(lam)
    capped = first_conjugate_time(lam, t_cap=0.5 * full.t_max)
    assert capped.t_conj == math.inf
    assert capped.t_max == pytest.approx(full.t_max)
    with pytest.raises(ValueError):
        first_conjugate_time(lam, t_cap=-1.0)


def test_c6_chart_degeneracy():
    """At alpha = 0 the beta-direction acts trivially, so the variational
    Jacobian vanishes identically; the exact C6 dispatch exists because of
    this chart singularity."""
    lam = Covector(0.2, 1.5, 0.0, 0.0)
    jp = JacobianPath(lam, 5.0)
    assert np.max(np.abs(jp.values(np.linspace(0.5, 5.0, 20)))) < 1e-20


def test_cross_validation_low_k_c2(rng):
    # the noise-guarded float64 region just above the mp switchover
    for k in (0.22, 0.27):
        lam = from_elliptic(EllipticCoord(Stratum.C2, 0.3 * mx.C2_FORMS.period(k), k, 1.0, 0.8))
        res = first_conjugate_time(lam, cross_validate=True)
        assert res.method == "analytic+variational"
        assert res.t_conj >= res.t_max - 1e-6


def test_mp_path_c2_small_k():
    lam = from_elliptic(EllipticCoord(Stratum.C2, 0.05, 0.12, 1.0, 0.0))
    res = first_conjugate_time(lam)
    assert res.finite
    assert 0.0 <= res.t_conj - res.t_max < 1e-3


@pytest.mark.parametrize("stratum", [Stratum.C1, Stratum.C2])
def test_j1_array_calls_match_one_element_calls(rng, stratum):
    # precondition of the split J1 scan and of Brent started from its
    # values: J1 on an array has the bits of J1 on any part of it and of its
    # 1-element calls (the refinement's calls)
    for _ in range(6):
        ec = EllipticCoord(stratum, rng.uniform(0.0, 6.0), rng.uniform(mx.C2_MP_K, 0.97),
                           rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        ts = np.sort(rng.uniform(0.05, 3.0 * ec.period(), 300))
        full = j1_path(ec, ts)
        part = j1_path(ec, ts[17:230])
        ones = [j1_path(ec, ts[i:i + 1]) for i in range(0, 300, 7)]
        for j in range(6):
            assert full[j][17:230].tobytes() == part[j].tobytes()
            assert full[j][::7].tobytes() == np.concatenate([o[j] for o in ones]).tobytes()


def _float_route_arcs(stratum, n, rng):
    """n random arcs of a stratum over the moduli where float64 J1 runs: 1 - k
    down to 1e-9, C1 k down to 1e-4, C2 k just above C2_MP_K; alpha from
    1e-2 to 1e2."""
    lo = 1e-4 if stratum is Stratum.C1 else mx.C2_MP_K
    arcs = []
    for i in range(n):
        k = (1.0 - 10.0 ** rng.uniform(-9.0, -1.0), 10.0 ** rng.uniform(math.log10(lo), -0.3),
             lo + rng.uniform(0.0, 1e-3), rng.uniform(lo, 1.0))[i % 4]
        arcs.append(EllipticCoord(stratum, rng.uniform(-6.0, 6.0), float(min(k, 1.0 - 1e-9)),
                                  10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)))
    return arcs


@pytest.mark.parametrize("stratum", [Stratum.C1, Stratum.C2])
def test_float_route_has_the_bits_of_one_element_calls(stratum):
    # J1 at a Python float time (Brent's steps, j1_factors) computes in
    # Python floats and must give the bits of j1_path on [t]: 10,000 times
    # per stratum against the array call (which has the bits of its
    # 1-element calls, see above), every tenth against the 1-element call
    rng = np.random.default_rng(15 + (stratum is Stratum.C2))
    for ec in _float_route_arcs(stratum, 100, rng):
        ts = rng.uniform(0.0, 3.0 * ec.period(), 100)
        full = j1_path(ec, ts)
        for i, t in enumerate(ts.tolist()):
            got = cj._j1(ec, t)
            assert all(type(g) is float for g in got)
            assert [g.hex() for g in got] == [float(v[i]).hex() for v in full], (ec, t)
            if i % 10 == 0:
                one = j1_path(ec, np.array([t]))
                assert [g.hex() for g in got] == [float(v[0]).hex() for v in one], (ec, t)


def test_j1_factors_has_the_bits_of_j1_path():
    # one route for J1 at one time: the fields of j1_factors are those of
    # j1_path on [t], with a1 assembled from its a0 and a2
    rng = np.random.default_rng(151)
    for stratum in (Stratum.C1, Stratum.C2):
        for ec in _float_route_arcs(stratum, 20, rng):
            t = rng.uniform(0.0, 3.0 * ec.period())
            f = j1_factors(ec, t)
            j1, noise, xi, delta, a0, a2 = (float(v[0]) for v in j1_path(ec, np.array([t])))
            a1 = mx.stratum_forms(stratum).a1(a0, a2, ec.k * ec.k)
            want = (a0, a1, a2, xi, delta, j1, noise)
            got = (f.a0, f.a1, f.a2, f.xi, f.Delta, f.J1, f.noise)
            assert [g.hex() for g in got] == [w.hex() for w in want]


def test_split_scan_finds_the_whole_grid_zero():
    # the J1 grid is evaluated up to one time past the split first; wherever
    # the split falls, the zero, its bracket and its residual are unchanged
    for stratum, k in ((Stratum.C1, 0.5), (Stratum.C1, 0.9), (Stratum.C2, 0.6)):
        lam = from_elliptic(EllipticCoord(stratum, 0.37, k, 1.0, 0.4))
        ec = to_elliptic(lam)
        res = first_conjugate_time(lam)
        t_lo = min(scan_start_time(ec), 0.5 * res.t_max)
        cap = max(3.0 * res.t_max, 1.1 * res.upper)
        whole = cj._first_zero_analytic(ec, t_lo, cap)
        assert whole[0] == res.t_conj
        for split in (t_lo, res.t_max, res.bracket[0], res.bracket[1], res.upper, cap):
            assert cj._first_zero_analytic(ec, t_lo, cap, split) == whole


def _recording_j1(monkeypatch, name, calls=None):
    """Patch conjugate.<name> to record every time it evaluates J1 at, and in
    ``calls`` the type and size of each call's time argument."""
    times = []
    orig = getattr(cj, name)

    def rec(ec, t, *args, **kwargs):
        ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
        times.extend(ts)
        if calls is not None:
            calls.append((type(t), len(ts)))
        return orig(ec, t, *args, **kwargs)
    monkeypatch.setattr(cj, name, rec)
    return times


def test_float64_search_evaluates_each_time_once(monkeypatch):
    # _j1 takes both routes: the grid's arrays (through j1_path) and Brent's
    # Python floats, so recording it records every time J1 is evaluated at
    for stratum, k in ((Stratum.C1, 0.5), (Stratum.C2, 0.6)):
        lam = from_elliptic(EllipticCoord(stratum, 0.37, k, 1.0, 0.4))
        t_max = first_conjugate_time(lam).t_max          # warm the Maxwell roots
        calls = []
        times = _recording_j1(monkeypatch, "_j1", calls)
        res = first_conjugate_time(lam)
        monkeypatch.undo()
        assert len(set(times)) == len(times)
        # Brent ran on the float route, and no 1-element array call is left
        assert {tp for tp, _ in calls} == {float, np.ndarray}
        assert all(n > 1 for tp, n in calls if tp is np.ndarray)
        # the scan stopped short of the 3 t_max horizon: it read up to the upper bound
        assert max(times) < res.upper + 2 * cj.SCAN_DT < 3.0 * t_max
        assert res.residual == abs(float(j1_path(to_elliptic(lam), np.array([res.t_conj]))[0][0]))


def _search_range(lam):
    """(ec, t_lo, cap) of first_conjugate_time's default search."""
    ec = to_elliptic(lam)
    t_max = mx.t_max1(lam).t_max
    upper = mx.C2_FORMS.upper(ec.k, math.sqrt(ec.alpha))
    return ec, min(scan_start_time(ec), 0.5 * t_max), max(3.0 * t_max, 1.1 * upper)


def _mp_scan_grid(ec, t_lo, cap):
    return np.arange(t_lo, cap, max(min(cj.SCAN_DT, ec.period() / 200.0), (cap - t_lo) / 300.0))


def test_mpmath_search_evaluates_each_time_once(monkeypatch):
    lam = from_elliptic(EllipticCoord(Stratum.C2, 0.05, 0.12, 1.0, 0.0))
    first_conjugate_time(lam)
    times = _recording_j1(monkeypatch, "_j1_scalar_mp")
    res = first_conjugate_time(lam)
    ec, t_lo, cap = _search_range(lam)
    ts = _mp_scan_grid(ec, t_lo, cap)
    screen, bound = cj._j1_c2_series(ec, ts)
    flagged = set(ts[np.abs(screen) <= mx.SIGN_MARGIN * bound])
    # the series screen leaves mpmath Brent's panel and the times it cannot
    # decide: at most 12 (a point-by-point scan took 72), none twice
    assert res.finite and len(times) <= 12
    assert all(t in flagged or res.bracket[0] <= t <= res.bracket[1] for t in times)
    assert len(set(times)) == len(times)


def _mp_scan_reference(ec, t_lo, cap):
    """The point-by-point mpmath J1 scan and Brent that the screen replaces."""
    def fmp(t):
        return cj._j1_scalar_mp(ec, t, mx.MP_DPS)
    ts = _mp_scan_grid(ec, t_lo, cap)
    vals, i = mx._screen_to_first_flip(fmp, ts, np.empty(len(ts)), np.zeros(len(ts), dtype=bool))
    if i is None:
        return None
    a, b = float(ts[i]), float(ts[i + 1])
    root, froot = mx._brent(fmp, a, b, fa=vals[i], fb=vals[i + 1])
    return root, (a, b), abs(froot)


def _small_k_arcs():
    rng = np.random.default_rng(14)
    arcs = []
    for k in (0.005, 0.02, 0.05, 0.1, 0.15, 0.19, 0.1999):
        # an equality-locus phase (t_conj = t_max1) and a random arc
        phi = mx.C2_FORMS.equality_phases(k)[len(arcs) % 2]
        arcs.append(EllipticCoord(Stratum.C2, phi, k, 1.0, rng.uniform(-2.0, 2.0)))
        arcs.append(EllipticCoord(Stratum.C2, rng.uniform(0.0, 6.0), k, rng.uniform(0.3, 3.0),
                                  rng.uniform(-2.0, 2.0)))
    for k in rng.uniform(0.005, mx.C2_MP_K, 6):
        arcs.append(EllipticCoord(Stratum.C2, rng.uniform(0.0, 6.0), float(k),
                                  rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)))
    return arcs


@pytest.mark.parametrize("i", range(20))
def test_screened_j1_search_is_the_mpmath_scan(i):
    # the series screen changes which times mpmath evaluates, not the zero:
    # root, bracket and residual are those of the point-by-point scan
    ec = _small_k_arcs()[i]
    lam = from_elliptic(ec)
    ec, t_lo, cap = _search_range(lam)
    upper = mx.C2_FORMS.upper(ec.k, math.sqrt(ec.alpha))
    hit = cj._first_zero_analytic(ec, t_lo, cap, upper)
    assert hit is not None and hit == _mp_scan_reference(ec, t_lo, cap)


def test_j1_brent_error_names_stratum_modulus_and_phase(monkeypatch):
    lam = from_elliptic(EllipticCoord(Stratum.C1, 0.37, 0.5, 1.0, 0.4))
    first_conjugate_time(lam)                         # warm the Maxwell roots
    monkeypatch.setattr(mx, "BRENT_MAXITER", 2)
    with pytest.raises(NumericalError, match=r"Brent on J1 on C1 at k=0\.5, phi=0\.3699"):
        first_conjugate_time(lam)


# ---------------------------------------------------------------------------
# the value-only route of the root steps
# ---------------------------------------------------------------------------

def test_value_only_j1_has_the_bits_of_j1():
    # _j1 without mag: J1 and the rest with their bits, and no noise, on the
    # Python-float route (Brent's steps) and under mpmath (_j1_scalar_mp)
    rng = np.random.default_rng(19)
    for stratum in (Stratum.C1, Stratum.C2):
        for ec in _float_route_arcs(stratum, 12, rng):
            for t in rng.uniform(0.0, 3.0 * ec.period(), 4).tolist():
                whole, value = cj._j1(ec, t), cj._j1(ec, t, mag=False)
                assert value[1] is None and type(whole[1]) is float
                assert [v.hex() for v in value[:1] + value[2:]] == \
                    [w.hex() for w in whole[:1] + whole[2:]]
                for dps in (40, 50):
                    with mpmath.workdps(dps):
                        whole, value = cj._j1(ec, mpmath.mpf(t)), cj._j1(ec, mpmath.mpf(t), mag=False)
                    assert value[1] is None
                    assert [v._mpf_ for v in value[:1] + value[2:]] == \
                        [w._mpf_ for w in whole[:1] + whole[2:]]


def _magnitude_probe(monkeypatch):
    """Count the abs() calls of the magnitude code while a watched function runs.

    The kernels, ``_sum_terms``, ``_table_sum``, ``_half_arc`` and ``_j1``
    each compute their magnitudes with abs() and their values without it, so
    abs() called from one of them is the magnitude code at work.  abs() is
    shadowed in ``maxwell`` and ``conjugate`` by a counter that is live only
    inside the functions that ``probe.watch`` wraps."""
    import builtins
    import sys
    from types import SimpleNamespace

    probe = SimpleNamespace(depth=0, calls=[], entered=[])
    mag_code = ("_sum_terms", "_table_sum", "_half_arc", "_j1")

    def counting_abs(x):
        name = sys._getframe(1).f_code.co_name
        if probe.depth and (name in mag_code or name.endswith("_kernel")):
            probe.calls.append(name)
        return builtins.abs(x)

    def watch(module, name):
        orig = getattr(module, name)

        def watched(f, *args, **kwargs):
            probe.entered.append((name, getattr(f, "__name__", "")))
            probe.depth += 1
            try:
                return orig(f, *args, **kwargs)
            finally:
                probe.depth -= 1
        monkeypatch.setattr(module, name, watched)

    for module in (mx, cj):
        monkeypatch.setattr(module, "abs", counting_abs, raising=False)
    probe.watch = watch
    return probe


def test_root_steps_compute_no_magnitudes(monkeypatch):
    # the Maxwell polish, the float J1 Brent and the small-k mpmath J1 Brent
    # (with its screened scan) read values only, so they never enter the
    # magnitude code; J1 with its noise does, which shows the probe sees it
    probe = _magnitude_probe(monkeypatch)
    probe.depth = 1
    cj._j1(EllipticCoord(Stratum.C1, 0.37, 0.5, 1.0, 0.4), 1.3)
    probe.depth = 0
    assert {"_j1", "_half_arc", "_sum_terms"} <= set(probe.calls)
    probe.calls.clear()

    for module, name in ((mx, "_polish_root_mp"), (mx, "_brent"), (cj, "_brent"),
                         (cj, "_screen_to_first_flip")):
        probe.watch(module, name)
    for stratum, k in ((Stratum.C1, 0.5), (Stratum.C2, 0.12)):
        for cache in (mx._p1_z_f64, mx._p1_v_c1_f64, mx._p1_z_cached, mx._p1_v_c1_cached,
                      mx._p1_v_c2_cached, cj._half_arc_grid):
            cache.cache_clear()
        res = first_conjugate_time(from_elliptic(EllipticCoord(stratum, 0.37, k, 1.0, 0.4)))
        assert res.finite
    fns = {(name, fn.split(" at k=")[0].split(" on ")[0]) for name, fn in probe.entered}
    assert {("_polish_root_mp", "fz_c1_kernel (mpmath)"), ("_brent", "fz_c1_kernel"),
            ("_brent", "J1"), ("_brent", "J1 (mpmath)"),
            ("_screen_to_first_flip", "J1 (mpmath)")} <= fns
    assert probe.calls == []
