import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from cartanconj.elliptic import (Modulus, am, am_mp, complete_E,
                                 complete_K, E2, incomplete_E, incomplete_F,
                                 jacobi, jacobi_arrays, jacobi_mp)


def test_modulus_validation():
    Modulus(0.0)
    Modulus(1.0)
    with pytest.raises(ValueError):
        Modulus(-0.1)
    with pytest.raises(ValueError):
        Modulus(1.0000001)
    with pytest.raises(ValueError):
        Modulus(float("nan"))


def test_degenerate_moduli():
    v = jacobi(1.0, 0.0)
    assert v.sn == pytest.approx(math.sin(1.0), abs=1e-15)
    assert v.cn == pytest.approx(math.cos(1.0), abs=1e-15)
    assert v.dn == 1.0
    assert v.E_incomplete == pytest.approx(1.0, abs=1e-15)

    v = jacobi(1.0, 1.0)
    assert v.sn == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert v.cn == pytest.approx(1.0 / math.cosh(1.0), abs=1e-15)
    assert v.dn == pytest.approx(1.0 / math.cosh(1.0), abs=1e-15)


def test_quarter_period():
    K = complete_K(0.5)
    v = jacobi(K, 0.5)
    assert v.sn == pytest.approx(1.0, abs=1e-14)
    assert v.cn == pytest.approx(0.0, abs=1e-14)
    assert v.dn == pytest.approx(math.sqrt(1.0 - 0.25), abs=1e-14)


def test_complete_K_edge_cases():
    assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert complete_K(0.999999) > 7.0
    with pytest.raises(ValueError):
        complete_K(1.0)


def test_complete_K_quadrature_oracle():
    k = 0.8
    oracle = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert complete_K(k) == pytest.approx(oracle, abs=1e-12)


def test_K_strictly_increasing():
    ks = np.linspace(0.0, 0.99, 40)
    vals = [complete_K(float(k)) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_incomplete_F_identities():
    assert incomplete_F(0.7, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert float(incomplete_F(math.pi / 2.0, 0.6)) == pytest.approx(
        complete_K(0.6), abs=1e-13)
    u = 1.3
    assert float(incomplete_F(jacobi(u, 0.9).am, 0.9)) == pytest.approx(u, abs=1e-12)
    with pytest.raises(ValueError):
        incomplete_F(2.0, 1.0)


def test_E2_values():
    p = 1.7
    assert float(E2(p, 0.0)) == pytest.approx(p, abs=1e-14)
    assert float(E2(0.0, 0.77)) == 0.0
    # complete-period value against a quadrature oracle for E(k)
    k = 0.5
    K = complete_K(k)
    Ec = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
              0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert float(E2(2.0 * K, k)) == pytest.approx(2.0 * (2.0 * Ec) - 2.0 * K, abs=1e-12)


def test_against_scipy_ellipj(rng):
    for _ in range(200):
        k = rng.uniform(0.0, 0.999)
        u = rng.uniform(-20.0, 20.0)
        sn, cn, dn, amv, eps = jacobi_arrays(u, k)
        s, c, d, ph = special.ellipj(u, k * k)
        assert abs(float(sn) - s) < 2e-12
        assert abs(float(cn) - c) < 2e-12
        assert abs(float(dn) - d) < 2e-12
        assert abs(float(eps) - special.ellipeinc(ph, k * k)) < 5e-12


def test_incomplete_E_against_scipy(rng):
    for _ in range(100):
        k = rng.uniform(0.0, 0.98)
        phi = rng.uniform(-8.0, 8.0)
        assert float(incomplete_E(phi, k)) == pytest.approx(
            special.ellipeinc(phi, k * k), abs=5e-12)
        assert float(incomplete_F(phi, k)) == pytest.approx(
            special.ellipkinc(phi, k * k), abs=5e-12)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-12.0, 12.0), k=st.floats(0.0, 1.0))
def test_pythagorean_identities(u, k):
    sn, cn, dn, _, _ = jacobi_arrays(u, k)
    assert abs(float(sn) ** 2 + float(cn) ** 2 - 1.0) < 1e-11
    assert abs(float(dn) ** 2 + k * k * float(sn) ** 2 - 1.0) < 1e-11


@settings(max_examples=100, deadline=None)
@given(u=st.floats(-5.0, 5.0), k=st.floats(0.01, 0.99))
def test_am_sin_cos_consistency(u, k):
    v = jacobi(u, k)
    assert v.sn == pytest.approx(math.sin(v.am), abs=1e-13)
    assert v.cn == pytest.approx(math.cos(v.am), abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(k=st.floats(0.02, 0.98), frac=st.floats(-3.0, 3.0))
def test_F_am_roundtrip(k, frac):
    u = frac * complete_K(k)
    assert float(incomplete_F(am(u, k), k)) == pytest.approx(u, abs=1e-11)


def test_eps_derivative_is_dn_squared(rng):
    h = 1e-5
    for _ in range(25):
        k = rng.uniform(0.02, 0.98)
        u = rng.uniform(-6.0, 6.0)
        d = (float(jacobi_arrays(u + h, k)[4]) - float(jacobi_arrays(u - h, k)[4])) / (2 * h)
        assert d == pytest.approx(float(jacobi_arrays(u, k)[2]) ** 2, abs=1e-8)


def test_periodicity(rng):
    for _ in range(30):
        k = rng.uniform(0.05, 0.95)
        K = complete_K(k)
        u = rng.uniform(-4.0, 4.0)
        sn0, _, _, am0, _ = jacobi_arrays(u, k)
        sn1, _, _, am1, _ = jacobi_arrays(u + 4.0 * K, k)
        assert abs(float(sn1) - float(sn0)) < 1e-10
        assert abs(float(am1) - float(am0) - 2.0 * math.pi) < 1e-10


def test_mp_backend_matches_float():
    import mpmath
    with mpmath.workdps(40):
        for k in (0.2, 0.7, 0.95):
            for u in (0.8, 3.1, 9.7):
                sn, cn, dn, ph, eps = jacobi_mp(u, k)
                v = jacobi(u, k)
                assert abs(float(sn) - v.sn) < 1e-12
                assert abs(float(ph) - v.am) < 1e-12
                assert abs(float(eps) - v.E_incomplete) < 1e-12


@pytest.mark.parametrize("dps", [40, 50, 120])
def test_mp_backend_against_mpmath(dps):
    # mpmath's theta-function sn, cn, dn and its Legendre E are an
    # algorithm independent of the AGM/Landen chain the backend shares
    # with float64
    import mpmath
    with mpmath.workdps(dps):
        scale = mpmath.mpf(10) ** (4 - dps)
        for k in (1e-3, 0.05, 0.5, 0.999, 0.999999):
            m = mpmath.mpf(k) ** 2
            for u in (-12.0, -7.3, -0.9, 0.0, 0.4, 2.9, 6.6, 11.7):
                sn, cn, dn, ph, eps = jacobi_mp(u, k)
                ref = [mpmath.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn")]
                ref.append(mpmath.ellipe(ph, m))
                for got, want in zip((sn, cn, dn, eps), ref):
                    assert abs(got - want) <= scale * max(1, abs(want))
        for u in (mpmath.mpf(1) / 3, -12.0):
            assert am_mp(u, 0) == u


def test_vectorized_matches_scalar(rng):
    k = 0.73
    us = rng.uniform(-8.0, 8.0, 50)
    sn, cn, dn, amv, eps = jacobi_arrays(us, k)
    for i in (0, 17, 49):
        v = jacobi(float(us[i]), k)
        assert float(sn[i]) == v.sn
        assert float(eps[i]) == v.E_incomplete


def test_complete_E_against_quadrature():
    for k in (0.3, 0.8):
        oracle = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)[0]
        assert complete_E(k) == pytest.approx(oracle, abs=1e-13)
