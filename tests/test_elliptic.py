import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from cartanconj import elliptic
from cartanconj.elliptic import (Modulus, am, complete_E, complete_K, incomplete_F,
                                 jacobi_arrays, jacobi_mp)
from cartanconj.maxwell import c1_kernel_args


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
    sn, cn, dn, _, eps = map(float, jacobi_arrays(1.0, 0.0))
    assert sn == pytest.approx(math.sin(1.0), abs=1e-15)
    assert cn == pytest.approx(math.cos(1.0), abs=1e-15)
    assert dn == 1.0
    assert eps == pytest.approx(1.0, abs=1e-15)

    sn, cn, dn, _, _ = map(float, jacobi_arrays(1.0, 1.0))
    assert sn == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert cn == pytest.approx(1.0 / math.cosh(1.0), abs=1e-15)
    assert dn == pytest.approx(1.0 / math.cosh(1.0), abs=1e-15)


def test_quarter_period():
    K = complete_K(0.5)
    sn, cn, dn, _, _ = map(float, jacobi_arrays(K, 0.5))
    assert sn == pytest.approx(1.0, abs=1e-14)
    assert cn == pytest.approx(0.0, abs=1e-14)
    assert dn == pytest.approx(math.sqrt(1.0 - 0.25), abs=1e-14)


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
    assert float(incomplete_F(am(u, 0.9), 0.9)) == pytest.approx(u, abs=1e-12)
    with pytest.raises(ValueError):
        incomplete_F(2.0, 1.0)


def test_E2_values():
    # 2 E(p, k) - p, the C1 kernels' argument that enters every Jacobian coefficient
    def E2(p, k):
        return c1_kernel_args(p, k)[5]

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
    sn, cn, _, amv, _ = map(float, jacobi_arrays(u, k))
    assert sn == pytest.approx(math.sin(amv), abs=1e-13)
    assert cn == pytest.approx(math.cos(amv), abs=1e-13)


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
                sn64, _, _, ph64, eps64 = map(float, jacobi_arrays(u, k))
                assert abs(float(sn) - sn64) < 1e-12
                assert abs(float(ph) - ph64) < 1e-12
                assert abs(float(eps) - eps64) < 1e-12


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
            assert jacobi_mp(u, 0)[3] == u


def test_agm_cache_keyed_on_precision():
    import mpmath
    k, u = 0.13, 2.7

    def fresh(dps):
        elliptic._agm_chain_at.cache_clear()
        with mpmath.workdps(dps):
            return jacobi_mp(u, k)

    want = {dps: fresh(dps) for dps in (15, 40, 50)}
    assert want[40][0] != want[50][0]
    for order in ((40, 50), (50, 40)):
        elliptic._agm_chain_at.cache_clear()
        for dps in order:
            with mpmath.workdps(dps):
                assert jacobi_mp(u, k) == want[dps]
    # a float chain of the same k is a separate entry, even at 53 bits
    elliptic._agm_chain_at.cache_clear()
    jacobi_arrays(u, k)
    with mpmath.workdps(15):
        assert mpmath.mp.prec == 53
        assert jacobi_mp(u, k) == want[15]
    # cached chains are shared, so they are immutable
    for kk in (k, mpmath.mpf(k)):
        a, c, e_over_k, ratio, scale = elliptic._agm_chain(kk)
        assert elliptic._agm_chain(kk)[0] is a
        for seq in (a, c, ratio):
            with pytest.raises(TypeError):
                seq[-1] = 0


def test_vectorized_matches_scalar(rng):
    k = 0.73
    us = rng.uniform(-8.0, 8.0, 50)
    sn, cn, dn, amv, eps = jacobi_arrays(us, k)
    for i in (0, 17, 49):
        sn_i, _, _, _, eps_i = jacobi_arrays(float(us[i]), k)
        assert float(sn[i]) == float(sn_i)
        assert float(eps[i]) == float(eps_i)


def _landen_np_clip(u, k):
    """The float64 branch of ``elliptic._landen`` as it was, clipping with np.clip."""
    a, c, e_over_k = elliptic._agm_chain(k)[:3]
    n = len(a) - 1
    phi = (2.0 ** n * a[n]) * u
    sn = np.sin(phi)
    esum = c[n] * sn if n >= 1 else 0.0
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[i] / a[i] * sn, -1.0, 1.0)))
        sn = np.sin(phi)
        if i > 1:
            esum = esum + c[i - 1] * sn
    dn = np.sqrt(1.0 - (k * sn) ** 2)
    return sn, np.cos(phi), dn, phi, e_over_k * u + esum


def test_landen_clip_matches_np_clip(rng):
    us = np.concatenate([rng.uniform(-30.0, 30.0, 257), [0.0, -0.0, 5e-324, -5e-324]])
    for k in (1e-9, 0.05, 0.3, 0.5, 0.7071067811865476, 0.9, 0.999, 1.0 - 1e-12):
        for u in (us, *us[[0, 1, -4, -3, -2, -1]].tolist()):
            got = jacobi_arrays(u, k)
            want = _landen_np_clip(np.asarray(u, dtype=float), k)
            for g, w in zip(got, want):
                assert type(g) is type(w)
                assert np.array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))


def test_ipow_policy_for_each_input_type(rng):
    xs = np.concatenate([rng.uniform(-5.0, 5.0, 2000), [0.0, -0.0, 1.0, -1.0, 5e-324]])
    for n in (2, 3, 4, 5):
        arr = xs ** n
        # ndarray: its own **, whose square is x * x and whose higher
        # powers are numpy's pow loop
        assert elliptic.ipow(xs, n).tobytes() == arr.tobytes()
        for x, want in zip(xs.tolist(), arr.tolist()):
            # Python float: the bits of the array loop, as a Python float
            got = elliptic.ipow(x, n)
            assert type(got) is float and got.hex() == want.hex()
            # numpy scalar: its own ** (libm's pow), not the float route
            x64 = np.float64(x)
            got64 = elliptic.ipow(x64, n)
            assert type(got64) is np.float64 and got64 == x64 ** n
    for x in (0.7, -2.5):
        assert elliptic.ipow(x, 0) == 1.0 and elliptic.ipow(x, 1) == x
    with mpmath.workdps(50):
        x = mpmath.mpf(1) / 3
        for n in (2, 3, 5):
            got = elliptic.ipow(x, n)
            assert isinstance(got, mpmath.mpf) and got == x ** n


def test_jacobi_float_matches_one_element_array(rng):
    us = [*rng.uniform(-60.0, 60.0, 200).tolist(), 0.0, -0.0, 5e-324, 1e-300, -1e-8]
    for k in (0.0, 1e-9, 1e-4, 0.05, 0.3, 0.7071067811865476, 0.9, 0.999, 1.0 - 1e-9, 1.0):
        for u in us:
            got = elliptic.jacobi_at(u, k)
            sn, cn, dn, _, eps = elliptic.jacobi_arrays(np.array([u]), k)
            assert got[0] is u and got[1] == k
            if 0.0 < k < 1.0:
                assert all(type(g) is float for g in got[2:])
            assert [float(g).hex() for g in got[2:]] == \
                [float(w[0]).hex() for w in (sn, cn, dn, eps)], (u, k)


def _bits(values):
    """Each value's bits: ``.hex()`` of every float element, or an mpf's ``_mpf_``."""
    return [v._mpf_ if isinstance(v, mpmath.mpf) else [x.hex() for x in np.ravel(v).tolist()]
            for v in values]


@pytest.mark.parametrize("u,k,dps,route", [
    *((1.7, k, None, "_landen" if 0.0 < k < 1.0 else "jacobi_arrays")
      for k in (0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0)),
    (np.float64(1.7), 0.5, None, "jacobi_arrays"),
    (np.array(1.7), 0.5, None, "jacobi_arrays"),
    (np.array([-3.2, 0.0, 1.7, 9.4]), 0.5, None, "jacobi_arrays"),
    ("1.7", 0.5, 40, "jacobi_mp"),
    ("1.7", 0.5, 50, "jacobi_mp"),
], ids=["float-k0", "float-k1e-9", "float-k0.5", "float-k1-1e-9", "float-k1",
        "float64", "0d-array", "ndarray", "mpf-40", "mpf-50"])
def test_jacobi_at_routes_by_argument_type(monkeypatch, u, k, dps, route):
    # the first of the three routes that jacobi_at enters (jacobi_arrays
    # itself runs _landen on 0 < k < 1), and the bits of that route's own call
    calls = []
    for name in ("_landen", "jacobi_arrays", "jacobi_mp"):
        real = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    with mpmath.workdps(dps or 15):
        u = mpmath.mpf(u) if dps else u
        got = elliptic.jacobi_at(u, k)
        monkeypatch.undo()
        if dps:
            want = jacobi_mp(u, k)
            assert got[0] is u and got[1] == mpmath.mpf(k)
            assert all(type(g) is mpmath.mpf for g in got[1:])
        else:
            want = jacobi_arrays(np.atleast_1d(np.asarray(u, dtype=float)), k)
            assert got[0] is u if type(u) is float else type(got[0]) is np.ndarray
            assert type(got[1]) is float and got[1] == k
        assert calls[0] == route
        assert _bits(got[2:]) == _bits([want[0], want[1], want[2], want[4]])


def test_complete_E_against_quadrature():
    for k in (0.3, 0.8):
        oracle = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)[0]
        assert complete_E(k) == pytest.approx(oracle, abs=1e-13)


def _agm_chain_mp_reference(k):
    """The mpmath AGM chain (a_i, c_i, E/K) as ``elliptic`` built it before
    the chain carried the Landen loop's per-level constants: a_0 the float 1.0."""
    a, b, c = [1.0], [mpmath.sqrt((1.0 - k) * (1.0 + k))], [k]
    while abs(c[-1]) > 4.0 * mpmath.eps * a[-1] and len(a) < 64:
        a, b, c = (a + [0.5 * (a[-1] + b[-1])], b + [mpmath.sqrt(a[-1] * b[-1])],
                   c + [0.5 * (a[-1] - b[-1])])
    return a, c, 1.0 - mpmath.fsum(2.0 ** (i - 1) * c[i] ** 2 for i in range(len(c)))


def _landen_mp_reference(u, k, chain):
    """The mpmath branch of ``elliptic._landen`` in the mpf wrappers, as it
    was before it ran on libmp tuples."""
    sin, cos, sqrt, asin = mpmath.sin, mpmath.cos, mpmath.sqrt, mpmath.asin
    half, one, two = mpmath.mpf(0.5), mpmath.mpf(1), mpmath.mpf(2)
    a, c, e_over_k = chain
    n = len(a) - 1
    phi = (two ** n * a[n]) * u
    sn = sin(phi)
    esum = c[n] * sn if n >= 1 else 0.0
    for i in range(n, 0, -1):
        phi = half * (phi + asin(max(min(c[i] / a[i] * sn, one), -one)))
        sn = sin(phi)
        if i > 1:
            esum = esum + c[i - 1] * sn
    dn = sqrt(one - (k * sn) ** 2)
    return sn, cos(phi), dn, phi, e_over_k * u + esum


def _mpf_bits(values):
    return [v._mpf_ for v in values]


@pytest.mark.parametrize("dps", [40, 50, 80])
def test_landen_mp_has_the_bits_of_the_mpf_wrappers(dps, monkeypatch):
    rng = np.random.default_rng(dps)
    ks = [*rng.uniform(0.0, 1.0, 12), *(1.0 - 10.0 ** rng.uniform(-9.0, -6.0, 6)),
          *(10.0 ** rng.uniform(-12.0, -3.0, 6)), 1.0 - 1e-9, 1e-60]
    us = [*rng.uniform(-30.0, 30.0, 12), 0.0, 1e-300, math.nan]
    with mpmath.workdps(dps):
        for k in map(mpmath.mpf, ks):
            chain = _agm_chain_mp_reference(k)
            a, c, e_over_k = elliptic._agm_chain(k)[:3]
            assert _mpf_bits(a) == _mpf_bits(map(mpmath.mpf, chain[0]))
            assert _mpf_bits(c) == _mpf_bits(chain[1]) and e_over_k._mpf_ == chain[2]._mpf_
            for u in map(mpmath.mpf, us):
                got = jacobi_mp(u, k)
                assert all(type(g) is mpmath.mpf for g in got)
                assert _mpf_bits(got) == _mpf_bits(_landen_mp_reference(u, k, chain)), (k, u)
        # the clip: a chain with c_i / a_i up to about 3 sends |c_i / a_i sn|
        # past 1, and the loop's arcsine then reads exactly 1 or -1
        asin_args = []

        def asin(s, *args):
            asin_args.append(s)
            return mpf_asin(s, *args)
        mpf_asin = elliptic.libmp.mpf_asin
        for k in map(mpmath.mpf, (0.3, 0.9, 1.0 - 1e-9)):
            a, c, e_over_k = _agm_chain_mp_reference(k)
            c = [c[0], *(3 * ci for ci in c[1:])]
            n = len(a) - 1
            forged = (tuple(a), tuple(c), e_over_k, tuple(ci / ai for ci, ai in zip(c, a)),
                      2.0 ** n * a[n])
            monkeypatch.setattr(elliptic, "_agm_chain", lambda kk: forged)
            monkeypatch.setattr(elliptic.libmp, "mpf_asin", asin)
            for u in map(mpmath.mpf, us):
                got = elliptic._landen_mp(u, k)
                assert _mpf_bits(got) == _mpf_bits(_landen_mp_reference(u, k, (a, c, e_over_k)))
            monkeypatch.undo()
        clipped = [s for s in asin_args if s in (mpmath.libmp.fone, mpmath.libmp.fnone)]
        assert len(clipped) > len(us)
