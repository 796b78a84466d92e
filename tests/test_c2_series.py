"""The small-k series of the C2 kernels against mpmath, the paper's leading
profiles, and the generator that wrote them."""

import hashlib
import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cartanconj import c2_series_tables
from cartanconj import conjugate as cj
from cartanconj import maxwell as mx
from cartanconj.flow import EllipticCoord, Stratum

# the moduli the series screens (all of C2 below C2_MP_K), down to near C6
KS = (0.005, 0.02, 0.05, 0.1, 0.15, 0.19, 0.1999)
# amplitudes of the Maxwell scan (p from 1e-3 to 2K, so u1 up to pi) and of
# the J1 scan grid (up to its cap of about 3 t_max1, u1 near 7)
US = np.concatenate([np.geomspace(1e-3, 0.5, 12, endpoint=False),
                     np.linspace(0.5, math.pi, 24), np.linspace(3.2, 7.5, 12)])
KERNELS = {"fz": mx.fz_c2_kernel, "fv": mx.fv_c2_kernel,
           "a01": mx.a01_c2_kernel, "a21": mx.a21_c2_kernel}


def _mp_kernel_args(u, k):
    """The C2 kernels' arguments at amplitude u from mpmath's own integrals."""
    u, k = mpmath.mpf(u), mpmath.mpf(k)
    m = k * k
    return (k, m, mpmath.ellipf(u, m), mpmath.ellipe(u, m), mpmath.sin(u), mpmath.cos(u),
            mpmath.sqrt(1 - m * mpmath.sin(u) ** 2))


@pytest.mark.parametrize("k", KS)
def test_series_within_bound_of_mpmath(k):
    # 80 digits: at k = 0.005, a21 ~ k**17 against O(1) monomials keeps
    # about 11 of 50
    with mpmath.workdps(80):
        args = [_mp_kernel_args(u, k) for u in US]
        for name, kernel in KERNELS.items():
            value, bound = mx.c2_series(name, US, k)
            exact = np.array([float(kernel(*a)[0]) for a in args])
            assert np.all(np.abs(value - exact) <= bound), name
            # far below the values it screens, away from the roots and u -> 0
            assert np.median(bound / np.abs(exact)) < 1e-5, name


def test_j1_series_within_bound_of_mpmath():
    rng = np.random.default_rng(3)
    for k in KS:
        for _ in range(2):
            ec = EllipticCoord(Stratum.C2, rng.uniform(0.0, 6.0), k, rng.uniform(0.3, 3.0),
                               rng.uniform(-2.0, 2.0))
            t_max = mx.C2_FORMS.maxwell_time(k, math.sqrt(ec.alpha))[0]
            # the scan grid starts at 0.3 t_max or later and stops just past t_max
            ts = np.concatenate([np.linspace(0.3 * t_max, 1.2 * t_max, 14),
                                 t_max * (1.0 + np.array([-1e-3, -1e-6, 1e-6, 1e-3])),
                                 [2.0 * t_max, 3.0 * t_max]])
            value, bound = cj._j1_c2_series(ec, ts)
            exact = np.array([cj._j1_scalar_mp(ec, float(t), 80) for t in ts])
            assert np.all(np.abs(value - exact) <= bound), (k, ec)


def test_leading_orders_are_the_paper_profiles():
    u = np.linspace(1e-3, math.pi, 400)
    fv0 = ((32 * u * u - 1) * np.cos(2 * u) - 8 * u * np.sin(2 * u) + np.cos(6 * u)) / 512
    k = 1e-9                # the k**2 orders fall under 1e-17 relative
    for name, profile in (("fz", cj.fz0(u)), ("fv", fv0), ("a01", 3.0 / 2048 * cj.a010(u)),
                          ("a21", cj.a210(u) / 4194304)):
        lead = mx.c2_series(name, u, k)[0] / k ** c2_series_tables.SERIES[name][0]
        assert np.max(np.abs(lead - profile)) <= 1e-13, name


def test_tables_match_their_generator():
    # the module records the digest of the script that wrote it and of its
    # tables; ``python tools/gen_c2_series.py --check`` regenerates them
    script = Path(__file__).resolve().parents[1] / "tools" / "gen_c2_series.py"
    assert hashlib.sha256(script.read_bytes()).hexdigest() == c2_series_tables.GENERATOR_SHA256
    assert hashlib.sha256(repr(c2_series_tables.SERIES).encode()).hexdigest() \
        == c2_series_tables.TABLES_SHA256
    assert {name: table[0] for name, table in c2_series_tables.SERIES.items()} \
        == {"fz": 3, "fv": 8, "a01": 8, "a21": 17}


def test_generator_reproduces_the_tables():
    # ``tools/gen_c2_series.py --check`` in-process: the kernels of today give
    # the committed tables (about 3 s; needs sympy, which the package does not)
    pytest.importorskip("sympy")
    script = Path(__file__).resolve().parents[1] / "tools" / "gen_c2_series.py"
    spec = importlib.util.spec_from_file_location("gen_c2_series", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render(gen.tables()) == Path(c2_series_tables.__file__).read_text()
