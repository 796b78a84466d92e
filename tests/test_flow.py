import math

import numpy as np
import pytest

from cartanconj import conjugate as cj
from cartanconj import flow as fl
from cartanconj.errors import NumericalError, StratumError
from cartanconj.flow import (Covector, EllipticCoord, JacobianPath, Stratum,
                             classify, dilate_covector,
                             exp_jacobian, exp_jacobian_fd, exp_map,
                             exp_trajectory, from_elliptic,
                             pendulum_flow, reflect3, rotate_covector,
                             to_elliptic)
from cartanconj.flow import _gdot, _rhs_two_fields, _rhs_variational
from cartanconj.group import dilate, rotate
from cartanconj.verify import flow_suite, random_c1, random_c2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify(Covector(0.3, 0.0, 1.0, 0.3)) is Stratum.C4
    assert classify(Covector(0.0, 1.0, 0.0, 0.0)) is Stratum.C6
    assert classify(Covector(0.5, 3.0, 1.0, 0.5)) is Stratum.C2
    assert classify(Covector(0.0, 0.0, 0.0, 0.0)) is Stratum.C7
    # E = alpha with theta - beta = pi: unstable equilibrium
    assert classify(Covector(0.2 + math.pi, 0.0, 1.0, 0.2)) is Stratum.C5
    # E = alpha away from the equilibrium: separatrix
    c = math.sqrt(2.0 * (1.0 + math.cos(0.7)))
    assert classify(Covector(0.7, c, 1.0, 0.0)) is Stratum.C3
    # oscillatory band
    assert classify(Covector(0.0, 1.0, 1.0, 0.0)) is Stratum.C1


def test_classify_invariant_under_reflection(rng):
    for _ in range(50):
        lam = Covector(rng.uniform(0, 2 * math.pi), rng.uniform(-3, 3),
                       rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        assert classify(reflect3(lam)) is classify(lam)


def test_reflect3_involution_and_example():
    lam = Covector(0.3, 1.2, 1.0, 0.5)
    r = reflect3(lam)
    assert r.theta == pytest.approx(2 * math.pi - 0.3)
    assert r.c == -1.2
    assert r.alpha == 1.0
    assert r.beta == pytest.approx(2 * math.pi - 0.5)
    rr = reflect3(r)
    assert rr.theta == pytest.approx(lam.theta)
    assert rr.c == lam.c
    assert rr.beta == pytest.approx(lam.beta)


# ---------------------------------------------------------------------------
# elliptic coordinates
# ---------------------------------------------------------------------------

def test_to_elliptic_energy_example():
    lam = Covector(0.9, math.sqrt(2.0), 1.0, 0.9)
    ec = to_elliptic(lam)
    assert ec.stratum is Stratum.C1
    assert ec.k == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_to_elliptic_reference_phase():
    # theta = beta with c = 2 k sqrt(alpha): phi = 0 by convention
    k, alpha = 0.4, 1.3
    lam = Covector(0.7, 2.0 * k * math.sqrt(alpha), alpha, 0.7)
    ec = to_elliptic(lam)
    assert ec.phi % ec.period() == pytest.approx(0.0, abs=1e-12)


def test_to_elliptic_rejects_boundary():
    lam = Covector(0.2 + math.pi, 0.0, 1.0, 0.2)   # C5
    with pytest.raises(StratumError):
        to_elliptic(lam)


def test_roundtrip_c1_c2_c3(rng):
    for _ in range(80):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        back = from_elliptic(to_elliptic(lam))
        assert abs((back.theta - lam.theta + math.pi) % (2 * math.pi) - math.pi) < 1e-10
        assert back.c == pytest.approx(lam.c, abs=1e-10)
    # separatrix round trip
    for sgn in (1, -1):
        psi = 0.9
        c = sgn * math.sqrt(2.0 * (1.0 + math.cos(psi)))
        lam = Covector(psi + 0.4, c, 1.0, 0.4)
        assert classify(lam) is Stratum.C3
        back = from_elliptic(to_elliptic(lam))
        assert abs((back.theta - lam.theta + math.pi) % (2 * math.pi) - math.pi) < 1e-10
        assert back.c == pytest.approx(lam.c, abs=1e-10)


def test_pendulum_flow_equilibria_and_free():
    lam = Covector(0.3, 0.0, 1.0, 0.3)           # C4
    out = pendulum_flow(lam, 5.0)
    assert out.theta == lam.theta and out.c == 0.0
    lam = Covector(1.0, 0.7, 0.0, 0.0)           # alpha = 0
    out = pendulum_flow(lam, 2.0)
    assert out.theta == pytest.approx((1.0 + 1.4) % (2 * math.pi))


def test_pendulum_full_period(rng):
    for _ in range(5):
        lam = random_c1(rng)
        ec = to_elliptic(lam)
        out = pendulum_flow(lam, ec.period())
        assert abs((out.theta - lam.theta + math.pi) % (2 * math.pi) - math.pi) < 1e-9
        assert out.c == pytest.approx(lam.c, abs=1e-9)


def test_pendulum_phase_advance(rng):
    for _ in range(10):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        ec = to_elliptic(lam)
        dt = rng.uniform(0.2, 1.5)
        ec2 = to_elliptic(pendulum_flow(lam, dt))
        period = ec.period()
        adv = (ec2.phi - ec.phi - dt) % period
        assert min(adv, period - adv) < 1e-9


# ---------------------------------------------------------------------------
# exponential map
# ---------------------------------------------------------------------------

def test_exp_map_t0_is_identity():
    g = exp_map(Covector(0.4, 1.0, 0.5, 0.1), 0.0)
    assert np.allclose(g.as_array(), 0.0)


def test_exp_map_c7_line():
    # straight-line (x, y) projection; z = v = 0, w = -t^3/6 in these coordinates
    g = exp_map(Covector(0.0, 0.0, 0.0, 0.0), 2.0)
    assert g.x == pytest.approx(2.0, abs=1e-10)
    assert abs(g.y) < 1e-12 and abs(g.z) < 1e-12 and abs(g.v) < 1e-12
    assert g.w == pytest.approx(-(2.0 ** 3) / 6.0, abs=1e-10)


def test_exp_map_c6_circle_fit():
    c0 = 1.0
    lam = Covector(0.0, c0, 0.0, 0.0)
    traj = exp_trajectory(lam, 2.0 * math.pi / abs(c0) * 0.9, 200)
    x, y = traj[:, 1], traj[:, 2]
    # brute-force circle fit (Kasa): solve for center and radius
    A = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    b = x * x + y * y
    (cx, cy, d), *_ = np.linalg.lstsq(A, b, rcond=None)
    radius = math.sqrt(d + cx * cx + cy * cy)
    assert radius == pytest.approx(1.0 / abs(c0), abs=1e-8)
    assert np.max(np.abs(np.hypot(x - cx, y - cy) - radius)) < 1e-8


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, -1.5])
@pytest.mark.parametrize("t", [0.7, 3.14, 10.0, 25.0])
def test_exp_map_c6_closed_form(c, t):
    # alpha = 0: theta = c t and every coordinate integrates in closed form
    a = c * t
    exact = np.array([
        math.sin(a) / c,
        (1.0 - math.cos(a)) / c,
        (a - math.sin(a)) / (2.0 * c * c),
        (1.0 - math.cos(a) - 0.5 * math.sin(a) ** 2) / c ** 3,
        (0.5 * a + 0.25 * math.sin(2.0 * a) - math.sin(a)) / c ** 3,
    ])
    g = exp_map(Covector(0.0, c, 0.0, 0.0), t).as_array()
    # relative to the size of the endpoint: single coordinates can be tiny
    # differences of O(1/c^3) terms, which the closed form itself cancels
    assert np.max(np.abs(g - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_exp_against_hamiltonian_form(rng):
    """Cross-check the theta-chart integration against the h-coordinates ODE."""
    from scipy.integrate import solve_ivp

    def rhs_h(t, s):
        h1, h2, h3, h4, h5, x, y, z, v, w = s
        r2h = 0.5 * (x * x + y * y)
        return [-h2 * h3, h1 * h3, h1 * h4 + h2 * h5, 0.0, 0.0,
                h1, h2, 0.5 * (x * h2 - y * h1), r2h * h2, -r2h * h1]

    for _ in range(4):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        t = rng.uniform(1.0, 4.0)
        h = lam.h
        sol = solve_ivp(rhs_h, (0, t), [*h, 0, 0, 0, 0, 0], rtol=1e-12, atol=1e-12)
        assert sol.success
        g = exp_map(lam, t)
        assert np.allclose(g.as_array(), sol.y[5:, -1], atol=1e-9)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_non_finite_end_time_raises(t_end):
    # no step reaches it: the solver would loop for ever
    with pytest.raises(ValueError, match="needs a finite end time"):
        fl.dop853(lambda t, y: -y, t_end, np.ones(2))
    with pytest.raises(ValueError):
        exp_map(Covector(0.3, 1.0, 1.0, 0.0), t_end)


def test_verify_casimir_drift_seed_13():
    # a 5th-order integrator at the same tolerances drifts 1.3e-9 on this
    # seed's extremals; the check keeps its 1e-9 bound
    from cartanconj.verify import run_suites

    (casimir,) = [r for r in run_suites(["flow"], seed=13) if "Casimir" in r.name]
    assert casimir.passed, casimir


def test_arclength(rng):
    lam = random_c1(rng)
    t_end = 5.0
    lengths = []
    for m in (2001, 4001):
        traj = exp_trajectory(lam, t_end, m)
        lengths.append(float(np.sum(np.hypot(np.diff(traj[:, 1]), np.diff(traj[:, 2])))))
    extrap = lengths[1] + (lengths[1] - lengths[0]) / 3.0
    assert extrap == pytest.approx(t_end, abs=1e-8)


# ---------------------------------------------------------------------------
# symmetries of the exponential map
# ---------------------------------------------------------------------------

def test_rotation_commutes(rng):
    for _ in range(15):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        s = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0.5, 4.0)
        left = exp_map(rotate_covector(lam, s), t).as_array()
        right = rotate(exp_map(lam, t), s).as_array()
        assert np.allclose(left, right, atol=1e-9)


def test_rotation_full_turn_identity():
    lam = Covector(0.3, 1.1, 0.8, 0.9)
    out = rotate_covector(lam, 2 * math.pi)
    assert out.theta == pytest.approx(lam.theta, abs=1e-12)
    assert out.beta == pytest.approx(lam.beta, abs=1e-12)


def test_dilation_commutes(rng):
    for _ in range(15):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        r = rng.uniform(-0.7, 0.7)
        t = rng.uniform(0.5, 3.0)
        lam2, scale = dilate_covector(lam, r)
        assert scale == pytest.approx(math.exp(r))
        left = exp_map(lam2, t * scale).as_array()
        right = dilate(exp_map(lam, t), r).as_array()
        assert np.allclose(left, right, atol=1e-9)


# ---------------------------------------------------------------------------
# variational Jacobian
# ---------------------------------------------------------------------------

def _rhs_variational_numpy(t, yflat, alpha, beta):
    """The row-sliced numpy form that the scalar right-hand side replaced."""
    dalpha = np.array([0.0, 0.0, 1.0, 0.0])
    dbeta = np.array([0.0, 0.0, 0.0, 1.0])
    Y = yflat.reshape(5, 7)
    out = np.empty((5, 7))
    th, c, x, y = Y[0, 0], Y[0, 1], Y[0, 2], Y[0, 3]
    st, ct = math.sin(th), math.cos(th)
    sa, ca = math.sin(th - beta), math.cos(th - beta)
    r2h = 0.5 * (x * x + y * y)
    out[0] = (c, -alpha * sa, ct, st, 0.5 * (x * st - y * ct), r2h * st, -r2h * ct)
    D = Y[1:]
    dth, dc, dx, dy = D[:, 0], D[:, 1], D[:, 2], D[:, 3]
    xdx = x * dx + y * dy
    out[1:, 0] = dc
    out[1:, 1] = -dalpha * sa - alpha * ca * (dth - dbeta)
    out[1:, 2] = -st * dth
    out[1:, 3] = ct * dth
    out[1:, 4] = 0.5 * (dx * st - dy * ct) + 0.5 * (x * ct + y * st) * dth
    out[1:, 5] = xdx * st + r2h * ct * dth
    out[1:, 6] = -xdx * ct + r2h * st * dth
    return out.ravel()


def _variational_states(rng):
    """(5x7 state, alpha, beta) draws at three scales, with signed zeros."""
    for scale in (1e-8, 1.0, 100.0):
        for _ in range(7000):
            state = scale * rng.standard_normal(35)
            pick = rng.random(35)
            state[pick < 0.1] = 0.0
            state[(pick >= 0.1) & (pick < 0.2)] = -0.0
            alpha = 0.0 if rng.random() < 0.05 else rng.uniform(0.0, 3.0)
            yield state, alpha, rng.uniform(-7.0, 7.0)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_rhs_variational_bits_match_numpy_form(rng):
    # values and signs of zeros alike, so every J0 is unchanged
    for state, alpha, beta in _variational_states(rng):
        _assert_same_bits(_rhs_variational(0.0, state, alpha, beta),
                          _rhs_variational_numpy(0.0, state, alpha, beta))


def test_rhs_two_fields_bits_match_four_field_form(rng):
    # the extremal and the fields along theta0 and c0, signs of zeros included
    for state, alpha, beta in _variational_states(rng):
        _assert_same_bits(_rhs_two_fields(0.0, state[:21], alpha, beta),
                          _rhs_variational(0.0, state, alpha, beta)[:21])


def test_two_field_jacobian_matches_four_field(rng):
    # the closed-form rotation and dilation fields against exp_jacobian, which
    # integrates all four: J0 values, and the first zero of the cross-check
    for i in range(6):
        lam = random_c1(rng) if i % 2 == 0 else random_c2(rng)
        t_conj = cj.first_conjugate_time(lam).t_conj
        cap = 1.05 * t_conj
        jp = JacobianPath(lam, cap)
        ts = np.linspace(0.3, cap, 8)
        want = np.array([exp_jacobian(lam, t) for t in ts])
        assert np.max(np.abs(jp.values(ts) - want)) <= 1e-6 * np.max(np.abs(want))
        t_v = cj._first_zero_variational(lam, 0.3, cap).root
        lo, hi = exp_jacobian(lam, t_v * (1.0 - 1e-8)), exp_jacobian(lam, t_v * (1.0 + 1e-8))
        assert lo * hi < 0.0


def test_jacobian_nonzero_for_short_arcs(rng):
    for _ in range(5):
        lam = random_c1(rng, k_range=(0.2, 0.8))
        jp = JacobianPath(lam, 1.0)
        vals = jp.values(np.linspace(0.3, 1.0, 10))
        assert np.all(vals != 0.0)
        assert np.all(np.sign(vals) == np.sign(vals[0]))


@pytest.mark.parametrize("stratum,k", [(Stratum.C1, 0.7), (Stratum.C2, 0.6)])
def test_jacobian_values_match_pointwise(stratum, k):
    lam = from_elliptic(EllipticCoord(stratum, 0.3, k, 1.2, 0.4))
    jp = JacobianPath(lam, 15.0)
    ts = np.linspace(0.1, 15.0, 900)

    def pointwise(t):
        # one 5x5 matrix from the scalar dense-output call:
        # [J_theta, J_c, -Y(g) / (2 alpha), R(g), gdot]
        Y = jp.path(t).reshape(3, 7)
        x, y, z, v, w = Y[0, 2:]
        dilation = np.array([x, y, 2.0 * z, 3.0 * v, 3.0 * w]) / (-2.0 * lam.alpha)
        rotation = np.array([-y, x, 0.0, -w, v])
        return np.linalg.det(np.column_stack([*Y[1:, 2:], dilation, rotation, _gdot(Y[0])]))

    vals = jp.values(ts)
    assert np.array_equal(vals, [jp(t) for t in ts])
    assert np.array_equal(vals, [pointwise(t) for t in ts])


def test_jacobian_fd_agreement(rng):
    # the C1 draw of verify --seed 40 (k = 0.945): J0 is only 2.3e-10 there,
    # and one central difference misses it by 2.1e-4 relative
    draws = [(Covector(3.0082732219165242, -0.41155328923927204,
                       0.8758209179706595, 5.340290606582187), 1.294161094686287)]
    for _ in range(5):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        draws.append((lam, rng.uniform(1.0, 4.0)))
    for lam, t in draws:
        jv = exp_jacobian(lam, t)
        jf = exp_jacobian_fd(lam, t)
        assert jf == pytest.approx(jv, rel=1e-4)


def test_flow_suite_passes_at_seed_92():
    # one central difference a side missed the 5x5 Jacobian relation here
    # by 1.16e-4 relative; the Richardson values miss it by 1.8e-6
    failed = [r.line() for r in flow_suite(92) if not r.passed]
    assert not failed


def test_pendulum_phase_advance_separatrix():
    # C3 has no period; the phase advance holds without wrapping
    psi = 0.9
    c = math.sqrt(2.0 * (1.0 + math.cos(psi)))
    lam = Covector(psi + 0.4, c, 1.0, 0.4)
    assert classify(lam) is Stratum.C3
    ec = to_elliptic(lam)
    dt = 1.3
    ec2 = to_elliptic(pendulum_flow(lam, dt))
    assert ec2.phi - ec.phi == pytest.approx(dt, abs=1e-9)


# ---------------------------------------------------------------------------
# the DOP853 port: bit for bit scipy's solver, which stays as the oracle
# ---------------------------------------------------------------------------

def _covector(stratum, rng):
    if stratum is Stratum.C1:
        return random_c1(rng)
    if stratum is Stratum.C2:
        return random_c2(rng)
    if stratum is Stratum.C3:
        return from_elliptic(EllipticCoord(Stratum.C3, rng.uniform(-2.0, 2.0), 1.0,
                                           rng.uniform(0.3, 2.0), rng.uniform(0.0, 6.0),
                                           1 if rng.random() < 0.5 else -1))
    return Covector(rng.uniform(0.0, 6.0), rng.uniform(-2.0, 2.0), 0.0, rng.uniform(0.0, 6.0))


# each flow as its public entry point runs it, for a covector and an end time
_FLOWS = {
    "pendulum": lambda lam, t: (fl.pendulum_flow(lam, t), fl.pendulum_flow(lam, -t)),
    "extremal": lambda lam, t: (fl.exp_map(lam, t), fl.exp_trajectory(lam, t, 50)),
    "variational": lambda lam, t: fl.JacobianPath(lam, t),
    "four_field": lambda lam, t: fl.exp_jacobian(lam, t),
    "batched": lambda lam, t: fl.exp_jacobian_fd(lam, t),
}


def _integrations(monkeypatch, run):
    """(fun, t_end, y0, args, options, path) of every dop853 call that run makes."""
    calls = []
    real = fl.dop853

    def record(fun, t_end, y0, args=(), **options):
        y0 = np.array(y0, dtype=float)
        path = real(fun, t_end, y0.copy(), args, **options)
        calls.append((fun, t_end, y0, args, options, path))
        return path

    with monkeypatch.context() as m:
        m.setattr(fl, "dop853", record)
        run()
    return calls


def _assert_scipy_bits(fun, t_end, y0, args, options, path):
    from scipy.integrate import solve_ivp

    dense = options.get("dense", False)
    sol = solve_ivp(fun, (0.0, t_end), y0, method="DOP853", args=args,
                    rtol=options.get("rtol", fl.ODE_RTOL),
                    atol=options.get("atol", fl.ODE_ATOL), dense_output=dense)
    assert sol.success
    assert path.t.shape == sol.t.shape and path.t.tobytes() == sol.t.tobytes()
    assert path.y.tobytes() == sol.y[:, -1].tobytes()
    if dense:
        for ts in (np.linspace(0.0, t_end, 900), sol.t):
            want = sol.sol(ts).T
            got = path(ts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        t = 0.37 * t_end
        assert path(t).shape == sol.sol(t).shape
        assert path(t).tobytes() == sol.sol(t).tobytes()


@pytest.mark.parametrize("flow,stratum", [
    (flow, stratum) for flow in sorted(_FLOWS)
    for stratum in (Stratum.C1, Stratum.C2, Stratum.C3, Stratum.C6)
    # at alpha = 0 (C6) the pendulum flow is closed form and integrates nothing
    if not (flow == "pendulum" and stratum is Stratum.C6)])
def test_dop853_bits_match_scipy(flow, stratum, rng, monkeypatch):
    # step times, final state and dense output, for end times well past the
    # first step and shorter than it (one step, clipped to t_end)
    for _ in range(2):
        lam = _covector(stratum, rng)
        assert classify(lam) is stratum
        if flow == "variational" and stratum is Stratum.C6:
            # the closed-form dilation field divides by alpha = 0
            with pytest.raises(ValueError, match="alpha > 0"):
                _integrations(monkeypatch, lambda: _FLOWS[flow](lam, 2.0))
            continue
        for t_end in (rng.uniform(2.0, 15.0), 1e-9):
            calls = _integrations(monkeypatch, lambda: _FLOWS[flow](lam, t_end))
            assert calls
            if flow == "extremal":      # exp_map reads the end state alone
                assert not calls[0][4].get("dense", False)
            for call in calls:
                _assert_scipy_bits(*call)
                assert (len(call[-1].t) == 2) == (t_end == 1e-9)


def test_dop853_zero_time_is_constant(monkeypatch):
    lam = Covector(0.4, 1.0, 0.5, 0.1)
    calls = _integrations(monkeypatch, lambda: fl.casimir_drift(lam, 0.0))
    (call,) = calls
    assert len(call[-1].t) == 2
    _assert_scipy_bits(*call)


def test_dop853_tables_match_scipy():
    from scipy.integrate._ivp import dop853_coefficients as scipy_tables

    from cartanconj import dop853_tables

    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853_tables, name) == getattr(scipy_tables, name)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(dop853_tables, name), getattr(scipy_tables, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.strides == theirs.strides
        assert ours.tobytes() == theirs.tobytes()


def test_dop853_too_small_step_raises(monkeypatch):
    from scipy.integrate import solve_ivp

    # y' = y^2 blows up at t = 1: the step shrinks below ten float spacings there
    sol = solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853",
                    rtol=fl.ODE_RTOL, atol=fl.ODE_ATOL)
    assert not sol.success
    with pytest.raises(NumericalError, match=f"^ODE integration failed: {sol.message}$"):
        fl.dop853(lambda t, y: y * y, 2.0, [1.0])
    monkeypatch.setattr(fl, "_rhs_two_fields", lambda t, y, alpha, beta: y * y)
    with pytest.raises(NumericalError, match="^variational integration failed: Required step"):
        JacobianPath(Covector(0.0, 1.0, 1.0, 0.0), 2.0)
