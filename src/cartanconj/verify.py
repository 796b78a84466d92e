"""Named invariant suites behind ``cartanconj verify`` (and reused in tests).

Each check returns a CheckResult with the worst residual observed, so the
CLI can print one pass/fail line per invariant.  Grid sizes here are desk
scale; the pytest acceptance module runs the full-size versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from . import elliptic as el
from . import group as gr
from . import maxwell as mx
from . import conjugate as cj
from . import flow as fl
from .flow import Covector, EllipticCoord, Stratum


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: worst {self.worst:.3e} vs tol {self.tolerance:.1e}{extra}"


def _result(name, worst, tolerance, detail=""):
    return CheckResult(name, bool(worst < tolerance), float(worst), tolerance, detail)


def _random_elliptic(rng, forms, alpha_range, k_range) -> EllipticCoord:
    k = rng.uniform(*k_range)
    alpha = rng.uniform(*alpha_range)
    return EllipticCoord(forms.stratum, rng.uniform(0.0, forms.period(k, alpha)), k, alpha,
                         rng.uniform(0.0, 2 * math.pi))


def random_c1(rng, alpha_range=(0.5, 2.0), k_range=(0.05, 0.95)) -> Covector:
    return fl.from_elliptic(_random_elliptic(rng, mx.C1_FORMS, alpha_range, k_range))


def random_c2(rng, alpha_range=(0.5, 2.0), k_range=(0.3, 0.9)) -> Covector:
    ec = _random_elliptic(rng, mx.C2_FORMS, alpha_range, k_range)
    return fl.from_elliptic(replace(ec, direction=1 if rng.random() < 0.5 else -1))


# ---------------------------------------------------------------------------
# elliptic suite
# ---------------------------------------------------------------------------

def check_pythagorean(rng, n=1000):
    u = rng.uniform(-12.0, 12.0, n)
    ks = rng.uniform(0.0, 1.0, n)
    worst = 0.0
    for ui, ki in zip(u, ks):
        sn, cn, dn, _, _ = el.jacobi_arrays(ui, ki)
        worst = max(worst, abs(sn * sn + cn * cn - 1.0),
                    abs(dn * dn + ki * ki * sn * sn - 1.0))
    return _result("elliptic: sn^2+cn^2 = 1 and dn^2+k^2 sn^2 = 1", worst, 1e-11)


def check_eps_derivative(rng, n=20):
    h = 1e-5
    worst = 0.0
    for _ in range(n):
        k = rng.uniform(0.02, 0.98)
        u = rng.uniform(-6.0, 6.0)
        ep = float(el.jacobi_arrays(u + h, k)[4])
        em = float(el.jacobi_arrays(u - h, k)[4])
        dn = float(el.jacobi_arrays(u, k)[2])
        worst = max(worst, abs((ep - em) / (2 * h) - dn * dn))
    return _result("elliptic: dE/du = dn^2 (finite differences)", worst, 1e-8)


def check_f_am_roundtrip(rng, n=200):
    worst = 0.0
    for _ in range(n):
        k = rng.uniform(0.02, 0.98)
        K = el.complete_K(k)
        u = rng.uniform(-3.0 * K, 3.0 * K)
        worst = max(worst, abs(float(el.incomplete_F(el.am(u, k), k)) - u))
    return _result("elliptic: F(am(u)) = u on [-3K, 3K]", worst, 1e-11)


def check_periodicity(rng, n=50):
    worst = 0.0
    for _ in range(n):
        k = rng.uniform(0.02, 0.98)
        K = el.complete_K(k)
        u = rng.uniform(-5.0, 5.0)
        sn0, _, _, am0, _ = el.jacobi_arrays(u, k)
        sn1, _, _, am1, _ = el.jacobi_arrays(u + 4.0 * K, k)
        worst = max(worst, abs(float(sn1 - sn0)),
                    abs(float(am1 - am0) - 2.0 * math.pi))
    return _result("elliptic: sn(u+4K) = sn(u), am(u+4K) = am(u)+2pi", worst, 1e-10)


def check_complete_K_quadrature():
    # mpmath's tanh-sinh quadrature at its default 15 digits: no code shared with the AGM
    worst = 0.0
    for k in (0.3, 0.8, 0.95):
        oracle = float(mpmath.quad(lambda t: 1 / mpmath.sqrt(1 - (k * mpmath.sin(t)) ** 2),
                                   [0, mpmath.pi / 2]))
        worst = max(worst, abs(el.complete_K(k) - oracle))
    return _result("elliptic: K(k) matches quadrature", worst, 1e-12)


def elliptic_suite(seed=0):
    rng = np.random.default_rng(seed)
    return [
        check_pythagorean(rng),
        check_eps_derivative(rng),
        check_f_am_roundtrip(rng),
        check_periodicity(rng),
        check_complete_K_quadrature(),
    ]


# ---------------------------------------------------------------------------
# flow suite
# ---------------------------------------------------------------------------

def check_casimirs(rng, n=5, t_end=50.0):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        worst = max(worst, fl.casimir_drift(lam, t_end))
    return _result("flow: Casimir drift along length-50 extremals", worst, 1e-9)


def check_arclength(rng, n=3):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng)
        t_end = rng.uniform(3.0, 8.0)
        lengths = []
        for m in (2001, 4001):
            traj = fl.exp_trajectory(lam, t_end, m)
            seg = np.hypot(np.diff(traj[:, 1]), np.diff(traj[:, 2]))
            lengths.append(float(np.sum(seg)))
        # second-order Richardson extrapolation of the polyline length
        extrap = lengths[1] + (lengths[1] - lengths[0]) / 3.0
        worst = max(worst, abs(extrap - t_end))
    return _result("flow: (x, y) arclength equals t", worst, 1e-8)


def check_rotation_commutes(rng, n=20):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        s = rng.uniform(0.0, 2 * math.pi)
        t = rng.uniform(0.5, 4.0)
        left = fl.exp_map(fl.rotate_covector(lam, s), t).as_array()
        right = gr.rotate(fl.exp_map(lam, t), s).as_array()
        worst = max(worst, float(np.max(np.abs(left - right))))
    return _result("flow: rotation commutes with Exp", worst, 1e-9)


def check_dilation_commutes(rng, n=20):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        r = rng.uniform(-0.7, 0.7)
        t = rng.uniform(0.5, 3.0)
        lam2, scale = fl.dilate_covector(lam, r)
        left = fl.exp_map(lam2, t * scale).as_array()
        right = gr.dilate(fl.exp_map(lam, t), r).as_array()
        worst = max(worst, float(np.max(np.abs(left - right))))
    return _result("flow: dilation commutes with Exp (t -> t e^r)", worst, 1e-9)


def check_elliptic_roundtrip(rng, n=60):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        back = fl.from_elliptic(fl.to_elliptic(lam))
        worst = max(worst,
                    abs((back.theta - lam.theta + math.pi) % (2 * math.pi) - math.pi),
                    abs(back.c - lam.c))
    return _result("flow: covector <-> elliptic round trip", worst, 1e-10)


def check_pendulum_phase(rng, n=15):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        ec = fl.to_elliptic(lam)
        dt = rng.uniform(0.1, 2.0)
        ec2 = fl.to_elliptic(fl.pendulum_flow(lam, dt))
        period = ec.period()
        adv = (ec2.phi - ec.phi - dt) % period
        worst = max(worst, min(adv, period - adv))
    return _result("flow: pendulum_flow advances phi by dt", worst, 1e-9)


def _cd_det(f, x, h):
    """Determinant of the central-difference Jacobian of f at x, step h."""
    cols = []
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return float(np.linalg.det(np.column_stack(cols)))


def _richardson_det(f, x, h):
    """(4 D(h/2) - D(h)) / 3 for D = _cd_det: it cancels D's O(h^2) error."""
    return (4.0 * _cd_det(f, x, 0.5 * h) - _cd_det(f, x, h)) / 3.0


def check_coordinate_jacobian(rng, n=20):
    worst = 0.0
    for _ in range(n):
        g = gr.GroupPoint(*rng.uniform(-2.0, 2.0, 5))
        if g.r < 0.3:
            g = gr.GroupPoint(g.x + 1.0, g.y, g.z, g.v, g.w)
        det = _cd_det(lambda x: np.array(gr.invariant_coords(gr.GroupPoint.from_array(x))),
                      g.as_array(), 1e-6)
        target = 1.0 / (2.0 * g.r ** 9)
        worst = max(worst, abs(det - target) / abs(target))
    return _result("flow: |d(P,Q,R,r,chi)/dg| = 1/(2 r^9)", worst, 1e-6)


def check_pqr_invariance(rng, n=100):
    worst = 0.0
    for _ in range(n):
        g = gr.GroupPoint(*rng.uniform(-2.0, 2.0, 5))
        if g.r < 0.1:
            g = gr.GroupPoint(g.x + 0.5, g.y, g.z, g.v, g.w)
        base = gr.invariant_coords(g)
        rot = gr.invariant_coords(gr.rotate(g, rng.uniform(0, 2 * math.pi)))
        dil = gr.invariant_coords(gr.dilate(g, rng.uniform(-0.5, 0.5)))
        worst = max(worst, *(abs(rot[i] - base[i]) for i in range(3)),
                    *(abs(dil[i] - base[i]) for i in range(3)))
    return _result("flow: P, Q, R invariant under rotation and dilation", worst, 1e-10)


def check_jacobian_fd(rng, n=4):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        t = rng.uniform(1.0, 4.0)
        jv = fl.exp_jacobian(lam, t)
        jf = fl.exp_jacobian_fd(lam, t)
        worst = max(worst, abs(jv - jf) / max(abs(jv), 1e-12))
    return _result("flow: variational J0 matches central differences", worst, 1e-4)


def check_pqr_jacobian_relation(rng, n=3):
    """d(xyzvw)/d(t,phi,k,alpha,beta) = -(r^10/alpha) d(P,Q,R)/d(t,phi,k).

    Both sides are Richardson values of central differences, as in
    ``flow.exp_jacobian_fd``: single central differences with h = 1e-5 left
    an error of 1.2e-4 relative on a seed-92 draw.
    """
    worst = 0.0
    tried = 0
    while tried < n:
        lam = random_c1(rng, k_range=(0.2, 0.85))
        ec = fl.to_elliptic(lam)
        t = rng.uniform(1.5, 3.5)
        g = fl.exp_map(lam, t)
        if g.r < 0.3:
            continue
        tried += 1

        def endpoint(x):        # x = (t, phi, k, alpha, beta)
            ec2 = EllipticCoord(ec.stratum, *x[1:], ec.direction)
            return fl.exp_map(fl.from_elliptic(ec2), x[0])

        J5 = _richardson_det(lambda x: endpoint(x).as_array(),
                             np.array([t, ec.phi, ec.k, ec.alpha, ec.beta]), 1e-4)
        D3 = _richardson_det(
            lambda x: np.array(gr.invariant_coords(endpoint([*x, ec.alpha, ec.beta]))[:3]),
            np.array([t, ec.phi, ec.k]), 1e-4)
        target = -(g.r ** 10 / ec.alpha) * D3
        worst = max(worst, abs(J5 - target) / max(abs(target), 1e-12))
    return _result("flow: 5x5 Jacobian = -(r^10/alpha) d(P,Q,R)/d(t,phi,k)", worst, 1e-4)


def flow_suite(seed=0):
    rng = np.random.default_rng(seed)
    return [
        check_casimirs(rng),
        check_arclength(rng),
        check_rotation_commutes(rng),
        check_dilation_commutes(rng),
        check_elliptic_roundtrip(rng),
        check_pendulum_phase(rng),
        check_coordinate_jacobian(rng),
        check_pqr_invariance(rng),
        check_jacobian_fd(rng),
        check_pqr_jacobian_relation(rng),
    ]


# ---------------------------------------------------------------------------
# maxwell suite
# ---------------------------------------------------------------------------

def check_root_brackets():
    worst = 0.0
    for k in np.arange(0.05, 0.951, 0.05):
        k = float(k)
        K = el.complete_K(k)
        pz = mx.p1_z(k)
        pv1 = mx.p1_V(k, Stratum.C1)
        pv2 = mx.p1_V(k, Stratum.C2)
        ok = (K < pz < 3 * K) and (2 * K - 1e-9 <= pv1 < 4 * K) and (K < pv2 < 2 * K)
        if not ok:
            worst = 1.0
    pv0 = mx.p1_V0()
    if not math.pi / 2 < pv0 < math.pi:
        worst = 1.0
    return _result("maxwell: root brackets (K,3K), [2K,4K), (K,2K), (pi/2,pi)", worst, 0.5)


def check_min_pattern():
    k1, k0 = mx.critical_moduli()
    bad = 0
    for k in np.linspace(0.03, 0.97, 50):
        k = float(k)
        gap = mx.p1_z(k) - mx.p1_V(k, Stratum.C1)
        inside = k1 + 1e-6 < k < k0 - 1e-6
        if inside and gap < 0:
            bad += 1
        if not inside and not (k1 - 1e-6 <= k <= k0 + 1e-6) and gap > 0:
            bad += 1
    return _result("maxwell: min attained by p1z outside (k1,k0), by p1v inside",
                   float(bad), 0.5, f"k1={k1:.6f} k0={k0:.6f}")


def check_root_continuity():
    ks = np.linspace(0.1, 0.9, 33)
    pz = np.array([mx.p1_z(float(k)) for k in ks])
    worst = float(np.max(np.abs(np.diff(pz))))
    # p1v jumps at the lower critical modulus (a root pair appears there),
    # so its continuity is checked on k-grids away from that window
    k1, _ = mx.critical_moduli()
    for lo, hi in ((0.05, k1 - 0.02), (k1 + 0.02, 0.95)):
        ks = np.linspace(lo, hi, 25)
        pv = np.array([mx.p1_V(float(k), Stratum.C1) for k in ks])
        worst = max(worst, float(np.max(np.abs(np.diff(pv)))))
    return _result("maxwell: p1z, p1v continuous on k-grids (p1v: off the k1 jump)",
                   worst, 0.5)


def check_c6_limit():
    cbar = 2.0
    t_c6 = mx.t_max1(Covector(0.3, cbar, 0.0, 0.0)).t_max
    mu = 1e-4
    lam = Covector(0.3, cbar, mu, math.pi / 2.0)   # h4 = mu, h5 = 0
    t_c2 = mx.t_max1(lam).t_max
    worst = abs(t_c2 - t_c6) / t_c6
    return _result("maxwell: C2 -> C6 limit of t_max1 (h4 = 1e-4)", worst, 1e-3)


def check_tmax_scaling(rng, n=10):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng) if rng.random() < 0.5 else random_c2(rng)
        r = rng.uniform(-0.8, 0.8)
        lam2, scale = fl.dilate_covector(lam, r)
        t1 = mx.t_max1(lam).t_max
        t2 = mx.t_max1(lam2).t_max
        worst = max(worst, abs(t2 - scale * t1) / (scale * t1))
    return _result("maxwell: t_max1 scales by e^r under dilation", worst, 1e-9)


def maxwell_suite(seed=0):
    rng = np.random.default_rng(seed)
    return [
        check_root_brackets(),
        check_min_pattern(),
        check_root_continuity(),
        check_c6_limit(),
        check_tmax_scaling(rng),
    ]


# ---------------------------------------------------------------------------
# conjugate suite
# ---------------------------------------------------------------------------

# (alpha, beta) combinations cycled through the sign grids; the spec-level
# claim quantifies over the whole stratum, not just alpha = 1
_AB_COMBOS = [(1.0, 0.0), (0.5, 0.7), (2.0, 2.1), (1.3, 4.4),
              (0.7, 1.0), (1.7, 5.5), (0.9, 3.3), (1.1, 0.2)]


def _sign_grid_covectors(forms, ks, nphi):
    """(covector, t_max1) of a sign grid: nphi phases per modulus, with
    (alpha, beta) cycled through _AB_COMBOS."""
    combo = 0
    for k in ks:
        k = float(k)
        tm_sa = forms.maxwell_time(k)[0]
        for phi_frac in np.linspace(0.0, 1.0, nphi, endpoint=False):
            alpha, beta = _AB_COMBOS[combo % len(_AB_COMBOS)]
            combo += 1
            ec = EllipticCoord(forms.stratum, float(phi_frac) * forms.period(k, alpha),
                               k, alpha, beta)
            yield ec, tm_sa / math.sqrt(alpha)


def _sign_grid(forms, ks, nphi, nt, label):
    """Fail where J1 has the wrong sign on (0, t_max) over a (k, phase) grid:
    in float64 clear of the noise, at 50 digits at each covector's worst
    point under the noise, or at 60 digits at 0.3 and 0.7 of the scan start
    (every eighth modulus), below which float64 cannot resolve the sign."""
    worst = 0.0
    for ec, t_max in _sign_grid_covectors(forms, ks, nphi):
        ts = np.linspace(cj.scan_start_time(ec), t_max - 1e-6, nt)
        j1, noise = cj.j1_path(ec, ts)[:2]
        wrong = forms.j1_sign * j1 <= 0.0
        clear = np.abs(j1) > cj.SIGN_MARGIN * noise
        if np.any(wrong & clear):
            worst = 1.0
        amb = np.nonzero(wrong & ~clear)[0]
        if len(amb):
            i = amb[np.argmax(np.abs(j1[amb]))]
            val = cj._j1_scalar_mp(ec, float(ts[i]), 50)
            if not (forms.j1_sign * val > 0.0 or abs(val) < 1e-30):
                worst = 1.0
    for k in ks[::8]:
        k = float(k)
        ec = EllipticCoord(forms.stratum, forms.period(k) / 3.0, k, 1.0, 0.0)
        t_lo = cj.scan_start_time(ec)
        if any(forms.j1_sign * cj._j1_scalar_mp(ec, frac * t_lo, 60) <= 0.0
               for frac in (0.3, 0.7)):
            worst = 1.0
    return _result(f"conjugate: {label}", worst, 0.5)


def check_sign_grid_c1(nk=12, nphi=12, nt=200):
    return _sign_grid(mx.C1_FORMS, np.linspace(0.05, 0.95, nk), nphi, nt,
                      "J1 < 0 on (0, t_max) over a C1 (k,phi,alpha,beta) grid")


def check_sign_grid_c2(nk=12, npsi=12, nt=200):
    return _sign_grid(mx.C2_FORMS, np.linspace(0.3, 0.95, nk), npsi, nt,
                      "J1 > 0 on (0, t_max) over a C2 (k,psi,alpha,beta) grid")


def check_c1_coefficients(nk=8, nt=40):
    """a2 > 0, a0 < 0 and a0 + a1 + a2 < 0 on (0, p1(k))."""
    c1 = mx.C1_FORMS
    worst = 0.0
    for k in np.linspace(0.1, 0.9, nk):
        k = float(k)
        ps = np.linspace(0.3, c1.maxwell_root(k).root - 1e-6, nt)
        args = c1.args(ps, k)
        a0 = c1.fv(*args)[0] * c1.a01(*args)[0] / c1.a0_scale
        a2 = c1.fz(*args)[0] * c1.a21(*args)[0]
        s = a0 + c1.a1(a0, a2, k * k) + a2
        if np.any(a2 <= 0) or np.any(a0 >= 0) or np.any(s >= 0):
            worst = 1.0
    return _result("conjugate: a2 > 0, a0 < 0, a0+a1+a2 < 0 on (0, p1)", worst, 0.5)


def check_c2_endpoint_factorization():
    """At u1 = u_v1(k): J1 = -a2 xi (1 - xi)."""
    c2 = mx.C2_FORMS
    worst = 0.0
    for k in (0.35, 0.55, 0.75):
        t1 = c2.maxwell_time(k)[0]
        for phi in (0.1, 0.4, 0.9):
            ec = EllipticCoord(c2.stratum, phi, k, 1.0, 0.0)
            f = cj.j1_factors(ec, t1)
            target = -f.a2 * f.xi * (1.0 - f.xi)
            scale = max(abs(f.a2), 1e-30)
            worst = max(worst, abs(f.J1 - target) / scale)
    return _result("conjugate: J1 = -a2 xi(1-xi) at the fv root (C2)", worst, 1e-9)


def check_zero_agreement(rng, n=6):
    from .errors import SolverDisagreement
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng, k_range=(0.15, 0.9)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.35, 0.85))
        try:
            cj.first_conjugate_time(lam, cross_validate=True)
        except SolverDisagreement as exc:
            worst = max(worst, abs(exc.t_analytic - (exc.t_variational or math.inf)))
    return _result("conjugate: analytic and variational first zeros agree",
                   worst, cj.AGREEMENT_TOL, f"{n} random extremals")


def check_certificates(rng, n=200):
    worst = 0.0
    for _ in range(n):
        k = rng.uniform(0.05, 0.95)
        p = rng.uniform(0.1, 8.0)
        x2 = float(cj.certificate_x2(p, k))
        x1 = float(cj.certificate_x1(p, k))
        worst = max(worst, -min(x2, 0.0), -min(x1, 0.0))
    return _result("conjugate: certificates x2 >= 0 and x1 >= 0", worst, 1e-12)


def check_certificate_derivatives(rng, n=6):
    """(a01/fz)' fz^2 = (3/4) x2 and (a21/fv)' fv^2 = -(4/3) k^2 x1.

    The quotients are differenced under 40-digit mpmath: a01 and a21 are
    small differences of O(1) monomials, and their float64 roundoff over
    2h would swamp the derivative.
    """
    h = 1e-5
    worst = 0.0

    def slope(num, den, p, k):
        with mpmath.workdps(40):
            def ratio(pp):
                pp = mpmath.mpf(pp)
                args = mx.c1_kernel_args(pp, k)
                return num(*args)[0] / den(*args)[0]
            return float((ratio(p + h) - ratio(p - h)) / (2 * h))

    for _ in range(n):
        k = rng.uniform(0.2, 0.8)
        p = rng.uniform(0.5, 2.5)
        fz = float(mx.f_z_C1(p, k))
        lhs = slope(mx.a01_c1_kernel, mx.fz_c1_kernel, p, k) * fz * fz
        rhs = 0.75 * float(cj.certificate_x2(p, k))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
        fv = float(mx.f_V_C1(p, k))
        lhs = slope(mx.a21_c1_kernel, mx.fv_c1_kernel, p, k) * fv * fv
        rhs = -(4.0 / 3.0) * k * k * float(cj.certificate_x1(p, k))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return _result("conjugate: certificate derivative identities", worst, 1e-5)


def check_symmetry_invariance(rng, n=5):
    worst = 0.0
    for _ in range(n):
        lam = random_c1(rng, k_range=(0.2, 0.9)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.35, 0.85))
        t0 = cj.first_conjugate_time(lam).t_conj
        t_r = cj.first_conjugate_time(fl.reflect3(lam)).t_conj
        t_s = cj.first_conjugate_time(
            fl.rotate_covector(lam, rng.uniform(0, 2 * math.pi))).t_conj
        r = rng.uniform(-0.6, 0.6)
        lam_d, scale = fl.dilate_covector(lam, r)
        t_d = cj.first_conjugate_time(lam_d).t_conj
        worst = max(worst, abs(t_r - t0), abs(t_s - t0),
                    abs(t_d - scale * t0) / scale)
    return _result("conjugate: t_conj invariant under reflection/rotation/dilation",
                   worst, 1e-6)


def _equality_cases(cases, c6_cs):
    """t_conj = t_max on the elliptic-chart cases, and on C6 at each c."""
    lams = [fl.from_elliptic(ec) for ec in cases] + [Covector(0.4, c, 0.0, 0.0) for c in c6_cs]
    worst = max(abs(r.t_conj - r.t_max) for r in map(cj.first_conjugate_time, lams))
    return _result("conjugate: equality cases give t_conj = t_max", worst, 1e-6)


def check_equality_cases():
    # every phase at k1 and k0; cn tau = 0 at k = 0.5, sn tau = 0 at 0.85
    cases = [EllipticCoord(Stratum.C1, 0.23, k, 1.0, 0.0) for k in mx.critical_moduli()]
    for forms, k in ((mx.C1_FORMS, 0.5), (mx.C1_FORMS, 0.85), (mx.C2_FORMS, 0.6)):
        cases += [EllipticCoord(forms.stratum, phi, k, 1.0, 0.0)
                  for phi in forms.equality_phases(k)]
    return _equality_cases(cases, (1.7,))


def check_two_sided(rng, n=8):
    bad = 0
    for _ in range(n):
        lam = random_c1(rng, k_range=(0.15, 0.9)) if rng.random() < 0.5 \
            else random_c2(rng, k_range=(0.35, 0.85))
        if not cj.first_conjugate_time(lam).upper_ok:     # lower_ok is always True
            bad += 1
    return _result("conjugate: two-sided bounds hold", float(bad), 0.5)


def conjugate_suite(seed=0):
    rng = np.random.default_rng(seed)
    return [
        check_sign_grid_c1(),
        check_sign_grid_c2(),
        check_c1_coefficients(),
        check_c2_endpoint_factorization(),
        check_zero_agreement(rng),
        check_certificates(rng),
        check_certificate_derivatives(rng),
        check_symmetry_invariance(rng),
        check_equality_cases(),
        check_two_sided(rng),
    ]


SUITES = {
    "elliptic": elliptic_suite,
    "flow": flow_suite,
    "maxwell": maxwell_suite,
    "conjugate": conjugate_suite,
}


def run_suites(names, seed=0):
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
