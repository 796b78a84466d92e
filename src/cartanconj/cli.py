"""Command-line front end.

Subcommands: exp, conj, maxwell, sweep, verify.
Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numerical failure.
Covectors are accepted either as (theta, c, alpha, beta) or in elliptic
coordinates (stratum, phi, k, alpha, beta); infinities serialize as "inf".
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import conjugate as cj
from . import flow as fl
from . import maxwell as mx
from .errors import NumericalError, SolverDisagreement, StratumError
from .flow import Covector, EllipticCoord, Stratum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def add_covector_flags(p: argparse.ArgumentParser):
    p.add_argument("--theta", type=float, help="angle of (h1, h2)")
    p.add_argument("--c", type=float, help="h3 component")
    p.add_argument("--alpha", type=float, help="|(h4, h5)| (>= 0)")
    p.add_argument("--beta", type=float, help="angle of (h4, h5)")
    p.add_argument("--stratum", choices=["C1", "C2", "C3"],
                   help="elliptic-chart input: stratum tag")
    p.add_argument("--phi", type=float, help="elliptic-chart input: pendulum phase")
    p.add_argument("--k", type=float, help="elliptic-chart input: modulus")
    p.add_argument("--direction", type=int, choices=[1, -1], default=1,
                   help="sign of c on C2/C3 (elliptic-chart input)")


def parse_covector(args) -> Covector:
    elliptic_given = args.stratum is not None or args.phi is not None or args.k is not None
    if elliptic_given:
        missing = [n for n in ("stratum", "phi", "k", "alpha", "beta")
                   if getattr(args, n) is None]
        if missing:
            raise UsageError(f"elliptic-chart input needs --{', --'.join(missing)}")
        ec = EllipticCoord(Stratum(args.stratum), args.phi,
                           args.k, args.alpha, args.beta, args.direction)
        return fl.from_elliptic(ec)
    missing = [n for n in ("theta", "c", "alpha", "beta") if getattr(args, n) is None]
    if missing:
        raise UsageError(f"covector input needs --{', --'.join(missing)}")
    return Covector(args.theta, args.c, args.alpha, args.beta)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_exp(args) -> int:
    lam = parse_covector(args)
    if args.t < 0:
        raise UsageError("--t must be >= 0")
    if args.trace:
        if args.steps < 2:
            raise UsageError("--steps must be >= 2")
        traj = fl.exp_trajectory(lam, args.t, args.steps)
        print("t,x,y,z,v,w")
        for row in traj:
            print(",".join(_fmt(float(v)) for v in row))
    else:
        g = fl.exp_map(lam, args.t)
        print(" ".join(_fmt(v) for v in (g.x, g.y, g.z, g.v, g.w)))
    return EXIT_OK


def cmd_conj(args) -> int:
    lam = parse_covector(args)
    if args.horizon is not None and not (args.horizon > 0.0 and math.isfinite(args.horizon)):
        raise UsageError("search horizon must be positive and finite")
    res = cj.first_conjugate_time(lam, cross_validate=not args.no_cross_check)
    # the horizon cuts the answer, not the search: upper_ok judges the zero found
    cut = args.horizon is not None and res.t_conj > args.horizon
    out = {
        "stratum": str(res.stratum),
        "t_max1": _jsonable(res.t_max),
        "t_conj": "inf" if cut else _jsonable(res.t_conj),
        "lower_ok": True,           # see conjugate.BOUND_SLACK
        "upper_ok": res.upper_ok,   # True off C1/C2, where the bound is +inf
        "method": res.method,
        "residual": 0.0 if cut else res.residual,
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_maxwell(args) -> int:
    lam = parse_covector(args)
    res = mx.t_max1(lam)
    out = {
        "stratum": str(res.stratum),
        "t_max1": _jsonable(res.t_max),
        "root_p": res.root_p,
        "bracket": _jsonable(res.bracket),
        "residual": res.residual,
    }
    print(json.dumps(out))
    return EXIT_OK


def _parse_range(spec: str, count: int):
    lo, _, hi = spec.partition(":")
    return np.linspace(float(lo), float(hi), count)


def cmd_sweep(args) -> int:
    if args.nk < 2 or args.nphi < 2:
        raise UsageError("grid counts must be >= 2")
    st = Stratum(args.stratum)
    rows = []
    if st in mx.FORMS:
        ks = _parse_range(args.k_range, args.nk)
        phis = _parse_range(args.phi_range, args.nphi) if args.phi_range else None
        for k in ks:
            k = float(k)
            phis_k = phis if phis is not None else np.linspace(
                0.0, mx.FORMS[st].period(k, args.alpha), args.nphi, endpoint=False)
            for phi in phis_k:
                ec = EllipticCoord(st, float(phi), k, args.alpha, args.beta)
                lam = fl.from_elliptic(ec)
                row = {"stratum": str(st), "k": k, "phi": float(phi),
                       "alpha": args.alpha, "beta": args.beta, "c": lam.c,
                       "t_max1": "", "t_conj": "", "lower_ok": "",
                       "upper_ok": "", "error": ""}
                try:
                    # the bound flags, read off the search's result: upper_ok
                    # polishes no Maxwell root that the float64 roots decide
                    res = cj.first_conjugate_time(lam)
                    mx.stratum_forms(res.stratum)       # StratumError off C1/C2
                    row.update(t_max1=res.t_max, t_conj=res.t_conj, lower_ok=True,
                               upper_ok=res.upper_ok)
                except (NumericalError, ValueError) as exc:   # StratumError is a ValueError
                    row["error"] = type(exc).__name__
                rows.append(row)
    elif st is Stratum.C6:
        cs = _parse_range(args.c_range, args.nk)
        for cval in cs:
            lam = Covector(args.theta or 0.0, float(cval), 0.0, 0.0)
            res = cj.first_conjugate_time(lam)
            # c = 0 is the C7 covector, not C6
            rows.append({"stratum": str(res.stratum), "k": "", "phi": "",
                         "alpha": 0.0, "beta": 0.0, "c": float(cval),
                         "t_max1": res.t_max, "t_conj": res.t_conj,
                         "lower_ok": True, "upper_ok": True, "error": ""})
    else:
        raise UsageError(f"sweep supports C1, C2 or C6, not {st}")

    header = ["stratum", "k", "phi", "alpha", "beta", "c",
              "t_max1", "t_conj", "lower_ok", "upper_ok", "error"]
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[h]) if not isinstance(row[h], bool)
                                  else str(row[h]).lower() for h in header))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{h: _jsonable(r[h]) for h in header} for r in rows],
                          indent=None) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as vf
    names = ["elliptic", "flow", "maxwell", "conjugate"] \
        if args.suite == "all" else [args.suite]
    results = vf.run_suites(names, seed=args.seed)
    ok = True
    for res in results:
        print(res.line())
        ok = ok and res.passed
    print(f"{'PASS' if ok else 'FAIL'}: {sum(r.passed for r in results)}/{len(results)} checks")
    return EXIT_OK if ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "-8.7e-05" and "-1:1" as values, not options.

    argparse before Python 3.13 knows negative numbers only without an
    exponent, so ``--beta -8.7e-05`` (the form ``repr`` gives) exited 2, as
    did the range of ``--phi-range -1:1``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        num = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{num}(:-?{num})?$")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cartanconj",
        description="Sub-Riemannian geodesics, Maxwell times and conjugate "
                    "times on the Cartan group.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="endpoint of a geodesic")
    add_covector_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--trace", action="store_true", help="emit t,x,y,z,v,w rows")
    p.add_argument("--steps", type=int, default=200)

    p = sub.add_parser("conj", help="first Maxwell and conjugate times")
    add_covector_flags(p)
    p.add_argument("--horizon", type=float,
                   help="report t_conj as inf when the first zero lies past this time "
                        "(the search range and upper_ok are unchanged)")
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip the variational cross-validation")

    p = sub.add_parser("maxwell", help="first Maxwell time and its root")
    add_covector_flags(p)

    p = sub.add_parser("sweep", help="grid sweep of t_max1/t_conj")
    p.add_argument("--stratum", required=True, choices=["C1", "C2", "C6"])
    p.add_argument("--k-range", default="0.1:0.9", help="lo:hi")
    p.add_argument("--phi-range", help="lo:hi (default: one pendulum period)")
    p.add_argument("--c-range", default="0.5:3.0", help="lo:hi (C6 sweeps)")
    p.add_argument("--nk", type=int, default=10)
    p.add_argument("--nphi", type=int, default=8)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--theta", type=float)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all",
                   choices=["elliptic", "flow", "maxwell", "conjugate", "all"])
    p.add_argument("--seed", type=int, default=0)
    return ap


# built once, at import; main looks up cmd_<command> when it is called, so
# that a wrapped or replaced cmd_* function is the one that runs
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
    except SolverDisagreement as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        print(json.dumps({"error": "solver_disagreement",
                          "t_analytic": _jsonable(exc.t_analytic),
                          "t_variational": _jsonable(exc.t_variational)}))
        return EXIT_NUMERIC
    except NumericalError as exc:      # before ValueError: a BracketError is both
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError, StratumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
