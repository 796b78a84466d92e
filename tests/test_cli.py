import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cartanconj.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_negative_exponent_values(capsys):
    argv = ["conj", "--no-cross-check", "--stratum", "C1", "--phi", "1.5", "--k", "0.43",
            "--alpha", "0.86", "--beta"]
    code, out, _ = run(capsys, *argv, "-8.79e-05")
    assert code == 0
    assert (code, out) == run(capsys, *argv, "-0.0000879")[:2]
    assert run(capsys, *argv[:-1], "--beta=-8.79e-05")[:2] == (code, out)


def test_exp_straight_line(capsys):
    code, out, _ = run(capsys, "exp", "--theta", "0", "--c", "0",
                       "--alpha", "0", "--beta", "0", "--t", "2")
    assert code == 0
    vals = [float(v) for v in out.split()]
    assert vals[0] == pytest.approx(2.0, abs=1e-9)
    assert vals[1] == vals[2] == vals[3] == pytest.approx(0.0, abs=1e-9)


def test_exp_t_zero(capsys):
    code, out, _ = run(capsys, "exp", "--theta", "0.3", "--c", "1",
                       "--alpha", "1", "--beta", "0", "--t", "0")
    assert code == 0
    assert [float(v) for v in out.split()] == [0, 0, 0, 0, 0]


def test_exp_trace_circle(capsys):
    code, out, _ = run(capsys, "exp", "--theta", "0", "--c", "1", "--alpha", "0",
                       "--beta", "0", "--t", "3.14159", "--trace", "--steps", "80")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,z,v,w"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    x, y = data[:, 1], data[:, 2]
    A = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    (cx, cy, d), *_ = np.linalg.lstsq(A, x * x + y * y, rcond=None)
    radius = math.sqrt(d + cx * cx + cy * cy)
    assert radius == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("steps", ["1", "0", "-1"])
def test_exp_trace_needs_two_steps(capsys, steps):
    # one step would print the t = 0 row alone, never the endpoint
    code, out, err = run(capsys, "exp", "--theta", "0.3", "--c", "1", "--alpha", "1",
                         "--beta", "0", "--t", "2", "--trace", "--steps", steps)
    assert (code, out, err) == (2, "", "error: --steps must be >= 2\n")


def test_exp_missing_flags_usage_error(capsys):
    code, _, err = run(capsys, "exp", "--theta", "0", "--t", "1")
    assert code == 2


def test_exp_invalid_covector(capsys):
    code, _, err = run(capsys, "exp", "--theta", "0", "--c", "0",
                       "--alpha", "-1", "--beta", "0", "--t", "1")
    assert code == 2


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_exp_non_finite_time_is_usage_error(capsys, t):
    code, out, err = run(capsys, "exp", "--theta", "0.3", "--c", "1",
                         "--alpha", "1", "--beta", "0", "--t", t)
    assert (code, out) == (2, "")
    assert err == f"error: extremal integration needs a finite end time, got {t}\n"


@pytest.mark.parametrize("flag,value", [("phi", "inf"), ("phi", "nan"), ("alpha", "nan"),
                                        ("alpha", "inf"), ("beta", "inf"), ("beta", "nan")])
def test_elliptic_chart_non_finite_input_names_its_flag(capsys, flag, value):
    chart = {"stratum": "C1", "phi": "0", "k": "0.5", "alpha": "1", "beta": "0", flag: value}
    code, out, err = run(capsys, "conj", *(f"--{n}={v}" for n, v in chart.items()))
    assert (code, out, err) == (2, "", f"error: {flag} must be finite\n")


def test_conj_c4_infinite(capsys):
    code, out, _ = run(capsys, "conj", "--theta", "0.3", "--c", "0",
                       "--alpha", "1", "--beta", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["stratum"] == "C4"
    assert doc["t_max1"] == "inf"
    assert doc["t_conj"] == "inf"


def test_conj_c6(capsys):
    code, out, _ = run(capsys, "conj", "--theta", "0", "--c", "2",
                       "--alpha", "0", "--beta", "0")
    assert code == 0
    doc = json.loads(out)
    from cartanconj.maxwell import p1_V0
    assert doc["t_conj"] == pytest.approx(2.0 * p1_V0())
    assert doc["lower_ok"] and doc["upper_ok"]


def test_conj_elliptic_chart_input(capsys):
    code, out, _ = run(capsys, "conj", "--stratum", "C1", "--phi", "0.37",
                       "--k", "0.5", "--alpha", "1", "--beta", "0.4",
                       "--no-cross-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["stratum"] == "C1"
    assert doc["lower_ok"] is True
    assert doc["t_conj"] > doc["t_max1"] > 0


def test_maxwell_json(capsys):
    code, out, _ = run(capsys, "maxwell", "--stratum", "C1", "--phi", "0.1",
                       "--k", "0.5", "--alpha", "1", "--beta", "0")
    assert code == 0
    doc = json.loads(out)
    lo, hi = doc["bracket"]
    assert lo < doc["root_p"] < hi
    assert doc["residual"] < 1e-10


def test_sweep_csv_deterministic(tmp_path, capsys):
    args = ["sweep", "--stratum", "C1", "--k-range", "0.3:0.6", "--nk", "2",
            "--nphi", "2", "--format", "csv"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "stratum,k,phi,alpha,beta,c,t_max1,t_conj,lower_ok,upper_ok,error"
    assert len(lines) == 1 + 4
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[0] == "C1"
        assert cells[8] == "true" and cells[9] == "true"


def test_sweep_json_c6(tmp_path):
    out = tmp_path / "c6.json"
    assert main(["sweep", "--stratum", "C6", "--c-range", "1:3", "--nk", "3",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert all(r["stratum"] == "C6" for r in rows)


def test_sweep_c6_labels_c7_row(capsys):
    # c = 0 at alpha = 0 is the C7 covector
    code, out, _ = run(capsys, "sweep", "--stratum", "C6", "--c-range=-1:1", "--nk", "3")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert [(r[0], r[5]) for r in rows] == [("C6", "-1"), ("C7", "0"), ("C6", "1")]
    assert rows[1][6:8] == ["inf", "inf"]


@pytest.mark.parametrize("argv,flag,column", [
    (("sweep", "--stratum", "C1", "--k-range", "0.4:0.5", "--nk", "2", "--nphi", "2"),
     "--phi-range", 2),
    (("sweep", "--stratum", "C6", "--nk", "2"), "--c-range", 5),
], ids=["phi-range", "c-range"])
def test_sweep_negative_range(capsys, argv, flag, column):
    # argparse took "-1:1" for an option unless it was joined by "="
    code, out, _ = run(capsys, *argv, flag, "-1:1")
    assert code == 0
    assert {ln.split(",")[column] for ln in out.splitlines()[1:]} == {"-1", "1"}
    assert run(capsys, *argv, f"{flag}=-1:1")[:2] == (code, out)


def test_sweep_off_stratum_rows_are_stratum_errors(capsys):
    # below the C4 band and past the C3 band every row leaves C1
    for k_range in ("1e-9:1e-8", "0.99999999999999:0.999999999999999"):
        code, out, _ = run(capsys, "sweep", "--stratum", "C1", "--k-range", k_range,
                           "--nk", "2", "--nphi", "2")
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert len(rows) == 4
        assert all(r[6:] == ["", "", "", "", "StratumError"] for r in rows)


def test_sweep_bad_counts(capsys):
    code, _, _ = run(capsys, "sweep", "--stratum", "C1", "--nk", "1")
    assert code == 2


def test_verify_elliptic_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "elliptic", "--seed", "42")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out.replace("PASS:", "")


def test_parser_built_once_and_commands_looked_up_per_call(capsys, monkeypatch):
    from cartanconj import cli as climod

    def no_build():
        raise AssertionError("build_parser called per request")

    seen = []
    monkeypatch.setattr(climod, "build_parser", no_build)
    monkeypatch.setattr(climod, "cmd_conj", lambda args: seen.append(args.k) or 0)
    assert main(["conj", "--stratum", "C1", "--phi", "0.3", "--k", "0.5", "--alpha", "1",
                 "--beta", "0"]) == 0
    assert seen == [0.5]


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_failed_bracket_in_a_search_is_a_numerical_failure(capsys, monkeypatch):
    # an mpmath J1 that never changes sign (as the 50-digit J1 at k = 1e-4
    # once was, being rounding noise) gives Brent a panel whose ends have the
    # same sign: exit 3 with both end values, not a usage error
    from cartanconj import conjugate
    monkeypatch.setattr(conjugate, "_j1_scalar_mp", lambda ec, t, dps: 1.0)
    code, out, err = run(capsys, "conj", "--stratum", "C2", "--phi", "6.41", "--k", "1e-4",
                         "--alpha", "1", "--beta", "0", "--no-cross-check")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: J1 (mpmath) on C2")
    assert "has the same sign at both ends" in err and "f(a) = " in err and "f(b) = " in err


def test_conj_horizon_below_zero_reports_inf(capsys):
    code, out, _ = run(capsys, "conj", "--stratum", "C1", "--phi", "0.37",
                       "--k", "0.5", "--alpha", "1", "--beta", "0.4",
                       "--horizon", "4.0", "--no-cross-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_conj"] == "inf" and doc["residual"] == 0.0
    assert doc["upper_ok"] is True      # judges the zero past the horizon


# the README's conj example
README_C1 = ("--stratum", "C1", "--phi", "0.37", "--k", "0.5", "--alpha", "1", "--beta", "0.4")


def test_conj_horizon_just_past_zero_reports_it(capsys):
    # t_conj = 9.602532015455896 <= 9.6045: a search capped at the horizon
    # stopped one panel short and printed inf
    code, out, _ = run(capsys, "conj", *README_C1, "--no-cross-check", "--horizon", "9.6045")
    assert code == 0
    assert out == run(capsys, "conj", *README_C1, "--no-cross-check")[1]
    assert json.loads(out)["t_conj"] == 9.602532015455896


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_conj_horizon_not_finite_is_usage_error(capsys, horizon):
    code, out, err = run(capsys, "conj", *README_C1, "--horizon", horizon)
    assert (code, out) == (2, "")
    assert err == "error: search horizon must be positive and finite\n"


C6 = ("--theta", "0", "--c", "2", "--alpha", "0", "--beta", "0")
C4 = ("--theta", "0.3", "--c", "0", "--alpha", "1", "--beta", "0.3")


@pytest.mark.parametrize("horizon", ["-5", "0", "inf", "nan"])
@pytest.mark.parametrize("argv", [C6, C4], ids=["C6", "C4"])
def test_conj_horizon_checked_off_c1_c2(capsys, argv, horizon):
    code, out, err = run(capsys, "conj", *argv, f"--horizon={horizon}")
    assert (code, out) == (2, "")
    assert err == "error: search horizon must be positive and finite\n"


def test_conj_c6_horizon_below_maxwell_time_reports_inf(capsys):
    default = json.loads(run(capsys, "conj", *C6)[1])
    assert default["stratum"] == "C6"
    assert default["t_conj"] == default["t_max1"] == 4.601591631953129
    code, out, _ = run(capsys, "conj", *C6, "--horizon=1.0")
    assert code == 0
    assert json.loads(out) == {**default, "t_conj": "inf"}
    code, out, _ = run(capsys, "conj", *C6, "--horizon=5.0")
    assert (code, json.loads(out)) == (0, default)


@pytest.mark.parametrize("cross_check", [True, False], ids=["cross-check", "no-cross-check"])
@pytest.mark.parametrize("stratum", ["C1", "C2"])
def test_conj_horizon_at_or_below_scan_start_reports_inf(capsys, stratum, cross_check):
    # the scan starts at 0.2465 on C1 and 0.28 on C2; a search capped at or
    # below it once ran both grids backward from there (exit 2 with numpy
    # warnings, or exit 3 on a made-up zero)
    argv = ["conj", "--stratum", stratum, "--phi", "0", "--k", "0.5", "--alpha", "1",
            "--beta", "0"] + ([] if cross_check else ["--no-cross-check"])
    default = json.loads(run(capsys, *argv)[1])
    for horizon in ("1e-300", "1e-6", "0.01", "0.05"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--horizon", horizon)
        assert (code, err) == (0, ""), horizon
        doc = json.loads(out)
        assert doc["t_conj"] == "inf" and doc["t_max1"] == default["t_max1"], horizon


def test_conj_far_horizon_matches_default(capsys):
    # the horizon cuts the answer, not the search: a far one changes nothing
    # (a search capped at it once stretched the screened grid's step below
    # C2_MP_K and skipped the first zero).
    small_k_c2 = ("--stratum", "C2", "--phi", "0.3", "--k", "0.1", "--alpha", "1",
                  "--beta", "0.2", "--no-cross-check")
    for argv in (README_C1, small_k_c2):
        default = json.loads(run(capsys, "conj", *argv)[1])
        for horizon in ("1e3", "1e12"):
            code, out, _ = run(capsys, "conj", *argv, "--horizon", horizon)
            assert code == 0
            doc = json.loads(out)
            assert doc == default, (argv, horizon)


@pytest.mark.parametrize("argv", [
    README_C1,
    ("--stratum", "C2", "--phi", "0.3", "--k", "0.6", "--alpha", "1.4", "--beta", "0.2",
     "--no-cross-check"),
])
def test_conj_searches_once(capsys, monkeypatch, argv):
    from cartanconj import cli as climod
    from cartanconj.flow import EllipticCoord, Stratum, from_elliptic

    calls = {"n": 0}
    real = climod.cj.first_conjugate_time

    def counted(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(climod.cj, "first_conjugate_time", counted)
    code, out, _ = run(capsys, "conj", *argv)
    assert code == 0
    assert calls["n"] == 1
    doc = json.loads(out)
    opts = dict(zip(argv[::2], argv[1::2]))
    lam = from_elliptic(EllipticCoord(Stratum(opts["--stratum"]), float(opts["--phi"]),
                                      float(opts["--k"]), float(opts["--alpha"]),
                                      float(opts["--beta"])))
    res = real(lam)         # a fresh default search
    assert (doc["lower_ok"], doc["upper_ok"]) == (True, res.upper_ok)
    assert (doc["t_conj"], doc["t_max1"]) == (res.t_conj, res.t_max)
    # a horizon cuts the answer of the same one search
    calls["n"] = 0
    code, _, _ = run(capsys, "conj", *argv, "--horizon", "4.0")
    assert code == 0
    assert calls["n"] == 1


C2_ARGV = ("--stratum", "C2", "--phi", "0.3", "--k", "0.6", "--alpha", "1.4", "--beta", "0.2")


@pytest.mark.parametrize("argv,rows", [
    (("conj", *README_C1), 1),
    (("conj", *README_C1, "--no-cross-check"), 1),
    (("conj", *C2_ARGV), 1),
    (("conj", *C2_ARGV, "--no-cross-check"), 1),
    (("conj", "--theta", "0", "--c", "2", "--alpha", "0", "--beta", "0"), 1),
    (("sweep", "--stratum", "C1", "--k-range", "0.4:0.5", "--nk", "2", "--nphi", "2"), 4),
    (("sweep", "--stratum", "C1", "--k-range", "1e-9:1e-8", "--nk", "2", "--nphi", "2"), 4),
    (("sweep", "--stratum", "C6", "--c-range=-1:1", "--nk", "3"), 3),
], ids=["conj-C1", "conj-C1-unchecked", "conj-C2", "conj-C2-unchecked", "conj-C6",
        "sweep-C1", "sweep-C4-rows", "sweep-C6-C7"])
def test_one_classification_per_request(capsys, monkeypatch, argv, rows):
    # one per conj request and one per sweep row: t_max1 classifies, and
    # conjugate and cli read its record
    from cartanconj import flow
    real, seen = flow.classify, []

    def counted(lam):
        seen.append(lam)
        return real(lam)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cartanconj":
            for attr in [a for a, v in vars(mod).items() if v is real]:
                monkeypatch.setattr(mod, attr, counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(seen) == rows


def test_cross_check_agreement_is_relative(capsys):
    # t_conj is about 4.6e-5 here, so a gap of 1e-4 times max(1, t_conj)
    # passed a variational zero 48% away; t_analytic is the search's at
    # mp_dps(1e-5) = 84 digits (4.6040e-5 at 50 digits)
    code, out, err = run(capsys, "conj", "--stratum", "C2", "--phi", "6.349", "--k", "1e-5",
                         "--alpha", "1", "--beta", "2.208")
    assert code == 3
    assert "disagree" in err
    doc = json.loads(out)
    assert doc["error"] == "solver_disagreement"
    assert math.isclose(doc["t_analytic"], 4.6016e-5, rel_tol=1e-5)
    assert math.isclose(doc["t_variational"], 2.3737e-5, rel_tol=1e-4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 25: the two-field cross-check finds a "
                                       "zero where J0 lies below its noise")
def test_cross_check_small_k_c2(capsys):
    code, out, _ = run(capsys, "conj", "--stratum", "C2", "--phi", "1.3", "--k", "1e-3",
                       "--alpha", "1", "--beta", "0.5")
    assert code == 0
    assert json.loads(out)["method"] == "analytic+variational"


def test_conj_c2_between_old_maxwell_and_c2_thresholds(capsys):
    # k in [0.15, 0.2) once sent the fv root through a float64 scan that
    # stopped on noise ("p1v_C2(...) escaped (K, 2K)", exit 3)
    code, out, _ = run(capsys, "conj", "--stratum", "C2", "--phi", "0.3",
                       "--k", "0.1614865489887826", "--alpha", "1", "--beta", "0.4",
                       "--no-cross-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower_ok"] is True and doc["upper_ok"] is True


def test_maxwell_infinite_stratum(capsys):
    code, out, _ = run(capsys, "maxwell", "--theta", "0.3", "--c", "0",
                       "--alpha", "1", "--beta", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_max1"] == "inf"
    assert doc["root_p"] is None


def test_sweep_error_column(tmp_path, monkeypatch):
    from cartanconj import cli as climod
    from cartanconj.errors import NumericalError

    real = climod.cj.first_conjugate_time
    for exc in (NumericalError, ValueError):
        calls = {"n": 0}

        def flaky(lam):
            calls["n"] += 1
            if calls["n"] == 2:
                raise exc("synthetic failure")
            return real(lam)

        monkeypatch.setattr(climod.cj, "first_conjugate_time", flaky)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--stratum", "C1", "--k-range", "0.4:0.5", "--nk", "2",
                     "--nphi", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5                   # sweep completes despite the failure
        errs = [ln.rsplit(",", 1)[-1] for ln in lines[1:]]
        assert errs.count(exc.__name__) == 1


def test_root_nonconvergence_exits_numeric(capsys, monkeypatch):
    from cartanconj import maxwell
    monkeypatch.setattr(maxwell, "BRENT_MAXITER", 1)
    code, out, err = run(capsys, "conj", "--stratum", "C1", "--phi", "0.37", "--k", "0.5",
                         "--alpha", "1", "--beta", "0.4", "--no-cross-check")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: Brent on ") and "did not converge" in err


def test_cli_paths_load_no_scipy():
    # the ODE paths too: every flow runs on flow.dop853
    import cartanconj
    script = "\n".join([
        "import contextlib, io, sys",
        "import cartanconj.cli as cli",
        "runs = [",
        "    ['conj', '--stratum', 'C1', '--phi', '0.37', '--k', '0.5', '--alpha', '1',",
        "     '--beta', '0.4', '--no-cross-check'],",
        "    ['conj', '--stratum', 'C1', '--phi', '0.37', '--k', '0.5', '--alpha', '1',",
        "     '--beta', '0.4'],",
        "    ['conj', '--stratum', 'C2', '--phi', '0.2', '--k', '0.6', '--alpha', '1.2',",
        "     '--beta', '0.3'],",
        "    ['exp', '--theta', '0.4', '--c', '1', '--alpha', '0.5', '--beta', '0.1',",
        "     '--t', '3'],",
        "    ['exp', '--theta', '0.4', '--c', '1', '--alpha', '0.5', '--beta', '0.1',",
        "     '--t', '3', '--trace', '--steps', '20'],",
        "    ['maxwell', '--theta', '0', '--c', '2', '--alpha', '0', '--beta', '0'],",
        "    ['sweep', '--stratum', 'C2', '--k-range', '0.1:0.9', '--nk', '3', '--nphi', '2'],",
        "]",
        "for argv in runs:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    src = str(Path(cartanconj.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
    assert proc.stdout.strip() == "[]"


def test_phi_sweep_periodicity(tmp_path):
    import math as _math
    from cartanconj.elliptic import complete_K
    k = 0.5
    period = 4.0 * complete_K(k)
    out = tmp_path / "phi.csv"
    assert main(["sweep", "--stratum", "C1", "--k-range", f"{k}:{k}", "--nk", "2",
                 "--phi-range", f"0:{2.0 * period}", "--nphi", "9",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    tc = [float(r.split(",")[7]) for r in rows][:9]   # first k-block; phi step = period/4
    # phi and phi + period give the same conjugate time; values vary in phi
    for i in range(4):
        assert abs(tc[i] - tc[i + 4]) < 1e-6
    assert max(tc) - min(tc) > 1e-3


def test_exp_step_limit_is_a_numerical_failure(capsys, monkeypatch):
    # exp --t 1e300 once integrated for ever; past flow.ODE_MAX_STEPS steps
    # (patched small here) it exits 3 without output
    from cartanconj import flow
    monkeypatch.setattr(flow, "ODE_MAX_STEPS", 50)
    argv = ("exp", "--theta", "0.3", "--c", "1", "--alpha", "1", "--beta", "0", "--t")
    code, out, err = run(capsys, *argv, "1e300")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: extremal integration failed: 50 steps reached t = ")
    assert run(capsys, *argv, "2")[0] == 0
