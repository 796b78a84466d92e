import json
import math
import os
import subprocess
import sys
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


def test_exp_missing_flags_usage_error(capsys):
    code, _, err = run(capsys, "exp", "--theta", "0", "--t", "1")
    assert code == 2


def test_exp_invalid_covector(capsys):
    code, _, err = run(capsys, "exp", "--theta", "0", "--c", "0",
                       "--alpha", "-1", "--beta", "0", "--t", "1")
    assert code == 2


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


def test_sweep_bad_counts(capsys):
    code, _, _ = run(capsys, "sweep", "--stratum", "C1", "--nk", "1")
    assert code == 2


def test_verify_elliptic_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "elliptic", "--seed", "42")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out.replace("PASS:", "")


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_conj_horizon_below_zero_reports_inf(capsys):
    code, out, _ = run(capsys, "conj", "--stratum", "C1", "--phi", "0.37",
                       "--k", "0.5", "--alpha", "1", "--beta", "0.4",
                       "--horizon", "4.0", "--no-cross-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_conj"] == "inf"
    assert doc["upper_ok"] is True      # bound check runs with its own cap


# the README's conj example
README_C1 = ("--stratum", "C1", "--phi", "0.37", "--k", "0.5", "--alpha", "1", "--beta", "0.4")


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
    assert default["t_conj"] == default["t_max1"] == 4.601591631953129
    code, out, _ = run(capsys, "conj", *C6, "--horizon=1.0")
    assert code == 0
    assert json.loads(out) == {**default, "t_conj": "inf"}
    code, out, _ = run(capsys, "conj", *C6, "--horizon=5.0")
    assert (code, json.loads(out)) == (0, default)


def test_conj_far_horizon_matches_default(capsys):
    # the J1 grid past the upper bound is built only when it is scanned, so
    # a cap far past it finds the default search's zero at no extra cost.
    # Below C2_MP_K the screened grid keeps the default cap's step whatever
    # the horizon (a step stretched with it once skipped the first zero).
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
    lower, upper, tc, tm, _ = climod.cj.two_sided_check(lam)
    assert (doc["lower_ok"], doc["upper_ok"]) == (lower, upper)
    assert (doc["t_conj"], doc["t_max1"]) == (tc, tm)
    # a capped search leaves the flags to a second, default-cap search
    calls["n"] = 0
    code, _, _ = run(capsys, "conj", *argv, "--horizon", "4.0")
    assert code == 0
    assert calls["n"] == 2


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
