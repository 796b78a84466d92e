"""Byte identity of two checkouts: exit code and stdout of the same CLI requests.

    python3 tools/identity_check.py PARENT CHANGE [--seeds 0,13]

PARENT and CHANGE are checkout roots, each with ``src/cartanconj``.  The
requests are:

- the first 48 requests of each workload's stream at each of --seeds, drawn
  from this checkout's ``perfbench/workloads.py`` (so both sides get the same
  argument lists); ``verify_all`` repeats one request, ``verify --suite all
  --seed S``, so it gives one per seed;
- the examples of the README's CLI block, with ``--out FILE`` dropped so that
  a sweep writes its CSV to stdout;
- fixed C1 requests at the critical moduli k1 and k0, where p1z = p1v and
  both Maxwell roots are polished: ``conj --no-cross-check`` and ``maxwell``
  at each modulus and 1e-10 and 1e-9 to either side, and one ``sweep`` from
  1e-10 below k1 to 1e-10 above k0 (the seeded streams never land within
  the few 1e-10 of a crossing where both roots are polished);
- fixed requests at the edges of the ODE integrations, where the step counts
  are largest or smallest: the cross-checked ``conj`` at k = 0.99 on C1 and
  on C2 and at alpha = 25, and ``exp --trace --steps 2000``;
- fixed requests on the mpmath routes that the seeded streams rarely reach:
  ``conj --no-cross-check`` on C2 at k = 0.01, one ulp below ``C2_MP_K`` =
  0.2 (the last mpmath scan) and at it (the first polished float64 root),
  and ``maxwell`` on C1 at k = 0.999999, whose AGM chain is one of the
  deepest below the k = 1 cutoff;
- two requests in the k = 1e-4 band of C2, where 50 digits do not resolve
  J1: ``conj --no-cross-check`` at alpha = 1, beta = 0 and phi = 6.41 (a
  Brent bracket without a sign change at 50 digits) and phi = 4.657 (a zero
  that undercut t_max1).  At ``maxwell.mp_dps(k)`` = 67 digits both exit 0,
  with t_conj one ulp below t_max1, inside ``BOUND_SLACK``; and
  ``conj --no-cross-check`` on C2 at k = 3e-4 and 1e-6 (phi 1.3, alpha 1,
  beta 0.5), the band where the digits grow with -log k;
- the stratum-dispatch edges that the seeded streams never reach: ``conj``
  on C6 with ``--horizon 1.0``, below t_max1 = 4.60, and ``conj
  --no-cross-check`` and ``maxwell`` on C1 at k = 0.9999999999, past
  ``maxwell.K_ONE_CUTOFF``; ``conj`` on C4 with ``--horizon 5``; C1 sweeps
  whose rows classify as C4 (k 1e-9 to 1e-8) and as C3 (k within 1e-14 of
  1); and a C6 sweep across c = 0, whose middle row is C7;
- the cross-check's closed-form dilation column, which scales as 1/alpha:
  cross-checked ``conj`` at alpha = 0.001 and 400 on C1 and C2 (k 0.9,
  phi 0.7, beta 0.4), and cross-checked ``conj`` with a horizon below the
  scan start (phi 0, k 0.5, alpha 1, beta 0): 1e-300 on C1 and 0.01 on C2
  (the cross-check validates the zero past the horizon);
- the README's ``conj`` example under a horizon, which cuts the answer and
  not the search: ``--no-cross-check --horizon 9.6045``, just past t_conj =
  9.602532015455896, and cross-checked with ``--horizon 4.0``, below it;
- cross-checked ``conj`` at small moduli, where t_conj is far below 1 and
  the agreement test is relative: C2 at k = 1e-3 and 5e-4 and C1 at
  k = 1e-6 (phi 1.3, alpha 1, beta 0.5), and C2 at k = 1e-5 (phi 6.349,
  alpha 1, beta 2.208).

Each checkout runs the whole list in one fresh interpreter, in-process
through ``cartanconj.cli.main``, one request after another, with BLAS pinned
to one thread and the package's caches emptied before every request by
perfbench's ``spans.clear_caches``, as ``perfbench/run.py`` does.  The
working directory is a temporary one, so nothing is written into either
checkout.  Prints the number of identical and differing (exit code, stdout)
pairs, and for each difference its request and first differing lines; the
exit code is 1 when any pair differs.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("sweep_grid", "conj_scatter", "c2_small_k", "verify_all")
REQUESTS = 48       # per workload stream and seed
# the critical moduli (k1, k0) that maxwell.critical_moduli reports
CRITICAL_MODULI = (0.8022296433814966, 0.9089085575485409)


def readme_examples() -> list[list[str]]:
    """The ``cartanconj ...`` lines of the README's fenced blocks, as argv lists."""
    out, fenced = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("cartanconj "):
            argv = shlex.split(line)[1:]
            if "--out" in argv:
                i = argv.index("--out")
                del argv[i:i + 2]
            out.append(argv)
    return out


def critical_requests() -> list[list[str]]:
    """C1 requests at and around the critical moduli."""
    reqs = []
    for kc in CRITICAL_MODULI:
        for dk in (0.0, -1e-10, 1e-10, -1e-9, 1e-9):
            covector = ["--stratum", "C1", "--phi", "0.3", "--k", repr(kc + dk),
                        "--alpha", "1.3", "--beta", "0.2"]
            reqs += [["conj", *covector, "--no-cross-check"], ["maxwell", *covector]]
    k1, k0 = CRITICAL_MODULI
    return reqs + [["sweep", "--stratum", "C1", "--k-range", f"{k1 - 1e-10!r}:{k0 + 1e-10!r}",
                    "--nk", "4", "--nphi", "4", "--alpha", "1.3", "--beta", "0.2"]]


def ode_edge_requests() -> list[list[str]]:
    """Cross-checked conj requests with the longest and shortest variational arcs, and a long trace."""
    def conj(stratum, k, alpha):
        return ["conj", "--stratum", stratum, "--phi", "0.3", "--k", k, "--alpha", alpha,
                "--beta", "0.2"]
    return [conj("C1", "0.99", "1.3"), conj("C2", "0.99", "1.3"), conj("C1", "0.5", "25"),
            ["exp", "--theta", "0.4", "--c", "1", "--alpha", "0.5", "--beta", "0.1",
             "--t", "12", "--trace", "--steps", "2000"]]


def mp_route_requests() -> list[list[str]]:
    """C2 conj requests around maxwell.C2_MP_K and far below it, a deep-chain C1
    maxwell, and C2 searches below k = 1e-3, where the digits grow."""
    def covector(stratum, k, phi="0.3", alpha="1.3", beta="0.2"):
        return ["--stratum", stratum, "--phi", phi, "--k", k, "--alpha", alpha, "--beta", beta]
    return [*(["conj", *covector("C2", k), "--no-cross-check"]
              for k in ("0.01", "0.19999999999999998", "0.2")),
            ["maxwell", *covector("C1", "0.999999")],
            *(["conj", *covector("C2", "1e-4", phi, "1", "0"), "--no-cross-check"]
              for phi in ("6.41", "4.657")),
            *(["conj", *covector("C2", k, "1.3", "1", "0.5"), "--no-cross-check"]
              for k in ("3e-4", "1e-6"))]


def dispatch_edge_requests() -> list[list[str]]:
    """A C6 conj capped below t_max1, C1 requests past the k -> 1 cutoff, a
    capped C4 conj, and sweeps whose rows leave their stratum."""
    c1 = ["--stratum", "C1", "--phi", "0.3", "--k", "0.9999999999", "--alpha", "1.3",
          "--beta", "0.2"]
    return [["conj", "--theta", "0", "--c", "2", "--alpha", "0", "--beta", "0",
             "--horizon", "1.0"],
            ["conj", *c1, "--no-cross-check"], ["maxwell", *c1],
            ["conj", "--theta", "0.3", "--c", "0", "--alpha", "1", "--beta", "0.3",
             "--horizon", "5"],
            *(["sweep", "--stratum", "C1", "--k-range", k_range, "--nk", "2", "--nphi", "2"]
              for k_range in ("1e-9:1e-8", "0.99999999999999:0.999999999999999")),
            ["sweep", "--stratum", "C6", "--c-range=-1:1", "--nk", "3"]]


def cross_check_requests() -> list[list[str]]:
    """Cross-checked conj far from alpha = 1, with a horizon below the scan
    start, and at small moduli, and the README example under two horizons."""
    def conj(stratum, phi, k, alpha, beta):
        return ["conj", "--stratum", stratum, "--phi", phi, "--k", k, "--alpha", alpha,
                "--beta", beta]
    return [*(conj(stratum, "0.7", "0.9", alpha, "0.4")
              for stratum in ("C1", "C2") for alpha in ("0.001", "400")),
            [*conj("C1", "0", "0.5", "1", "0"), "--horizon", "1e-300"],
            [*conj("C2", "0", "0.5", "1", "0"), "--horizon", "0.01"],
            [*conj("C1", "0.37", "0.5", "1", "0.4"), "--no-cross-check", "--horizon", "9.6045"],
            [*conj("C1", "0.37", "0.5", "1", "0.4"), "--horizon", "4.0"],
            *(conj(stratum, "1.3", k, "1", "0.5")
              for stratum, k in (("C2", "1e-3"), ("C2", "5e-4"), ("C1", "1e-6"))),
            conj("C2", "6.349", "1e-5", "1", "2.208")]


def requests(seeds: list[int]) -> list[list[str]]:
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    reqs = []
    for workload in WORKLOADS:
        n = 1 if workload == "verify_all" else REQUESTS
        for seed in seeds:
            blocks = workloads.stream(workload, seed)
            reqs += [list(r.argv) for r in itertools.islice(itertools.chain.from_iterable(blocks), n)]
    return (reqs + readme_examples() + critical_requests() + ode_edge_requests()
            + mp_route_requests() + dispatch_edge_requests() + cross_check_requests())


def worker(src: str, request_file: str, result_file: str) -> int:
    """Run the requests of request_file against src; write (exit code, stdout) pairs."""
    sys.path.insert(0, str(PERFBENCH))
    sys.path.insert(0, src)
    import spans
    from cartanconj import cli
    here = Path(cli.__file__).resolve().parent
    if here != (Path(src) / "cartanconj").resolve():
        print(f"error: imported cartanconj from {here}, not {src}", file=sys.stderr)
        return 2
    results = []
    for argv in json.loads(Path(request_file).read_text()):
        spans.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:       # argparse usage errors
            rc = exc.code
        except Exception:
            rc = "crash: " + traceback.format_exc().splitlines()[-1]
        results.append([rc, out.getvalue()])
    Path(result_file).write_text(json.dumps(results))
    return 0


def run_side(root: Path, request_file: str, tmp: str, name: str):
    src = root / "src"
    if not (src / "cartanconj" / "__init__.py").is_file():
        sys.exit(f"error: no cartanconj sources under {src}")
    result_file = os.path.join(tmp, f"{name}.json")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
                    request_file, result_file], cwd=tmp, env=env, check=True)
    return json.loads(Path(result_file).read_text())


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        return worker(*sys.argv[2:5])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", default="0,13", help="stream seeds, comma-separated")
    args = ap.parse_args(argv)
    reqs = requests([int(s) for s in args.seeds.split(",") if s])
    with tempfile.TemporaryDirectory() as tmp:
        request_file = os.path.join(tmp, "requests.json")
        Path(request_file).write_text(json.dumps(reqs))
        parent = run_side(args.parent.resolve(), request_file, tmp, "parent")
        change = run_side(args.change.resolve(), request_file, tmp, "change")

    differing = 0
    for argv, (rc_p, out_p), (rc_c, out_c) in zip(reqs, parent, change):
        if rc_p == rc_c and out_p == out_c:
            continue
        differing += 1
        print(f"DIFF {shlex.join(argv)}: exit {rc_p} -> {rc_c}")
        diff = difflib.unified_diff(out_p.splitlines(), out_c.splitlines(), lineterm="", n=0)
        for line in itertools.islice(diff, 2, 8):
            print(f"    {line}")
    print(f"{len(reqs) - differing} identical, {differing} differing "
          f"(exit code and stdout, {len(reqs)} requests)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
