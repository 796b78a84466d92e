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
  the few 1e-10 of a crossing where both roots are polished).

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


def requests(seeds: list[int]) -> list[list[str]]:
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    reqs = []
    for workload in WORKLOADS:
        n = 1 if workload == "verify_all" else REQUESTS
        for seed in seeds:
            blocks = workloads.stream(workload, seed)
            reqs += [list(r.argv) for r in itertools.islice(itertools.chain.from_iterable(blocks), n)]
    return reqs + readme_examples() + critical_requests()


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
