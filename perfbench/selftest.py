"""Self-test of the benchmark at tiny sizes (one request per workload).

    python3 perfbench/selftest.py [--workloads a,b]

Checks that BENCHMARK.json keeps to its format; that every workload prints,
as its last line, the result object with every end-to-end metric (--trace 0)
or every per-layer metric (--trace 1) under its name and unit; that a bad
request (a usage error) is counted as failed without stopping the run; and
that run.py fails, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exit status 0 iff all pass.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(cond, what):
    print(f"[{'PASS' if cond else 'FAIL'}] {what}", flush=True)
    if not cond:
        failures.append(what)


def check_benchmark_json(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the six keys")
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"]] \
        + [m["name"] for m in bench["per_layer"]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "names are well formed and unique")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"]) and 2 <= len(bench["workloads"]) <= 8,
           "2-8 workloads, each a name and a one-line why")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               and UNIT.match(m["unit"]) for m in bench["end_to_end"]),
           "end-to-end metrics carry unit, better and a bound <= 0.25")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s is present, in s, lower is better, with the largest bound")
    expect(all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
               for m in bench["per_layer"]) and 1 <= len(bench["per_layer"]) <= 128,
           "per-layer metrics carry unit and better")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds is a whole number in 1..60")
    expect(set(w["name"] for w in bench["workloads"]) == set(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")


def run_py(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_output(bench, workload, trace):
    proc = run_py(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--requests", "1")
    what = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{what}: exit 0")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        expect(False, f"{what}: last line is a JSON object")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] is True and isinstance(result["attempted"], int)
           and result["attempted"] >= 1 and isinstance(result["failed"], int), f"{what}: counts")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{what}: every metric printed with its unit "
                          f"(missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))})")
    values = [v["value"] for v in result["metrics"].values()]
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{what}: finite values")
    if not trace:
        expect(all(v > 0 for v in values), f"{what}: no end-to-end metric is 0")


def check_bad_request():
    cli, _ = run.load_cli()
    bad = workloads.Request(("conj", "--stratum", "C9", "--phi", "0", "--k", "0.5"), "conj", 1, "C1")
    good = workloads.Request(("conj", "--theta", "0.5", "--c", "0.0", "--alpha", "1.0",
                              "--beta", "0.5"), "conj", 1, "C4")
    loop = run.Loop(cli).run([[bad, good, bad]])
    expect(len(loop.requests) == 3 and loop.exit_codes == [2, 0, 2],
           "a usage error does not stop the run")
    expect(loop.attempted == 3 and loop.failed == 2 and not loop.wrong(),
           "usage errors count as failed operations (fail_frac 2/3)")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        proc = run_py(bare, "--workload", "conj_scatter", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    check_benchmark_json(bench)
    check_bare_directory()
    check_bad_request()
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            check_output(bench, workload, trace)
    print(f"{'PASS' if not failures else 'FAIL'}: {len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
