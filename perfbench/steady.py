"""Steadiness of the benchmark: run workloads repeatedly and summarize.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b] [--trace 0|1]

Each run is a separate ``run.py`` process with its own seed (first-seed,
first-seed + 1, ...), measuring BENCHMARK.json's run_seconds.  For every metric this prints the median and the
quartiles over the runs (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and for end-to-end metrics the bound from BENCHMARK.json.
A spread under a third of the bound is marked "ok".  With --runs 1 it is the
one command that runs every workload and prints every metric with its unit,
its sample count and the failure share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1]), proc.stderr


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "min": values[0], "max": values[-1], "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            detail, result, stderr = one_run(workload, seed, bench["run_seconds"], args.trace)
            runs.append((detail, result))
            print(f"# {workload} seed {seed}: requests {detail['requests']}, "
                  f"fail_frac {detail['fail_frac']:.4g}, correct {result['correct']}", flush=True)
            for line in stderr.splitlines()[:5]:
                print(f"#   {line}", flush=True)
        metrics = {}
        for name, first in runs[0][1]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for _, r in runs])
            s["unit"] = first["unit"]
            s["samples"] = statistics.median(d["samples"].get(name, 1) for d, _ in runs)
            if name in bounds:
                s["bound"] = bounds[name]
            metrics[name] = s
        fails = summarize([d["fail_frac"] for d, _ in runs])
        correct = all(r["correct"] for _, r in runs)

        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, all correct: {correct}, "
              f"fail_frac median {fails['median']:.4g} (max {fails['max']:.4g})")
        print(f"  {'metric':34s} {'unit':9s} {'n/run':>7s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, s in metrics.items():
            bound = s.get("bound")
            mark = ""
            if bound is not None:
                mark = "ok" if s["spread"] < bound / 3 else ("within" if s["spread"] < bound else "WIDE")
            print(f"  {name:34s} {s['unit']:9s} {s['samples']:7g} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6} {mark}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
