"""Benchmark of the cartanconj CLI: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the library is imported from its ``src`` directory.
Each request is an argument list passed in-process to ``cartanconj.cli.main``,
the user's path, and the next request starts only after the previous one
returns.  The program's caches are emptied before every request, as a user's
fresh CLI process would find them.  Requests come in blocks of a fixed mix
(see workloads.py); the loop stops before a block that would, at the median
block time so far, end after S seconds (at least one block always runs).

--trace 0 prints the end-to-end metrics: the import of ``cartanconj.cli``
timed in fresh processes (setup_s), request latency percentiles, items per
second and peak memory.  --trace 1 picks requests for a third of S seconds,
repeats them traced and then untraced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  The line before it ("detail ...") gives
sample counts and the failure share.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 0
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cartanconj.cli; "
                "print(time.perf_counter() - t)")


def setup_times(n: int) -> list[float]:
    """Import time of cartanconj.cli, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def load_cli():
    """Import cartanconj.cli from SRC with BLAS/OpenMP pinned to one thread.

    Returns the module and the import time, or exits with code 2 when the
    checkout has no sources or the import resolves elsewhere.
    """
    if not (SRC / "cartanconj" / "__init__.py").is_file():
        print(f"error: no cartanconj sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in THREAD_VARS:        # nproc is 2 here; BLAS and OpenMP pinned to one thread
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from cartanconj import cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "cartanconj").resolve():
        print(f"error: imported cartanconj from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli, import_s


class Loop:
    """The closed loop: requests, their latencies and their checked outcomes."""

    def __init__(self, cli):
        self.cli = cli
        self.requests = []
        self.latency = []
        self.outcomes = []
        self.exit_codes = []
        self.cache_hits = 0         # Maxwell root caches, summed over requests
        self.cache_misses = 0

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(req.argv))
        except Exception:  # a crashing request is counted as failed; the run goes on
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt

    def run(self, blocks, seconds=None, count=None, tracer=None):
        """Run `count` requests if given, else blocks until `seconds` are up."""
        start = time.perf_counter()
        block_s = []
        for block in blocks:
            if (count is None and seconds is not None and block_s
                    and time.perf_counter() - start + statistics.median(block_s) > seconds):
                break
            t0 = time.perf_counter()
            for req in block:
                if count is not None and len(self.latency) >= count:
                    return self
                if tracer is not None:
                    tracer.request = len(self.latency)
                spans.clear_caches()
                rc, out, dt = self.call(req)
                hits, misses = spans.root_cache_stats()
                self.cache_hits += hits
                self.cache_misses += misses
                self.requests.append(req)
                self.latency.append(dt)
                self.exit_codes.append(rc)
                self.outcomes.append(workloads.check(req, rc, out))
            block_s.append(time.perf_counter() - t0)
        return self

    @property
    def attempted(self):
        return sum(o.items for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failed for o in self.outcomes)

    def wrong(self):
        return [w for o in self.outcomes for w in o.wrong]


def reference_mismatches(workload: str, loop: Loop):
    """Differences from the committed outputs of the default seed."""
    ref = json.loads(REFERENCE.read_text())
    tol = ref["rel_tol"]
    bad = []
    for i, entry in enumerate(ref["workloads"].get(workload, [])[:len(loop.requests)]):
        if list(loop.requests[i].argv) != entry["argv"]:
            bad.append(f"request {i}: argv differs from the reference")
            continue
        got = loop.outcomes[i].values
        if len(got) != len(entry["values"]):
            bad.append(f"request {i}: {len(got)} results, reference has {len(entry['values'])}")
            continue
        for (a, b), (ra, rb) in zip(got, entry["values"]):
            for x, r in ((a, ra), (b, rb)):
                r = float(r)
                if not (x == r or abs(x - r) <= tol * abs(r)):
                    bad.append(f"request {i}: {x!r} vs reference {r!r}")
    return bad


def e2e_metrics(loop: Loop, setup: list[float]) -> tuple[dict, dict]:
    """Values of the end-to-end metrics, and the sample count behind each.

    A request all of whose operations failed (a conj that exits 3 after a
    fraction of its usual time, say) is left out of the latencies, and failed
    operations are left out of the throughput: a run is not faster for failing.
    """
    done = [o.failed < o.items for o in loop.outcomes]
    lat_ms = [t * 1e3 for t, ok in zip(loop.latency, done) if ok] or [t * 1e3 for t in loop.latency]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    busy = sum(loop.latency)
    good = loop.attempted - loop.failed
    metrics = {
        "setup_s": statistics.median(setup),
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": p90,
        "items_per_s": good / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup), "req_p50_ms": len(lat_ms), "req_p90_ms": len(lat_ms),
               "items_per_s": good, "peak_rss_mb": 1}
    return metrics, samples


def trace_metrics(cli_module, stream, args, import_s):
    # pass 1 picks the requests and pays the one-time costs (lazy imports,
    # first calls); passes 2 and 3 repeat them traced and untraced, so that
    # their difference is the tracing overhead
    first = Loop(cli_module).run(stream, seconds=args.seconds / 3.0, count=args.requests)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = Loop(cli_module).run([first.requests], tracer=tracer)
    finally:
        tracer.uninstall()
    untraced = Loop(cli_module).run([first.requests])
    m = spans.summarize(tracer, traced.cache_hits, traced.cache_misses)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    wall, base = sum(traced.latency), sum(untraced.latency)
    n_req = len(traced.requests)
    m["cli.import_s"] = import_s
    m["cli.errors"] = sum(rc != 0 for rc in traced.exit_codes)
    m["verify.checks_failed"] = sum(o.failed for o, r in zip(traced.outcomes, traced.requests)
                                    if r.kind == "verify")
    m["trace.requests"] = n_req
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = base
    m["trace.overhead_s"] = wall - base
    m["trace.overhead_share"] = (wall - base) / base
    if tracer.missing:
        print(f"note: entry points not found: {', '.join(tracer.missing)}", file=sys.stderr)
    return m, traced, {"trace.requests": n_req}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int,
                    help="run exactly this many requests instead of a timed window "
                         "(exact per-layer counts, self-test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or (args.requests is not None and args.requests < 1):
        ap.error("--seconds and --requests must be positive")

    cli, import_s = load_cli()
    setup = [] if args.trace else setup_times(SETUP_PROBES)
    stream = workloads.stream(args.workload, args.seed)
    if args.trace:
        values, loop, samples = trace_metrics(cli, stream, args, import_s)
    else:
        loop = Loop(cli).run(stream, seconds=args.seconds, count=args.requests)
        values, samples = e2e_metrics(loop, setup)
    declared = BENCH["per_layer" if args.trace else "end_to_end"]

    wrong = loop.wrong()
    if args.seed == DEFAULT_SEED:
        wrong += reference_mismatches(args.workload, loop)
    for w in wrong[:20]:
        print(f"wrong: {w}", file=sys.stderr)
    notes = sorted({o.note for o in loop.outcomes if o.failed and o.note})
    for note in notes[:20]:
        print(f"failed: {note}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "requests": len(loop.requests),
              "fail_frac": loop.failed / loop.attempted, "samples": samples}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
