"""Seeded request streams and output checks for the benchmark workloads.

Every request is the argument list of one ``cartanconj`` CLI call.  A stream
is an endless sequence of blocks, each a list of requests.  The cost of a
request depends strongly on its stratum and modulus, so every block holds the
same mix (one modulus drawn in each band, strata in a fixed pattern), and the
run loop stops only between blocks.  A faster program then runs more blocks of
the same mix, not a different mix.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Tolerances.bound_slack: the benchmark's own t_conj >= t_max1 check uses the
# slack the program documents for its lower_ok flag.
BOUND_SLACK = 1e-6
# stratum -> (modulus band, phases per row).  A C2 covector costs about 3/4
# of a C1 one, so C2 rows get more phases: requests of both strata then take
# about the same time and the latency median does not sit in a gap between two
# clusters, where it would jump from run to run.
SWEEP = {"C1": ((0.05, 0.95), 6), "C2": ((0.25, 0.95), 8)}
SWEEP_NK = 2             # modulus rows per sweep request
SWEEP_BLOCK = 4          # sweep requests per stratum in a block


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str                   # "conj" | "sweep" | "verify"
    items: int                  # covectors (conj, sweep) or 1 (verify: set from its output)
    stratum: str = ""
    cross_check: bool = False


@dataclass
class Outcome:
    items: int
    failed: int
    wrong: list = field(default_factory=list)   # benchmark's own output checks that failed
    values: list = field(default_factory=list)  # (t_max1, t_conj) pairs, for the reference
    note: str = ""


def _f(x: float) -> str:
    return repr(float(x))


def _bands(rng: random.Random, lo: float, hi: float, n: int):
    """One draw in each of n equal sub-bands of [lo, hi), shuffled."""
    w = (hi - lo) / n
    ks = [lo + (i + rng.random()) * w for i in range(n)]
    rng.shuffle(ks)
    return ks


def _elliptic_conj(rng, stratum, k, cross_check):
    argv = ["conj", "--stratum", stratum, "--phi", _f(rng.uniform(0.0, 10.0)),
            "--k", _f(k), "--alpha", _f(rng.uniform(0.5, 2.0)),
            "--beta", _f(rng.uniform(-math.pi, math.pi)),
            f"--direction={rng.choice((1, -1))}"]
    if not cross_check:
        argv.insert(1, "--no-cross-check")
    return Request(tuple(argv), "conj", 1, stratum, cross_check)


def _degenerate_conj(rng, stratum):
    """A covector of C3..C7, given in cylinder coordinates."""
    beta = rng.uniform(-math.pi, math.pi)
    alpha = rng.uniform(0.5, 2.0)
    if stratum == "C3":     # separatrix: c^2/2 - alpha cos(psi) = alpha
        psi = rng.uniform(-3.0, 3.0)
        theta, c = beta + psi, rng.choice((1, -1)) * 2.0 * math.sqrt(alpha) * math.cos(psi / 2.0)
    elif stratum == "C4":   # stable equilibrium
        theta, c = beta, 0.0
    elif stratum == "C5":   # unstable equilibrium
        theta, c = beta + math.pi, 0.0
    elif stratum == "C6":   # gravity-free rotation
        theta, c, alpha = rng.uniform(-math.pi, math.pi), rng.choice((1, -1)) * rng.uniform(0.5, 3.0), 0.0
    else:                   # C7: the zero covector's stratum
        theta, c, alpha = rng.uniform(-math.pi, math.pi), 0.0, 0.0
    argv = ("conj", "--theta", _f(theta), "--c", _f(c), "--alpha", _f(alpha), "--beta", _f(beta))
    return Request(argv, "conj", 1, stratum, False)


def sweep_grid(rng: random.Random):
    """Blocks of eight sweeps of SWEEP_NK modulus rows each, C1 and C2 alternating.

    The rows of one request are evenly spaced across the stratum's modulus
    band, from an offset drawn in one quarter of its range; a block has one
    request per quarter and stratum.  Request cost climbs with the modulus
    (C1 rows near 0.95 cost most), so every block then holds the same spread
    of costs and the latency tail does not hinge on the seed's draws.  Alpha
    keeps the CLI default of 1 (it only rescales time, but sets the length of
    every scan).
    """
    width = {s: (hi - lo) * (SWEEP_NK - 1) / SWEEP_NK for s, ((lo, hi), _) in SWEEP.items()}
    while True:
        offsets = {s: _bands(rng, lo, hi - width[s], SWEEP_BLOCK) for s, ((lo, hi), _) in SWEEP.items()}
        block = []
        for i in range(SWEEP_BLOCK):
            for stratum, (_, nphi) in SWEEP.items():
                k0 = offsets[stratum][i]
                argv = ("sweep", "--stratum", stratum,
                        "--k-range", f"{_f(k0)}:{_f(k0 + width[stratum])}",
                        "--nk", str(SWEEP_NK), "--nphi", str(nphi),
                        "--beta", _f(rng.uniform(-math.pi, math.pi)))
                block.append(Request(argv, "sweep", SWEEP_NK * nphi, stratum))
        yield block


def conj_scatter(rng: random.Random):
    """Blocks of ten: four C1, four C2 (k >= 0.25), one C6, one of C3/C4/C5/C7."""
    others = ("C3", "C4", "C5", "C7")
    n = 0
    while True:
        c1 = _bands(rng, 0.25, 0.95, 4)
        c2 = _bands(rng, 0.25, 0.95, 4)
        block = []
        for i in range(4):
            block.append(_elliptic_conj(rng, "C1", c1[i], True))
            block.append(_elliptic_conj(rng, "C2", c2[i], True))
            if i == 1:
                block.append(_degenerate_conj(rng, others[n % 4]))
        block.append(_degenerate_conj(rng, "C6"))
        n += 1
        yield block


def c2_small_k(rng: random.Random):
    """C2 covectors with k in [0.05, 0.2), the mpmath branches of the program.

    A request takes seconds, so a block is three of them, one per third of the
    band, and fits in one run.
    """
    while True:
        yield [_elliptic_conj(rng, "C2", k, False) for k in _bands(rng, 0.05, 0.2, 3)]


def verify_all(seed: int):
    """verify --suite all, with the benchmark seed as the suites' seed, repeated."""
    while True:
        yield [Request(("verify", "--suite", "all", "--seed", str(seed)), "verify", 1)]


WORKLOADS = ("sweep_grid", "conj_scatter", "c2_small_k", "verify_all")


def stream(workload: str, seed: int):
    """The endless block stream of a workload."""
    if workload == "verify_all":
        return verify_all(seed)
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep_grid": sweep_grid, "conj_scatter": conj_scatter,
            "c2_small_k": c2_small_k}[workload](rng)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _num(x) -> float:
    return math.inf if x in ("inf", math.inf) else float(x)


def _bound_holds(t_max: float, t_conj: float) -> bool:
    return t_conj >= t_max - BOUND_SLACK * max(1.0, abs(t_max))


def _check_conj(req: Request, rc, out: str) -> Outcome:
    if rc != 0:
        return Outcome(1, 1, note=f"exit {rc}")
    try:
        res = json.loads(out)
        t_max, t_conj = _num(res["t_max1"]), _num(res["t_conj"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(1, 1, [f"unparseable conj output: {exc}"])
    o = Outcome(1, 0, values=[(t_max, t_conj)])
    if not (res.get("lower_ok") is True and res.get("upper_ok") is True):
        o.failed, o.note = 1, "bound flag false"
    if res.get("stratum") != req.stratum:
        o.wrong.append(f"stratum {res.get('stratum')} != {req.stratum}")
    if req.stratum in ("C1", "C2"):
        method = "analytic+variational" if req.cross_check else "analytic"
        if res.get("method") != method:
            o.failed, o.note = 1, f"method {res.get('method')}"
        if not (math.isfinite(t_max) and math.isfinite(t_conj) and _bound_holds(t_max, t_conj)):
            o.wrong.append(f"t_conj {t_conj} vs t_max1 {t_max}")
    elif req.stratum == "C6":
        if not (math.isfinite(t_max) and t_conj == t_max):
            o.wrong.append(f"C6 needs t_conj == t_max1, got {t_conj} vs {t_max}")
    elif not (math.isinf(t_max) and math.isinf(t_conj)):
        o.wrong.append(f"{req.stratum} needs infinite times, got {t_max}, {t_conj}")
    return o


def _check_sweep(req: Request, rc, out: str) -> Outcome:
    if rc != 0:
        return Outcome(req.items, req.items, note=f"exit {rc}")
    lines = out.strip().splitlines()
    header = lines[0].split(",") if lines else []
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    o = Outcome(req.items, 0)
    if len(rows) != req.items:
        o.wrong.append(f"{len(rows)} sweep rows, expected {req.items}")
    for row in rows:
        if row.get("error") or row.get("lower_ok") != "true" or row.get("upper_ok") != "true":
            o.failed += 1
            o.note = f"row error {row.get('error')!r}"
            continue
        try:
            t_max, t_conj = _num(row["t_max1"]), _num(row["t_conj"])
        except (KeyError, ValueError) as exc:
            o.wrong.append(f"unparseable sweep row: {exc}")
            continue
        o.values.append((t_max, t_conj))
        if row.get("stratum") != req.stratum or not _bound_holds(t_max, t_conj):
            o.wrong.append(f"sweep row {row}")
    return o


def _check_verify(req: Request, rc, out: str) -> Outcome:
    lines = out.splitlines()
    checks = [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))]
    failed = [ln for ln in checks if ln.startswith("[FAIL]")]
    if rc not in (0, 1) or not checks:
        return Outcome(max(1, len(checks)), max(1, len(checks)), note=f"exit {rc}")
    o = Outcome(len(checks), len(failed), note="; ".join(failed)[:300])
    if (rc == 0) != (not failed):
        o.wrong.append(f"verify exit {rc} with {len(failed)} failed checks")
    return o


def check(req: Request, rc, out: str) -> Outcome:
    return {"conj": _check_conj, "sweep": _check_sweep, "verify": _check_verify}[req.kind](req, rc, out)
