"""Write reference.json: t_max1 and t_conj of the first requests of the default seed.

    python3 perfbench/make_reference.py

run.py compares every run on the default seed against this file, value by
value, to the relative tolerance ``rel_tol`` stored in it.  Regenerate it only
when the request streams in workloads.py change, never to absorb a change of
the program's numbers.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REL_TOL = 1e-9       # t_max1 and t_conj are located to root_xtol = 1e-12 in time
PREFIX = {"sweep_grid": 2, "conj_scatter": 10, "c2_small_k": 3}


def main() -> int:
    cli, _ = run.load_cli()
    ref = {"rel_tol": REL_TOL, "seed": run.DEFAULT_SEED, "workloads": {}}
    for workload, count in PREFIX.items():
        loop = run.Loop(cli).run(workloads.stream(workload, run.DEFAULT_SEED), count=count)
        if loop.failed or loop.wrong():
            print(f"error: {workload} fails on the default seed", file=sys.stderr)
            return 1
        ref["workloads"][workload] = [
            {"argv": list(req.argv), "values": [[repr(a), repr(b)] for a, b in out.values]}
            for req, out in zip(loop.requests, loop.outcomes)]
    # one request per line, so that a diff of this file reads request by request
    body = ",\n".join(f" {json.dumps(w)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries)
                       + "\n ]" for w, entries in ref.pop("workloads").items())
    head = json.dumps(ref)[:-1]
    run.REFERENCE.write_text(f'{head}, "workloads": {{\n{body}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
