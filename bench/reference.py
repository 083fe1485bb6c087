"""Write the tau reference table of the benchmark with HiGHS.

Usage, from the repository root:

    python3 bench/reference.py

For every solver instance of `search-ladder` and `wide-solve` this builds
the facet list with spheretrans and solves the hitting-set integer program
min sum(x) subject to sum(x_v for v in F) >= 1 for every facet F, x binary,
with scipy.optimize.milp (HiGHS) at zero gap.  The transversal solver of
spheretrans is never called.  Labels are the seed-0 labels; tau does not
depend on labels, so the table holds for every seed.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import scipy
from scipy.optimize import Bounds, LinearConstraint, milp

import instances as inst
from run import REFERENCE, import_program


def highs_tau(facets) -> int:
    vertices = sorted({v for f in facets for v in f})
    col = {v: j for j, v in enumerate(vertices)}
    a = np.zeros((len(facets), len(vertices)))
    for i, f in enumerate(facets):
        for v in f:
            a[i, col[v]] = 1
    res = milp(
        c=np.ones(len(vertices)),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(vertices)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality: {res.message}")
    chosen = {v for v, x in zip(vertices, res.x) if x > 0.5}
    if any(chosen.isdisjoint(f) for f in facets):
        raise RuntimeError("HiGHS solution misses a facet")
    return len(chosen)


def main() -> int:
    st = import_program()
    table = {}
    for family, params in inst.SEARCH_LADDER + inst.WIDE_SOLVE + [inst.DISJOINT]:
        key = inst.name(family, params)
        facets = sorted(inst.build(st, family, params, cache={}).facets)
        started = time.perf_counter()
        tau = highs_tau(facets)
        print(f"{key:24s} tau={tau:3d}  {time.perf_counter() - started:.2f} s", flush=True)
        table[key] = {
            "tau": tau,
            "vertices": len({v for f in facets for v in f}),
            "facets": len(facets),
        }
    doc = {"solver": f"scipy {scipy.__version__} milp (HiGHS)", "instances": table}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} rows to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
