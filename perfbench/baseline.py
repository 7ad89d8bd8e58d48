#!/usr/bin/env python3
"""Reproduce the Baseline table of ROADMAP.md, outside the gated workloads.

Random linear sources with p = 101 and N = 2m; each user has 1..m rows,
and the generator is seeded with m.  Columns: filling all 2^m subset
ranks of a fresh oracle, then, on that warm oracle, the sum rate (rco),
the weighted optimum (weights 1..m), the ilp optimum at n = 2, code
construction at those rates and the verification of the scheme.  Solver
columns are the median of three runs; the rank fill runs once.

    python3 perfbench/baseline.py            # m = 10 and 12, about 25 s
    python3 perfbench/baseline.py --m 14     # about 100 s for the ranks alone
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import run
from workloads import linear_matrices

# Seconds, from ROADMAP.md (2-CPU machine, single runs).
ROADMAP = {
    10: {"ranks": 2.12, "rco": 0.042, "weighted": 0.008, "ilp": 0.020,
         "construct": 0.026, "verify": 0.084},
    12: {"ranks": 13.3, "rco": 0.177, "weighted": 0.106, "ilp": 0.128,
         "construct": 0.041, "verify": 0.116},
    14: {"ranks": 96.8, "rco": 0.677, "weighted": 0.428, "ilp": 0.491,
         "construct": 0.068, "verify": 0.237},
}
COLUMNS = ("ranks", "rco", "weighted", "ilp", "construct", "verify")
# A cell is reported as different when it is off by more than this factor;
# single runs on a shared 2-CPU machine move by up to about 20%.
NOISE = 1.25
REPS = 3


def timed(fn, reps: int):
    times, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def measure(ox, m: int) -> dict:
    rng = random.Random(m)
    rows = [rng.randint(1, m) for _ in range(m)]
    mats = linear_matrices(rng, rows, 2 * m, 101, ox.field)
    src = ox.sources.make_linear_source(mats, p=101, N=2 * m)
    oracle = ox.sources.EntropyOracle(src)

    def fill():
        for mask in range(1 << m):
            oracle.entropy(mask)

    row = {}
    row["ranks"], _ = timed(fill, 1)
    row["rco"], rco = timed(lambda: ox.rates.rco_sum_rate(oracle), REPS)
    alpha = tuple(range(1, m + 1))
    row["weighted"], _ = timed(
        lambda: ox.rates.minimize_weighted(oracle, alpha, rco=rco), REPS)
    row["ilp"], ilp = timed(lambda: ox.rates.ilp_rates(oracle, alpha, 2, rco=rco), REPS)
    row["construct"], scheme = timed(
        lambda: ox.netcode.construct_code(src, ilp.rates, 2, seed=0), REPS)
    row["verify"], ok = timed(lambda: ox.netcode.verify_omniscience(src, scheme), REPS)
    if not ok or not ox.rates.verify_feasible(oracle, ilp.rates):
        raise SystemExit(f"m={m}: the constructed scheme or the ilp rates do not check")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m", type=int, nargs="+", default=[10, 12])
    args = parser.parse_args(argv)
    run.pin_threads()
    ox = run.import_omniex()
    print("| m | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    rows = {}
    for m in args.m:
        row = rows[m] = measure(ox, m)
        cells = []
        for col in COLUMNS:
            cell = f"{row[col]:.3f} s"
            ref = ROADMAP.get(m, {}).get(col)
            if ref is not None:
                ratio = row[col] / ref
                cell += f" ({ratio:.2f}x{' DIFFERS' if not 1 / NOISE <= ratio <= NOISE else ''})"
            cells.append(cell)
        print(f"| {m} | " + " | ".join(cells) + " |")
    print(json.dumps({"baseline": {"machine": run.machine(), "seconds": rows,
                                   "roadmap_seconds": {m: ROADMAP.get(m) for m in rows}}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
