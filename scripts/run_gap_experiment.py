#!/usr/bin/env python3
"""Measure the distributed-vs-centralized optimality gap over many seeds.

For each seed: generate an instance, solve the joint LP centrally, run the
consensus solver, and report the relative gap, iteration count, and wall
times.  Both solvers return a judged ``Solution``; the ADMM iteration count
and ``converged`` verdict are read from its ``stats``.  Writes a CSV next to
printing a table.

Usage:  python3 scripts/run_gap_experiment.py [--seeds N] [--out gaps.csv]
"""

import argparse
import csv
import time

from chargeplan.admm import run_admm
from chargeplan.central import solve_centralized
from chargeplan.datagen import GenParams, generate_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default="gap_experiment.csv")
    parser.add_argument("--n-locations", type=int, default=20)
    parser.add_argument("--n-slots", type=int, default=96)
    parser.add_argument("--range-km", type=float, default=3.7)
    args = parser.parse_args()

    rows = []
    for seed in range(args.seeds):
        params = GenParams(
            n_locations=args.n_locations,
            n_slots=args.n_slots,
            seed=seed,
            range_km=args.range_km,
            alpha_a=1000.0,
            alpha_b=9000.0,
            assign_price_per_km=80.0,
        )
        inst = generate_instance(params)
        t0 = time.perf_counter()
        central = solve_centralized(inst)
        t1 = time.perf_counter()
        sol, _ = run_admm(inst)
        t2 = time.perf_counter()
        gap = 100.0 * (sol.cost.total - central.cost.total) / central.cost.total
        rows.append(
            {
                "seed": seed,
                "central_total": central.cost.total,
                "admm_total": sol.cost.total,
                "gap_pct": gap,
                "iterations": sol.stats["iterations"],
                "converged": sol.stats["converged"],
                "central_s": t1 - t0,
                "admm_s": t2 - t1,
            }
        )
        print(
            f"seed {seed}: gap {gap:6.3f}%  iters {sol.stats['iterations']:3d}  "
            f"central {t1 - t0:5.1f}s  admm {t2 - t1:5.1f}s"
        )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    worst = max(r["gap_pct"] for r in rows)
    print(f"worst gap {worst:.3f}% over {len(rows)} seeds -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
