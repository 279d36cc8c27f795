#!/usr/bin/env python3
"""Sweep the assignment range limit R and tabulate cost against the baseline.

Generates one synthetic instance, solves the joint LP at each R through
``chargeplan.central.sweep_range`` (the path ``chargeplan sweep-r`` takes),
and prints investment/assignment/total cost plus the reduction against the
no-assignment baseline (R large enough that nothing is reachable is exactly
that baseline).

Usage:  python3 scripts/run_r_sweep.py [--r 0,1,3,5,7] [--seed 0]
"""

import argparse

from chargeplan.central import solve_base_model, sweep_range
from chargeplan.datagen import GenParams, generate_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", default="0,1,3,5,7")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-locations", type=int, default=9)
    parser.add_argument("--n-slots", type=int, default=48)
    args = parser.parse_args()

    params = GenParams(
        n_locations=args.n_locations,
        n_slots=args.n_slots,
        seed=args.seed,
        range_km=8.0,
    )
    inst = generate_instance(params)
    base = solve_base_model(inst)
    print(f"baseline (no assignment): {base.cost.total:,.0f}")
    print(f"{'R_km':>6}  {'investment':>14}  {'assignment':>12}  "
          f"{'total':>14}  {'vs base':>8}")
    for row in sweep_range(inst, [float(v) for v in args.r.split(",")]):
        red = 100.0 * (base.cost.total - row["total"]) / base.cost.total
        if abs(red) < 1e-9:
            red = 0.0
        print(
            f"{row['R_km']:6.1f}  {row['investment']:14,.0f}  "
            f"{row['assignment']:12,.0f}  {row['total']:14,.0f}  "
            f"{red:7.1f}%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
