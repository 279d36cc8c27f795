#!/usr/bin/env python3
"""Regenerate the golden LP reference file used by the acceptance suite.

Builds a fixed family of 25 desk-tiny instances, lowers each to an LP,
writes it as an MPS file, and has HiGHS (the binding scipy bundles) read
that file with its own MPS reader and solve it.  The stored objectives are
therefore an external reference independent of the embedded simplex: the
acceptance suite re-solves the same instances with the embedded simplex and
compares.

Usage:  python3 scripts/make_golden.py [out.json]
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.optimize._highspy import _core as highspy

from chargeplan.central import build_lp
from chargeplan.io import instance_to_dict
from chargeplan.model import FORBIDDEN, PlanningInstance
from chargeplan.mps import write_mps

N_CASES = 25


def golden_instance(case: int) -> PlanningInstance:
    """Deterministic tiny instance: 3 locations, 4 slots, integer flows."""
    rng = np.random.default_rng(9000 + case)
    n, T = 3, 4
    flow = rng.integers(0, 3, size=(T, n)).astype(float)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = rng.choice(len(pairs), size=2, replace=False)
    cost = np.full((n, n), FORBIDDEN)
    np.fill_diagonal(cost, 0.0)
    for k in keep:
        i, j = pairs[int(k)]
        cost[i, j] = float(rng.uniform(0.05, 0.5))
    delay = rng.integers(0, 3, size=(n, n))
    np.fill_diagonal(delay, 0)
    return PlanningInstance(
        n_locations=n,
        n_slots=T,
        flow=flow,
        alpha=np.ones((T, n)),
        beta=float(rng.uniform(0.5, 2.0)),
        assign_cost=cost,
        delay=delay,
        base_cost=float(rng.uniform(0.5, 2.0)),
        location_cost=rng.uniform(0.0, 1.0, size=n),
        budget=1e9,
        capacity_max=np.full(n, 1e6),
        recurrence=rng.uniform(0.5, 2.0, size=T),
        range_limit=10.0,
    )


def external_objective(instance: PlanningInstance, workdir: Path) -> float:
    """Objective of the MPS file, as HiGHS reads and solves it."""
    mps_path = workdir / "model.mps"
    write_mps(build_lp(instance), mps_path)
    highs = highspy._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.readModel(str(mps_path)) != highspy.HighsStatus.kOk:
        raise RuntimeError(f"HiGHS did not read {mps_path} cleanly")
    highs.run()
    status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        raise RuntimeError(f"external solve failed: {highs.modelStatusToString(status)}")
    return float(highs.getInfo().objective_function_value)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "tests" / "data" / "central_golden.json"
    )
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(N_CASES):
            inst = golden_instance(case)
            obj = external_objective(inst, Path(tmp))
            cases.append({"instance": instance_to_dict(inst), "objective": obj})
            print(f"case {case:2d}: objective {obj:.9g}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"version": 1, "cases": cases}, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
