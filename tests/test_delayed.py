"""Cross-route checks on the delayed family, where every shipment takes at
least one slot to arrive: the cyclic arrival gather, the delayed capacity
rows of the LP and the ADMM arrival slots all carry weight here."""

import dataclasses

import numpy as np
import pytest

from chargeplan.admm import run_admm
from chargeplan.central import (
    _HIGHS_OPTIONS,
    build_lp,
    solve_base_model,
    solve_centralized,
    solve_lp,
    sweep_range,
)
from chargeplan.datagen import with_range_limit
from chargeplan.model import InfeasibleProblemError, check_feasibility
from chargeplan.mps import write_mps

from conftest import highs_read


def test_warm_sweep_equals_cold_solves(delayed):
    r_values = [8.0, 0.0, 3.0, 5.0]
    rows = sweep_range(delayed, r_values)
    assert [row["R_km"] for row in rows] == r_values
    for r, row in zip(r_values, rows):
        cold = solve_centralized(with_range_limit(delayed, r))
        assert row["total"] == pytest.approx(cold.cost.total, rel=1e-9)


def test_base_bounds_central_and_the_central_plan_passes_the_check(delayed):
    central = solve_centralized(delayed)
    assert central.assignment.z.sum() > 0  # the plan ships, so delays bind
    assert central.cost.total <= solve_base_model(delayed).cost.total * (1 + 1e-9)
    report = check_feasibility(delayed, central.investment, central.assignment, tol=1e-6)
    assert report.feasible, report.residuals


def test_highs_reads_the_mps_file_back_to_the_same_objective(delayed, tmp_path):
    lp = build_lp(delayed)
    path = tmp_path / "delayed.mps"
    write_mps(lp, path)
    highs = highs_read(path)
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    _, read = solve_lp(lp, highs)
    assert read["lp_objective"] == pytest.approx(solve_centralized(delayed).cost.total,
                                                 rel=1e-9)


def test_admm_exits_3_only_where_the_lp_is_infeasible(delayed):
    # caps below and at each own peak, with and without a budget under the
    # no-assignment investment, at the full range and at one that strands
    # some locations; the central LP is the referee
    verdicts = set()
    for r in (8.0, 3.0):
        inst = with_range_limit(delayed, r)
        own = inst.beta * inst.charging_demand.max(axis=0)
        for scale in (0.5, 0.7, 1.0):
            for budget in (np.inf, 0.8 * float(inst.unit_investment_cost @ own)):
                case = dataclasses.replace(inst, capacity_max=scale * own, budget=budget)
                try:
                    solve_centralized(case)
                    lp_feasible = True
                except InfeasibleProblemError:
                    lp_feasible = False
                try:
                    sol, conv = run_admm(case)
                except InfeasibleProblemError:
                    assert not lp_feasible, (r, scale, budget)
                    verdicts.add("infeasible")
                    continue
                assert sol.feasibility.feasible or not conv.converged, (r, scale, budget)
                verdicts.add("converged" if conv.converged else "stalled")
    assert "converged" in verdicts
