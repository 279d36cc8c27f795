"""Acceptance suite: one test per shipped guarantee, each against an
independent oracle (golden external solves, exhaustive enumeration,
generic NLP solver, hand-computed fixtures).

Criterion 2/3/6 share one set of reference runs via a module-scoped
fixture; everything else is self-contained.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from chargeplan.admm import AdmmConfig, run_admm, solve_master
from chargeplan.central import build_lp, solve_base_model, solve_centralized, sweep_range
from chargeplan.datagen import GenParams, generate_instance, sample_alpha
from chargeplan.ingest import BinningSpec, build_distances, build_flows, parse_trips
from chargeplan.io import instance_from_dict
from chargeplan.model import check_feasibility

from conftest import brute_force_integer_optimum, make_instance, solve_with_simplex

DATA = Path(__file__).parent / "data"

# instance family for the distributed-vs-centralized guarantee: smooth
# charging ratios and per-km pricing high enough that redirection decisions
# stay local, which the consensus scheme resolves to optimality
FAMILY = [
    GenParams(
        n_locations=20,
        n_slots=96,
        seed=seed,
        range_km=3.7,
        alpha_a=1000.0,
        alpha_b=9000.0,
        assign_price_per_km=80.0,
    )
    for seed in range(5)
]

HET_PARAMS = GenParams(n_locations=9, n_slots=48, seed=0, range_km=8.0)


@pytest.fixture(scope="module")
def family_runs():
    """(instance, centralized solution, admm solution, admm history) per seed."""
    runs = []
    for params in FAMILY:
        inst = generate_instance(params)
        central = solve_centralized(inst)
        sol, history = run_admm(inst, AdmmConfig(rho=0.1, threshold=1e-4))
        runs.append((inst, central, sol, history))
    return runs


@pytest.fixture(scope="module")
def het_instance():
    return generate_instance(HET_PARAMS)


def test_criterion_1_simplex_vs_golden_and_enumeration():
    """Embedded simplex equals the external golden solves and lower-bounds
    the exhaustive integer enumeration, on 25 tiny instances, within 10 s."""
    doc = json.loads((DATA / "central_golden.json").read_text())
    assert len(doc["cases"]) == 25
    start = time.perf_counter()
    for case in doc["cases"]:
        inst = instance_from_dict(case["instance"])
        golden = case["objective"]
        sol = solve_with_simplex(inst)
        # route A (embedded simplex) against route B (MPS file -> HiGHS)
        assert sol.cost.total == pytest.approx(
            golden, rel=1e-6, abs=1e-6
        ), "embedded simplex disagrees with the external golden solve"
        # route C: the LP relaxation can never exceed the best integer plan
        best_integer = brute_force_integer_optimum(inst)
        assert sol.cost.total <= best_integer + 1e-6 * max(1.0, abs(best_integer))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: 25 instances, dual-route agreement, {elapsed:.1f}s")


def test_criterion_2_distributed_matches_centralized(family_runs):
    """Consensus solver lands within 1% of the LP optimum on all 5 seeds."""
    worst = 0.0
    for inst, central, sol, _ in family_runs:
        gap = 100.0 * (sol.cost.total - central.cost.total) / central.cost.total
        assert gap <= 1.0, f"gap {gap:.3f}% exceeds 1%"
        assert gap >= -1e-4  # a feasible plan cannot genuinely beat the LP
        assert sol.stats["timings"]["wall_ms"] < 60_000.0
        worst = max(worst, gap)
    print(f"\nACCEPTANCE 2 PASS: worst gap {worst:.3f}% over {len(family_runs)} seeds")


def test_criterion_3_convergence_and_residual_identity(family_runs):
    """Both residuals reach 1e-4 within 200 iterations and the dual residual
    is exactly rho times the previous primal residual."""
    for inst, central, sol, history in family_runs:
        assert sol.stats["converged"]
        assert sol.stats["iterations"] <= 200
        assert history[-1].q_primal < 1e-4
        assert history[-1].q_dual < 1e-4
        for prev, cur in zip(history, history[1:]):
            assert cur.q_dual == pytest.approx(
                0.1 * prev.q_primal, abs=1e-9, rel=1e-9
            )
    iters = [sol.stats["iterations"] for _, _, sol, _ in family_runs]
    print(f"\nACCEPTANCE 3 PASS: iterations {iters}, residual identity holds")


def test_criterion_4_joint_beats_baseline(het_instance):
    """On demand-heterogeneous instances the joint model cuts total cost by
    at least 10% against the per-location baseline."""
    base = solve_base_model(het_instance)
    joint = solve_centralized(het_instance)
    assert joint.cost.total < base.cost.total
    reduction = 100.0 * (base.cost.total - joint.cost.total) / base.cost.total
    assert reduction >= 10.0
    print(f"\nACCEPTANCE 4 PASS: {reduction:.1f}% reduction vs baseline")


def test_criterion_5_range_sweep_monotonicity(het_instance):
    """Widening the range limit never hurts: totals and investment are
    non-increasing, assignment is non-decreasing, and R=0 is the baseline."""
    costs = [s.cost for s in sweep_range(het_instance, [0.0, 1.0, 3.0, 5.0, 7.0])]
    totals = [c.total for c in costs]
    invests = [c.investment for c in costs]
    assigns = [c.assignment for c in costs]
    scale = max(1.0, totals[0])
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-6 * scale
    for a, b in zip(invests, invests[1:]):
        assert b <= a + 1e-6 * scale
    for a, b in zip(assigns, assigns[1:]):
        assert b >= a - 1e-6 * scale
    base = solve_base_model(het_instance)
    assert totals[0] == pytest.approx(base.cost.total, rel=1e-9)
    assert costs[0].assignment == 0.0
    print(f"\nACCEPTANCE 5 PASS: monotone sweep, R=0 equals baseline")


def test_criterion_6_every_solution_is_feasible(family_runs, het_instance):
    """All solve paths hand back plans that pass the independent
    feasibility check at their advertised tolerances."""
    checked = 0
    for inst, central, admm_sol, _ in family_runs:
        for sol, tol in ((central, 1e-6), (admm_sol, 1e-4)):
            report = check_feasibility(inst, sol.investment, sol.assignment, tol=tol)
            assert report.feasible, report.residuals
            checked += 1
    for sol, tol in (
        (solve_base_model(het_instance), 1e-6),
        (solve_centralized(het_instance), 1e-6),
    ):
        report = check_feasibility(
            het_instance, sol.investment, sol.assignment, tol=tol
        )
        assert report.feasible, report.residuals
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: {checked} solutions re-verified feasible")


def test_criterion_7_master_step_vs_nlp_oracle():
    """The closed-form master update matches a generic constrained
    optimizer on 100 random cases to 1e-6."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 6))
        T = int(rng.integers(1, 4))
        flow = rng.uniform(0.0, 8.0, size=(T, n))
        cap = rng.uniform(6.0, 15.0, size=n)
        if np.any(flow.max(axis=0) > cap):
            continue
        w_base = float(rng.uniform(0.5, 2.0))
        d = flow.max(axis=0)
        w = np.full(n, w_base)
        floor_cost = float(w @ d)
        budget = float(rng.uniform(floor_cost, 1.5 * float(w @ cap) + 1e-9))
        inst = make_instance(
            flow, beta=1.0, base_cost=w_base, capacity_max=cap, budget=budget
        )
        c = rng.uniform(0.0, 15.0, size=n)
        lam = rng.uniform(-2.0, 2.0, size=n)
        rho = float(rng.uniform(0.05, 1.0))

        c_tilde, _ = solve_master(inst, c, lam, inst.charging_demand, rho)

        def objective(v):
            return float(lam @ v + 0.5 * rho * ((v - c) ** 2).sum())

        def gradient(v):
            return lam + rho * (v - c)

        res = scipy.optimize.minimize(
            objective,
            x0=np.clip(c, d, cap),
            jac=gradient,
            bounds=list(zip(d, cap)),
            constraints=[
                {"type": "ineq", "fun": lambda v: budget - float(w @ v),
                 "jac": lambda v: -w}
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.status == 8:
            # SLSQP can stall next to a binding budget ("Positive directional
            # derivative for linesearch"), depending on the BLAS thread
            # count; the trust-region interior-point method does not
            res = scipy.optimize.minimize(
                objective,
                x0=np.clip(c, d, cap),
                jac=gradient,
                hess=lambda v: rho * np.eye(n),
                bounds=scipy.optimize.Bounds(d, cap),
                constraints=[
                    scipy.optimize.LinearConstraint(w[None, :], -np.inf, budget)
                ],
                method="trust-constr",
                options={"initial_barrier_parameter": 1e-8, "gtol": 1e-12},
            )
        assert res.success, res.message
        scale = max(1.0, abs(res.fun))
        assert objective(c_tilde) <= res.fun + 1e-6 * scale
        assert float(w @ c_tilde) <= budget + 1e-6 * max(1.0, budget)
        assert np.all(c_tilde >= d - 1e-9)
        assert np.all(c_tilde <= cap + 1e-9)
        checked += 1
    print("\nACCEPTANCE 7 PASS: 100 master updates match the NLP oracle")


def test_criterion_8_trip_ingestion_exact_counts():
    """The 50-record fixture bins to exactly the hand-computed flows and
    mean distances; retained trips equal the flow total."""
    spec = BinningSpec(bbox=(0.0, 0.0, 1.0, 1.0), rows=2, cols=2,
                       slot_minutes=15, n_slots=672)
    parsed = parse_trips(DATA / "trips_50.csv")
    assert parsed.skipped == 3
    assert len(parsed.records) == 47

    flows = build_flows(parsed.records, spec)
    assert flows.dropped == 4
    expected = np.zeros((672, 4))
    expected[32, 1] = 18.0  # Monday 08:00 block, both weeks folded
    expected[34, 2] = 10.0  # Monday 08:30 block
    expected[132, 3] = 8.0  # Tuesday 09:00 block
    expected[659, 0] = 7.0  # Sunday 20:45 block
    np.testing.assert_array_equal(flows.flow, expected)
    assert flows.flow.sum() == len(parsed.records) - flows.dropped  # retained

    distances = build_distances(parsed.records, spec, flows.dest_zone)
    assert distances.distance[0, 1] == pytest.approx(51.0 / 18.0, abs=1e-9)
    assert distances.distance[1, 2] == pytest.approx(5.0, abs=1e-9)
    assert distances.distance[2, 3] == pytest.approx(1.5, abs=1e-9)
    assert distances.distance[3, 0] == pytest.approx(3.0, abs=1e-9)
    assert distances.counts[0, 1] == 18
    assert distances.counts[1, 2] == 10
    assert distances.counts[2, 3] == 8
    assert distances.counts[3, 0] == 7
    assert not distances.imputed[0, 1]
    assert distances.imputed[1, 0]  # never observed in that direction
    print("\nACCEPTANCE 8 PASS: exact flows and mean distances from 50 trips")


def test_criterion_9_charging_ratio_distribution():
    """Beta(10, 90) sampling: 1e5 draws land within 0.005 of the 0.1 mean."""
    draws = sample_alpha(10.0, 90.0, seed=7, shape=(100_000,))
    mean = float(draws.mean())
    assert abs(mean - 0.1) <= 0.005
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    print(f"\nACCEPTANCE 9 PASS: sample mean {mean:.4f} within 0.100 +/- 0.005")
