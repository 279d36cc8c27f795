"""Distributed consensus solver: components against oracles, then the loop."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import chargeplan.admm
from chargeplan.admm import (
    AdmmConfig,
    _location_workers,
    receiver_slack,
    residuals,
    run_admm,
    solve_master,
    transform_inflows,
    update_multipliers,
)
from chargeplan.central import solve_base_model, solve_centralized
from chargeplan.datagen import GenParams, generate_instance, with_range_limit
from chargeplan.model import (
    AssignmentPlan,
    InfeasibleProblemError,
    RangeGraph,
    delayed_inflow,
)

from conftest import (
    dense,
    edge_cases,
    forbidden,
    make_instance,
    net_demand_matrix,
    own_peak_caps,
    plan_of,
    random_instance,
)

# per-cell shipping limit high enough that no small case reaches it
UNBOUNDED_CAPS = 1e4


class TestTransformInflows:
    def test_reindexes_by_travel_delay(self):
        # shipment 1 -> 2 departing slot 1 with delay 1 arrives in slot 2
        delay = np.array([[0, 1], [1, 0]])
        graph = make_instance(np.zeros((3, 2)), delay=delay).range_graph
        z = np.zeros((3, 2, 2))
        z[1, 0, 1] = 4.0
        inflow = transform_inflows(z[:, graph.src, graph.dst], graph)
        assert inflow[2, 1] == pytest.approx(4.0)
        assert inflow.sum() == pytest.approx(4.0)

    @given(seed=st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_conserves_vehicle_totals(self, seed):
        rng = np.random.default_rng(seed)
        T, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        delay = rng.integers(0, T, size=(n, n))
        np.fill_diagonal(delay, 0)
        graph = make_instance(np.zeros((T, n)), delay=delay).range_graph
        z_e = rng.uniform(0.0, 3.0, size=(T, graph.n_edges))
        z = dense(AssignmentPlan(graph, z_e))
        out = transform_inflows(z_e, graph)
        assert out.sum() == pytest.approx(z.sum())
        # per destination, a cyclic shift never changes the column total
        np.testing.assert_allclose(out.sum(axis=0), z.sum(axis=(0, 1)))

    @given(case=edge_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_delayed_inflow_of_the_scattered_plan(self, case):
        inst, z_e = case
        graph = inst.range_graph
        assert np.array_equal(
            transform_inflows(z_e, graph),
            delayed_inflow(dense(AssignmentPlan(graph, z_e)), inst.delay),
        )


def subproblem_rows(inst, i, c_tilde, lam, inflow, rho, receiver_caps=None):
    """Solve location i's subproblem; its allocation as dense (T, n) rows.

    ``receiver_caps`` is a (T, n) per-slot slack matrix in arrival-slot terms,
    gathered onto the location's edges as ``run_admm`` does; without it only
    the sender's own demand binds.
    """
    table, workers = _location_workers(inst, rho)
    worker = workers[i]
    if receiver_caps is None:
        receiver_caps = np.full((inst.n_slots, inst.n_locations), UNBOUNDED_CAPS)
    caps = receiver_caps[table.arrival[:, worker.block], worker.neighbors]
    c, alloc = worker.solve(c_tilde, lam, inflow, caps)
    rows = np.zeros((inst.n_slots, inst.n_locations))
    rows[:, worker.neighbors] = alloc
    return c, rows


class TestSolveSubproblem:
    def test_zero_demand_builds_nothing(self):
        # positive investment price dominates the pull toward c_tilde = 5
        inst = make_instance(np.zeros((2, 2)), base_cost=1.0)
        c, z = subproblem_rows(inst, 0, 5.0, 0.0, np.zeros(2), rho=0.1)
        assert c == pytest.approx(0.0)
        assert np.all(z == 0)

    def test_large_multiplier_pushes_capacity_up(self):
        # lambda far above the investment price makes capacity profitable
        inst = make_instance(np.zeros((1, 2)), base_cost=1.0, capacity_max=[9.0, 9.0])
        c, _ = subproblem_rows(inst, 0, 100.0, 50.0, np.zeros(1), rho=0.1)
        assert c == pytest.approx(9.0)

    def test_must_cover_own_net_demand(self):
        # no neighbors in range: c is forced to beta * peak demand whenever
        # the pull toward c_tilde sits below it
        cost = np.full((2, 2), np.inf)
        np.fill_diagonal(cost, 0.0)
        inst = make_instance([[4.0, 0.0], [1.0, 0.0]], beta=2.0, assign_cost=cost)
        c, z = subproblem_rows(inst, 0, 0.0, 0.0, np.zeros(2), rho=0.1)
        assert c == pytest.approx(8.0)
        assert np.all(z == 0)

    def test_infeasible_when_capacity_bound_too_small(self):
        # a location that can ship nothing needs its own 20 kW peak: run_admm
        # proves that before its first sweep, and the worker itself clamps
        cost = np.full((1, 1), np.inf)
        np.fill_diagonal(cost, 0.0)
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0], assign_cost=cost)
        with pytest.raises(InfeasibleProblemError,
                           match="breaks capacity_bounds by 15 kW at location 0"):
            run_admm(inst)
        c, _ = subproblem_rows(inst, 0, 0.0, 0.0, np.zeros(1), rho=0.1)
        assert c == 5.0

    def test_receiver_caps_limit_shipments(self):
        inst = make_instance([[6.0, 0.0]], beta=1.0, base_cost=10.0,
                             assign_cost=[[0.0, 0.1], [0.1, 0.0]])
        free_c, free_z = subproblem_rows(inst, 0, 0.0, 0.0, np.zeros(1), rho=0.1)
        # uncapped, the expensive investment pushes all demand to location 2
        assert free_z[0, 1] == pytest.approx(6.0)
        caps = np.zeros((1, 2))
        caps[0, 1] = 2.0
        capped_c, capped_z = subproblem_rows(
            inst, 0, 0.0, 0.0, np.zeros(1), rho=0.1, receiver_caps=caps
        )
        assert capped_z[0, 1] == pytest.approx(2.0)
        assert capped_c >= free_c

    def _oracle_value(self, inst, i, c_tilde, lam, inflow, rho, c):
        """Subproblem objective at capacity c via an explicit shipping LP."""
        T, n = inst.n_slots, inst.n_locations
        mask = forbidden(inst)[i]
        js = np.nonzero(~mask)[0]
        m = len(js)
        demand = inst.charging_demand[:, i]
        invest = float(inst.unit_investment_cost[i])
        value = (invest - lam) * c + 0.5 * rho * (c_tilde - c) ** 2
        if m == 0:
            peak = inst.beta * (demand + inflow).max()
            return value if c >= peak - 1e-9 else np.inf
        shipping = 0.0
        for t in range(T):
            lo = max(0.0, demand[t] + inflow[t] - c / inst.beta)
            if lo > demand[t] + 1e-9:
                return np.inf
            res = scipy.optimize.linprog(
                inst.recurrence[t] * inst.assign_cost[i, js],
                A_ub=np.vstack([np.ones((1, m)), -np.ones((1, m))]),
                b_ub=np.array([demand[t], -lo]),
                bounds=[(0, None)] * m,
                method="highs",
            )
            if not res.success:
                return np.inf
            shipping += float(res.fun)
        return value + shipping

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_minimization_oracle(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=3, T=3, forbid_frac=0.2)
        i = int(rng.integers(0, 3))
        c_tilde = float(rng.uniform(0.0, 8.0))
        lam = float(rng.uniform(-1.0, 1.0))
        inflow = rng.uniform(0.0, 2.0, size=3)
        rho = 0.1

        c_opt, z_rows = subproblem_rows(inst, i, c_tilde, lam, inflow, rho)

        # the returned point must itself be feasible and correctly priced
        net = inst.charging_demand[:, i] + inflow - z_rows.sum(axis=1)
        assert np.all(inst.beta * net <= c_opt + 1e-7)
        assert np.all(z_rows.sum(axis=1) <= inst.charging_demand[:, i] + 1e-9)
        assert np.all(z_rows >= 0)
        assert np.all(z_rows[:, forbidden(inst)[i]] == 0)
        invest = float(inst.unit_investment_cost[i])
        unit = np.where(np.isfinite(inst.assign_cost[i]), inst.assign_cost[i], 0.0)
        ship = float(inst.recurrence @ (z_rows * unit[None, :]).sum(axis=1))
        value = (
            (invest - lam) * c_opt + 0.5 * rho * (c_tilde - c_opt) ** 2 + ship
        )
        # scan a dense capacity grid through the oracle; the solver must not
        # be beaten anywhere
        c_hi = inst.beta * (inst.charging_demand[:, i] + inflow).max() + 5.0
        for c in np.linspace(0.0, c_hi, 161):
            assert value <= self._oracle_value(
                inst, i, c_tilde, lam, inflow, rho, c
            ) + 1e-6 * max(1.0, abs(value))


def grid_solve(inst, table, worker, c_tilde, lam, inflow, caps):
    """Reference subproblem solver: evaluates the objective on its kink grid.

    Builds every shipping cost as the max of the knapsack's segment support
    lines, evaluates the objective at c_lb, c_max and every kink between
    them, recovers each segment's interior stationary point from the values
    at its ends (the objective is quadratic with curvature rho there), and
    returns the best point seen.  O(T^2 m^2) time, so for small cases only.
    The unit costs of ``worker``'s edges come from ``inst``'s graph, in the
    order of ``table``, and the slot weights from ``inst``.
    """
    T, m = worker.n_slots, len(worker.neighbors)
    unit_costs = inst.range_graph.cost[table.edges[worker.block]]
    caps = np.clip(caps, 0.0, UNBOUNDED_CAPS)
    qty = np.zeros((T, m + 1))
    np.cumsum(caps, axis=1, out=qty[:, 1:])
    cost_pfx = np.zeros((T, m + 1))
    np.cumsum(caps * unit_costs[None, :], axis=1, out=cost_pfx[:, 1:])
    out_cap = np.minimum(worker.demand, qty[:, -1])

    def knap_cost(s):
        if m == 0:
            return np.zeros_like(s)
        lines = cost_pfx[None, :, :-1] + unit_costs[None, None, :] * (
            s[:, :, None] - qty[None, :, :-1]
        )
        return lines.max(axis=2)

    def required_outflow(cs):
        need = worker.demand[None, :] + inflow[None, :] - cs[:, None] / worker.beta
        return np.clip(need, 0.0, out_cap[None, :])

    def objective(cs):
        value = (worker.invest_cost - lam) * cs + 0.5 * worker.rho * (c_tilde - cs) ** 2
        if worker.beta > 0:
            value = value + (inst.recurrence[None, :] * knap_cost(required_outflow(cs))).sum(axis=1)
        return value

    c_lb = 0.0
    if worker.beta > 0:
        c_lb = float(max(0.0, worker.beta * np.max(worker.demand + inflow - out_cap)))
    c_lb = min(c_lb, worker.c_max)

    cands = np.array([c_lb, worker.c_max])
    if worker.beta > 0 and m > 0:
        grid = worker.beta * ((worker.demand + inflow)[:, None] - qty)
        cands = np.concatenate([cands, grid[(grid > c_lb) & (grid < worker.c_max)]])
    cands = np.unique(cands)
    values = objective(cands)
    a, b = cands[:-1], cands[1:]
    width = b - a
    ok = width > 1e-12
    all_c, all_v = cands, values
    if ok.any():
        ga = (values[1:] - values[:-1] - 0.5 * worker.rho * width**2) / np.where(ok, width, 1.0)
        cand_in = a - ga / worker.rho
        interior = cand_in[ok & (cand_in > a) & (cand_in < b)]
        if interior.size:
            all_c = np.concatenate([cands, interior])
            all_v = np.concatenate([values, objective(interior)])
    c_opt = float(all_c[int(np.argmin(all_v))])

    alloc = np.zeros((T, m))
    if worker.beta > 0 and m > 0:
        alloc = np.clip(required_outflow(np.array([c_opt]))[0][:, None] - qty[:, :-1], 0.0, caps)
    return c_opt, alloc


@st.composite
def subproblem_cases(draw):
    """A location's subproblem with its frozen inputs, edge cases included."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n, T = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    forbid_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))  # 1.0 leaves m = 0
    inst = random_instance(rng, n=n, T=T, forbid_frac=forbid_frac, beta=beta)
    i = draw(st.integers(0, n - 1))
    inflow = rng.uniform(0.0, 3.0, size=T) * (rng.random(T) < 0.7)
    m = int((~forbidden(inst)[i]).sum())
    caps = np.full((T, m), UNBOUNDED_CAPS)  # only the sender's own demand binds
    if draw(st.booleans()):
        caps = rng.uniform(0.0, 3.0, size=(T, m)) * (rng.random((T, m)) < 0.6)
    bound = draw(st.sampled_from(["loose", "tight", "random"]))
    c_max = 1e7  # loose: far above any c_lb these small cases reach
    if bound != "loose":
        # c_lb: the capacity that covers the demand left after maximal outflow
        demand = inst.charging_demand[:, i]
        shipped = caps.sum(axis=1)
        c_lb = float(max(0.0, beta * np.max(demand + inflow - np.minimum(demand, shipped))))
        c_max = c_lb if bound == "tight" else float(rng.uniform(0.0, 2.0 * c_lb + 5.0))
    capacity_max = inst.capacity_max.copy()
    capacity_max[i] = c_max
    inst = dataclasses.replace(inst, capacity_max=capacity_max)
    lam = draw(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e6, 1e6)))
    c_tilde = draw(st.one_of(st.floats(-20.0, 40.0), st.sampled_from([-1e3, 1e8])))
    rho = draw(st.sampled_from([0.1, 1.0]))
    return inst, i, rho, c_tilde, lam, inflow, caps


class TestKinkSweep:
    """The sorted-kink sweep against the kink-grid evaluator it replaced."""

    @given(case=subproblem_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_grid_evaluation(self, case):
        inst, i, rho, c_tilde, lam, inflow, caps = case
        table, workers = _location_workers(inst, rho)
        worker = workers[i]
        # where no capacity up to c_max covers the demand left after maximal
        # outflow, both clamp to c_max
        ref = grid_solve(inst, table, worker, c_tilde, lam, inflow, caps)
        c_opt, z_rows = worker.solve(c_tilde, lam, inflow, caps)
        # The reference recovers an interior minimizer from objective values
        # at an interval's ends, up to c_max apart, which costs it about
        # eps * (c_max + |c_tilde| + |w - lam| / rho) of absolute accuracy;
        # z inherits that error through slope 1/beta.
        c_atol = 64 * np.finfo(float).eps * max(
            1.0, worker.c_max, abs(c_tilde), abs(worker.invest_cost - lam) / rho
        )
        z_atol = c_atol / inst.beta if inst.beta > 0 else 0.0
        assert c_opt == pytest.approx(ref[0], rel=1e-9, abs=c_atol)
        np.testing.assert_allclose(z_rows, ref[1], rtol=1e-9, atol=z_atol)


class TestSolveMaster:
    def test_closed_form_pull_toward_c(self):
        inst = make_instance(np.zeros((1, 1)))
        c_tilde, binding = solve_master(
            inst, np.array([10.0]), np.array([0.2]), inst.charging_demand, rho=0.1
        )
        assert c_tilde[0] == pytest.approx(8.0)  # 10 - 0.2 / 0.1
        assert not binding

    def test_demand_floor_binds(self):
        inst = make_instance([[7.0]], beta=1.0)
        c_tilde, _ = solve_master(
            inst, np.array([3.0]), np.array([0.0]), inst.charging_demand, rho=0.1
        )
        assert c_tilde[0] == pytest.approx(7.0)

    def test_assignments_lower_the_floor(self):
        inst = make_instance([[7.0, 0.0]], beta=1.0,
                             assign_cost=[[0.0, 0.1], [0.1, 0.0]])
        z = np.zeros((1, 2, 2))
        z[0, 0, 1] = 4.0
        c_tilde, _ = solve_master(
            inst, np.zeros(2), np.zeros(2), net_demand_matrix(inst, plan_of(inst, z)),
            rho=0.1,
        )
        assert c_tilde[0] == pytest.approx(3.0)  # 7 - 4 shipped away
        assert c_tilde[1] == pytest.approx(4.0)  # receives 4

    def test_budget_projection_activates(self):
        inst = make_instance(np.zeros((1, 2)), base_cost=1.0, budget=10.0)
        c_tilde, binding = solve_master(
            inst, np.array([20.0, 20.0]), np.zeros(2), inst.charging_demand, rho=0.1
        )
        assert binding
        assert float(inst.unit_investment_cost @ c_tilde) <= 10.0 + 1e-6

    def test_infeasible_when_floor_exceeds_budget(self):
        # the 10 kW own peak of a location with no neighbor costs 10 against a
        # budget of 5: run_admm proves that before its first sweep, and the
        # master itself returns the floor
        inst = make_instance([[10.0]], beta=1.0, base_cost=1.0, budget=5.0)
        with pytest.raises(InfeasibleProblemError, match="budget"):
            run_admm(inst)
        c_tilde, binding = solve_master(
            inst, np.array([10.0]), np.zeros(1), inst.charging_demand, rho=0.1
        )
        assert binding
        np.testing.assert_array_equal(c_tilde, [10.0])

    def test_floor_within_tolerance_above_budget_returns_floor(self):
        inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=1))
        net = inst.charging_demand
        d = inst.beta * net.max(axis=0)
        w = inst.unit_investment_cost
        inst = dataclasses.replace(inst, budget=float(w @ d) * (1 - 3e-10))
        # a multiplier search with no end would overflow: an error, not a hang
        with np.errstate(over="raise"):
            c_tilde, binding = solve_master(inst, 2 * d, np.zeros(4), net, rho=0.1)
        assert binding
        np.testing.assert_array_equal(c_tilde, d)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_projected_gradient_oracle(self, seed):
        # independent check: minimize the master objective by projected
        # gradient descent on the box [D, cap] plus the budget halfspace
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        flow = rng.uniform(0.0, 6.0, size=(2, n))
        budget = float(rng.uniform(5.0, 40.0))
        inst = make_instance(flow, beta=1.0, base_cost=1.0,
                             capacity_max=np.full(n, 12.0), budget=budget)
        c = rng.uniform(0.0, 12.0, size=n)
        lam = rng.uniform(-1.0, 1.0, size=n)
        rho = float(rng.uniform(0.05, 1.0))
        d = flow.max(axis=0)
        if float(inst.unit_investment_cost @ d) > budget:
            return  # oracle domain empty; covered by the raising test above

        c_tilde, _ = solve_master(inst, c, lam, inst.charging_demand, rho)

        w = inst.unit_investment_cost
        x = d.copy()
        step = 1.0 / rho
        for _ in range(20000):
            grad = lam + rho * (x - c)
            x = np.clip(x - step * grad, d, 12.0)
            over = float(w @ x) - budget
            if over > 0:  # project back onto the budget plane, then the box
                x = np.clip(x - over * w / float(w @ w), d, 12.0)
            step = max(step * 0.999, 1e-3 / rho)

        def objective(v):
            return float(lam @ v + 0.5 * rho * ((v - c) ** 2).sum())

        assert float(w @ c_tilde) <= budget + 1e-6 * max(1.0, budget)
        assert np.all(c_tilde >= d - 1e-9)
        assert objective(c_tilde) <= objective(x) + 1e-6 * max(1.0, abs(objective(x)))


class TestMultipliersAndResiduals:
    def test_dual_ascent_step(self):
        lam = update_multipliers(
            np.array([1.0, -1.0]), np.array([3.0, 2.0]), np.array([1.0, 4.0]), 0.5
        )
        np.testing.assert_allclose(lam, [2.0, -2.0])

    def test_l1_residuals(self):
        q_p, q_d = residuals(
            np.array([3.0, 1.0]),
            np.array([2.0, 3.0]),
            np.array([1.0, 1.0]),
            np.array([0.5, 2.0]),
        )
        assert q_p == pytest.approx(3.0)  # |1| + |-2|
        assert q_d == pytest.approx(1.5)  # |0.5| + |-1|


class TestReceiverSlack:
    def test_zero_state_slack_is_capacity_minus_demand(self):
        inst = make_instance([[4.0, 1.0]], beta=2.0)
        slack = receiver_slack(inst, np.array([10.0, 2.0]), inst.charging_demand)
        np.testing.assert_allclose(slack, [[1.0, 0.0]])  # 10/2 - 4, 2/2 - 1


class TestInflowReuse:
    def test_one_delayed_inflow_gather_per_iteration(self, monkeypatch):
        gathers, outflows = [], []
        exchange, outflow = transform_inflows, RangeGraph.outflow
        monkeypatch.setattr(chargeplan.admm, "transform_inflows",
                            lambda z, graph: gathers.append(z.shape) or exchange(z, graph))
        monkeypatch.setattr(RangeGraph, "outflow",
                            lambda graph, z: outflows.append(z.shape) or outflow(graph, z))
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        sol, _ = run_admm(inst, AdmmConfig(max_iterations=40))
        assert sol.stats["iterations"] >= 2
        # the exchange, once per iteration, is the only gather, and each
        # iterate's net demand is computed once, on the (T, E) edge array;
        # the final feasibility check sums the returned plan's outflow once more
        E = inst.range_graph.n_edges
        assert gathers == [(inst.n_slots, E)] * sol.stats["iterations"]
        assert outflows == [(inst.n_slots, E)] * (sol.stats["iterations"] + 1)


class TestRunAdmm:
    def test_zero_flow_converges_immediately(self):
        inst = make_instance(np.zeros((2, 2)))
        sol, _ = run_admm(inst)
        assert sol.stats["converged"]
        assert sol.stats["iterations"] == 1
        assert sol.cost.total == 0.0
        assert sol.feasibility.feasible

    def test_zero_beta_builds_nothing_without_a_warning(self):
        # at beta = 0 no capacity row can bind: the published slack is
        # unbounded, not 0 / 0
        inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=1, range_km=6.0,
                                           beta_kw=0.0))
        assert inst.range_graph.n_edges > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, _ = run_admm(inst)
        assert (sol.stats["converged"], sol.stats["iterations"]) == (True, 1)
        assert sol.cost.total == 0.0
        assert sol.feasibility.feasible

    def test_capacity_above_ten_megawatts_is_allowed(self):
        # a 3e4-vehicle peak at beta = 1000 kW needs 3e7 kW; the model puts
        # no bound on capacity below capacity_max, and neither may ADMM
        inst = make_instance([[3e4, 0.0]], beta=1000.0,
                             assign_cost=[[0.0, 0.1], [0.1, 0.0]])
        sol, _ = run_admm(inst)
        assert sol.stats["converged"]
        assert sol.feasibility.feasible
        assert sol.investment.capacity[0] == pytest.approx(3e7)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(threshold=-1.0)

    def test_multiplier_residual_identity(self):
        # by construction Q_dual[k+1] = rho * Q_primal[k] exactly
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        _, hist = run_admm(inst, AdmmConfig(max_iterations=40))
        assert len(hist) >= 2
        for prev, cur in zip(hist, hist[1:]):
            assert cur.q_dual == pytest.approx(0.1 * prev.q_primal, abs=1e-9, rel=1e-9)

    def test_residuals_below_threshold_at_convergence(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=3, T=4, forbid_frac=0.2)
        cfg = AdmmConfig(threshold=1e-5)
        sol, history = run_admm(inst, cfg)
        assert history[-1].q_primal <= cfg.threshold
        assert history[-1].q_dual <= cfg.threshold
        assert sol.stats["converged"] is True

    def test_iteration_budget_exhaustion_returns_best_iterate(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        sol, _ = run_admm(inst, AdmmConfig(max_iterations=1, threshold=1e-12))
        assert sol.stats["converged"] is False
        assert sol.stats["iterations"] == 1
        # the best iterate is still a usable plan
        assert sol.feasibility.feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_solution_is_feasible_and_near_centralized(self, seed):
        rng = np.random.default_rng(30 + seed)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.3)
        sol, history = run_admm(inst)
        central = solve_centralized(inst)
        assert sol.feasibility.feasible
        assert sol.cost.total >= central.cost.total - 1e-6
        # history is monotone in k and records positive wall times
        ks = [rec.k for rec in history]
        assert ks == list(range(1, len(ks) + 1))

    def test_equals_baseline_when_every_pair_is_forbidden(self):
        inst = with_range_limit(
            generate_instance(GenParams(n_locations=5, n_slots=12, seed=3)), 0.0
        )
        assert inst.range_graph.n_edges == 0
        sol, _ = run_admm(inst)
        base = solve_base_model(inst)
        assert sol.stats["converged"]
        np.testing.assert_allclose(
            sol.investment.capacity, base.investment.capacity, rtol=1e-12
        )
        assert sol.assignment.z.shape == (12, 0)
        assert sol.cost.total == pytest.approx(base.cost.total, rel=1e-12)
        assert sol.feasibility.feasible

    def test_budget_respected_when_below_the_baseline_cost(self):
        # baseline investment would cost 20; the budget rules that out, so
        # the loop must settle on a pooled plan inside the budget
        inst = make_instance(
            [[10.0, 0.0], [0.0, 10.0]],
            beta=1.0,
            base_cost=1.0,
            assign_cost=[[0.0, 0.1], [0.1, 0.0]],
            budget=18.5,
        )
        sol, _ = run_admm(inst)
        assert sol.stats["converged"]
        invest = float(sol.investment.capacity @ inst.unit_investment_cost)
        assert invest <= 18.5 + 1e-6
        assert sol.feasibility.feasible


FAMILY_96 = dict(n_locations=20, n_slots=96, range_km=3.7, alpha_a=1000.0,
                 alpha_b=9000.0, assign_price_per_km=80.0)


class TestPinnedOutput:
    """``run_admm``'s iteration count, total and plan, bit for bit.  The
    values were recorded before the loop's index tables were built once per
    run; a speed-up of the loop that moves any of them fails here."""

    CASES = {
        "family-0": (lambda: generate_instance(GenParams(seed=0, **FAMILY_96)), 5,
                     "0x1.962daa2ce4074p+23",
                     "3cbf2db9a272cc840ecb28e738778934f388124b7c090caba4c3b0c17ef84e7d"),
        "family-1": (lambda: generate_instance(GenParams(seed=1, **FAMILY_96)), 5,
                     "0x1.b0122ed21510bp+23",
                     "21efa48b0e5dfa42f7e440b84991c762c0d60d95c2c00d47599a182c05d27c42"),
        "family-2": (lambda: generate_instance(GenParams(seed=2, **FAMILY_96)), 3,
                     "0x1.c8d385ab60a15p+23",
                     "f6c41db8e48a175c8810ed603f66b9fa5bf9b9a8cfd7c766beb5f5abedcf5365"),
        "defaults-0": (lambda: generate_instance(GenParams(n_locations=20, n_slots=96,
                                                           seed=0)), 6,
                       "0x1.54a1edd2e8b97p+23",
                       "25e699772ee1a77a5a50814855c8f58962bf553eca5e859116d3babc841a2b5c"),
        "staggered-peaks": (lambda: make_instance([[10.0, 0.0], [0.0, 10.0]], beta=1.0,
                                                  base_cost=1.0,
                                                  assign_cost=[[0.0, 0.1], [0.1, 0.0]]), 3,
                            "0x1.0666666666666p+4",
                            "3526e044854fd2fe9b6abfa1d8c95269c18f15184a5b2b6e6e0cef4e64e1a0c2"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_iterations_total_and_plan_unchanged(self, name):
        build, iterations, total, plan_sha = self.CASES[name]
        sol, _ = run_admm(build())
        assert sol.stats["iterations"] == iterations
        assert sol.cost.total.hex() == total
        assert hashlib.sha256(sol.assignment.z.tobytes()).hexdigest() == plan_sha


@st.composite
def own_peak_cap_cases(draw):
    """Caps between 0.7 and 1.3 times each location's own peak, with an
    unbounded budget and delays that wrap the horizon.  Where every cap is
    at least its own peak the zero-assignment plan is feasible; below it the
    instance may or may not be."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, T = draw(st.integers(2, 6)), draw(st.integers(2, 24))
    delay = rng.integers(0, T, size=(n, n))
    np.fill_diagonal(delay, 0)
    inst = random_instance(rng, n=n, T=T, forbid_frac=draw(st.sampled_from([0.0, 0.3])),
                           delay=delay, budget=np.inf)
    return own_peak_caps(inst, rng.uniform(0.7, 1.3, size=n))


class TestOwnPeakCaps:
    """A receiver's slack is measured against its gross load, so one Jacobi
    sweep cannot fill slack that the receiver's own outflow cut frees only
    in the same sweep; no iterate then passes a cap its own peak fits.
    Below its own peak a location must ship, and the rationed slack may not
    let it: the run then goes on, and ends as not converged if it must."""

    @given(inst=own_peak_cap_cases())
    @settings(max_examples=200, deadline=None)
    def test_never_reports_a_feasible_instance_infeasible(self, inst):
        # the referee: an unbounded-budget central solve
        try:
            solve_centralized(inst)
            lp_feasible = True
        except InfeasibleProblemError:
            lp_feasible = False
        try:
            sol, _ = run_admm(inst)
        except InfeasibleProblemError:
            assert not lp_feasible
            return
        # checked at 1e-4: converged only on a plan that passes, and a plan
        # that passes wherever every cap fits its own peak
        assert sol.feasibility.feasible or not sol.stats["converged"]
        own = inst.beta * inst.charging_demand.max(axis=0)
        if np.all(inst.capacity_max >= own):
            assert sol.feasibility.feasible

    def test_agreement_on_a_plan_that_fails_the_check_is_not_convergence(self):
        # at 0.7 times its own peaks this instance has a plan, and the loop's
        # residuals reach the threshold on one that breaks a cap
        inst = own_peak_caps(
            generate_instance(GenParams(n_locations=6, n_slots=24, range_km=5.0, seed=1)), 0.7
        )
        assert solve_centralized(inst).feasibility.feasible
        sol, history = run_admm(inst)
        assert max(history[-1].q_primal, history[-1].q_dual) <= AdmmConfig().threshold
        assert not sol.feasibility.feasible
        assert sol.stats["converged"] is False

    def test_generated_instance_at_its_own_peaks(self):
        inst = generate_instance(GenParams(n_locations=6, n_slots=24, range_km=5.0, seed=0))
        for scale in (1.0, 1.2):
            capped = own_peak_caps(inst, scale)
            sol, _ = run_admm(capped)
            assert sol.stats["converged"], scale
            assert sol.feasibility.feasible, scale
            assert np.all(sol.investment.capacity <= capped.capacity_max * (1 + 1e-9)), scale
