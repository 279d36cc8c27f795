"""Distributed consensus solver: components against oracles, then the loop."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import chargeplan.admm
from chargeplan.admm import (
    AdmmConfig,
    _LocationWorker,
    receiver_slack,
    residuals,
    run_admm,
    solve_master,
    solve_subproblem,
    transform_inflows,
    update_multipliers,
)
from chargeplan.central import solve_centralized
from chargeplan.model import InfeasibleProblemError, delayed_inflow

from conftest import make_instance, random_instance


class TestTransformInflows:
    def test_reindexes_by_travel_delay(self):
        # shipment 1 -> 2 departing slot 1 with delay 1 arrives in slot 2
        z = np.zeros((3, 2, 2))
        z[1, 0, 1] = 4.0
        delay = np.array([[0, 1], [1, 0]])
        inflow = transform_inflows(z, delay)
        assert inflow[2, 1] == pytest.approx(4.0)
        assert inflow.sum() == pytest.approx(4.0)

    @given(seed=st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_conserves_vehicle_totals(self, seed):
        rng = np.random.default_rng(seed)
        T, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        z = rng.uniform(0.0, 3.0, size=(T, n, n))
        delay = rng.integers(0, T, size=(n, n))
        out = transform_inflows(z, delay)
        assert out.sum() == pytest.approx(z.sum())
        # per destination, a cyclic shift never changes the column total
        np.testing.assert_allclose(out.sum(axis=0), z.sum(axis=(0, 1)))


class TestSolveSubproblem:
    def test_zero_demand_builds_nothing(self):
        # positive investment price dominates the pull toward c_tilde = 5
        inst = make_instance(np.zeros((2, 2)), base_cost=1.0)
        c, z, f = solve_subproblem(inst, 0, 5.0, 0.0, np.zeros(2), rho=0.1)
        assert c == pytest.approx(0.0)
        assert np.all(z == 0)
        assert f == pytest.approx(0.0)

    def test_large_multiplier_pushes_capacity_up(self):
        # lambda far above the investment price makes capacity profitable
        inst = make_instance(np.zeros((1, 2)), base_cost=1.0, capacity_max=[9.0, 9.0])
        c, _, _ = solve_subproblem(inst, 0, 100.0, 50.0, np.zeros(1), rho=0.1)
        assert c == pytest.approx(9.0)

    def test_must_cover_own_net_demand(self):
        # no neighbors in range: c is forced to beta * peak demand whenever
        # the pull toward c_tilde sits below it
        cost = np.full((2, 2), np.inf)
        np.fill_diagonal(cost, 0.0)
        inst = make_instance([[4.0, 0.0], [1.0, 0.0]], beta=2.0, assign_cost=cost)
        c, z, _ = solve_subproblem(inst, 0, 0.0, 0.0, np.zeros(2), rho=0.1)
        assert c == pytest.approx(8.0)
        assert np.all(z == 0)

    def test_infeasible_when_capacity_bound_too_small(self):
        cost = np.full((1, 1), np.inf)
        np.fill_diagonal(cost, 0.0)
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0], assign_cost=cost)
        with pytest.raises(InfeasibleProblemError):
            solve_subproblem(inst, 0, 0.0, 0.0, np.zeros(1), rho=0.1)

    def test_receiver_caps_limit_shipments(self):
        inst = make_instance([[6.0, 0.0]], beta=1.0, base_cost=10.0,
                             assign_cost=[[0.0, 0.1], [0.1, 0.0]])
        free_c, free_z, _ = solve_subproblem(inst, 0, 0.0, 0.0, np.zeros(1), rho=0.1)
        # uncapped, the expensive investment pushes all demand to location 2
        assert free_z[0, 1] == pytest.approx(6.0)
        caps = np.zeros((1, 2))
        caps[0, 1] = 2.0
        capped_c, capped_z, _ = solve_subproblem(
            inst, 0, 0.0, 0.0, np.zeros(1), rho=0.1, receiver_caps=caps
        )
        assert capped_z[0, 1] == pytest.approx(2.0)
        assert capped_c >= free_c

    def _oracle_value(self, inst, i, c_tilde, lam, inflow, rho, c):
        """Subproblem objective at capacity c via an explicit shipping LP."""
        T, n = inst.n_slots, inst.n_locations
        mask = inst.forbidden_mask()[i]
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

        c_opt, z_rows, f = solve_subproblem(inst, i, c_tilde, lam, inflow, rho)

        # the returned point must itself be feasible and correctly priced
        net = inst.charging_demand[:, i] + inflow - z_rows.sum(axis=1)
        assert np.all(inst.beta * net <= c_opt + 1e-7)
        assert np.all(z_rows.sum(axis=1) <= inst.charging_demand[:, i] + 1e-9)
        assert np.all(z_rows >= 0)
        assert np.all(z_rows[:, inst.forbidden_mask()[i]] == 0)
        invest = float(inst.unit_investment_cost[i])
        unit = np.where(np.isfinite(inst.assign_cost[i]), inst.assign_cost[i], 0.0)
        ship = float(inst.recurrence @ (z_rows * unit[None, :]).sum(axis=1))
        # f is the unaugmented local cost
        assert f == pytest.approx(invest * c_opt + ship, rel=1e-9, abs=1e-9)

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


def grid_solve(worker, c_tilde, lam, inflow, caps=None):
    """Reference subproblem solver: evaluates the objective on its kink grid.

    Builds every shipping cost as the max of the knapsack's segment support
    lines, evaluates the objective at c_lb, c_max and every kink between
    them, recovers each segment's interior stationary point from the values
    at its ends (the objective is quadratic with curvature rho there), and
    returns the best point seen.  O(T^2 m^2) time, so for small cases only.
    """
    T, m = worker.n_slots, len(worker.neighbors)
    if caps is None:
        caps = np.full((T, m), worker.cell_cap)
    else:
        caps = np.clip(caps, 0.0, worker.cell_cap)
    qty = np.zeros((T, m + 1))
    np.cumsum(caps, axis=1, out=qty[:, 1:])
    cost_pfx = np.zeros((T, m + 1))
    np.cumsum(caps * worker.unit_costs[None, :], axis=1, out=cost_pfx[:, 1:])
    out_cap = np.minimum(worker.demand, qty[:, -1])

    def knap_cost(s):
        if m == 0:
            return np.zeros_like(s)
        lines = cost_pfx[None, :, :-1] + worker.unit_costs[None, None, :] * (
            s[:, :, None] - qty[None, :, :-1]
        )
        return lines.max(axis=2)

    def required_outflow(cs):
        need = worker.demand[None, :] + inflow[None, :] - cs[:, None] / worker.beta
        return np.clip(need, 0.0, out_cap[None, :])

    def objective(cs):
        value = (worker.invest_cost - lam) * cs + 0.5 * worker.rho * (c_tilde - cs) ** 2
        if worker.beta > 0:
            value = value + (worker.recurrence[None, :] * knap_cost(required_outflow(cs))).sum(axis=1)
        return value

    c_lb = 0.0
    if worker.beta > 0:
        c_lb = float(max(0.0, worker.beta * np.max(worker.demand + inflow - out_cap)))
    if c_lb > worker.c_max + 1e-9 * max(1.0, worker.c_max):
        raise InfeasibleProblemError(f"location {worker.i}: c_lb above c_max")
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

    z_rows = np.zeros((T, worker.n_locations))
    local_cost = worker.invest_cost * c_opt
    if worker.beta > 0 and m > 0:
        alloc = np.clip(required_outflow(np.array([c_opt]))[0][:, None] - qty[:, :-1], 0.0, caps)
        z_rows[:, worker.neighbors] = alloc
        local_cost += float(worker.recurrence @ (alloc @ worker.unit_costs))
    return c_opt, z_rows, local_cost


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
    m = int((~inst.forbidden_mask()[i]).sum())
    caps = None
    if draw(st.booleans()):
        caps = rng.uniform(0.0, 3.0, size=(T, m)) * (rng.random((T, m)) < 0.6)
    bound = draw(st.sampled_from(["loose", "tight", "random"]))
    if bound != "loose":
        # c_lb: the capacity that covers the demand left after maximal outflow
        demand = inst.charging_demand[:, i]
        cell_caps = np.full((T, m), AdmmConfig().assignment_cap) if caps is None else caps
        shipped = cell_caps.sum(axis=1)
        c_lb = float(max(0.0, beta * np.max(demand + inflow - np.minimum(demand, shipped))))
        c_max = c_lb if bound == "tight" else float(rng.uniform(0.0, 2.0 * c_lb + 5.0))
        capacity_max = inst.capacity_max.copy()
        capacity_max[i] = c_max
        inst = dataclasses.replace(inst, capacity_max=capacity_max)
    lam = draw(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e6, 1e6)))
    c_tilde = draw(st.one_of(st.floats(-20.0, 40.0), st.sampled_from([-1e3, 1e8])))
    rho = draw(st.sampled_from([0.1, 1.0]))
    return inst, i, AdmmConfig(rho=rho), c_tilde, lam, inflow, caps


class TestKinkSweep:
    """The sorted-kink sweep against the kink-grid evaluator it replaced."""

    @given(case=subproblem_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_grid_evaluation(self, case):
        inst, i, cfg, c_tilde, lam, inflow, caps = case
        worker = _LocationWorker(inst, i, cfg)
        try:
            ref = grid_solve(worker, c_tilde, lam, inflow, caps)
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                worker.solve(c_tilde, lam, inflow, caps)
            return
        c_opt, z_rows, f = worker.solve(c_tilde, lam, inflow, caps)
        # The reference recovers an interior minimizer from objective values
        # at an interval's ends, up to c_max apart, which costs it about
        # eps * (c_max + |c_tilde| + |w - lam| / rho) of absolute accuracy;
        # z and f inherit that error through slopes 1/beta and w + r.u/beta.
        c_atol = 64 * np.finfo(float).eps * max(
            1.0, worker.c_max, abs(c_tilde), abs(worker.invest_cost - lam) / cfg.rho
        )
        z_atol = c_atol / inst.beta if inst.beta > 0 else 0.0
        f_atol = worker.invest_cost * c_atol + z_atol * float(
            inst.recurrence.sum() * worker.unit_costs.max(initial=0.0)
        )
        assert c_opt == pytest.approx(ref[0], rel=1e-9, abs=c_atol)
        np.testing.assert_allclose(z_rows, ref[1], rtol=1e-9, atol=z_atol)
        assert f == pytest.approx(ref[2], rel=1e-9, abs=f_atol)


class TestSolveMaster:
    def test_closed_form_pull_toward_c(self):
        inst = make_instance(np.zeros((1, 1)))
        c_tilde, binding = solve_master(
            inst, np.array([10.0]), np.array([0.2]), np.zeros((1, 1, 1)), rho=0.1
        )
        assert c_tilde[0] == pytest.approx(8.0)  # 10 - 0.2 / 0.1
        assert not binding

    def test_demand_floor_binds(self):
        inst = make_instance([[7.0]], beta=1.0)
        c_tilde, _ = solve_master(
            inst, np.array([3.0]), np.array([0.0]), np.zeros((1, 1, 1)), rho=0.1
        )
        assert c_tilde[0] == pytest.approx(7.0)

    def test_assignments_lower_the_floor(self):
        inst = make_instance([[7.0, 0.0]], beta=1.0,
                             assign_cost=[[0.0, 0.1], [0.1, 0.0]])
        z = np.zeros((1, 2, 2))
        z[0, 0, 1] = 4.0
        c_tilde, _ = solve_master(
            inst, np.zeros(2), np.zeros(2), z, rho=0.1
        )
        assert c_tilde[0] == pytest.approx(3.0)  # 7 - 4 shipped away
        assert c_tilde[1] == pytest.approx(4.0)  # receives 4

    def test_budget_projection_activates(self):
        inst = make_instance(np.zeros((1, 2)), base_cost=1.0, budget=10.0)
        c_tilde, binding = solve_master(
            inst, np.array([20.0, 20.0]), np.zeros(2), np.zeros((1, 2, 2)), rho=0.1
        )
        assert binding
        assert float(inst.unit_investment_cost @ c_tilde) <= 10.0 + 1e-6

    def test_infeasible_when_floor_exceeds_budget(self):
        inst = make_instance([[10.0]], beta=1.0, base_cost=1.0, budget=5.0)
        with pytest.raises(InfeasibleProblemError, match="budget"):
            solve_master(
                inst, np.array([10.0]), np.zeros(1), np.zeros((1, 1, 1)), rho=0.1
            )

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

        c_tilde, _ = solve_master(inst, c, lam, np.zeros((2, n, n)), rho)

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
        slack = receiver_slack(inst, np.array([10.0, 2.0]), np.zeros((1, 2, 2)))
        np.testing.assert_allclose(slack, [[1.0, 0.0]])  # 10/2 - 4, 2/2 - 1


class TestInflowReuse:
    def test_one_delayed_inflow_gather_per_iteration(self, monkeypatch):
        calls = []

        def counting(z, delay):
            calls.append(z.shape)
            return delayed_inflow(z, delay)

        monkeypatch.setattr(chargeplan.admm, "delayed_inflow", counting)
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        _, conv = run_admm(inst, AdmmConfig(max_iterations=40))
        assert conv.iterations >= 2
        # the exchange once per iteration, plus the initial demand floor
        assert len(calls) <= conv.iterations + 1

    @pytest.mark.parametrize("binding", [False, True])
    def test_precomputed_inflow_changes_nothing(self, binding):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        z = rng.uniform(0.0, 1.0, size=(6, 4, 4)) * ~inst.forbidden_mask()[None]
        inflow = delayed_inflow(z, inst.delay)
        c_tilde = rng.uniform(5.0, 10.0, size=4)
        np.testing.assert_array_equal(
            receiver_slack(inst, c_tilde, z, inflow=inflow),
            receiver_slack(inst, c_tilde, z),
        )
        c, lam = rng.uniform(0.0, 50.0, size=4), rng.uniform(-1.0, 1.0, size=4)
        if binding:  # a budget just above the demand floor's cost
            floor = inst.beta * (inst.charging_demand - z.sum(axis=2) + inflow).max(axis=0)
            budget = float(inst.unit_investment_cost @ np.maximum(floor, 0.0)) + 1.0
            inst = dataclasses.replace(inst, budget=budget)
        fresh, fresh_binding = solve_master(inst, c, lam, z, 0.1)
        reused, reused_binding = solve_master(inst, c, lam, z, 0.1, inflow=inflow)
        np.testing.assert_array_equal(reused, fresh)
        assert reused_binding == fresh_binding == binding


class TestRunAdmm:
    def test_zero_flow_converges_immediately(self):
        inst = make_instance(np.zeros((2, 2)))
        sol, conv = run_admm(inst)
        assert conv.converged
        assert conv.iterations == 1
        assert sol.cost.total == 0.0
        assert sol.feasibility.feasible

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(threshold=-1.0)

    def test_multiplier_residual_identity(self):
        # by construction Q_dual[k+1] = rho * Q_primal[k] exactly
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        _, conv = run_admm(inst, AdmmConfig(max_iterations=40))
        hist = conv.history
        assert len(hist) >= 2
        for prev, cur in zip(hist, hist[1:]):
            assert cur.q_dual == pytest.approx(0.1 * prev.q_primal, abs=1e-9, rel=1e-9)

    def test_residuals_below_threshold_at_convergence(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=3, T=4, forbid_frac=0.2)
        cfg = AdmmConfig(threshold=1e-5)
        sol, conv = run_admm(inst, cfg)
        assert conv.converged
        assert conv.q_primal <= cfg.threshold
        assert conv.q_dual <= cfg.threshold
        assert sol.stats["converged"] is True

    def test_iteration_budget_exhaustion_returns_best_iterate(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        sol, conv = run_admm(inst, AdmmConfig(max_iterations=1, threshold=1e-12))
        assert not conv.converged
        assert conv.iterations == 1
        assert sol.stats["converged"] is False
        # the best iterate is still a usable plan
        assert sol.feasibility.feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_solution_is_feasible_and_near_centralized(self, seed):
        rng = np.random.default_rng(30 + seed)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.3)
        sol, conv = run_admm(inst)
        central = solve_centralized(inst)
        assert sol.feasibility.feasible
        assert sol.cost.total >= central.cost.total - 1e-6
        # history is monotone in k and records positive wall times
        ks = [rec.k for rec in conv.history]
        assert ks == list(range(1, len(ks) + 1))

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
        sol, conv = run_admm(inst)
        assert conv.converged
        invest = float(sol.investment.capacity @ inst.unit_investment_cost)
        assert invest <= 18.5 + 1e-6
        assert sol.feasibility.feasible

    def test_threaded_sweep_matches_serial(self):
        rng = np.random.default_rng(77)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.2)
        sol1, conv1 = run_admm(inst, AdmmConfig(workers=1))
        sol4, conv4 = run_admm(inst, AdmmConfig(workers=4))
        assert conv4.iterations == conv1.iterations
        np.testing.assert_allclose(
            sol4.investment.capacity, sol1.investment.capacity, atol=1e-12
        )
        np.testing.assert_allclose(sol4.assignment.z, sol1.assignment.z, atol=1e-12)
