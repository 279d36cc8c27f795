"""Centralized LP path: builder structure, solvers, baseline, invariances."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy import _core as highspy

from chargeplan.central import (
    build_lp,
    highs_model,
    solve_base_model,
    solve_centralized,
    sweep_range,
)
from chargeplan.datagen import GenParams, generate_instance, with_range_limit
from chargeplan.model import (
    FORBIDDEN,
    AssignmentPlan,
    InfeasibleProblemError,
    InvestmentPlan,
    check_feasibility,
    evaluate_objective,
)

from chargeplan.mps import col_names, row_names

from conftest import (
    brute_force_integer_optimum,
    edge_cases,
    forbidden,
    lp_matrix,
    make_instance,
    net_demand_matrix,
    random_instance,
    solve_with_simplex,
)


@st.composite
def lp_instances(draw):
    """Desk-tiny instances that stress the LP: capacity caps and a budget
    below the no-assignment plan, zero demand, asymmetric (and partly
    forbidden) costs, and delays that wrap the cyclic horizon."""
    n = draw(st.integers(1, 3))
    T = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flow = rng.integers(0, 6, size=(T, n)).astype(float)
    if rng.random() < 0.1:
        flow[:] = 0.0
    alpha = rng.choice([0.5, 1.0], size=(T, n))
    beta = float(rng.uniform(0.5, 2.0))
    cost = rng.uniform(0.05, 2.0, size=(n, n))
    cost[rng.random((n, n)) < 0.25] = FORBIDDEN
    np.fill_diagonal(cost, 0.0)
    delay = rng.integers(0, T, size=(n, n))
    np.fill_diagonal(delay, 0)
    base_cost = float(rng.uniform(0.5, 2.0))
    location_cost = rng.uniform(0.0, 1.0, size=n)
    # caps and budget scale the no-assignment plan, which sizes each
    # location to its own peak: below 1 only redirection can meet them
    peak = beta * (alpha * flow).max(axis=0)
    capacity_max = peak * draw(st.floats(0.75, 1.25))
    budget = float((base_cost + location_cost) @ peak) * draw(st.floats(0.75, 1.25))
    return make_instance(
        flow,
        alpha=alpha,
        beta=beta,
        assign_cost=cost,
        delay=delay,
        base_cost=base_cost,
        location_cost=location_cost,
        budget=budget,
        capacity_max=capacity_max,
        recurrence=rng.uniform(0.5, 2.0, size=T),
    )


class TestBuildLp:
    def test_single_location_structure(self):
        inst = make_instance([[3.0]])
        lp = build_lp(inst)
        # one capacity column, no assignment cells (diagonal is structural zero)
        assert lp.n_cols == 1
        assert col_names(lp) == ["C_1"]
        # budget + flow + capacity-satisfaction row
        assert lp.n_rows == 3
        assert row_names(lp) == ["BUDGET", "FLOW_1_1", "CAPU_1_1"]

    def test_forbidden_pairs_removed_as_variables_not_rows(self):
        cost = np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, FORBIDDEN], [1.0, 1.0, 0.0]]
        )
        inst = make_instance(np.ones((2, 3)), assign_cost=cost)
        lp = build_lp(inst)
        # 6 off-diagonal pairs minus 1 forbidden = 5 cells per slot, 2 slots
        assert lp.n_cols == 3 + 10
        assert "Z_2_3_1" not in col_names(lp)
        assert "Z_2_3_2" not in col_names(lp)
        # the row count is independent of which pairs are forbidden
        assert lp.n_rows == 1 + 2 * 2 * 3

    def test_budget_row_coefficients(self):
        inst = make_instance(
            np.ones((1, 2)), base_cost=500.0, location_cost=[0.0, 100.0]
        )
        lp = build_lp(inst)
        A = lp_matrix(lp)
        np.testing.assert_allclose(A[0, :2], [500.0, 600.0])
        np.testing.assert_allclose(A[0, 2:], 0.0)
        assert lp.rhs[0] == inst.budget

    def test_capacity_rows_encode_delayed_arrival(self):
        delay = np.array([[0, 1], [0, 0]])
        inst = make_instance(np.full((2, 2), 4.0), beta=2.0, delay=delay)
        lp = build_lp(inst)
        A = lp_matrix(lp)
        names = {n: k for k, n in enumerate(row_names(lp))}
        col = col_names(lp).index("Z_1_2_1")  # 1 -> 2 departing slot 1
        # departure relieves location 1 in slot 1
        assert A[names["CAPU_1_1"], col] == pytest.approx(-2.0)
        # arrival loads location 2 one slot later
        assert A[names["CAPU_2_2"], col] == pytest.approx(2.0)

    def test_objective_weights_recurrence(self):
        inst = make_instance(
            np.ones((2, 2)),
            assign_cost=[[0.0, 0.4], [0.4, 0.0]],
            recurrence=[520.0, 1.0],
            base_cost=7.0,
        )
        lp = build_lp(inst)
        obj = dict(zip(col_names(lp), lp.obj))
        assert obj["C_1"] == pytest.approx(7.0)
        assert obj["Z_1_2_1"] == pytest.approx(208.0)
        assert obj["Z_1_2_2"] == pytest.approx(0.4)

    def test_capacity_box_folds_into_bounds(self):
        inst = make_instance([[1.0]], capacity_max=[42.0])
        lp = build_lp(inst)
        assert lp.ub[0] == 42.0


class TestHighsModel:
    """The HiGHS handle holds the LP exactly: every row in row order, the
    bounds and costs, and the column-major arrays as built."""

    @staticmethod
    def assert_holds(lp):
        model = highs_model(lp).getLp()
        assert (model.num_row_, model.num_col_) == (lp.n_rows, lp.n_cols)
        np.testing.assert_array_equal(model.row_upper_, lp.rhs)  # inf kept
        np.testing.assert_array_equal(model.row_lower_, np.full(lp.n_rows, -np.inf))
        np.testing.assert_array_equal(model.col_lower_, np.zeros(lp.n_cols))
        np.testing.assert_array_equal(model.col_upper_, lp.ub)
        np.testing.assert_array_equal(model.col_cost_, lp.obj)
        matrix = model.a_matrix_
        np.testing.assert_array_equal(matrix.start_, lp.start)
        np.testing.assert_array_equal(matrix.index_, lp.index)
        np.testing.assert_array_equal(matrix.value_, lp.vals)

    @given(case=edge_cases(), unbounded=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_handle_holds_the_lp(self, case, unbounded):
        inst, _ = case
        if unbounded:
            inst = dataclasses.replace(inst, budget=np.inf)
        self.assert_holds(build_lp(inst))

    def test_runs_the_dual_simplex_without_presolve(self):
        # build_lp writes no implied row, so HiGHS solves the LP as built
        highs = highs_model(build_lp(make_instance([[3.0, 1.0]])))
        assert highs.getOptionValue("presolve")[1] == "off"
        assert highs.getOptionValue("simplex_strategy")[1] == int(
            highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual)

    def test_unbounded_budget_keeps_its_row(self):
        # row k of HiGHS is row k of the LP, so row duals read in row_names order
        inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=1, range_km=6.0))
        lp = build_lp(dataclasses.replace(inst, budget=np.inf))
        assert lp.rhs[0] == np.inf
        self.assert_holds(lp)
        highs = highs_model(lp)
        highs.run()
        assert len(highs.getSolution().row_dual) == lp.n_rows == len(row_names(lp))


class TestSolveCentralized:
    def test_zero_flow_costs_nothing(self):
        inst = make_instance(np.zeros((2, 2)))
        sol = solve_centralized(inst)
        assert sol.cost.total == 0.0
        assert sol.feasibility.feasible

    def test_single_location_sizes_to_peak(self):
        inst = make_instance([[10.0], [4.0]], beta=1.0, base_cost=2.0)
        sol = solve_centralized(inst)
        assert sol.cost.total == pytest.approx(20.0)
        np.testing.assert_allclose(sol.investment.capacity, [10.0], atol=1e-9)

    def test_staggered_peaks_share_capacity(self):
        # anti-phased peaks with cheap assignment: optimum ships 5 each way,
        # halving capacity; hand value 2 * 5 + 0.1 * 10 = 11
        inst = make_instance(
            [[10.0, 0.0], [0.0, 10.0]],
            beta=1.0,
            base_cost=1.0,
            assign_cost=[[0.0, 0.1], [0.1, 0.0]],
        )
        sol = solve_centralized(inst)
        assert sol.cost.total == pytest.approx(11.0, abs=1e-7)
        # several vertices attain 11 (split 5/5 or pool everything at one
        # site); all of them ship 10 vehicles in total
        assert sol.assignment.z.sum() == pytest.approx(10.0, abs=1e-7)
        assert sol.investment.capacity.sum() == pytest.approx(10.0, abs=1e-7)
        assert sol.feasibility.feasible

    def test_expensive_assignment_stays_home(self):
        inst = make_instance(
            [[10.0, 0.0], [0.0, 10.0]],
            beta=1.0,
            base_cost=1.0,
            assign_cost=[[0.0, 5.0], [5.0, 0.0]],
        )
        sol = solve_centralized(inst)
        assert sol.cost.total == pytest.approx(20.0, abs=1e-7)
        assert sol.cost.assignment == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_lp_lower_bounds_integer_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=2, T=2)
        sol = solve_centralized(inst)
        best_int = brute_force_integer_optimum(inst)
        assert sol.cost.total <= best_int + 1e-7 * max(1.0, abs(best_int))
        assert sol.feasibility.feasible

    @pytest.mark.parametrize("seed", range(6))
    def test_backends_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = random_instance(rng)
        a = solve_with_simplex(inst)
        b = solve_centralized(inst)
        assert a.cost.total == pytest.approx(b.cost.total, abs=1e-6, rel=1e-7)

    def test_infeasible_capacity_cap_raises(self):
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0])
        with pytest.raises(InfeasibleProblemError):
            solve_centralized(inst)

    def test_infeasible_budget_raises(self):
        inst = make_instance([[10.0]], beta=2.0, base_cost=10.0, budget=100.0)
        with pytest.raises(InfeasibleProblemError):
            solve_centralized(inst)

    def test_unbounded_budget_solves_as_a_budget_that_never_binds(self):
        inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=1, range_km=6.0))
        a = solve_centralized(dataclasses.replace(inst, budget=np.inf))
        b = solve_centralized(dataclasses.replace(inst, budget=1e30))
        assert a.cost == b.cost
        assert a.feasibility.feasible
        np.testing.assert_array_equal(a.investment.capacity, b.investment.capacity)
        np.testing.assert_array_equal(a.assignment.z, b.assignment.z)

    def test_duplicate_location_leaves_objective_unchanged(self):
        # splitting one location into two identical halves (each with half
        # the flow, zero-cost zero-delay link between them) must not change
        # the optimal cost
        flow = np.array([[8.0, 2.0], [2.0, 6.0]])
        inst = make_instance(
            flow,
            beta=1.5,
            base_cost=2.0,
            location_cost=[1.0, 3.0],
            assign_cost=[[0.0, 0.3], [0.3, 0.0]],
        )
        split_flow = np.column_stack([flow[:, 0] / 2, flow[:, 0] / 2, flow[:, 1]])
        cost = np.array(
            [[0.0, 0.0, 0.3], [0.0, 0.0, 0.3], [0.3, 0.3, 0.0]]
        )
        split = make_instance(
            split_flow,
            beta=1.5,
            base_cost=2.0,
            location_cost=[1.0, 1.0, 3.0],
            assign_cost=cost,
        )
        a = solve_centralized(inst)
        b = solve_centralized(split)
        assert b.cost.total == pytest.approx(a.cost.total, abs=1e-6)


class TestRowsPresolveWouldRemove:
    """Without presolve HiGHS also solves the rows presolve would have
    removed: the FLOW rows of location 1, which has no out-edge, and of
    location 0, which has one; and the CAPU rows of location 3, which no
    edge touches (and of every location when beta = 0).  Location 2 has two
    out-edges.  HiGHS must agree with the dense simplex on each case, and
    on which cases are infeasible."""

    FLOW = [[9.0, 1.0, 2.0, 4.0], [1.0, 8.0, 7.0, 5.0], [3.0, 2.0, 9.0, 1.0]]
    COST = [[0.0, 0.3, FORBIDDEN, FORBIDDEN],
            [FORBIDDEN, 0.0, FORBIDDEN, FORBIDDEN],
            [0.2, 0.5, 0.0, FORBIDDEN],
            [FORBIDDEN, FORBIDDEN, FORBIDDEN, 0.0]]
    #: the investment of the optimum with an unbounded budget and no cap
    INVESTMENT = 92.625

    @pytest.mark.parametrize("budget", [0.99, 0.9, np.inf, 0.0],
                             ids=["budget", "low", "unbounded", "zero"])
    @pytest.mark.parametrize("beta", [1.5, 0.0])
    @pytest.mark.parametrize("capped, cap", [(None, 1.0), (0, 0.5), (1, 0.8), (3, 0.8)],
                             ids=["uncapped", "one-edge", "no-out-edge", "untouched"])
    def test_highs_equals_the_simplex(self, budget, beta, capped, cap):
        flow = np.array(self.FLOW)
        capacity_max = np.full(4, 1e9)
        if capped is not None:
            # below the location's own peak at beta 1.5: only shipping
            # vehicles out helps
            capacity_max[capped] = cap * 1.5 * flow[:, capped].max()
        inst = make_instance(
            flow, beta=beta, assign_cost=self.COST,
            delay=[[0, 1, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0]],
            base_cost=2.0, location_cost=[0.5, 0.0, 1.0, 0.25],
            budget=budget * self.INVESTMENT, capacity_max=capacity_max,
        )

        def solve(solver):
            try:
                return solver(inst)
            except InfeasibleProblemError:
                return None

        a, b = solve(solve_with_simplex), solve(solve_centralized)
        # with beta = 0 no capacity is needed; otherwise a budget below
        # the optimum's investment (a zero one included), or a cap below
        # the own peak of a location that cannot ship, leaves no plan
        infeasible = beta > 0 and (budget in (0.9, 0.0) or capped in (1, 3))
        assert (a is None, b is None) == (infeasible, infeasible)
        if infeasible:
            return
        assert a.cost.total == pytest.approx(b.cost.total, abs=1e-6, rel=1e-7)
        for sol in (a, b):
            report = check_feasibility(inst, sol.investment, sol.assignment, tol=1e-6)
            assert report.feasible, report.residuals


class TestBackendsDifferential:
    @given(inst=lp_instances())
    @settings(max_examples=100, deadline=None)
    def test_simplex_and_highs_agree_on_feasible_plans(self, inst):
        n, T = inst.n_locations, inst.n_slots
        assert build_lp(inst).n_rows == 1 + 2 * n * T

        def solve(solver):
            try:
                return solver(inst)
            except InfeasibleProblemError:
                return None

        a, b = solve(solve_with_simplex), solve(solve_centralized)
        if a is None and b is None:
            return  # both backends call the draw infeasible
        assert a is not None and b is not None, "only one backend reports infeasible"
        assert a.cost.total == pytest.approx(b.cost.total, abs=1e-6, rel=1e-7)
        for sol in (a, b):
            report = check_feasibility(inst, sol.investment, sol.assignment, tol=1e-6)
            assert report.feasible, report.residuals
            # net demand >= 0 holds without a row of its own
            assert net_demand_matrix(inst, sol.assignment).min() >= -1e-6


@st.composite
def sweep_cases(draw):
    """Small generated instances under delays that wrap the horizon, caps
    and a budget around the no-assignment plan, and an R list (km) that may
    be unordered, descending or repeat an R."""
    n, T = draw(st.integers(2, 5)), draw(st.integers(2, 8))
    inst = generate_instance(GenParams(n_locations=n, n_slots=T,
                                       seed=draw(st.integers(0, 2**16)), range_km=20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delay = rng.integers(0, T, size=(n, n))
    np.fill_diagonal(delay, 0)
    peak = inst.beta * inst.charging_demand.max(axis=0)
    inst = dataclasses.replace(
        inst,
        delay=delay,
        capacity_max=peak * draw(st.floats(0.8, 1.3)),
        budget=float(inst.unit_investment_cost @ peak) * draw(st.floats(0.8, 1.3)),
    )
    r_values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.0, 9.0, 20.0])
                             | st.floats(0.0, 15.0), min_size=1, max_size=6))
    if draw(st.booleans()):
        r_values.sort(reverse=True)
    return inst, r_values


class TestRangeSweep:
    @example(case=(generate_instance(GenParams(n_locations=9, n_slots=24, seed=0,
                                               range_km=8.0)), [7.0, 0.0, 3.0, 3.0, 10.0, 1.0, 5.0]))
    @given(case=sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_warm_sweep_equals_cold_solves(self, case):
        inst, r_values = case
        cold = []
        for r in r_values:
            try:
                cold.append(solve_centralized(with_range_limit(inst, r)))
            except InfeasibleProblemError:
                break
        solved = r_values[:len(cold)]
        if len(cold) < len(r_values):
            # both routes stop at the same first infeasible R
            with pytest.raises(InfeasibleProblemError,
                               match=f"^R={r_values[len(cold)]:g} km: "):
                sweep_range(inst, r_values)
        solutions = sweep_range(inst, solved)
        assert len(solutions) == len(solved)
        for r, sol, ref in zip(solved, solutions, cold):
            assert sol.cost.total == pytest.approx(ref.cost.total, rel=1e-9, abs=1e-9)
            assert sol.feasibility.feasible and sol.feasibility.tol == 1e-6
            # judged again on a freshly restricted instance's own graph
            at_r = with_range_limit(inst, r)
            plan = AssignmentPlan(at_r.range_graph, sol.assignment.z)
            report = check_feasibility(at_r, sol.investment, plan, tol=1e-6)
            assert report.feasible, (r, report.residuals)

    def test_empty_r_list_solves_nothing(self):
        inst = generate_instance(GenParams(n_locations=3, n_slots=4, seed=0))
        assert sweep_range(inst, []) == []


class TestBaseModel:
    def test_sizes_each_location_to_its_peak(self):
        inst = make_instance([[1.0], [5.0], [3.0]], beta=2.0, base_cost=1.0)
        sol = solve_base_model(inst)
        np.testing.assert_allclose(sol.investment.capacity, [10.0])
        assert sol.cost.total == pytest.approx(10.0)
        assert sol.cost.assignment == 0.0
        assert np.all(sol.assignment.z == 0)

    def test_capacity_cap_violation_raises(self):
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0])
        with pytest.raises(InfeasibleProblemError, match="kW"):
            solve_base_model(inst)

    def test_budget_violation_raises(self):
        inst = make_instance([[10.0]], beta=2.0, base_cost=10.0, budget=100.0)
        with pytest.raises(InfeasibleProblemError, match="budget"):
            solve_base_model(inst)

    @given(case=edge_cases(), budget_factor=st.floats(0.5, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_base_never_beats_joint(self, case, budget_factor):
        # the base plan is feasible for the joint LP, so it upper-bounds it,
        # also under a budget near the base investment
        inst, _ = case
        peak = inst.beta * inst.charging_demand.max(axis=0)
        budget = budget_factor * float(peak @ inst.unit_investment_cost)
        inst = dataclasses.replace(inst, budget=budget)
        try:
            base = solve_base_model(inst)
        except InfeasibleProblemError:
            assume(False)
        joint = solve_centralized(inst)
        assert joint.cost.total <= base.cost.total * (1 + 1e-9)

    def test_equals_joint_when_every_pair_is_forbidden(self):
        cost = np.full((2, 2), FORBIDDEN)
        np.fill_diagonal(cost, 0.0)
        inst = make_instance([[4.0, 1.0], [2.0, 3.0]], beta=2.0, assign_cost=cost)
        base = solve_base_model(inst)
        joint = solve_centralized(inst)
        assert joint.cost.total == pytest.approx(base.cost.total, abs=1e-9)

    # one peak of 20 kW at a unit cost of 1, so the plan invests 20: a cap and
    # a budget 5e-7 below it lie inside check_feasibility's 1e-6
    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=-5e-7, budget_offset=1.0)
    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=1.0, budget_offset=-5e-7)
    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=-2e-6, budget_offset=1.0)
    @given(case=edge_cases(),
           cap_offset=st.one_of(st.floats(-3e-6, 3e-6), st.floats(-10.0, 10.0)),
           budget_offset=st.one_of(st.floats(-3e-6, 3e-6), st.floats(-10.0, 10.0)))
    @settings(max_examples=100, deadline=None)
    def test_raises_exactly_when_its_plan_is_infeasible(self, case, cap_offset, budget_offset):
        # caps and budget drawn around the own-peak plan c = beta * max demand, z = 0
        inst, _ = case
        peak = inst.beta * inst.charging_demand.max(axis=0)
        invest = float(peak @ inst.unit_investment_cost)
        inst = dataclasses.replace(inst, capacity_max=np.maximum(peak + cap_offset, 0.0),
                                   budget=max(invest + budget_offset, 0.0))
        inv, asg = InvestmentPlan(peak), AssignmentPlan.zeros(inst)
        report = check_feasibility(inst, inv, asg, tol=1e-6)
        if not report.feasible:
            with pytest.raises(InfeasibleProblemError):
                solve_base_model(inst)
            return
        base = solve_base_model(inst)
        np.testing.assert_array_equal(base.investment.capacity, peak)
        assert not base.assignment.z.any()
        assert base.cost == evaluate_objective(inst, inv, asg)
        assert base.feasibility == report


class TestVerifiedAgainstCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_solutions_re_evaluate_consistently(self, seed):
        rng = np.random.default_rng(200 + seed)
        inst = random_instance(rng)
        sol = solve_centralized(inst)
        re_cost = evaluate_objective(inst, sol.investment, sol.assignment)
        assert re_cost.total == pytest.approx(sol.cost.total)
        assert sol.stats["lp_objective"] == pytest.approx(sol.cost.total, abs=1e-6)
