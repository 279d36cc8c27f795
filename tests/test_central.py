"""Centralized LP path: builder structure, solvers, baseline, invariances."""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy import _core as highspy

from chargeplan import central
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

from chargeplan.mps import col_names, row_names, write_mps

from conftest import (
    DELAYED_CLOCKS,
    DELAYED_SEEDS,
    brute_force_integer_optimum,
    edge_cases,
    forbidden,
    highs_read,
    lp_matrix,
    make_instance,
    net_demand_matrix,
    random_instance,
    solve_model_lp,
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
        # budget + capacity-satisfaction row; a location with no edge
        # ships nothing, so its flow row would be empty and is not written
        assert lp.n_rows == 2
        assert row_names(lp) == ["BUDGET", "CAPU_1_1"]

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
        # location 2 keeps one edge, to location 1: its flow rows become
        # that edge's column bounds, so only locations 1 and 3 have FLOW rows
        assert lp.n_rows == 1 + (3 + 2) * 2
        assert [name for name in row_names(lp) if name.startswith("FLOW")] == [
            "FLOW_1_1", "FLOW_1_2", "FLOW_3_1", "FLOW_3_2"]
        ub = dict(zip(col_names(lp), lp.ub))
        assert (ub["Z_2_1_1"], ub["Z_2_1_2"]) == (1.0, 1.0)
        assert ub["Z_1_2_1"] == np.inf

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
    """``build_lp`` writes no row presolve would remove at once: location 1
    has no out-edge, so no FLOW row, and location 0 has one, so its FLOW
    rows are that edge's column bounds.  Location 2 has two out-edges and
    keeps its FLOW rows.  The CAPU rows of location 3, which no edge
    touches (and of every location when beta = 0), are kept.  HiGHS must
    agree with the dense simplex on each case, and on which cases are
    infeasible."""

    FLOW = [[9.0, 1.0, 2.0, 4.0], [1.0, 8.0, 7.0, 5.0], [3.0, 2.0, 9.0, 1.0]]
    COST = [[0.0, 0.3, FORBIDDEN, FORBIDDEN],
            [FORBIDDEN, 0.0, FORBIDDEN, FORBIDDEN],
            [0.2, 0.5, 0.0, FORBIDDEN],
            [FORBIDDEN, FORBIDDEN, FORBIDDEN, 0.0]]
    #: the investment of the optimum with an unbounded budget and no cap
    INVESTMENT = 92.625

    def instance(self, beta=1.5, budget=np.inf, capacity_max=np.full(4, 1e9)):
        return make_instance(
            np.array(self.FLOW), beta=beta, assign_cost=self.COST,
            delay=[[0, 1, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0]],
            base_cost=2.0, location_cost=[0.5, 0.0, 1.0, 0.25],
            budget=budget * self.INVESTMENT, capacity_max=capacity_max,
        )

    def test_mps_names_the_rows_written_and_bounds_the_single_edge(self, tmp_path):
        lp = build_lp(self.instance())
        path = tmp_path / "presolve.mps"
        write_mps(lp, path)
        back = highs_read(path).getLp()
        T = len(self.FLOW)
        assert back.row_names_ == (["BUDGET"] + [f"FLOW_3_{t}" for t in range(1, T + 1)]
                                   + [f"CAPU_{i}_{t}" for i in range(1, 5)
                                      for t in range(1, T + 1)])
        upper = dict(zip(back.col_names_, back.col_upper_))
        assert [upper[f"Z_1_2_{t + 1}"] for t in range(T)] == [row[0] for row in self.FLOW]
        assert [upper[f"Z_3_{j}_{t}"] for j in (1, 2) for t in range(1, T + 1)] == [np.inf] * 2 * T
        text = path.read_text()
        assert text.count(" UP BND           Z_") == T

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
        inst = self.instance(beta, budget, capacity_max)

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
        # a FLOW row per slot of each origin with two or more pairs in range
        n_flow = int(((~forbidden(inst)).sum(axis=1) >= 2).sum())
        assert build_lp(inst).n_rows == 1 + (n + n_flow) * T

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


def around_own_peak(draw, inst):
    """``inst`` with its caps and budget drawn at 0.75-1.25 times the
    no-assignment plan's, as in :func:`lp_instances`."""
    peak = inst.own_peak
    return dataclasses.replace(
        inst, capacity_max=peak * draw(st.floats(0.75, 1.25)),
        budget=float(inst.unit_investment_cost @ peak) * draw(st.floats(0.75, 1.25)))


@st.composite
def short_range_instances(draw):
    """Generated instances at a 1-4 km range, so that some origins have one
    pair in range or none."""
    n, T = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    inst = generate_instance(GenParams(n_locations=n, n_slots=T,
                                       seed=draw(st.integers(0, 2**16)),
                                       range_km=draw(st.floats(1.0, 4.0))))
    return around_own_peak(draw, inst)


@st.composite
def delayed_instances(draw):
    """Members of the delayed family on its 24-slot clock, cut to a 2-8 km
    range; the dense simplex takes about a second on each."""
    T, speed = DELAYED_CLOCKS[0]
    inst = generate_instance(GenParams(n_locations=6, n_slots=T,
                                       seed=draw(st.sampled_from(DELAYED_SEEDS)),
                                       range_km=8.0, speed_kmh=speed))
    return around_own_peak(draw, with_range_limit(inst, draw(st.floats(2.0, 8.0))))


class TestReducedLpEqualsTheModel:
    """HiGHS on ``build_lp``'s reduced LP against the dense simplex on the
    LP written from the model's definition (``conftest.model_lp``), with
    every FLOW row and no derived bound: the same optimum, within the
    tolerances of ``TestBackendsDifferential``, and the same verdict on
    which draws have no plan."""

    @staticmethod
    def assert_same(inst):
        def solve(solver):
            try:
                return solver(inst)
            except InfeasibleProblemError:
                return None

        a, b = solve(solve_model_lp), solve(solve_centralized)
        assert (a is None) == (b is None), "only one LP is infeasible"
        if a is None:
            return
        assert a.cost.total == pytest.approx(b.cost.total, abs=1e-6, rel=1e-7)
        for sol in (a, b):
            assert sol.feasibility.feasible, sol.feasibility.residuals

    @given(inst=st.one_of(lp_instances(), short_range_instances()))
    @settings(max_examples=100, deadline=None)
    def test_on_tiny_and_short_range_instances(self, inst):
        self.assert_same(inst)

    @given(inst=delayed_instances())
    @settings(max_examples=8, deadline=None)
    def test_on_the_delayed_family(self, inst):
        self.assert_same(inst)


class TestDualBound:
    """At HiGHS's row duals the Lagrangian bound of the reduced LP equals its
    optimum, which holds only if HiGHS solved the LP with the bounds that
    replace the one-entry FLOW rows."""

    @staticmethod
    def assert_bound_is_the_optimum(inst):
        lp = build_lp(inst)
        highs = highs_model(lp)
        highs.run()
        assert highs.getModelStatus() == highspy.HighsModelStatus.kOptimal
        y = -np.array(highs.getSolution().row_dual)
        assert y.min() >= -1e-9
        # the CSC arrays read as a sparse matrix: lp_matrix's dense copy is
        # 190 MB at 20 x 96
        A = scipy.sparse.csc_matrix((lp.vals, lp.index, lp.start), shape=(lp.n_rows, lp.n_cols))
        reduced = lp.obj + A.T @ y
        # every z column is bounded by its origin's demand, as its FLOW row
        # or its column bound implies
        graph, n = lp.graph, inst.n_locations
        ub = np.concatenate([inst.capacity_max, inst.charging_demand[:, graph.src].ravel()])
        finite = np.isfinite(lp.ub)
        np.testing.assert_array_equal(lp.ub[finite], ub[finite])
        bound = -lp.rhs @ y + np.minimum(0.0, reduced) @ ub
        optimum = highs.getInfo().objective_function_value
        assert bound == pytest.approx(optimum, rel=1e-9)

    def test_on_a_generated_instance_with_single_edge_origins(self):
        inst = generate_instance(GenParams(n_locations=20, n_slots=96, seed=0))
        # four origins with one edge and one with none write no FLOW row
        assert np.bincount(np.diff(inst.range_graph.offsets))[:2].tolist() == [1, 4]
        self.assert_bound_is_the_optimum(inst)

    def test_on_the_delayed_family(self, delayed):
        self.assert_bound_is_the_optimum(delayed)


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


@st.composite
def edgeless_sweep_cases(draw):
    """``sweep_cases`` with R = 0, whose in-range graph has no edge, put
    first, between two other R or last, once or twice.  Unless a drawn flag
    keeps them, caps and budget below the no-assignment plan are lifted to
    it, so most lists are solved past their first R = 0."""
    inst, r_values = draw(sweep_cases())
    if draw(st.booleans()):
        peak = inst.own_peak
        inst = dataclasses.replace(
            inst, capacity_max=np.maximum(inst.capacity_max, peak),
            budget=max(inst.budget, float(inst.unit_investment_cost @ peak)))
    for _ in range(draw(st.integers(1, 2))):
        r_values.insert(draw(st.integers(0, len(r_values))), 0.0)
    return inst, r_values


@st.composite
def single_edge_sweep_cases(draw):
    """A generated instance and the R list (wide, narrow, wide): at the wide
    R one origin has a single pair in range, and the narrow R closes it
    while another pair stays in range, under caps and a budget around the
    no-assignment plan."""
    n, T = draw(st.integers(3, 6)), draw(st.integers(1, 6))
    inst = generate_instance(GenParams(n_locations=n, n_slots=T,
                                       seed=draw(st.integers(0, 2**16)), range_km=20.0))
    distance = inst.distance + np.diag(np.full(n, np.inf))
    nearest = np.sort(distance, axis=1)
    i = draw(st.integers(0, n - 1))
    # R = the second-nearest distance admits only the nearest (range is strict)
    wide, narrow = float(nearest[i, 1]), float(nearest[i, 0])
    assume(narrow < wide and distance.min() < narrow)
    peak = inst.own_peak
    inst = dataclasses.replace(
        inst,
        capacity_max=peak * draw(st.floats(0.8, 1.3)),
        budget=float(inst.unit_investment_cost @ peak) * draw(st.floats(0.8, 1.3)),
    )
    return inst, [wide, narrow, wide]


@contextlib.contextmanager
def calls_of(owner, name):
    """Collect the arguments of every call of ``owner.name`` meanwhile; each
    call still runs."""
    calls, original = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    with mock.patch.object(owner, name, spy):
        yield calls


def cold_solves(inst, r_values):
    """One cold ``solve_centralized`` per R, up to the first R without a
    plan, at which ``sweep_range`` must stop too, naming that R."""
    cold = []
    for r in r_values:
        try:
            cold.append(solve_centralized(with_range_limit(inst, r)))
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError, match=f"^R={r:g} km: "):
                sweep_range(inst, r_values)
            break
    return cold


class TestRangeSweep:
    @example(case=(generate_instance(GenParams(n_locations=9, n_slots=24, seed=0,
                                               range_km=8.0)), [7.0, 0.0, 3.0, 3.0, 10.0, 1.0, 5.0]))
    @given(case=sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_warm_sweep_equals_cold_solves(self, case):
        inst, r_values = case
        cold = cold_solves(inst, r_values)
        solved = r_values[:len(cold)]
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

    @example(case=(generate_instance(GenParams(n_locations=9, n_slots=24, seed=0,
                                               range_km=8.0)), [0.0, 7.0, 3.0, 0.0, 3.0, 1.0, 0.0]))
    @given(case=edgeless_sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_edgeless_r_is_the_base_plan_and_highs_sees_only_changed_bounds(self, case):
        inst, r_values = case
        cold = cold_solves(inst, r_values)
        r_values = r_values[:len(cold)]
        at_r = [with_range_limit(inst, r) for r in r_values]
        with calls_of(highspy._Highs, "run") as runs, \
                calls_of(highspy._Highs, "changeColsBounds") as bound_changes:
            solutions = sweep_range(inst, r_values)
        has_edges = [r_inst.range_graph.n_edges > 0 for r_inst in at_r]
        assert len(runs) == sum(has_edges)

        # the columns of the widest R's LP, built with every edge open
        graph = with_range_limit(inst, max(r_values, default=0.0)).range_graph
        n, T, E = inst.n_locations, inst.n_slots, graph.n_edges
        was_open, expected = np.ones(E, dtype=bool), []
        for r_inst, sol, ref, edges in zip(at_r, solutions, cold, has_edges):
            assert sol.cost.total == pytest.approx(ref.cost.total, rel=1e-9, abs=1e-9)
            if not edges:
                base = solve_base_model(r_inst)
                np.testing.assert_array_equal(sol.investment.capacity, base.investment.capacity)
                assert sol.stats["method"] == "base"
                continue
            is_open = np.isfinite(r_inst.assign_cost[graph.src, graph.dst])
            flipped = np.flatnonzero(is_open != was_open)
            if len(flipped):
                cols = n + E * np.arange(T)[:, None] + flipped
                # re-opened: the demand of an origin with this one edge, or none
                single = (np.bincount(graph.src, minlength=n) == 1)[graph.src[flipped]]
                demand = r_inst.charging_demand[:, graph.src[flipped]]
                ub = np.where(is_open[flipped], np.where(single, demand, np.inf), 0.0)
                expected.append((cols.ravel(), ub.ravel()))
            was_open = is_open
        assert len(bound_changes) == len(expected)
        for (_, count, cols, lower, upper), (want_cols, want_ub) in zip(bound_changes, expected):
            assert count == len(want_cols)
            np.testing.assert_array_equal(cols, want_cols)
            np.testing.assert_array_equal(lower, 0.0)
            np.testing.assert_array_equal(upper, want_ub)

    @given(case=single_edge_sweep_cases())
    @settings(max_examples=60, deadline=None)
    def test_a_closed_single_edge_reopens_to_its_demand_bound(self, case):
        inst, r_values = case
        cold = cold_solves(inst, r_values)
        handles = []

        def kept(lp):
            handles.append((lp, highs_model(lp)))
            return handles[-1][1]

        with mock.patch.object(central, "highs_model", kept):
            solutions = sweep_range(inst, r_values[:len(cold)])
        for sol, ref in zip(solutions, cold):
            assert sol.cost.total == pytest.approx(ref.cost.total, rel=1e-9, abs=1e-9)
        if len(solutions) == len(r_values):
            # the last R is the widest again: every column is back at its bound
            [(lp, highs)] = handles
            assert np.isfinite(lp.ub[inst.n_locations:]).any()
            np.testing.assert_array_equal(highs.getLp().col_upper_, lp.ub)

    def test_edgeless_sweep_builds_no_lp(self):
        inst = generate_instance(GenParams(n_locations=3, n_slots=4, seed=0))
        with calls_of(central, "build_lp") as builds:
            [sol] = sweep_range(inst, [0.0])
        assert builds == []
        assert sol.stats["backend"] == "closed_form"
        assert sol.cost == solve_base_model(with_range_limit(inst, 0.0)).cost

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

    # one peak of 20 kW at a unit cost of 1, so the plan invests 20: a cap or
    # a budget 5e-7 below it lies inside check_feasibility's 1e-6 but outside
    # 1e-9 * 20; one 5e-9 below lies inside both
    @pytest.mark.parametrize("bound", ["capacity_max", "budget"])
    @pytest.mark.parametrize("below, refused", [(5e-7, True), (5e-9, False)])
    def test_refuses_where_the_lp_does(self, bound, below, refused):
        value = [20.0 - below] if bound == "capacity_max" else 20.0 - below
        inst = make_instance([[10.0]], beta=2.0, **{bound: value})
        if refused:
            for solver in (solve_base_model, solve_centralized):
                with pytest.raises(InfeasibleProblemError):
                    solver(inst)
            return
        for solver in (solve_base_model, solve_centralized):
            sol = solver(inst)
            assert sol.investment.capacity[0] == pytest.approx(20.0, abs=1e-12)
            assert sol.feasibility.feasible

    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=-5e-7, budget_offset=1.0)
    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=1.0, budget_offset=-5e-7)
    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=-5e-9, budget_offset=-5e-9)
    @example(case=(make_instance([[10.0]], beta=2.0), None), cap_offset=-2e-6, budget_offset=1.0)
    @given(case=edge_cases(),
           cap_offset=st.one_of(st.floats(-3e-6, 3e-6), st.floats(-10.0, 10.0)),
           budget_offset=st.one_of(st.floats(-3e-6, 3e-6), st.floats(-10.0, 10.0)))
    @settings(max_examples=100, deadline=None)
    def test_raises_exactly_when_its_plan_is_infeasible(self, case, cap_offset, budget_offset):
        # caps and budget drawn around the own-peak plan c = beta * max demand,
        # z = 0; a cap or the budget broken by more than 1e-9 * max(1, bound),
        # or by more than the check's 1e-6, refuses it
        inst, _ = case
        peak = inst.beta * inst.charging_demand.max(axis=0)
        invest = float(peak @ inst.unit_investment_cost)
        inst = dataclasses.replace(inst, capacity_max=np.maximum(peak + cap_offset, 0.0),
                                   budget=max(invest + budget_offset, 0.0))
        inv, asg = InvestmentPlan(peak), AssignmentPlan.zeros(inst)
        report = check_feasibility(inst, inv, asg, tol=1e-6)
        cap, budget = inst.capacity_max, inst.budget
        broken = (np.any(peak - cap > 1e-9 * np.maximum(1.0, cap))
                  or invest - budget > 1e-9 * max(1.0, budget))
        if broken or not report.feasible:
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
