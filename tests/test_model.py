"""Core model types, objective evaluation, and feasibility residuals."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplan.model import (
    FORBIDDEN,
    AssignmentPlan,
    InvestmentPlan,
    check_feasibility,
    delayed_inflow,
    evaluate_objective,
)

from conftest import (
    dense,
    edge_cases,
    forbidden,
    make_instance,
    net_demand_matrix,
    plan_of,
    random_instance,
)


def loop_delayed_inflow(z, delay):
    """Reference delayed inflow: one cyclic gather per (origin, destination)."""
    T, n, _ = z.shape
    inflow = np.zeros((T, n))
    base = np.arange(T)
    for j in range(n):
        for i in range(n):
            inflow[:, i] += z[(base - int(delay[j, i])) % T, j, i]
    return inflow


def net_charging_demand(instance, asg, i, t):
    """Reference net charging demand at location ``i`` in slot ``t``.

    Local demand minus EVs redirected away in slot ``t``, plus EVs from
    elsewhere dispatched ``delay[j, i]`` slots earlier (cyclic wrap).
    """
    n, T = instance.n_locations, instance.n_slots
    if not (0 <= i < n and 0 <= t < T):
        raise IndexError(f"index (i={i}, t={t}) out of bounds")
    z = dense(asg)
    demand = instance.charging_demand[t, i] - z[t, i, :].sum()
    for j in range(n):
        demand += z[(t - int(instance.delay[j, i])) % T, j, i]
    return float(demand)


def with_entry(field: str, bad: float):
    """A 2 x 2 instance with one entry of ``field`` (off the diagonal of a
    pair matrix) set to ``bad``."""
    inst = make_instance(np.ones((2, 2)), distance=np.ones((2, 2)),
                         coordinates=np.zeros((2, 2)))
    value = getattr(inst, field)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[1] = bad
    else:
        value = bad
    return dataclasses.replace(inst, **{field: value})


class TestInstanceValidation:
    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError, match="flow"):
            make_instance([[-1.0]])

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            make_instance([[1.0]], alpha=[[1.5]])

    def test_nonzero_diagonal_cost_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            make_instance(np.ones((1, 2)), assign_cost=[[0.5, 1.0], [1.0, 0.0]])

    def test_delay_must_fit_horizon(self):
        with pytest.raises(ValueError, match="delay"):
            make_instance(np.ones((2, 2)), delay=[[0, 2], [1, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_instance(np.ones((2, 2)), alpha=np.ones((3, 2)))

    @pytest.mark.parametrize("field, message", [
        ("flow", "flow entries must be"), ("alpha", "alpha entries must lie"),
        ("beta", "beta must be"), ("assign_cost", "assign_cost entries must be"),
        ("base_cost", "investment costs must be"),
        ("location_cost", "investment costs must be"), ("budget", "budget must be"),
        ("capacity_max", "capacity_max must be"), ("recurrence", "recurrence must be"),
        ("range_limit", "range_limit must be"), ("distance", "distance entries must be"),
        ("coordinates", "coordinates must be"),
    ])
    def test_nan_rejected_in_every_numeric_field(self, field, message):
        with pytest.raises(ValueError, match=message):
            with_entry(field, np.nan)

    @pytest.mark.parametrize("field", [
        "flow", "beta", "base_cost", "location_cost", "recurrence", "coordinates",
    ])
    def test_inf_rejected_where_it_does_not_mean_unbounded(self, field):
        with pytest.raises(ValueError, match="finite") as error:
            with_entry(field, np.inf)
        assert field in str(error.value)

    @pytest.mark.parametrize("field", ["budget", "capacity_max", "range_limit"])
    def test_inf_is_legal_where_it_means_unbounded(self, field):
        assert np.isinf(getattr(with_entry(field, np.inf), field)).any()

    def test_arrays_are_readonly(self):
        inst = make_instance([[1.0, 2.0]])
        with pytest.raises(ValueError):
            inst.flow[0, 0] = 5.0

    def test_range_graph_skips_the_diagonal_and_forbidden_pairs(self):
        cost = np.array([[0.0, FORBIDDEN], [1.0, 0.0]])
        graph = make_instance(np.ones((1, 2)), assign_cost=cost).range_graph
        # the diagonal costs 0 but is never an edge; 0 -> 1 is out of range
        assert (graph.src.tolist(), graph.dst.tolist()) == ([1], [0])

    def test_charging_demand_is_alpha_times_flow(self):
        inst = make_instance([[4.0, 10.0]], alpha=[[0.5, 0.1]])
        np.testing.assert_allclose(inst.charging_demand, [[2.0, 1.0]])


class TestEvaluateObjective:
    def test_all_zero_plans_cost_nothing(self):
        inst = make_instance(np.ones((2, 2)))
        cost = evaluate_objective(
            inst, InvestmentPlan(np.zeros(2)), AssignmentPlan.zeros(inst)
        )
        assert cost.investment == 0.0
        assert cost.assignment == 0.0
        assert cost.total == 0.0

    def test_investment_only(self):
        # c = 2 kW at unit cost 500 + 100 -> 1200
        inst = make_instance([[1.0]], base_cost=500.0, location_cost=[100.0])
        cost = evaluate_objective(
            inst, InvestmentPlan([2.0]), AssignmentPlan.zeros(inst)
        )
        assert cost.investment == pytest.approx(1200.0)
        assert cost.total == pytest.approx(1200.0)

    def test_assignment_only(self):
        # recurrence 520 * z 3 * unit cost 0.4 = 624
        inst = make_instance(
            np.full((1, 2), 10.0),
            assign_cost=[[0.0, 0.4], [0.4, 0.0]],
            recurrence=[520.0],
            base_cost=0.0,
        )
        z = np.zeros((1, 2, 2))
        z[0, 0, 1] = 3.0
        cost = evaluate_objective(inst, InvestmentPlan([0.0, 0.0]), plan_of(inst, z))
        assert cost.assignment == pytest.approx(624.0)
        assert cost.investment == 0.0
        assert cost.total == pytest.approx(624.0)

    def test_plan_on_another_instance_rejected(self):
        inst, twin = make_instance(np.ones((1, 2))), make_instance(np.ones((1, 2)))
        for check in (evaluate_objective, check_feasibility):
            with pytest.raises(ValueError, match="dimensions"):
                check(inst, InvestmentPlan(np.zeros(2)), AssignmentPlan.zeros(twin))
        with pytest.raises(ValueError, match="dimensions"):  # two slots, not one
            net_demand_matrix(inst, AssignmentPlan(inst.range_graph, np.zeros((2, 2))))
        with pytest.raises(ValueError, match="n_edges"):
            AssignmentPlan(inst.range_graph, np.zeros((1, 3)))

    def test_plan_is_a_read_only_view(self):
        inst = make_instance(np.ones((1, 2)))
        z_e = np.ones((1, 2))
        plan = AssignmentPlan(inst.range_graph, z_e)
        assert np.shares_memory(plan.z, z_e)
        with pytest.raises(ValueError):
            plan.z[0, 0] = 2.0

    def test_dimension_mismatch_rejected(self):
        inst = make_instance(np.ones((1, 2)))
        with pytest.raises(ValueError, match="dimensions"):
            evaluate_objective(
                inst, InvestmentPlan([1.0, 2.0, 3.0]), AssignmentPlan.zeros(inst)
            )

    @given(scale=st.floats(0.0, 50.0), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_objective_is_linear_in_plans(self, scale, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        n, T = inst.n_locations, inst.n_slots
        c = rng.uniform(0.0, 5.0, size=n)
        z = rng.uniform(0.0, 2.0, size=(T, inst.range_graph.n_edges))
        base = evaluate_objective(
            inst, InvestmentPlan(c), AssignmentPlan(inst.range_graph, z)
        )
        scaled = evaluate_objective(
            inst, InvestmentPlan(scale * c), AssignmentPlan(inst.range_graph, scale * z)
        )
        assert scaled.total == pytest.approx(scale * base.total, abs=1e-6, rel=1e-9)


class TestDelayedInflow:
    def test_example_delay_of_one_slot(self):
        # T=4: a shipment 2->1 in slot index 2 with delay 1 arrives at slot 3
        z = np.zeros((4, 2, 2))
        z[2, 1, 0] = 5.0
        delay = np.array([[0, 1], [1, 0]])
        inflow = delayed_inflow(z, delay)
        assert inflow[3, 0] == pytest.approx(5.0)
        assert inflow.sum() == pytest.approx(5.0)

    def test_cyclic_wraparound(self):
        # departure in the last slot with delay 2 lands early in the horizon
        z = np.zeros((4, 2, 2))
        z[3, 1, 0] = 5.0
        delay = np.array([[0, 2], [2, 0]])
        inflow = delayed_inflow(z, delay)
        assert inflow[1, 0] == pytest.approx(5.0)

    def test_zero_delay_is_identity_gather(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(0.0, 3.0, size=(5, 3, 3))
        inflow = delayed_inflow(z, np.zeros((3, 3), dtype=int))
        np.testing.assert_allclose(inflow, z.sum(axis=1))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_inflow_conserves_vehicle_total(self, seed):
        rng = np.random.default_rng(seed)
        T, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        z = rng.uniform(0.0, 4.0, size=(T, n, n))
        delay = rng.integers(0, T, size=(n, n))
        assert delayed_inflow(z, delay).sum() == pytest.approx(z.sum())


class TestRangeGraph:
    def test_edges_are_the_in_range_pairs_in_origin_major_order(self):
        cost = np.array([[0.0, FORBIDDEN, 2.0], [1.0, 0.0, 3.0], [FORBIDDEN] * 2 + [0.0]])
        delay = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        graph = make_instance(np.ones((3, 3)), assign_cost=cost, delay=delay).range_graph
        np.testing.assert_array_equal(graph.src, [0, 1, 1])
        np.testing.assert_array_equal(graph.dst, [2, 0, 2])
        np.testing.assert_array_equal(graph.cost, [2.0, 1.0, 3.0])
        np.testing.assert_array_equal(graph.delay, [2, 1, 1])
        np.testing.assert_array_equal(graph.offsets, [0, 1, 3, 3])
        assert graph.n_edges == 3

    def test_built_once_per_instance(self):
        inst = make_instance(np.ones((1, 2)))
        assert inst.range_graph is inst.range_graph
        with pytest.raises(ValueError):
            inst.range_graph.src[0] = 1

    @given(case=edge_cases(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_the_dense_loop(self, case, seed):
        inst, z_e = case
        graph = inst.range_graph
        T, n = inst.n_slots, inst.n_locations
        np.testing.assert_array_equal(np.stack([graph.src, graph.dst], axis=1),
                                      np.argwhere(~forbidden(inst)))
        z = dense(AssignmentPlan(graph, z_e))
        np.testing.assert_allclose(graph.outflow(z_e), z.sum(axis=2), rtol=1e-12)
        assert np.array_equal(graph.inflow(z_e), loop_delayed_inflow(z, inst.delay))
        # the dense path counts every pair, diagonal and out-of-range included
        wild = np.random.default_rng(seed).uniform(-1.0, 3.0, size=(T, n, n))
        assert np.array_equal(
            delayed_inflow(wild, inst.delay), loop_delayed_inflow(wild, inst.delay)
        )

    def test_cached_indices_serve_every_later_plan(self):
        # inflow and outflow build their indices on the first call and reuse
        # them: each later plan must still get its own sums, and a plan over
        # another horizon than the graph's is refused
        rng = np.random.default_rng(4)
        delay = rng.integers(0, 6, size=(4, 4))
        np.fill_diagonal(delay, 0)
        inst = random_instance(rng, n=4, T=6, forbid_frac=0.3, delay=delay)
        graph = inst.range_graph
        for _ in range(2):
            z_e = rng.uniform(0.0, 3.0, size=(6, graph.n_edges))
            z = dense(AssignmentPlan(graph, z_e))
            assert np.array_equal(graph.inflow(z_e), delayed_inflow(z, inst.delay))
            np.testing.assert_allclose(graph.outflow(z_e), z.sum(axis=2), rtol=1e-12)
        short = rng.uniform(0.0, 3.0, size=(4, graph.n_edges))
        for flow in (graph.inflow, graph.outflow):
            with pytest.raises(ValueError, match="n_slots"):
                flow(short)

    def test_plan_of_another_width_is_refused(self):
        graph = make_instance(np.ones((2, 2))).range_graph
        with pytest.raises(ValueError):
            graph.inflow(np.ones((2, graph.n_edges + 1)))


class TestNetChargingDemand:
    def test_no_assignment_equals_local_demand(self):
        inst = make_instance([[4.0, 6.0]], alpha=[[0.5, 0.5]])
        asg = AssignmentPlan.zeros(inst)
        assert net_charging_demand(inst, asg, 0, 0) == pytest.approx(2.0)
        assert net_charging_demand(inst, asg, 1, 0) == pytest.approx(3.0)

    def test_redirection_shifts_demand_with_delay(self):
        delay = np.array([[0, 1], [1, 0]])
        inst = make_instance(np.full((4, 2), 10.0), delay=delay)
        z = np.zeros((4, 2, 2))
        z[2, 1, 0] = 5.0  # 2 -> 1 departing slot 2, arriving slot 3
        asg = plan_of(inst, z)
        assert net_charging_demand(inst, asg, 1, 2) == pytest.approx(5.0)
        assert net_charging_demand(inst, asg, 0, 3) == pytest.approx(15.0)

    def test_out_of_bounds_indices_raise(self):
        inst = make_instance(np.ones((2, 2)))
        asg = AssignmentPlan.zeros(inst)
        with pytest.raises(IndexError):
            net_charging_demand(inst, asg, 2, 0)
        with pytest.raises(IndexError):
            net_charging_demand(inst, asg, 0, -1)

    @given(seed=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_matrix_agrees_with_scalar_version(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        n, T = inst.n_locations, inst.n_slots
        asg = AssignmentPlan(inst.range_graph,
                             rng.uniform(0.0, 2.0, size=(T, inst.range_graph.n_edges)))
        mat = net_demand_matrix(inst, asg)
        for i in range(n):
            for t in range(T):
                assert mat[t, i] == pytest.approx(
                    net_charging_demand(inst, asg, i, t), abs=1e-9
                )

    @given(seed=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_net_demand_conserves_total(self, seed):
        # redirection moves demand around; the horizon total stays constant
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        z = rng.uniform(0.0, 2.0, size=(inst.n_slots, inst.range_graph.n_edges))
        net = net_demand_matrix(inst, AssignmentPlan(inst.range_graph, z))
        assert net.sum() == pytest.approx(inst.charging_demand.sum(), rel=1e-9)


class TestCheckFeasibility:
    def test_clean_plan_reports_feasible(self):
        inst = make_instance([[4.0]], beta=2.0)
        report = check_feasibility(inst, InvestmentPlan([8.0]), AssignmentPlan.zeros(inst))
        assert report.feasible
        assert all(r.violation == 0.0 for r in report.residuals.values())
        assert set(report.residuals) == {
            "budget",
            "capacity_bounds",
            "flow_conservation",
            "capacity_satisfaction",
            "non_negativity",
        }

    def test_capacity_satisfaction_violation_measured_in_kw(self):
        # demand 4 at beta 2 needs 8 kW; installing 7 leaves a 1 kW gap
        inst = make_instance([[4.0]], beta=2.0)
        report = check_feasibility(inst, InvestmentPlan([7.0]), AssignmentPlan.zeros(inst))
        assert not report.feasible
        res = report.residuals["capacity_satisfaction"]
        assert res.violation == pytest.approx(1.0)
        assert res.where == (0, 0)

    def test_flow_conservation_violation_in_vehicle_counts(self):
        inst = make_instance([[2.0, 10.0]], alpha=[[0.5, 1.0]])
        z = np.zeros((1, 2, 2))
        z[0, 0, 1] = 1.5  # demand at location 0 is only 1.0
        report = check_feasibility(inst, InvestmentPlan([0.0, 100.0]), plan_of(inst, z))
        assert report.residuals["flow_conservation"].violation == pytest.approx(0.5)

    def test_budget_violation_in_currency(self):
        inst = make_instance([[1.0]], base_cost=10.0, budget=50.0)
        report = check_feasibility(inst, InvestmentPlan([6.0]), AssignmentPlan.zeros(inst))
        assert report.residuals["budget"].violation == pytest.approx(10.0)

    def test_capacity_box_violations(self):
        inst = make_instance([[0.0]], capacity_max=[5.0])
        over = check_feasibility(inst, InvestmentPlan([7.0]), AssignmentPlan.zeros(inst))
        assert over.residuals["capacity_bounds"].violation == pytest.approx(2.0)
        under = check_feasibility(inst, InvestmentPlan([-1.0]), AssignmentPlan.zeros(inst))
        assert under.residuals["capacity_bounds"].violation == pytest.approx(1.0)

    def test_never_raises_on_wild_plans(self):
        inst = make_instance(np.ones((2, 2)))
        z = np.array([[-1.0, -3.0], [-3.0, -2.0]])  # edges 0 -> 1 and 1 -> 0
        report = check_feasibility(
            inst, InvestmentPlan([-1.0, 1e12]), AssignmentPlan(inst.range_graph, z)
        )
        assert not report.feasible
        # the worst cell is named as (t, i, j), the first one in that order
        assert report.residuals["non_negativity"].violation == pytest.approx(3.0)
        assert report.residuals["non_negativity"].where == (0, 1, 0)

    def test_tolerance_controls_the_verdict(self):
        inst = make_instance([[4.0]], beta=2.0)
        inv = InvestmentPlan([8.0 - 1e-7])
        strict = check_feasibility(inst, inv, AssignmentPlan.zeros(inst), tol=1e-9)
        loose = check_feasibility(inst, inv, AssignmentPlan.zeros(inst), tol=1e-6)
        assert not strict.feasible
        assert loose.feasible


class TestRelabelingInvariance:
    @given(seed=st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_objective_invariant_under_location_permutation(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=4)
        n, T = inst.n_locations, inst.n_slots
        c = rng.uniform(0.0, 5.0, size=n)
        z = rng.uniform(0.0, 2.0, size=(T, n, n))
        z[:, forbidden(inst)] = 0.0
        perm = rng.permutation(n)

        permuted = make_instance(
            inst.flow[:, perm],
            alpha=inst.alpha[:, perm],
            beta=inst.beta,
            assign_cost=inst.assign_cost[np.ix_(perm, perm)],
            delay=inst.delay[np.ix_(perm, perm)],
            base_cost=inst.base_cost,
            location_cost=inst.location_cost[perm],
            budget=inst.budget,
            capacity_max=inst.capacity_max[perm],
            recurrence=inst.recurrence,
        )
        asg, asg_p = plan_of(inst, z), plan_of(permuted, z[:, perm][:, :, perm])
        cost = evaluate_objective(inst, InvestmentPlan(c), asg)
        cost_p = evaluate_objective(permuted, InvestmentPlan(c[perm]), asg_p)
        assert cost_p.total == pytest.approx(cost.total, rel=1e-12)
        report = check_feasibility(inst, InvestmentPlan(c), asg)
        report_p = check_feasibility(permuted, InvestmentPlan(c[perm]), asg_p)
        def worst(r):
            return max(res.violation for res in r.residuals.values())

        assert worst(report_p) == pytest.approx(worst(report), abs=1e-9)
