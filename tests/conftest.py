"""Shared builders for small, fully explicit test instances."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize._highspy import _core as highspy

from chargeplan.central import _extract_plans, build_lp
from chargeplan.datagen import GenParams, generate_instance
from chargeplan.model import (
    FORBIDDEN,
    AssignmentPlan,
    InfeasibleProblemError,
    PlanningInstance,
    Solution,
    _plan_graph,
    assess,
)
from chargeplan.simplex import solve_simplex


def make_instance(
    flow,
    *,
    alpha=None,
    beta=1.0,
    assign_cost=None,
    delay=None,
    base_cost=1.0,
    location_cost=None,
    budget=1e12,
    capacity_max=None,
    recurrence=None,
    range_limit=10.0,
    distance=None,
    coordinates=None,
) -> PlanningInstance:
    """Instance with explicit flow and permissive defaults elsewhere."""
    flow = np.asarray(flow, dtype=float)
    T, n = flow.shape
    if alpha is None:
        alpha = np.ones((T, n))
    if assign_cost is None:
        assign_cost = np.ones((n, n))
        np.fill_diagonal(assign_cost, 0.0)
    if delay is None:
        delay = np.zeros((n, n), dtype=int)
    if location_cost is None:
        location_cost = np.zeros(n)
    if capacity_max is None:
        capacity_max = np.full(n, 1e9)
    if recurrence is None:
        recurrence = np.ones(T)
    return PlanningInstance(
        n_locations=n,
        n_slots=T,
        flow=flow,
        alpha=np.asarray(alpha, dtype=float),
        beta=beta,
        assign_cost=np.asarray(assign_cost, dtype=float),
        delay=np.asarray(delay, dtype=int),
        base_cost=base_cost,
        location_cost=np.asarray(location_cost, dtype=float),
        budget=budget,
        capacity_max=np.asarray(capacity_max, dtype=float),
        recurrence=np.asarray(recurrence, dtype=float),
        range_limit=range_limit,
        distance=distance,
        coordinates=coordinates,
    )


def random_instance(rng: np.random.Generator, n=3, T=4, forbid_frac=0.3, **kw):
    """Random small instance with integer flows and some forbidden pairs."""
    flow = rng.integers(0, 4, size=(T, n)).astype(float)
    cost = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(cost, 0.0)
    off = ~np.eye(n, dtype=bool)
    forbid = off & (rng.random((n, n)) < forbid_frac)
    cost[forbid] = FORBIDDEN
    delay = rng.integers(0, min(T, 3), size=(n, n))
    np.fill_diagonal(delay, 0)
    defaults = dict(
        alpha=np.ones((T, n)),
        beta=float(rng.uniform(0.5, 2.0)),
        assign_cost=cost,
        delay=delay,
        base_cost=float(rng.uniform(0.5, 2.0)),
        location_cost=rng.uniform(0.0, 1.0, size=n),
        recurrence=rng.uniform(0.5, 2.0, size=T),
    )
    defaults.update(kw)
    return make_instance(flow, **defaults)


@st.composite
def edge_cases(draw):
    """A generated instance and a random (T, E) plan on its range graph.

    Forbidden pairs are drawn per ordered pair, so they are asymmetric;
    delays span the whole horizon, so arrivals wrap; and one location may
    lose every pair in and out of it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, T = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    delay = rng.integers(0, T, size=(n, n))
    np.fill_diagonal(delay, 0)
    forbid_frac = draw(st.sampled_from([0.0, 0.4, 0.8, 1.0]))
    inst = random_instance(rng, n=n, T=T, forbid_frac=forbid_frac, delay=delay)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        cost = inst.assign_cost.copy()
        cost[k, :] = cost[:, k] = FORBIDDEN
        cost[k, k] = 0.0
        inst = dataclasses.replace(inst, assign_cost=cost)
    E = inst.range_graph.n_edges
    z_e = rng.uniform(0.0, 3.0, size=(T, E)) * (rng.random((T, E)) < 0.7)
    return inst, z_e


#: The delayed family's clocks, (n_slots, speed_kmh): a slot is 7 h at
#: 0.5 km/h or 1.75 h at 2 km/h, so a pair 1.75 km or more apart takes at
#: least one slot to cross, and the 8 km range admits delays of 1 and 2
DELAYED_CLOCKS = ((24, 0.5), (96, 2.0))
#: seeds at which no two of the six locations lie under 1.75 km apart
DELAYED_SEEDS = (0, 2, 3, 7, 8)


@pytest.fixture(params=[(T, speed, seed) for T, speed in DELAYED_CLOCKS
                        for seed in DELAYED_SEEDS],
                ids=lambda p: f"T{p[0]}-seed{p[2]}")
def delayed(request) -> PlanningInstance:
    """Each generated 6-location instance of the delayed family in turn:
    every in-range pair has a delay of at least one slot, which generated
    instances at the default 30 km/h almost never have."""
    n_slots, speed_kmh, seed = request.param
    inst = generate_instance(GenParams(n_locations=6, n_slots=n_slots, seed=seed,
                                       range_km=8.0, speed_kmh=speed_kmh))
    graph = inst.range_graph
    assert graph.n_edges > 0 and graph.delay.min() >= 1, "an in-range pair without delay"
    return inst


def highs_read(path) -> highspy._Highs:
    """A HiGHS handle holding the model HiGHS's own MPS reader read from
    ``path``: an external reading of a file :func:`chargeplan.write_mps` wrote."""
    highs = highspy._Highs()
    highs.setOptionValue("output_flag", False)
    status = highs.readModel(str(path))
    assert status == highspy.HighsStatus.kOk, status
    return highs


def own_peak_caps(inst, scale):
    """``inst`` with each location's capacity at ``scale`` times its own peak."""
    own = inst.beta * inst.charging_demand.max(axis=0)
    return dataclasses.replace(inst, capacity_max=scale * own)


def forbidden(instance) -> np.ndarray:
    """(n, n) mask of the pairs no plan may use: out of range, or on the diagonal."""
    return ~np.isfinite(instance.assign_cost) | np.eye(instance.n_locations, dtype=bool)


def dense(plan: AssignmentPlan) -> np.ndarray:
    """The (T, n, n) array of an edge plan, zero off its range graph."""
    graph = plan.graph
    z = np.zeros((plan.z.shape[0], graph.n_locations, graph.n_locations))
    z[:, graph.src, graph.dst] = plan.z
    return z


def plan_of(instance, z) -> AssignmentPlan:
    """The edge plan of a (T, n, n) array that is zero off the instance's range graph."""
    z = np.asarray(z, dtype=float)
    assert not z[:, forbidden(instance)].any(), "plan uses a forbidden pair"
    graph = instance.range_graph
    return AssignmentPlan(graph, z[:, graph.src, graph.dst])


def net_demand_matrix(instance: PlanningInstance, asg: AssignmentPlan) -> np.ndarray:
    """Delay-aware net charging demand (EV counts) for every (slot, location)."""
    graph = _plan_graph(instance, asg)
    return instance.charging_demand - graph.outflow(asg.z) + graph.inflow(asg.z)


def brute_force_integer_optimum(instance) -> float:
    """The least total cost over integer assignments, by exhaustive
    enumeration vectorised over combos: an exponential oracle for tiny
    instances.  Every integer point of the assignment grid that respects
    flow conservation is sized in closed form, c_i = beta * peak net demand;
    the LP relaxation can only do better."""
    T, n = instance.n_slots, instance.n_locations
    demand = instance.charging_demand
    graph = instance.range_graph
    cells = [(t, i, j) for t in range(T) for i, j in zip(graph.src, graph.dst)]
    ranges = [range(int(demand[t, i]) + 1) for (t, i, j) in cells]
    combos = np.array(list(itertools.product(*ranges)), dtype=float)
    K = combos.shape[0]
    z = np.zeros((K, T, n, n))
    for k, (t, i, j) in enumerate(cells):
        z[:, t, i, j] = combos[:, k]

    outflow = z.sum(axis=3)
    ok = np.all(outflow <= demand[None] + 1e-9, axis=(1, 2))
    inflow = np.zeros((K, T, n))
    base = np.arange(T)
    for j in range(n):
        for i in range(n):
            tau = int(instance.delay[j, i])
            inflow[:, :, i] += z[:, (base - tau) % T, j, i]
    net = demand[None] - outflow + inflow
    ok &= np.all(net >= -1e-9, axis=(1, 2))
    c = instance.beta * np.maximum(net, 0.0).max(axis=1)
    w = instance.unit_investment_cost
    ok &= np.all(c <= instance.capacity_max[None] + 1e-9, axis=1)
    invest = c @ w
    ok &= invest <= instance.budget + 1e-9
    cost_mat = np.where(forbidden(instance), 0.0, instance.assign_cost)
    assign = np.einsum("ktij,ij,t->k", z, cost_mat, instance.recurrence)
    totals = np.where(ok, invest + assign, np.inf)
    return float(totals.min())


def lp_matrix(lp) -> np.ndarray:
    """The LP's (n_rows, n_cols) constraint matrix, dense, from its compressed
    sparse columns ``(start, index, vals)``; repeated entries add up."""
    A = np.zeros((lp.n_rows, lp.n_cols))
    np.add.at(A, (lp.index, np.repeat(np.arange(lp.n_cols), np.diff(lp.start))), lp.vals)
    return A


def solve_with_simplex(instance: PlanningInstance) -> Solution:
    """The central LP solved by the embedded dense simplex, the oracle that
    HiGHS is checked against.  Finite upper bounds become explicit rows
    ``x_k <= ub_k``, since the simplex takes only ``x >= 0``; a row with an
    infinite right-hand side (an unbounded budget) is free, and left out."""
    lp = build_lp(instance)
    bounded = np.isfinite(lp.ub)
    rows = np.isfinite(lp.rhs)
    A = np.vstack([lp_matrix(lp)[rows], np.eye(lp.n_cols)[bounded]])
    b = np.concatenate([lp.rhs[rows], lp.ub[bounded]])
    res = solve_simplex(lp.obj, A, b)
    if res.status == "infeasible":
        raise InfeasibleProblemError("LP is infeasible")
    assert res.status == "optimal", res.status
    inv, asg = _extract_plans(instance, res.x)
    return assess(instance, inv, asg, 1e-6, {})


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
