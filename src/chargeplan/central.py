"""Centralized LP path: problem builder, HiGHS solve, and the no-assignment baseline.

``build_lp`` lowers a :class:`~chargeplan.model.PlanningInstance` to a sparse
standard-form LP with numpy, one assignment column per slot and edge of the
instance's :class:`~chargeplan.model.RangeGraph`.  Structural zeros (diagonal
and range-forbidden pairs) have no column and no row, so the column space
holds exactly the capacities plus the in-range assignments.  Rows the others
imply are not written: the LP has ``1 + 2 * n * T`` rows.

``solve_centralized`` solves that LP with scipy's HiGHS backend.  The
embedded dense simplex (:func:`chargeplan.simplex.solve_simplex`) is not a
production backend; the tests use it as an independent oracle.

``solve_base_model`` is the no-assignment baseline the joint plan is compared
with.  Both return through :func:`chargeplan.model.assess`, so their costs
and feasibility reports come from the same rule as every other plan's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse

from .model import (
    AssignmentPlan,
    ConvergenceError,
    InfeasibleProblemError,
    InvestmentPlan,
    PlanningInstance,
    Solution,
    assess,
)

#: Most columns :func:`build_lp` lowers an instance to; a larger one is an
#: input error, raised before anything of its size is allocated.
MAX_LP_COLUMNS = 50_000_000


@dataclass(frozen=True)
class StandardFormLP:
    """Sparse standard-form LP: ``min obj @ x`` over ``A x <= rhs``,
    ``0 <= x <= ub``.

    ``A`` is given as parallel (row, col, value) triplet arrays.  Columns are
    the ``n_locations`` capacities, then one assignment per slot and edge,
    slot-major, where ``edges`` holds the range graph's (E, 2) ``(src, dst)``
    pairs.  :mod:`chargeplan.mps` names rows and columns from this layout.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    n_locations: int
    n_slots: int
    edges: np.ndarray = field(repr=False)

    def to_coo(self) -> scipy.sparse.coo_matrix:
        return scipy.sparse.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols)
        )


def build_lp(instance: PlanningInstance) -> StandardFormLP:
    """Lower the joint problem to standard form.

    Rows: one budget row, one flow-conservation row per (location, slot)
    (``FLOW_i_t``: outflow fits under the demand), and one capacity row per
    (location, slot) (``CAPU_i_t``: net demand fits under the installed
    capacity).  Net demand >= 0 needs no row: flow conservation keeps the
    outflow under the demand, and inflow is non-negative.  Capacity box
    bounds fold into variable bounds.
    """
    n, T = instance.n_locations, instance.n_slots
    graph = instance.range_graph
    n_cols = n + T * graph.n_edges
    if n_cols > MAX_LP_COLUMNS:
        raise ValueError(
            f"the LP would have {n_cols} columns, above the {MAX_LP_COLUMNS} supported"
        )
    n_rows = 1 + 2 * n * T
    demand = instance.charging_demand
    beta = instance.beta
    # assignment column k is slot t[k] on edge (i[k], j[k])
    t = np.repeat(np.arange(T), graph.n_edges)
    i, j = np.tile(graph.src, T), np.tile(graph.dst, T)

    # Row (location, slot) of each family sits at offset + location * T + slot.
    flow0, capu0 = 1, 1 + n * T
    loc = np.arange(n)
    zcols = np.arange(n, n_cols)
    w = instance.unit_investment_cost
    blocks = [
        # budget: sum_i w_i c_i <= budget
        (np.zeros(n, dtype=int), loc, w),
        # capacity upper side: -beta*outflow + beta*inflow - c_i <= -beta*demand
        (capu0 + np.arange(n * T), np.repeat(loc, T), np.full(n * T, -1.0)),
        # flow conservation: sum_j z[t,i,j] <= alpha*flow
        (flow0 + i * T + t, zcols, np.ones(len(t))),
    ]
    if beta != 0.0:
        # departure relieves i in slot t; arrival loads j delay[i, j] slots
        # later (cyclic)
        t_arr = (t + np.tile(graph.delay, T)) % T
        blocks += [
            (capu0 + i * T + t, zcols, np.full(len(t), -beta)),
            (capu0 + j * T + t_arr, zcols, np.full(len(t), beta)),
        ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))

    rhs = np.concatenate(
        [[float(instance.budget)], demand.T.ravel(), (-beta * demand).T.ravel()]
    )
    ub = np.full(n_cols, np.inf)
    ub[:n] = instance.capacity_max
    obj = np.concatenate([w, np.outer(instance.recurrence, graph.cost).ravel()])

    return StandardFormLP(
        n_rows=n_rows,
        n_cols=n_cols,
        rows=rows,
        cols=cols,
        vals=vals,
        rhs=rhs,
        ub=ub,
        obj=obj,
        n_locations=n,
        n_slots=T,
        edges=np.column_stack([graph.src, graph.dst]),
    )


def _extract_plans(
    instance: PlanningInstance, x: np.ndarray
) -> tuple[InvestmentPlan, AssignmentPlan]:
    n, T = instance.n_locations, instance.n_slots
    c = np.maximum(x[:n], 0.0)
    graph = instance.range_graph
    z = np.maximum(x[n:], 0.0).reshape(T, graph.n_edges)
    return InvestmentPlan(c), AssignmentPlan(graph, z)


def solve_lp(lp: StandardFormLP) -> tuple[np.ndarray, dict]:
    """Solve a built LP with HiGHS, returning the primal point and solver
    statistics.  A row with an infinite right-hand side (an unbounded
    budget) binds nothing, so HiGHS gets only the finite rows."""
    start = time.perf_counter()
    finite = np.isfinite(lp.rhs)
    res = scipy.optimize.linprog(
        lp.obj,
        A_ub=lp.to_coo().tocsr()[finite],
        b_ub=lp.rhs[finite],
        bounds=np.column_stack([np.zeros(lp.n_cols), lp.ub]),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-8,
            "dual_feasibility_tolerance": 1e-7,
        },
    )
    if res.status == 2:
        raise InfeasibleProblemError("LP is infeasible")
    if not res.success:
        raise ConvergenceError(f"LP solve failed: {res.message}")
    x = np.asarray(res.x)
    stats = {
        "backend": "highs",
        "iterations": int(getattr(res, "nit", 0)),
        "wall_ms": 1000.0 * (time.perf_counter() - start),
        "lp_objective": float(lp.obj @ x),
        "n_rows": lp.n_rows,
        "n_cols": lp.n_cols,
    }
    return x, stats


def solve_centralized(instance: PlanningInstance) -> Solution:
    """Solve the joint investment-assignment problem in one LP."""
    x, stats = solve_lp(build_lp(instance))
    stats["method"] = "centralized"
    return assess(instance, *_extract_plans(instance, x), 1e-6, stats)


def solve_base_model(instance: PlanningInstance) -> Solution:
    """No-assignment baseline: size each location to its own peak demand.

    With z fixed at zero the capacity constraint decouples per location and
    the optimum is ``c_i = beta * max_t(alpha * flow)``.  Equals the joint
    model whenever every pair is out of range.  The plan is judged like any
    other, by :func:`~chargeplan.model.check_feasibility` at 1e-6; when that
    report is infeasible (a cap below a location's own peak, or a budget
    below the plan's investment), ``InfeasibleProblemError`` names the first
    family over the tolerance, its residual with the unit and the location.
    """
    start = time.perf_counter()
    c = instance.beta * instance.charging_demand.max(axis=0)
    stats = {
        "method": "base",
        "backend": "closed_form",
        "iterations": 0,
        "wall_ms": 1000.0 * (time.perf_counter() - start),
    }
    solution = assess(instance, InvestmentPlan(c), AssignmentPlan.zeros(instance), 1e-6, stats)
    report = solution.feasibility
    if not report.feasible:
        # with z = 0 and c at each own peak, only the budget or a cap can fail
        name, r = next(item for item in report.residuals.items() if item[1].violation > report.tol)
        unit, at = ("kW", f" at location {r.where[0]}") if r.where else ("currency", "")
        raise InfeasibleProblemError(
            f"the no-assignment plan breaks {name} by {r.violation:.6g} {unit}{at}")
    return solution
