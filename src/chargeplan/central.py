"""Centralized LP path: problem builder, HiGHS solve, and the no-assignment baseline.

``build_lp`` lowers a :class:`~chargeplan.model.PlanningInstance` to a sparse
standard-form LP with numpy, one assignment column per slot and edge of the
instance's :class:`~chargeplan.model.RangeGraph`.  Structural zeros (diagonal
and range-forbidden pairs) have no column and no row, so the column space
holds exactly the capacities plus the in-range assignments.  Rows the others
imply are not written: the LP has ``1 + 2 * n * T`` rows.  The matrix is
written straight into compressed sparse columns, the one layout that HiGHS
reads and :mod:`chargeplan.mps` writes.

Every solve goes through one HiGHS call path: :func:`highs_model` passes the
LP, every row of it and the column arrays as built, to the HiGHS binding
scipy bundles (``scipy.optimize._highspy``) once, and :func:`solve_lp` runs
it and reads back the primal point and the simplex iteration count only.
``scipy.optimize.linprog`` would also fill per-column bound multipliers in a
Python loop after each solve, about 0.1 s at 20 x 672, which nothing here
reads.  HiGHS runs its dual simplex on the LP exactly as built, with no
presolve (see ``_HIGHS_OPTIONS``), so every solve, cold or warm, works on
the rows and columns ``build_lp`` wrote.  ``solve_centralized`` is one
build and one solve.  ``sweep_range``
solves the range study on one model: it builds the widest R's LP once,
closes the columns out of each R's range with zero upper bounds, lets
HiGHS re-solve from the previous basis, and returns one
:class:`~chargeplan.model.Solution` per R.  The embedded dense simplex
(:func:`chargeplan.simplex.solve_simplex`) is not a production backend; the
tests use it as an independent oracle.

``solve_base_model`` is the no-assignment baseline the joint plan is compared
with.  Every solution here returns through :func:`chargeplan.model.assess`, so
its cost and feasibility report come from the same rule as every other plan's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy import _core as highspy

from .datagen import with_range_limit
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

    ``A`` is held column-major, the layout HiGHS and MPS both use: column
    ``k``'s entries are ``index[start[k]:start[k + 1]]`` (rows, ascending)
    and ``vals[start[k]:start[k + 1]]``.  Columns are the ``n_locations``
    capacities, then one assignment per slot and edge, slot-major, where
    ``edges`` holds the range graph's (E, 2) ``(src, dst)`` pairs.
    :mod:`chargeplan.mps` names rows and columns from this layout and writes
    it out; it reads nothing back.
    """

    n_rows: int
    n_cols: int
    start: np.ndarray
    index: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    n_locations: int
    n_slots: int
    edges: np.ndarray = field(repr=False)


def build_lp(instance: PlanningInstance) -> StandardFormLP:
    """Lower the joint problem to standard form, column by column.

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
    w = instance.unit_investment_cost
    # capacity column i: w_i in the budget row (sum_i w_i c_i <= budget), -1
    # in each of its T CAPU rows (beta*(inflow - outflow) - c_i <= -beta*demand)
    c_index = np.column_stack([np.zeros(n, dtype=int),
                               capu0 + np.arange(n * T).reshape(n, T)])
    c_vals = np.column_stack([w, np.full((n, T), -1.0)])
    # assignment column: 1 in its FLOW row; unless beta = 0, also -beta in the
    # origin's CAPU row at departure and beta in the destination's CAPU row
    # delay[i, j] slots later (cyclic), the lower-numbered location first
    z_index, z_vals = [flow0 + i * T + t], [np.ones(len(t))]
    if beta != 0.0:
        out_row = capu0 + i * T + t
        in_row = capu0 + j * T + (t + np.tile(graph.delay, T)) % T
        first = i < j
        z_index += [np.where(first, out_row, in_row), np.where(first, in_row, out_row)]
        z_vals += [np.where(first, -beta, beta), np.where(first, beta, -beta)]
    start = np.concatenate([np.arange(n) * (1 + T),
                            n * (1 + T) + np.arange(len(t) + 1) * len(z_index)])
    index = np.concatenate([c_index.ravel(), np.column_stack(z_index).ravel()])

    rhs = np.concatenate(
        [[float(instance.budget)], demand.T.ravel(), (-beta * demand).T.ravel()]
    )
    ub = np.full(n_cols, np.inf)
    ub[:n] = instance.capacity_max
    obj = np.concatenate([w, np.outer(instance.recurrence, graph.cost).ravel()])

    return StandardFormLP(
        n_rows=n_rows,
        n_cols=n_cols,
        start=start.astype(np.int32),
        index=index.astype(np.int32),
        vals=np.concatenate([c_vals.ravel(), np.column_stack(z_vals).ravel()]),
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


#: the options every solve runs with: no presolve, the dual simplex, the
#: feasibility tolerances, and no log.  ``build_lp`` writes no implied row,
#: so presolve found little to remove: the FLOW rows of locations with at
#: most one out-edge and the CAPU rows no edge touches, 4 032 of 26 881 rows
#: at 20 x 672.  Its reduced copy of the LP held about 20 MB at 20 x 672 and
#: 90 MB at 40 x 672, and the simplex took about as many iterations without
#: it (3 498 against 3 479 at 20 x 672; ``BENCH_presolve.json``)
_HIGHS_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": int(highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "primal_feasibility_tolerance": 1e-8,
    "dual_feasibility_tolerance": 1e-7,
    "output_flag": False,
}


def highs_model(lp: StandardFormLP) -> highspy._Highs:
    """A HiGHS handle holding ``lp`` as it is: every row, in row order, and
    the column-major arrays, which the binding reads in place rather than
    copying element by element into a ``HighsLp``.  A row with an infinite
    right-hand side (an unbounded budget) is free to HiGHS.  Bounds changed
    on the handle afterwards keep the basis of its last solve, which the
    next solve starts from.

    HiGHS takes the model only with a warning when it drops a matrix entry
    at or below its ``small_matrix_value`` (1e-9), and refuses it when an
    entry reaches ``large_matrix_value`` (1e15); either status raises
    ``ValueError``, as the LP HiGHS would solve is not the one built.
    """
    highs = highspy._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    # the binding reads n_cols integrality flags: every column is continuous
    status = highs.passModel(
        lp.n_cols, lp.n_rows, len(lp.vals), highspy.MatrixFormat.kColwise,
        highspy.ObjSense.kMinimize, 0.0, lp.obj, np.zeros(lp.n_cols), lp.ub,
        np.full(lp.n_rows, -np.inf), lp.rhs, lp.start, lp.index, lp.vals,
        np.zeros(lp.n_cols, dtype=np.int32),
    )
    if status != highspy.HighsStatus.kOk:
        raise ValueError(
            f"HiGHS does not take the LP as built ({status.name}): a nonzero unit "
            "investment cost or beta at or below 1e-9, or one at or above 1e15, is "
            "outside the matrix values it accepts"
        )
    return highs


def solve_lp(lp: StandardFormLP, highs: highspy._Highs | None = None) -> tuple[np.ndarray, dict]:
    """Solve a built LP with HiGHS, returning the primal point and solver
    statistics.  ``highs`` is a :func:`highs_model` handle of ``lp`` whose
    column bounds may since have changed; by default one is made."""
    start = time.perf_counter()
    if highs is None:
        highs = highs_model(lp)
    highs.run()
    status = highs.getModelStatus()
    if status == highspy.HighsModelStatus.kInfeasible:
        raise InfeasibleProblemError("LP is infeasible")
    if status != highspy.HighsModelStatus.kOptimal:
        raise ConvergenceError(f"LP solve failed: {highs.modelStatusToString(status)}")
    x = np.array(highs.getSolution().col_value)
    stats = {
        "backend": "highs",
        "iterations": int(highs.getInfo().simplex_iteration_count),
        "wall_ms": 1000.0 * (time.perf_counter() - start),
        "lp_objective": float(lp.obj @ x),
        "n_rows": lp.n_rows,
        "n_cols": lp.n_cols,
    }
    return x, stats


def _judge(instance: PlanningInstance, x: np.ndarray, stats: dict) -> Solution:
    """The LP point ``x`` of ``instance``'s own columns as a centralized
    solution, priced and judged at 1e-6."""
    stats["method"] = "centralized"
    return assess(instance, *_extract_plans(instance, x), 1e-6, stats)


def solve_centralized(instance: PlanningInstance) -> Solution:
    """Solve the joint investment-assignment problem in one LP."""
    return _judge(instance, *solve_lp(build_lp(instance)))


def sweep_range(instance: PlanningInstance, r_values) -> list[Solution]:
    """Solve the joint model at each assignment-range limit (km) of
    ``r_values``, in the order given, on one warm-started HiGHS model.

    Every limit is applied (:func:`~chargeplan.datagen.with_range_limit`)
    before anything is solved, so an R the instance cannot be widened to
    raises first.  Each R's in-range graph is a subgraph of the widest R's,
    with the same costs and delays, so the widest R's LP is built once and
    each R closes the assignment columns of the edges out of its range with
    a zero upper bound.  HiGHS re-solves from the previous R's basis.  Both
    graphs are origin-major, so ``z[:, open_edges]`` is the plan on the R
    instance's own graph, which it is priced and judged against.

    Returns one judged solution per R, in the order given.  A failed solve
    raises with its R named.
    """
    restricted = [(float(r), with_range_limit(instance, float(r))) for r in r_values]
    if not restricted:
        return []
    wide = max(restricted, key=lambda pair: pair[0])[1]
    lp = build_lp(wide)
    highs = highs_model(lp)
    n, T, graph = wide.n_locations, wide.n_slots, wide.range_graph
    zcols = np.arange(n, lp.n_cols, dtype=np.int32)
    solutions = []
    for r, inst in restricted:
        open_edges = np.isfinite(inst.assign_cost[graph.src, graph.dst])
        ub = np.where(np.tile(open_edges, T), highspy.kHighsInf, 0.0)
        highs.changeColsBounds(len(zcols), zcols, np.zeros(len(zcols)), ub)
        try:
            x, stats = solve_lp(lp, highs)
        except (InfeasibleProblemError, ConvergenceError) as exc:
            raise type(exc)(f"R={r:g} km: {exc}") from exc
        z = x[n:].reshape(T, graph.n_edges)[:, open_edges]
        solutions.append(_judge(inst, np.concatenate([x[:n], z.ravel()]), stats))
    return solutions


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
