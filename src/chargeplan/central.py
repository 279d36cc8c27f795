"""Centralized LP path: problem builder, HiGHS solve, and the no-assignment baseline.

``build_lp`` lowers a :class:`~chargeplan.model.PlanningInstance` to a sparse
standard-form LP with numpy, one assignment column per slot and edge of the
instance's :class:`~chargeplan.model.RangeGraph`.  Structural zeros (diagonal
and range-forbidden pairs) have no column and no row, so the column space
holds exactly the capacities plus the in-range assignments.  Rows the others
imply are not written, and neither is a row with one entry, which is that
column's upper bound: an origin with a single edge bounds its columns by its
demand instead of writing FLOW rows.  The LP has ``1 + (n + n_flow) * T``
rows, where ``n_flow`` counts the origins with two or more edges
(:func:`flow_origins`).  The matrix is written straight into compressed
sparse columns, the one layout that HiGHS reads and :mod:`chargeplan.mps`
writes.

Every solve goes through one HiGHS call path: :func:`highs_model` passes the
LP, every row of it and the column arrays as built, to the HiGHS binding
scipy bundles (``scipy.optimize._highspy``) once, and :func:`solve_lp` runs
it and reads back the primal point and the simplex iteration count only.
``scipy.optimize.linprog`` would also fill per-column bound multipliers in a
Python loop after each solve, about 0.1 s at 20 x 672, which nothing here
reads.  HiGHS runs its dual simplex on the LP exactly as built, with no
presolve (see ``_HIGHS_OPTIONS``), so every solve, cold or warm, works on
the rows and columns ``build_lp`` wrote.  ``solve_centralized`` is one
build and one solve.  ``sweep_range`` solves the range study with as
little HiGHS work as the R list allows: an R with no pair in range (R = 0
always) has no assignment column, so ``solve_base_model`` solves it in
closed form.  The widest R's LP is built once, when the first R with a
pair in range comes; each such R rewrites the upper bounds of only the
assignment columns whose range status changed since the last R solved
(zero out of range, the built bound in it), and HiGHS re-solves from the
previous basis.  It returns one :class:`~chargeplan.model.Solution` per R.
The embedded dense simplex (:func:`chargeplan.simplex.solve_simplex`) is not
a production backend; the tests use it as an independent oracle.

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
    BOUND_TOL,
    PLAN_TOL,
    AssignmentPlan,
    ConvergenceError,
    InfeasibleProblemError,
    InvestmentPlan,
    PlanningInstance,
    RangeGraph,
    Solution,
    assess,
    refuse_broken_bounds,
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
    capacities of ``graph``, then one assignment per slot and edge of it,
    slot-major.  :mod:`chargeplan.mps` names rows and columns from the graph
    and writes the LP out; it reads nothing back.
    """

    n_rows: int
    n_cols: int
    start: np.ndarray
    index: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    graph: RangeGraph = field(repr=False)


def flow_origins(graph: RangeGraph) -> np.ndarray:
    """The origins that keep a FLOW row per slot, ascending: those with two
    or more edges, in the order :func:`build_lp` writes their rows.  An
    origin with one edge needs no row, as ``z[t, e] <= demand[t, i]`` is that
    column's upper bound; one with no edge has an empty row, which no plan
    can break."""
    return np.flatnonzero(np.diff(graph.offsets) >= 2)


def build_lp(instance: PlanningInstance) -> StandardFormLP:
    """Lower the joint problem to standard form, column by column.

    Rows: one budget row, one flow-conservation row per slot of each
    :func:`flow_origins` origin (``FLOW_i_t``: outflow fits under the
    demand), and one capacity row per (location, slot) (``CAPU_i_t``: net
    demand fits under the installed capacity).  Net demand >= 0 needs no
    row: flow conservation keeps the outflow under the demand, and inflow is
    non-negative.  Capacity box bounds, and the flow conservation of an
    origin with a single edge, fold into variable bounds.
    """
    n, T = instance.n_locations, instance.n_slots
    graph = instance.range_graph
    n_cols = n + T * graph.n_edges
    if n_cols > MAX_LP_COLUMNS:
        raise ValueError(
            f"the LP would have {n_cols} columns, above the {MAX_LP_COLUMNS} supported"
        )
    origins = flow_origins(graph)
    n_rows = 1 + (n + len(origins)) * T
    demand = instance.charging_demand
    beta = instance.beta
    # assignment column k is slot t[k] on edge (i[k], j[k])
    t = np.repeat(np.arange(T), graph.n_edges)
    i, j = np.tile(graph.src, T), np.tile(graph.dst, T)

    # Row (location, slot) of each family sits at offset + rank * T + slot:
    # a CAPU row's rank is its location, a FLOW row's its origin's place in
    # ``origins``; an edge whose origin has none (rank -1) is its only edge
    rank = np.full(n, -1)
    rank[origins] = np.arange(len(origins))
    flow0, capu0 = 1, 1 + len(origins) * T
    bounded = rank[graph.src] < 0
    w = instance.unit_investment_cost
    # capacity column i: w_i in the budget row (sum_i w_i c_i <= budget), -1
    # in each of its T CAPU rows (beta*(inflow - outflow) - c_i <= -beta*demand)
    c_index = np.column_stack([np.zeros(n, dtype=int),
                               capu0 + np.arange(n * T).reshape(n, T)])
    c_vals = np.column_stack([w, np.full((n, T), -1.0)])
    # assignment column: 1 in its origin's FLOW row, if it has one; unless
    # beta = 0, also -beta in the origin's CAPU row at departure and beta in
    # the destination's CAPU row at arrival, the lower-numbered location first
    z_index, z_vals = [flow0 + rank[i] * T + t], [np.ones(len(t))]
    if beta != 0.0:
        out_row = capu0 + i * T + t
        in_row = capu0 + j * T + graph.arrival.ravel()
        first = i < j
        z_index += [np.where(first, out_row, in_row), np.where(first, in_row, out_row)]
        z_vals += [np.where(first, -beta, beta), np.where(first, beta, -beta)]
    # a bounded edge's columns leave out their FLOW entry, the first of each
    dropped = np.tile(bounded, T)
    written = np.ones((len(t), len(z_index)), dtype=bool)
    written[:, 0] = ~dropped
    z_start = np.arange(len(t) + 1) * len(z_index)
    z_start[1:] -= np.cumsum(dropped)
    start = np.concatenate([np.arange(n) * (1 + T), n * (1 + T) + z_start])
    index = np.concatenate([c_index.ravel(), np.column_stack(z_index)[written]])

    rhs = np.concatenate(
        [[float(instance.budget)], demand[:, origins].T.ravel(), (-beta * demand).T.ravel()]
    )
    ub = np.full(n_cols, np.inf)
    ub[:n] = instance.capacity_max
    ub[n:].reshape(T, graph.n_edges)[:, bounded] = demand[:, graph.src[bounded]]
    obj = np.concatenate([w, np.outer(instance.recurrence, graph.cost).ravel()])

    return StandardFormLP(
        n_rows=n_rows,
        n_cols=n_cols,
        start=start.astype(np.int32),
        index=index.astype(np.int32),
        vals=np.concatenate([c_vals.ravel(), np.column_stack(z_vals)[written]]),
        rhs=rhs,
        ub=ub,
        obj=obj,
        graph=graph,
    )


def _extract_plans(
    instance: PlanningInstance, x: np.ndarray
) -> tuple[InvestmentPlan, AssignmentPlan]:
    graph = instance.range_graph
    n = graph.n_locations
    z = np.maximum(x[n:], 0.0).reshape(graph.n_slots, graph.n_edges)
    return InvestmentPlan(np.maximum(x[:n], 0.0)), AssignmentPlan(graph, z)


#: the options every solve runs with: no presolve, the dual simplex, the
#: feasibility tolerances, and no log.  Presolve finds almost nothing to
#: remove: ``build_lp`` writes no implied row and no one-entry FLOW row
#: (Andersen & Andersen, *Presolving in linear programming*, 1995, turn such
#: a row into a bound first).  What is left are the CAPU rows of a location
#: no edge touches, ``c_i >= beta * demand[t, i]``, kept on purpose: as the
#: one bound ``c_i >= own_peak`` they cost the simplex more iterations at
#: 20 x 672 (``BENCH_rows.json``).  Presolve's reduced copy of the LP held
#: about 20 MB at 20 x 672 and 90 MB at 40 x 672, and the simplex took about
#: as many iterations without it (``BENCH_presolve.json``)
_HIGHS_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": int(highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "primal_feasibility_tolerance": BOUND_TOL,
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
    statistics, its wall time under ``timings``.  ``highs`` is a
    :func:`highs_model` handle of ``lp`` whose column bounds may since have
    changed; by default one is made."""
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
        "timings": {"wall_ms": 1000.0 * (time.perf_counter() - start)},
        "lp_objective": float(lp.obj @ x),
        "n_rows": lp.n_rows,
        "n_cols": lp.n_cols,
    }
    return x, stats


def _judge(instance: PlanningInstance, x: np.ndarray, stats: dict) -> Solution:
    """The LP point ``x`` of ``instance``'s own columns as a centralized
    solution, priced and judged at :data:`~chargeplan.model.PLAN_TOL`."""
    stats["method"] = "centralized"
    return assess(instance, *_extract_plans(instance, x), PLAN_TOL, stats)


def solve_centralized(instance: PlanningInstance) -> Solution:
    """Solve the joint investment-assignment problem in one LP."""
    return _judge(instance, *solve_lp(build_lp(instance)))


def sweep_range(instance: PlanningInstance, r_values) -> list[Solution]:
    """Solve the joint model at each assignment-range limit (km) of
    ``r_values``, in the order given, on one warm-started HiGHS model.

    Every limit is applied (:func:`~chargeplan.datagen.with_range_limit`)
    before anything is solved, so an R the instance cannot be widened to
    raises first.  An R whose in-range graph has no edge (R = 0 always) has
    no assignment column, so its joint LP is the no-assignment model:
    :func:`solve_base_model` solves it in closed form.  Its solution's
    ``stats`` are the baseline's (method ``base``, backend ``closed_form``,
    0 iterations) and hold no LP size, and a Lagrangian bound for it is the
    base plan's own cost, at a gap of 0.

    Each other R's in-range graph is a subgraph of the widest R's, with the
    same costs and delays, so the widest R's LP is built once, when the
    first R with an edge comes, and every such R is solved on its one HiGHS
    handle from the previous solve's basis.  Before each solve only the
    assignment columns whose edge changed range status since the last R
    HiGHS solved get a new upper bound: zero out of range, and in it the
    bound :func:`build_lp` gave it (its origin's demand, or none).  Both
    graphs are origin-major, so ``z[:, open_edges]`` is the plan on the R
    instance's own graph, which it is priced and judged against.

    Returns one judged solution per R, in the order given.  A failed solve
    raises with its R named.
    """
    restricted = [(float(r), with_range_limit(instance, float(r))) for r in r_values]
    highs = None
    solutions = []
    for r, inst in restricted:
        try:
            if inst.range_graph.n_edges == 0:
                solutions.append(solve_base_model(inst))
                continue
            if highs is None:
                wide = max(restricted, key=lambda pair: pair[0])[1]
                lp = build_lp(wide)
                highs = highs_model(lp)
                n, T, graph = wide.n_locations, wide.n_slots, wide.range_graph
                was_open = np.ones(graph.n_edges, dtype=bool)  # as built
            open_edges = np.isfinite(inst.assign_cost[graph.src, graph.dst])
            flipped = np.flatnonzero(open_edges != was_open)
            if len(flipped):
                cols = (n + graph.n_edges * np.arange(T)[:, None] + flipped).ravel()
                ub = np.where(np.tile(open_edges[flipped], T), lp.ub[cols], 0.0)
                highs.changeColsBounds(len(cols), cols.astype(np.int32), np.zeros(len(cols)), ub)
                was_open = open_edges
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
    model whenever every pair is out of range.  With z = 0 only a cap or the
    budget can fail: :func:`~chargeplan.model.refuse_broken_bounds` raises
    ``InfeasibleProblemError`` when one is broken by more than
    :data:`~chargeplan.model.BOUND_TOL` (1e-8), the primal feasibility
    tolerance of the central LP, so the two refuse the same instances.  Any
    other plan is judged like every plan, at :data:`~chargeplan.model.PLAN_TOL`,
    which it then passes.
    """
    start = time.perf_counter()
    c = instance.own_peak
    refuse_broken_bounds(instance, c, "the no-assignment plan")
    stats = {
        "method": "base",
        "backend": "closed_form",
        "iterations": 0,
        "timings": {"wall_ms": 1000.0 * (time.perf_counter() - start)},
    }
    return assess(instance, InvestmentPlan(c), AssignmentPlan.zeros(instance), PLAN_TOL, stats)
