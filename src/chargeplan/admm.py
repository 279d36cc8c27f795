"""Distributed consensus solver for the joint planning problem.

Each location owns its capacity ``c_i`` and its outgoing assignments, one per
in-range edge of the instance's :class:`~chargeplan.model.RangeGraph`, and
solves a local subproblem; a master step owns auxiliary capacity copies
``c_tilde`` and enforces that installed capacity covers the delay-aware net
demand induced by the collected assignments.  Multipliers ``lambda_i`` price
the consensus gap ``c_i - c_tilde_i``.

The iterate is a (T, E) array over the E edges, and so is the returned
:class:`~chargeplan.model.AssignmentPlan`.  Inflows seen by a subproblem are
frozen at the previous iteration's assignments (a location cannot control
what it receives), exchanged by :func:`transform_inflows` in O(T E).  Every
constraint row of the joint problem appears in each subproblem with the
other locations' variables frozen; in particular the receivers' capacity-
satisfaction rows bound a sender's shipments by the receivers' published
slack (:func:`receiver_slack`), which is what lets the scheme discover
capacity pooling across staggered demand peaks.  Slack is measured against
a receiver's gross load and rationed equally among its potential senders, so
the senders cannot collectively over-subscribe it.  The sweep is Jacobi: all
subproblems in one iteration read the same frozen state, so they are
independent of each other and of the order they run in; the loop runs them
serially, in location order.

Each subproblem is minimized exactly, under the model's own bounds alone
(``0 <= c_i <= capacity_max_i``, shipments non-negative), by a sweep over the
sorted kinks of its one-dimensional convex piecewise-quadratic objective
(:class:`_LocationWorker`), which costs O(T m log(T m)) time and O(T m)
memory for a location with ``m`` in-range neighbors over ``T`` slots.
Neither a subproblem nor the master raises when the frozen state leaves it
no feasible point: each clamps to its bounds, and an iterate that fails the
plan check cannot end the run as converged.  The one infeasibility verdict
is a proof taken before the loop, from locations that can ship nothing.  Each
iterate's delayed inflow is computed once, for the master's net demand and
the next sweep.

What the loop reads but never changes is built once per run, not once per
iteration.  :func:`_location_workers` sorts every origin's edges by cost
with one stable ``lexsort`` into an :class:`_EdgeTable` that also holds the
graph's arrival slots (:attr:`~chargeplan.model.RangeGraph.arrival`) and the
knapsack slope steps in that order, and each worker holds its origin's
block of it.  Each sweep gathers every edge's receiver cap with one fancy
index and hands each worker its column block.  The graph builds its gather
index and bincount bins on first use, so each exchange is one gather and
one ``bincount``.

The global budget couples locations and is therefore not enforced inside
subproblems; the master checks it each iteration and, when binding, projects
the auxiliary capacities onto the budget simplex (weighted quadratic
knapsack, solved by bisection on the budget multiplier).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .io import write_table
from .model import (
    AssignmentPlan,
    InvestmentPlan,
    PlanningInstance,
    RangeGraph,
    Solution,
    assess,
    evaluate_objective,
    refuse_broken_bounds,
)

#: The tolerance of the check a plan :func:`run_admm` returns is judged by;
#: agreement on a plan that fails it is not convergence.
CHECK_TOL = 1e-4


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty and stopping rule of the consensus loop."""

    rho: float = 0.1
    max_iterations: int = 200
    threshold: float = 1e-4

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and positive")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be finite and positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    q_primal: float
    q_dual: float
    objective: float


def transform_inflows(z: np.ndarray, graph: RangeGraph) -> np.ndarray:
    """(T, n) delayed inflow of (T, E) edge assignments: one gather, one bincount.

    Equals :func:`~chargeplan.model.delayed_inflow` of the dense plan bit for bit.
    """
    return graph.inflow(z)


class _EdgeTable(NamedTuple):
    """One run's in-range edges, cost-ascending within each origin's block.

    Built once per run by :func:`_location_workers`; origin ``i``'s block is
    ``graph.offsets[i]:graph.offsets[i + 1]``, as on the graph itself.
    """

    edges: np.ndarray  # (E,) graph edge of each table column
    receivers: np.ndarray  # (E,) its destination
    # (T, E): the graph's arrival slots of these columns, for gathering
    # per-receiver slack in arrival terms
    arrival: np.ndarray
    # (T, E): how much the shipping-cost slope in c falls while slot t's
    # required outflow lies past the start of the edge's knapsack segment
    # (costs ascend within a block, so every entry is non-negative); None
    # at beta = 0, where no capacity row binds
    slope_steps: np.ndarray | None


class _LocationWorker:
    """Exact solver for one location's subproblem, on its block of the run's
    :class:`_EdgeTable`.

    With inflows frozen, the minimum-cost split of any required outflow over
    the in-range neighbors is a fractional knapsack: fill neighbors in
    ascending assignment-cost order up to each receiver's published capacity
    slack.  That collapses the subproblem to a one-dimensional convex
    piecewise-quadratic in ``c_i``, whose kinks are the capacities at which
    some slot's required outflow crosses a knapsack segment boundary.  A
    sweep over the sorted kinks that accumulates the slope finds the exact
    minimizer in O(T m log(T m)) time and O(T m) memory, with ``m`` the
    number of in-range neighbors.  ``neighbors`` and ``slope_steps`` are
    views of the location's ``block`` of the table :func:`_location_workers`
    builds once per run, so a worker costs a few slices to make.
    """

    def __init__(self, instance: PlanningInstance, table: _EdgeTable, i: int, rho: float,
                 demand: np.ndarray, invest_cost: float):
        graph = instance.range_graph
        self.i = i
        self.rho = rho
        self.beta = instance.beta
        self.block = block = slice(graph.offsets[i], graph.offsets[i + 1])
        self.neighbors = table.receivers[block]
        if table.slope_steps is not None:
            self.slope_steps = table.slope_steps[:, block]
        self.demand = demand  # (T,)
        self.invest_cost = invest_cost
        self.c_max = float(instance.capacity_max[i])
        self.n_slots = instance.n_slots

    def solve(
        self, c_tilde: float, lam: float, inflow: np.ndarray, caps: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Minimize ``f_i - lam * c + (rho/2) * (c_tilde - c)^2``; (c_i, alloc).

        ``f_i`` is the location's investment plus shipping cost.  ``inflow``
        is the (T,) frozen arrivals and ``caps`` a (T, m) non-negative matrix
        of per-slot shipping limits on ``neighbors`` (receiver slack from the
        frozen state).  ``alloc`` is the (T, m) shipment to ``neighbors``.
        """
        T, m = self.n_slots, len(self.neighbors)

        # prefix quantities of the per-slot fractional knapsack
        qty = np.zeros((T, m + 1))
        np.cumsum(caps, axis=1, out=qty[:, 1:])
        out_cap = np.minimum(self.demand, qty[:, -1])
        need = self.demand + inflow

        if self.beta > 0:
            c_lb = float(max(0.0, self.beta * np.max(need - out_cap)))
        else:
            c_lb = 0.0
        # a frozen state with no feasible point (inflow or tight receiver
        # slack can cause one) gets the bound and the maximal outflow
        c_lb = min(c_lb, self.c_max)

        # Between adjacent kinks the right-derivative of the objective is
        # slope_j + rho * (c - c_tilde); slope_0 is the investment price
        # less the multiplier and every shipping-cost step still active just
        # above c_lb, and each kink crossed upward retires its step.
        slope0 = self.invest_cost - lam
        if self.beta > 0 and m > 0:
            # kink (t, k): the c at which slot t's required outflow
            # d + in - c / beta reaches the start of knapsack segment k
            kinks = self.beta * (need[:, None] - qty[:, :-1])
            active = kinks > c_lb
            inside = active & (kinks < self.c_max)
            crossed = kinks[inside]
            order = np.argsort(crossed)
            breaks = np.concatenate([[c_lb], crossed[order], [self.c_max]])
            steps = self.slope_steps[inside][order]
            slope0 -= float(self.slope_steps[active].sum())
            slopes = slope0 + np.concatenate([[0.0], np.cumsum(steps)])
        else:
            breaks = np.array([c_lb, self.c_max])
            slopes = np.array([slope0])
        # the stationary points descend while the interval ends ascend; the
        # first interval whose stationary point does not overshoot its right
        # end holds the minimizer (the last one when every point overshoots)
        stationary = c_tilde - slopes / self.rho
        hits = np.flatnonzero(stationary <= breaks[1:])
        j = int(hits[0]) if hits.size else len(slopes) - 1
        c_opt = float(min(max(stationary[j], breaks[j]), breaks[j + 1]))

        if self.beta > 0 and m > 0:
            s = np.minimum(np.maximum(need - c_opt / self.beta, 0.0), out_cap)  # (T,)
            alloc = np.minimum(np.maximum(s[:, None] - qty[:, :-1], 0.0), caps)
        else:
            alloc = np.zeros((T, m))
        return c_opt, alloc


def _location_workers(
    instance: PlanningInstance, rho: float
) -> tuple[_EdgeTable, list[_LocationWorker]]:
    """The run's :class:`_EdgeTable` and one worker per location, in order.

    One stable ``lexsort`` orders every origin's edges by cost (ties keep
    graph order); the arrival slots, the knapsack slope steps and the
    per-location data are then built once for all locations, and each
    worker holds its origin's slices of them.
    """
    graph = instance.range_graph
    beta = instance.beta
    edges = np.lexsort((graph.cost, graph.src))
    slope_steps = None
    if beta > 0:
        # a block's steps are its cost increments, the first its cheapest cost
        unit_costs = graph.cost[edges]
        increments = np.diff(unit_costs, prepend=0.0)
        firsts = graph.offsets[:-1][np.diff(graph.offsets) > 0]
        increments[firsts] = unit_costs[firsts]
        slope_steps = np.outer(instance.recurrence / beta, increments)
    table = _EdgeTable(edges, graph.dst[edges], graph.arrival[:, edges], slope_steps)
    demand = instance.charging_demand.T.copy()  # (n, T)
    invest = instance.unit_investment_cost
    workers = [_LocationWorker(instance, table, i, rho, demand[i], float(invest[i]))
               for i in range(instance.n_locations)]
    return table, workers


def receiver_slack(
    instance: PlanningInstance, c_tilde: np.ndarray, load: np.ndarray
) -> np.ndarray:
    """Spare vehicle capacity per (slot, location): ``c_tilde / beta - load``.

    ``run_admm`` passes the gross load ``demand + inflow``, leaving out the
    receiver's outflow, which it may cut in the same sweep.  Rationed over
    j's senders, each adding back its own frozen shipments, the caps into
    (t, j) then sum to ``max(c_tilde_j / beta - demand, inflow)``.  So by
    induction from zero inflow, ``demand + inflow <= capacity_max / beta``
    wherever a location's own demand fits its cap: unless the budget binds,
    inflow alone never pushes a location's floor past its bound.
    At ``beta == 0`` no capacity row can bind, so the slack is unbounded.
    """
    if instance.beta == 0:
        return np.full(load.shape, np.inf)
    return c_tilde[None, :] / instance.beta - load


def solve_master(
    instance: PlanningInstance,
    c: np.ndarray,
    lam: np.ndarray,
    net: np.ndarray,
    rho: float,
) -> tuple[np.ndarray, bool]:
    """Auxiliary-capacity update; closed form plus budget projection.

    With Z fixed, the capacity-satisfaction constraint reduces to the bound
    ``c_tilde_i >= D_i`` with ``D_i`` the peak net load, so the minimizer of
    the quadratic master objective is ``max(c_i - lambda_i / rho, D_i)``
    clipped to the capacity ceiling.  ``net`` is Z's (T, n) net demand
    ``demand - outflow + inflow``.  Returns the update and whether the
    budget projection was active.  Nothing here raises: a floor above the
    ceiling is clipped to it, and priced floors over the budget are returned
    as they are, so such an iterate fails the plan check and the loop goes on.
    """
    cap = instance.capacity_max
    d = np.minimum(np.maximum(0.0, instance.beta * net.max(axis=0)), cap)
    c_tilde = np.clip(c - lam / rho, d, cap)

    w = instance.unit_investment_cost
    if float(w @ c_tilde) <= instance.budget + 1e-9 * max(1.0, instance.budget):
        return c_tilde, False
    if float(w @ d) > instance.budget:
        # no multiplier brings the priced entries below the floor, so they
        # sit at it (the search's limit)
        return np.where(w > 0, d, c_tilde), True
    lo, hi = 0.0, 1.0
    while float(w @ np.clip(c - (lam + hi * w) / rho, d, cap)) > instance.budget:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(w @ np.clip(c - (lam + mid * w) / rho, d, cap)) > instance.budget:
            lo = mid
        else:
            hi = mid
    return np.clip(c - (lam + hi * w) / rho, d, cap), True


def update_multipliers(
    lam: np.ndarray, c_tilde: np.ndarray, c: np.ndarray, rho: float
) -> np.ndarray:
    """Dual ascent step: ``lambda + rho * (c_tilde - c)`` elementwise."""
    return lam + rho * (c_tilde - c)


def residuals(
    c_tilde: np.ndarray, c: np.ndarray, lam: np.ndarray, lam_prev: np.ndarray
) -> tuple[float, float]:
    """L1 consensus gap and L1 multiplier change: (Q_primal, Q_dual)."""
    return float(np.abs(c_tilde - c).sum()), float(np.abs(lam - lam_prev).sum())


def write_convergence_csv(history: list[IterationRecord], path) -> None:
    write_table(path, ["k", "Q_primal", "Q_dual", "objective"],
                ([rec.k, f"{rec.q_primal:.12g}", f"{rec.q_dual:.12g}", f"{rec.objective:.12g}"]
                 for rec in history))


def run_admm(
    instance: PlanningInstance, config: AdmmConfig | None = None
) -> tuple[Solution, list[IterationRecord]]:
    """Full consensus loop: subproblems, inflow exchange, master, dual step.

    Stops when both residuals fall to the threshold, returning the agreed
    iterate, or when the iteration budget runs out, returning the best
    iterate seen with ``converged=False``.  The solution capacity is read
    from the auxiliary (master) side.  Returns the judged solution and one
    :class:`IterationRecord` per iteration; the run's outcome lives in
    ``solution.stats`` (``converged``, ``iterations``, ``budget_binding``,
    and ``timings``, whose ``wall_ms`` result files leave out) and its final
    residuals in the last record.

    ``converged`` means both residuals reached the threshold, so the
    workers' capacities and the master's agree, and the agreed plan passes
    :func:`~chargeplan.model.check_feasibility` at :data:`CHECK_TOL`.
    Agreement on a plan that fails the check ends the run with
    ``converged=False``, and the agreed iterate, not the best one, is
    returned.  This certifies consensus, not optimality.  On the default
    generated instances ADMM stops 11-31% above the LP optimum, and on two
    locations with staggered peaks (each covering its own) it converges
    after one iteration 100% above it.

    Raises :class:`~chargeplan.model.InfeasibleProblemError` only before
    the first iteration, when the own peaks of the locations with no
    out-edge break a cap or the budget
    (:func:`~chargeplan.model.refuse_broken_bounds`).
    """
    cfg = config or AdmmConfig()
    n, T = instance.n_locations, instance.n_slots
    graph = instance.range_graph
    # a location that can ship nothing keeps its own demand, and inflow only
    # adds to it, so every plan gives it at least its own peak: a proof
    floor = np.where(np.diff(graph.offsets) == 0, instance.own_peak, 0.0)
    refuse_broken_bounds(instance, floor, "the own-peak floor of the locations "
                         "with no location in range")
    table, workers = _location_workers(instance, cfg.rho)
    demand = instance.charging_demand

    # Anchor the auxiliary capacities at the no-assignment floor (each
    # location covers its own peak); the loop then ratchets capacity down
    # through published slack instead of bootstrapping from zero.
    c_tilde = np.minimum(instance.own_peak, instance.capacity_max)
    lam = np.zeros(n)
    z = np.zeros((T, graph.n_edges))
    z_sweep = z  # the iterate in table order: the workers' blocks side by side
    z_in = np.zeros((T, n))
    history: list[IterationRecord] = []
    in_degree = np.bincount(graph.dst, minlength=n)

    start = time.perf_counter()
    consensus = False
    budget_binding = False
    best = None  # (objective, c_tilde, z)
    for k in range(1, cfg.max_iterations + 1):
        # Published slack is rationed equally among a receiver's potential
        # senders so the sweep cannot over-subscribe it; each sender's own
        # frozen shipments are added back since that share of the
        # receiver's inflow is its to reallocate.
        slack = receiver_slack(instance, c_tilde, demand + z_in)
        shared = np.maximum(slack, 0.0) / np.maximum(in_degree, 1)[None, :]
        # every edge's cap in table order; each worker's shipments then
        # overwrite its own block, which no other worker reads, so the
        # buffer ends the sweep as the new iterate in table order
        caps = shared[table.arrival, table.receivers]
        caps += z_sweep
        c = np.empty(n)
        for w in workers:
            block = caps[:, w.block]
            c[w.i], block[...] = w.solve(float(c_tilde[w.i]), float(lam[w.i]),
                                         z_in[:, w.i], block)
        z_sweep = caps
        z = np.empty((T, graph.n_edges))
        z[:, table.edges] = z_sweep

        z_in = transform_inflows(z, graph)
        net = demand - graph.outflow(z) + z_in
        c_tilde, binding = solve_master(instance, c, lam, net, cfg.rho)
        budget_binding = budget_binding or binding
        lam_prev, lam = lam, update_multipliers(lam, c_tilde, c, cfg.rho)

        # Q_dual is the multiplier movement entering this iteration; on the
        # very first pass no earlier movement exists, so the current step is
        # used (zero exactly when the loop starts at a fixed point).
        q_primal, step_dual = residuals(c_tilde, c, lam, lam_prev)
        q_dual = step_dual if k == 1 else prev_step_dual
        prev_step_dual = step_dual

        obj = evaluate_objective(instance, InvestmentPlan(c_tilde),
                                 AssignmentPlan(graph, z)).total
        history.append(IterationRecord(k, q_primal, q_dual, obj))
        if best is None or obj < best[0]:
            best = (obj, c_tilde, z)
        if q_primal <= cfg.threshold and q_dual <= cfg.threshold:
            consensus = True
            break

    _, c_final, z_final = (obj, c_tilde, z) if consensus else best

    stats = {
        "method": "admm",
        "iterations": k,
        "converged": False,
        "rho": cfg.rho,
        "threshold": cfg.threshold,
        "timings": {"wall_ms": 1000.0 * (time.perf_counter() - start)},
        "budget_binding": budget_binding,
    }
    solution = assess(instance, InvestmentPlan(c_final), AssignmentPlan(graph, z_final),
                      CHECK_TOL, stats)
    stats["converged"] = consensus and solution.feasibility.feasible
    return solution, history
