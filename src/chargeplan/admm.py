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
memory for a location with ``m`` in-range neighbors over ``T`` slots.  Each
iterate's delayed inflow is computed once, for the master's net demand and
the next sweep.

The global budget couples locations and is therefore not enforced inside
subproblems; the master checks it each iteration and, when binding, projects
the auxiliary capacities onto the budget simplex (weighted quadratic
knapsack, solved by bisection on the budget multiplier).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    AssignmentPlan,
    InfeasibleProblemError,
    InvestmentPlan,
    PlanningInstance,
    RangeGraph,
    Solution,
    assess,
    evaluate_objective,
)


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
    wall_ms: float


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    q_primal: float
    q_dual: float
    history: list[IterationRecord]
    wall_time_s: float
    budget_binding: bool = False


def transform_inflows(z: np.ndarray, graph: RangeGraph) -> np.ndarray:
    """(T, n) delayed inflow of (T, E) edge assignments: one gather, one bincount.

    Equals :func:`~chargeplan.model.delayed_inflow` of the dense plan bit for bit.
    """
    return graph.inflow(z)


class _LocationWorker:
    """Static data and exact solver for one location's subproblem.

    With inflows frozen, the minimum-cost split of any required outflow over
    the in-range neighbors is a fractional knapsack: fill neighbors in
    ascending assignment-cost order up to each receiver's published capacity
    slack.  That collapses the subproblem to a one-dimensional convex
    piecewise-quadratic in ``c_i``, whose kinks are the capacities at which
    some slot's required outflow crosses a knapsack segment boundary.  A
    sweep over the sorted kinks that accumulates the slope finds the exact
    minimizer in O(T m log(T m)) time and O(T m) memory, with ``m`` the
    number of in-range neighbors: its graph ``edges`` sorted by cost.
    """

    def __init__(self, instance: PlanningInstance, i: int, rho: float):
        self.i = i
        self.rho = rho
        self.beta = instance.beta
        graph = instance.range_graph
        lo, hi = graph.offsets[i], graph.offsets[i + 1]
        self.edges = lo + np.argsort(graph.cost[lo:hi], kind="stable")
        self.neighbors = graph.dst[self.edges]
        self.unit_costs = graph.cost[self.edges]
        self.demand = instance.charging_demand[:, i].copy()  # (T,)
        self.recurrence = instance.recurrence
        self.invest_cost = float(instance.unit_investment_cost[i])
        self.c_max = float(instance.capacity_max[i])
        self.n_slots = T = instance.n_slots
        # (T, m): the slot in which a shipment leaving in slot t reaches each
        # sorted neighbor, for gathering per-receiver slack in arrival terms
        self.arrival = (np.arange(T)[:, None] + graph.delay[self.edges]) % T
        # (T, m): how much the shipping-cost slope in c falls while slot t's
        # required outflow lies past the start of knapsack segment k
        # (unit costs ascend, so every entry is non-negative)
        if self.beta > 0:
            self.slope_steps = np.outer(
                self.recurrence / self.beta, np.diff(self.unit_costs, prepend=0.0)
            )

    def solve(
        self, c_tilde: float, lam: float, inflow: np.ndarray, caps: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Minimize ``f_i - lam * c + (rho/2) * (c_tilde - c)^2``; (c_i, alloc).

        ``f_i`` is the location's investment plus shipping cost.  ``inflow``
        is the (T,) frozen arrivals and ``caps`` a (T, m) non-negative matrix
        of per-slot shipping limits on ``edges`` (receiver slack from the
        frozen state).  ``alloc`` is the (T, m) shipment on ``edges``.
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
        if c_lb > self.c_max + 1e-9 * max(1.0, self.c_max):
            raise InfeasibleProblemError(
                f"location {self.i}: demand net of maximal outflow needs "
                f"{c_lb:.6g} kW, above the {self.c_max:.6g} kW bound"
            )
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
            order = np.argsort(kinks[inside])
            breaks = np.concatenate([[c_lb], kinks[inside][order], [self.c_max]])
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

        alloc = np.zeros((T, m))
        if self.beta > 0 and m > 0:
            s = np.clip(need - c_opt / self.beta, 0.0, out_cap)  # (T,)
            alloc = np.clip(s[:, None] - qty[:, :-1], 0.0, caps)
        return c_opt, alloc


def receiver_slack(
    instance: PlanningInstance, c_tilde: np.ndarray, load: np.ndarray
) -> np.ndarray:
    """Spare vehicle capacity per (slot, location): ``c_tilde / beta - load``.

    ``run_admm`` passes the gross load ``demand + inflow``, leaving out the
    receiver's outflow, which it may cut in the same sweep.  Rationed over
    j's senders, each adding back its own frozen shipments, the caps into
    (t, j) then sum to ``max(c_tilde_j / beta - demand, inflow)``.  So by
    induction from zero inflow, ``demand + inflow <= capacity_max / beta``
    wherever a location's own demand fits its cap, and unless the budget
    binds neither the workers' nor the master's capacity check can fire.
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
    budget projection was active.
    """
    d = np.maximum(0.0, instance.beta * net.max(axis=0))
    cap = instance.capacity_max
    if np.any(d > cap + 1e-9 * np.maximum(1.0, cap)):
        i = int(np.argmax(d - cap))
        raise InfeasibleProblemError(
            f"master infeasible: location {i} requires {d[i]:.6g} kW, "
            f"above its {cap[i]:.6g} kW bound"
        )
    d = np.minimum(d, cap)
    c_tilde = np.clip(c - lam / rho, d, cap)

    w = instance.unit_investment_cost
    if float(w @ c_tilde) <= instance.budget + 1e-9 * max(1.0, instance.budget):
        return c_tilde, False
    floor = float(w @ d)
    if floor > instance.budget + 1e-9 * max(1.0, instance.budget):
        raise InfeasibleProblemError(
            "master infeasible: demand floor alone exceeds the budget"
        )
    if floor > instance.budget:
        # within tolerance of the budget: no multiplier brings the priced
        # entries below it, so they sit at the floor (the search's limit)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "Q_primal", "Q_dual", "objective", "wall_ms"])
        for rec in history:
            writer.writerow(
                [rec.k, f"{rec.q_primal:.12g}", f"{rec.q_dual:.12g}",
                 f"{rec.objective:.12g}", f"{rec.wall_ms:.3f}"]
            )


def run_admm(
    instance: PlanningInstance, config: AdmmConfig | None = None
) -> tuple[Solution, ConvergenceReport]:
    """Full consensus loop: subproblems, inflow exchange, master, dual step.

    Stops when both residuals fall to the threshold or the iteration budget
    runs out (in which case the best iterate seen is returned with
    ``converged=False``).  The solution capacity is read from the auxiliary
    (master-feasible) side.

    ``converged`` means both residuals reached the threshold: the workers'
    capacities and the master's agree, which certifies consensus, not
    optimality.  On the default generated instances ADMM stops 14-31% above
    the LP optimum, and on two locations with staggered peaks (each covering
    its own) it converges after one iteration 100% above it.
    """
    cfg = config or AdmmConfig()
    n, T = instance.n_locations, instance.n_slots
    graph = instance.range_graph
    workers = [_LocationWorker(instance, i, cfg.rho) for i in range(n)]
    # where the workers' allocations, taken in location order, sit in z
    sweep_edges = np.concatenate([w.edges for w in workers])
    demand = instance.charging_demand

    # Anchor the auxiliary capacities at the no-assignment floor (each
    # location covers its own peak); the loop then ratchets capacity down
    # through published slack instead of bootstrapping from zero.
    c_tilde = np.minimum(instance.beta * demand.max(axis=0), instance.capacity_max)
    lam = np.zeros(n)
    z = np.zeros((T, graph.n_edges))
    z_in = np.zeros((T, n))
    history: list[IterationRecord] = []
    in_degree = np.bincount(graph.dst, minlength=n)

    start = time.perf_counter()
    converged = False
    budget_binding = False
    best = None  # (objective, c_tilde, z)
    for k in range(1, cfg.max_iterations + 1):
        it_start = time.perf_counter()

        # Published slack is rationed equally among a receiver's potential
        # senders so the sweep cannot over-subscribe it; each sender's own
        # frozen shipments are added back since that share of the
        # receiver's inflow is its to reallocate.
        slack = receiver_slack(instance, c_tilde, demand + z_in)
        shared = np.maximum(slack, 0.0) / np.maximum(in_degree, 1)[None, :]
        results = [
            w.solve(float(c_tilde[w.i]), float(lam[w.i]), z_in[:, w.i],
                    shared[w.arrival, w.neighbors] + z[:, w.edges])
            for w in workers
        ]
        c = np.array([r[0] for r in results])
        z = np.empty((T, graph.n_edges))
        z[:, sweep_edges] = np.concatenate([r[1] for r in results], axis=1)

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
        wall_ms = 1000.0 * (time.perf_counter() - it_start)
        history.append(IterationRecord(k, q_primal, q_dual, obj, wall_ms))
        if best is None or obj < best[0]:
            best = (obj, c_tilde, z)
        if q_primal <= cfg.threshold and q_dual <= cfg.threshold:
            converged = True
            break

    _, c_final, z_final = (obj, c_tilde, z) if converged else best

    wall = time.perf_counter() - start
    stats = {
        "method": "admm",
        "iterations": k,
        "converged": converged,
        "rho": cfg.rho,
        "threshold": cfg.threshold,
        "wall_ms": 1000.0 * wall,
        "budget_binding": budget_binding,
    }
    solution = assess(instance, InvestmentPlan(c_final), AssignmentPlan(graph, z_final),
                      1e-4, stats)
    convergence = ConvergenceReport(
        converged=converged,
        iterations=k,
        q_primal=q_primal,
        q_dual=q_dual,
        history=history,
        wall_time_s=wall,
        budget_binding=budget_binding,
    )
    return solution, convergence
