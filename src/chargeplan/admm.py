"""Distributed consensus solver for the joint planning problem.

Each location owns its capacity ``c_i`` and outgoing assignments ``z[t, i, :]``
and solves a local subproblem; a master step owns auxiliary capacity copies
``c_tilde`` and enforces that installed capacity covers the delay-aware net
demand induced by the collected assignments.  Multipliers ``lambda_i`` price
the consensus gap ``c_i - c_tilde_i``.

Inflows seen by a subproblem are frozen at the previous iteration's
assignments (a location cannot control what it receives), exchanged as the
reindexed parameter tensor produced by :func:`transform_inflows`.  Every
constraint row of the joint problem appears in each subproblem with the
other locations' variables frozen; in particular the receivers' capacity-
satisfaction rows bound a sender's shipments by the receivers' published
slack (:func:`receiver_slack`), which is what lets the scheme discover
capacity pooling across staggered demand peaks.  Slack is rationed equally
among a receiver's potential senders so the senders cannot collectively
over-subscribe it.  The sweep is Jacobi: all subproblems in one iteration
read the same frozen state, so they are independent of each other and of
the order they run in; the loop runs them serially, in location order.

Each subproblem is minimized exactly by a sweep over the sorted kinks of its
one-dimensional convex piecewise-quadratic objective (:class:`_LocationWorker`),
which costs O(T m log(T m)) time and O(T m) memory for a location with ``m``
in-range neighbors over ``T`` slots.  The delayed inflow of each iterate is
gathered once, by the exchange, and reused for the next sweep's receiver
slack and for the master's demand floor.

The global budget couples locations and is therefore not enforced inside
subproblems; the master checks it each iteration and, when binding, projects
the auxiliary capacities onto the budget simplex (weighted quadratic
knapsack, solved by bisection on the budget multiplier).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    AssignmentPlan,
    InfeasibleProblemError,
    InvestmentPlan,
    PlanningInstance,
    Solution,
    check_feasibility,
    delayed_inflow,
    evaluate_objective,
)

# practical variable bounds: installed capacity (kW) and vehicles per cell
CAPACITY_CAP = 1e7
ASSIGNMENT_CAP = 1e4


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty and stopping rule of the consensus loop."""

    rho: float = 0.1
    max_iterations: int = 200
    threshold: float = 1e-4

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
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


def transform_inflows(z: np.ndarray, delay: np.ndarray) -> np.ndarray:
    """Reindex assignments into per-location delayed inflow parameters.

    ``out[t, i] = sum_j z[(t - delay[j, i]) mod T, j, i]``; pure gather,
    no optimization.  Conserves the vehicle total of ``z``.
    """
    return delayed_inflow(z, delay)


class _LocationWorker:
    """Static data and exact solver for one location's subproblem.

    With inflows frozen, the minimum-cost split of any required outflow over
    the in-range neighbors is a fractional knapsack: fill neighbors in
    ascending assignment-cost order up to each receiver's published capacity
    slack (or the hard per-cell cap when no slack information is supplied).
    That collapses the subproblem to a one-dimensional convex
    piecewise-quadratic in ``c_i``, whose kinks are the capacities at which
    some slot's required outflow crosses a knapsack segment boundary.  A
    sweep over the sorted kinks that accumulates the slope finds the exact
    minimizer in O(T m log(T m)) time and O(T m) memory, with ``m`` the
    number of in-range neighbors.
    """

    def __init__(self, instance: PlanningInstance, i: int, rho: float):
        self.i = i
        self.rho = rho
        self.beta = instance.beta
        mask = instance.forbidden_mask()[i]
        self.neighbors = np.nonzero(~mask)[0]
        costs = instance.assign_cost[i, self.neighbors]
        order = np.argsort(costs, kind="stable")
        self.neighbors = self.neighbors[order]
        self.unit_costs = costs[order]
        self.cell_cap = ASSIGNMENT_CAP
        self.demand = instance.charging_demand[:, i].copy()  # (T,)
        self.recurrence = instance.recurrence
        self.invest_cost = float(instance.unit_investment_cost[i])
        self.c_max = float(min(instance.capacity_max[i], CAPACITY_CAP))
        self.n_locations = instance.n_locations
        self.n_slots = instance.n_slots
        # (T, m): the slot in which a shipment leaving in slot t reaches each
        # sorted neighbor, for gathering per-receiver slack in arrival terms
        self.arrival = (
            np.arange(self.n_slots)[:, None] + instance.delay[i, self.neighbors][None, :]
        ) % self.n_slots
        # (T, m): how much the shipping-cost slope in c falls while slot t's
        # required outflow lies past the start of knapsack segment k
        # (unit costs ascend, so every entry is non-negative)
        if self.beta > 0:
            self.slope_steps = np.outer(
                self.recurrence / self.beta, np.diff(self.unit_costs, prepend=0.0)
            )

    def solve(
        self,
        c_tilde: float,
        lam: float,
        inflow: np.ndarray,
        caps: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray, float]:
        """Minimize the augmented local objective; returns (c_i, z rows, f_i).

        ``caps`` is a (T, n_neighbors) matrix of per-slot shipping limits in
        sorted-neighbor order (receiver slack from the frozen state); when
        omitted only the hard per-cell bound applies.
        """
        T, m = self.n_slots, len(self.neighbors)
        if caps is None:
            caps = np.full((T, m), self.cell_cap)
        else:
            caps = np.clip(caps, 0.0, self.cell_cap)

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
            edges = np.concatenate([[c_lb], kinks[inside][order], [self.c_max]])
            steps = self.slope_steps[inside][order]
            slope0 -= float(self.slope_steps[active].sum())
            slopes = slope0 + np.concatenate([[0.0], np.cumsum(steps)])
        else:
            edges = np.array([c_lb, self.c_max])
            slopes = np.array([slope0])
        # the stationary points descend while the interval edges ascend; the
        # first interval whose stationary point does not overshoot its right
        # edge holds the minimizer (the last one when every point overshoots)
        stationary = c_tilde - slopes / self.rho
        hits = np.flatnonzero(stationary <= edges[1:])
        j = int(hits[0]) if hits.size else len(slopes) - 1
        c_opt = float(min(max(stationary[j], edges[j]), edges[j + 1]))

        z_rows = np.zeros((T, self.n_locations))
        local_cost = self.invest_cost * c_opt
        if self.beta > 0 and m > 0:
            s = np.clip(need - c_opt / self.beta, 0.0, out_cap)  # (T,)
            alloc = np.clip(s[:, None] - qty[:, :-1], 0.0, caps)
            z_rows[:, self.neighbors] = alloc
            local_cost += float(self.recurrence @ (alloc @ self.unit_costs))
        return c_opt, z_rows, local_cost


def solve_subproblem(
    instance: PlanningInstance,
    i: int,
    c_tilde_i: float,
    lambda_i: float,
    inflow_i: np.ndarray,
    rho: float,
    receiver_caps: np.ndarray | None = None,
) -> tuple[float, np.ndarray, float]:
    """One location's primal update given frozen inflow parameters.

    Minimizes ``f_i(z, c) - lambda_i * c + (rho/2) * (c_tilde_i - c)^2``
    subject to the constraint rows touching the location's own variables:
    its flow-conservation and capacity-satisfaction rows, plus the
    receivers' capacity-satisfaction rows with every other sender frozen,
    which bound shipments by ``receiver_caps`` (a (T, n) per-slot slack
    matrix in arrival-slot terms; ``None`` means uncapped).  Returns the
    optimal capacity, the (T, n) outgoing-assignment rows, and the local
    cost ``f_i`` at the optimum.
    """
    worker = _LocationWorker(instance, i, rho)
    caps = None
    if receiver_caps is not None:
        caps = receiver_caps[worker.arrival, worker.neighbors]
    return worker.solve(c_tilde_i, lambda_i, inflow_i, caps)


def receiver_slack(
    instance: PlanningInstance,
    c_tilde: np.ndarray,
    z: np.ndarray,
    inflow: np.ndarray,
) -> np.ndarray:
    """Per-(slot, location) spare vehicle capacity under the frozen state.

    ``slack[t, j] = c_tilde_j / beta - (demand - outflow + inflow)[t, j]``;
    negative entries mean the frozen state over-subscribes location j.  A
    sender reading this matrix must add back its own frozen contribution to
    j's inflow before capping, so its previous shipments do not block it.
    ``inflow`` is ``delayed_inflow(z, instance.delay)``.
    """
    net = instance.charging_demand - z.sum(axis=2) + inflow
    return c_tilde[None, :] / instance.beta - net


def solve_master(
    instance: PlanningInstance,
    c: np.ndarray,
    lam: np.ndarray,
    z: np.ndarray,
    rho: float,
    inflow: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Auxiliary-capacity update; closed form plus budget projection.

    With Z fixed, the capacity-satisfaction constraint reduces to the bound
    ``c_tilde_i >= D_i`` with ``D_i`` the peak net load, so the minimizer of
    the quadratic master objective is ``max(c_i - lambda_i / rho, D_i)``
    clipped to the capacity ceiling.  ``inflow`` is Z's delayed inflow,
    ``delayed_inflow(z, instance.delay)``.  Returns the update and whether
    the budget projection was active.
    """
    net = instance.charging_demand - z.sum(axis=2) + inflow
    d = np.maximum(0.0, instance.beta * net.max(axis=0))
    cap = np.minimum(instance.capacity_max, CAPACITY_CAP)
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
    if float(w @ d) > instance.budget + 1e-9 * max(1.0, instance.budget):
        raise InfeasibleProblemError(
            "master infeasible: demand floor alone exceeds the budget"
        )
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
    """
    cfg = config or AdmmConfig()
    n, T = instance.n_locations, instance.n_slots
    workers = [_LocationWorker(instance, i, cfg.rho) for i in range(n)]

    # Anchor the auxiliary capacities at the no-assignment floor (each
    # location covers its own peak); the loop then ratchets capacity down
    # through published slack instead of bootstrapping from zero.
    c_tilde = np.minimum(
        instance.beta * instance.charging_demand.max(axis=0),
        np.minimum(instance.capacity_max, CAPACITY_CAP),
    )
    lam = np.zeros(n)
    z = np.zeros((T, n, n))
    z_in = np.zeros((T, n))
    history: list[IterationRecord] = []
    w_cost = instance.unit_investment_cost
    assign_weight = np.where(instance.forbidden_mask(), 0.0, instance.assign_cost)
    in_degree = (~instance.forbidden_mask()).sum(axis=0).astype(float)

    def assembled_objective(c_tilde, z):
        invest = float(w_cost @ c_tilde)
        assign = float(instance.recurrence @ np.einsum("tij,ij->t", z, assign_weight))
        return invest + assign

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
        slack = receiver_slack(instance, c_tilde, z, z_in)
        shared = np.maximum(slack, 0.0) / np.maximum(in_degree, 1)[None, :]
        results = [
            w.solve(float(c_tilde[w.i]), float(lam[w.i]), z_in[:, w.i],
                    shared[w.arrival, w.neighbors] + z[:, w.i, w.neighbors])
            for w in workers
        ]
        c = np.array([r[0] for r in results])
        z = np.stack([r[1] for r in results], axis=1)  # (T, n, n)

        z_in = transform_inflows(z, instance.delay)
        c_tilde, binding = solve_master(instance, c, lam, z, cfg.rho, z_in)
        budget_binding = budget_binding or binding
        lam_prev, lam = lam, update_multipliers(lam, c_tilde, c, cfg.rho)

        # Q_dual is the multiplier movement entering this iteration; on the
        # very first pass no earlier movement exists, so the current step is
        # used (zero exactly when the loop starts at a fixed point).
        q_primal, step_dual = residuals(c_tilde, c, lam, lam_prev)
        q_dual = step_dual if k == 1 else prev_step_dual
        prev_step_dual = step_dual

        obj = assembled_objective(c_tilde, z)
        history.append(
            IterationRecord(
                k, q_primal, q_dual, obj, 1000.0 * (time.perf_counter() - it_start)
            )
        )
        if best is None or obj < best[0]:
            best = (obj, c_tilde, z)
        if q_primal <= cfg.threshold and q_dual <= cfg.threshold:
            converged = True
            break

    if converged:
        c_final, z_final = c_tilde, z
    else:
        _, c_final, z_final = best

    inv = InvestmentPlan(c_final)
    asg = AssignmentPlan(z_final)
    cost = evaluate_objective(instance, inv, asg)
    report = check_feasibility(instance, inv, asg, tol=1e-4)
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
    solution = Solution(inv, asg, cost, report, stats)
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
