"""Distributed consensus solver for the joint planning problem.

Each location owns its capacity ``c_i`` and outgoing assignments ``z[t, i, :]``
and solves a local subproblem in parallel; a master step owns auxiliary
capacity copies ``c_tilde`` and enforces that installed capacity covers the
delay-aware net demand induced by the collected assignments.  Multipliers
``lambda_i`` price the consensus gap ``c_i - c_tilde_i``.

Inflows seen by a subproblem are frozen at the previous iteration's
assignments (a location cannot control what it receives), exchanged as the
reindexed parameter tensor produced by :func:`transform_inflows`.  Every
constraint row of the joint problem appears in each subproblem with the
other locations' variables frozen; in particular the receivers' capacity-
satisfaction rows bound a sender's shipments by the receivers' published
slack (:func:`receiver_slack`), which is what lets the scheme discover
capacity pooling across staggered demand peaks.  Slack is rationed equally
among a receiver's potential senders so the parallel sweep cannot
collectively over-subscribe it.  The sweep is Jacobi: all
subproblems in one iteration read the same frozen state, so they are
independent and may run concurrently; state crosses the iteration barrier
by value only.

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
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty, stopping rule, and practical variable bounds."""

    rho: float = 0.1
    max_iterations: int = 200
    threshold: float = 1e-4
    workers: int = 1
    capacity_cap: float = 1e7
    assignment_cap: float = 1e4
    enforce_budget: bool = True

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


@dataclass
class AdmmState:
    """Mutable per-iteration state of the consensus loop."""

    iteration: int
    c: np.ndarray
    c_tilde: np.ndarray
    lam: np.ndarray
    z: np.ndarray  # (T, n, n) assignment tensor
    z_in: np.ndarray  # (T, n) frozen delayed inflows
    history: list[IterationRecord] = field(default_factory=list)


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

    def __init__(self, instance: PlanningInstance, i: int, config: AdmmConfig):
        self.i = i
        self.rho = config.rho
        self.beta = instance.beta
        mask = instance.forbidden_mask()[i]
        self.neighbors = np.nonzero(~mask)[0]
        costs = instance.assign_cost[i, self.neighbors]
        order = np.argsort(costs, kind="stable")
        self.neighbors = self.neighbors[order]
        self.unit_costs = costs[order]
        self.cell_cap = config.assignment_cap
        self.demand = instance.charging_demand[:, i].copy()  # (T,)
        self.recurrence = instance.recurrence
        self.invest_cost = float(instance.unit_investment_cost[i])
        self.c_max = float(min(instance.capacity_max[i], config.capacity_cap))
        self.n_locations = instance.n_locations
        self.n_slots = instance.n_slots
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
    config: AdmmConfig | None = None,
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
    cfg = config or AdmmConfig(rho=rho)
    if cfg.rho != rho:
        cfg = dataclasses.replace(cfg, rho=rho)
    worker = _LocationWorker(instance, i, cfg)
    caps = None
    if receiver_caps is not None:
        T = instance.n_slots
        js = worker.neighbors
        arr = (np.arange(T)[:, None] + instance.delay[i, js][None, :]) % T
        caps = receiver_caps[arr, js[None, :]]
    return worker.solve(c_tilde_i, lambda_i, inflow_i, caps)


def receiver_slack(
    instance: PlanningInstance,
    c_tilde: np.ndarray,
    z: np.ndarray,
    inflow: np.ndarray | None = None,
) -> np.ndarray:
    """Per-(slot, location) spare vehicle capacity under the frozen state.

    ``slack[t, j] = c_tilde_j / beta - (demand - outflow + inflow)[t, j]``;
    negative entries mean the frozen state over-subscribes location j.  A
    sender reading this matrix must add back its own frozen contribution to
    j's inflow before capping, so its previous shipments do not block it.
    ``inflow`` is ``delayed_inflow(z, instance.delay)`` when the caller
    already holds it; ``None`` computes it here.
    """
    if inflow is None:
        inflow = delayed_inflow(z, instance.delay)
    net = instance.charging_demand - z.sum(axis=2) + inflow
    return c_tilde[None, :] / instance.beta - net


def _demand_floor(
    instance: PlanningInstance, z: np.ndarray, inflow: np.ndarray | None = None
) -> np.ndarray:
    """Per-location lower bound on auxiliary capacity implied by fixed Z."""
    outflow = z.sum(axis=2)
    if inflow is None:
        inflow = delayed_inflow(z, instance.delay)
    net = instance.charging_demand - outflow + inflow
    return np.maximum(0.0, instance.beta * net.max(axis=0))


def solve_master(
    instance: PlanningInstance,
    c: np.ndarray,
    lam: np.ndarray,
    z: np.ndarray,
    rho: float,
    config: AdmmConfig | None = None,
    inflow: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Auxiliary-capacity update; closed form plus optional budget projection.

    With Z fixed, the capacity-satisfaction constraint reduces to the bound
    ``c_tilde_i >= D_i`` with ``D_i`` the peak net load, so the minimizer of
    the quadratic master objective is ``max(c_i - lambda_i / rho, D_i)``
    clipped to the capacity ceiling.  ``inflow`` is Z's delayed inflow when
    the caller already holds it (``None`` computes it).  Returns the update
    and whether the budget projection was active.
    """
    cfg = config or AdmmConfig(rho=rho)
    d = _demand_floor(instance, z, inflow)
    cap = np.minimum(instance.capacity_max, cfg.capacity_cap)
    if np.any(d > cap + 1e-9 * np.maximum(1.0, cap)):
        i = int(np.argmax(d - cap))
        raise InfeasibleProblemError(
            f"master infeasible: location {i} requires {d[i]:.6g} kW, "
            f"above its {cap[i]:.6g} kW bound"
        )
    d = np.minimum(d, cap)
    c_tilde = np.clip(c - lam / rho, d, cap)

    binding = False
    if cfg.enforce_budget:
        w = instance.unit_investment_cost
        if float(w @ c_tilde) > instance.budget + 1e-9 * max(1.0, instance.budget):
            if float(w @ d) > instance.budget + 1e-9 * max(1.0, instance.budget):
                raise InfeasibleProblemError(
                    "master infeasible: demand floor alone exceeds the budget"
                )
            binding = True
            lo, hi = 0.0, 1.0
            while float(w @ np.clip(c - (lam + hi * w) / rho, d, cap)) > instance.budget:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if float(w @ np.clip(c - (lam + mid * w) / rho, d, cap)) > instance.budget:
                    lo = mid
                else:
                    hi = mid
            c_tilde = np.clip(c - (lam + hi * w) / rho, d, cap)
    return c_tilde, binding


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
    workers = [_LocationWorker(instance, i, cfg) for i in range(n)]

    # Anchor the auxiliary capacities at the no-assignment floor (each
    # location covers its own peak); the loop then ratchets capacity down
    # through published slack instead of bootstrapping from zero.
    c0 = np.minimum(
        _demand_floor(instance, np.zeros((T, n, n))),
        np.minimum(instance.capacity_max, cfg.capacity_cap),
    )
    state = AdmmState(
        iteration=0,
        c=c0.copy(),
        c_tilde=c0,
        lam=np.zeros(n),
        z=np.zeros((T, n, n)),
        z_in=np.zeros((T, n)),
    )
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
    q_primal = q_dual = float("inf")
    executor = ThreadPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        for k in range(1, cfg.max_iterations + 1):
            it_start = time.perf_counter()

            # Published slack is rationed equally among a receiver's
            # potential senders so the parallel sweep cannot over-subscribe
            # it; each sender's own frozen shipments are added back since
            # that share of the receiver's inflow is its to reallocate.
            slack = receiver_slack(instance, state.c_tilde, state.z, state.z_in)
            shared = np.maximum(slack, 0.0) / np.maximum(in_degree, 1)[None, :]
            t_idx = np.arange(T)

            def solve_one(i):
                w = workers[i]
                js = w.neighbors
                arr = (t_idx[:, None] + instance.delay[i, js][None, :]) % T
                caps = shared[arr, js[None, :]] + state.z[:, i, js]
                return w.solve(
                    float(state.c_tilde[i]), float(state.lam[i]),
                    state.z_in[:, i], caps,
                )

            if executor is not None:
                results = list(executor.map(solve_one, range(n)))
            else:
                results = [solve_one(i) for i in range(n)]
            c_new = np.array([r[0] for r in results])
            z_new = np.stack([r[1] for r in results], axis=1)  # (T, n, n)

            z_in_new = transform_inflows(z_new, instance.delay)
            c_tilde_new, binding = solve_master(
                instance, c_new, state.lam, z_new, cfg.rho, cfg, z_in_new
            )
            budget_binding = budget_binding or binding
            lam_new = update_multipliers(state.lam, c_tilde_new, c_new, cfg.rho)

            # Q_dual is the multiplier movement entering this iteration; on
            # the very first pass no earlier movement exists, so the current
            # step is used (zero exactly when the loop starts at a fixed point).
            q_primal, step_dual = residuals(c_tilde_new, c_new, lam_new, state.lam)
            if k == 1:
                q_dual = step_dual
            else:
                q_dual = prev_step_dual
            prev_step_dual = step_dual

            state = AdmmState(
                iteration=k,
                c=c_new,
                c_tilde=c_tilde_new,
                lam=lam_new,
                z=z_new,
                z_in=z_in_new,
                history=state.history,
            )
            obj = assembled_objective(c_tilde_new, z_new)
            state.history.append(
                IterationRecord(
                    k, q_primal, q_dual, obj,
                    1000.0 * (time.perf_counter() - it_start),
                )
            )
            if best is None or obj < best[0]:
                best = (obj, c_tilde_new.copy(), z_new.copy())
            if q_primal <= cfg.threshold and q_dual <= cfg.threshold:
                converged = True
                break
    finally:
        if executor is not None:
            executor.shutdown()

    if converged:
        c_final, z_final = state.c_tilde, state.z
    else:
        _, c_final, z_final = best

    inv = InvestmentPlan(c_final)
    asg = AssignmentPlan(z_final)
    cost = evaluate_objective(instance, inv, asg)
    report = check_feasibility(instance, inv, asg, tol=1e-4)
    wall = time.perf_counter() - start
    stats = {
        "method": "admm",
        "iterations": state.iteration,
        "converged": converged,
        "rho": cfg.rho,
        "threshold": cfg.threshold,
        "wall_ms": 1000.0 * wall,
        "budget_binding": budget_binding,
    }
    solution = Solution(inv, asg, cost, report, stats)
    convergence = ConvergenceReport(
        converged=converged,
        iterations=state.iteration,
        q_primal=q_primal,
        q_dual=q_dual,
        history=state.history,
        wall_time_s=wall,
        budget_binding=budget_binding,
    )
    return solution, convergence
