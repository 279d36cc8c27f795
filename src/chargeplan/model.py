"""Core domain types for the joint charging-investment / EV-assignment problem.

The planning problem couples a one-time capacity investment decision ``c_i``
(kW at each location) with recurring assignment decisions ``z[t, i, j]``
(EVs redirected from location ``i`` to ``j`` in slot ``t``).  All types here
are immutable after construction and all operations are pure functions, so
they are safe to share across threads (a :class:`RangeGraph` builds its
indices on first use, and two threads building one store equal arrays).

Pairs that are out of assignment range are marked by the ``FORBIDDEN`` cost
(``math.inf``) rather than big-M costs, which keeps the resulting LP well
conditioned.  An assignment plan holds one column per in-range pair (an edge
of the instance's :class:`RangeGraph`), so the diagonal and forbidden cells
are zero by construction rather than by check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Marker for assignment-cost cells where redirection is not allowed
#: (distance at or beyond the range limit).
FORBIDDEN = math.inf


class InfeasibleProblemError(Exception):
    """Raised when a solve path proves the instance has no feasible plan."""


class ConvergenceError(Exception):
    """Raised when a solve ends without a plan it can vouch for: ADMM runs
    out of iterations, ADMM's residuals reach the threshold on a plan that
    fails the feasibility check at 1e-4 (both raised by the CLI once the
    plan is written), or HiGHS stops short of an optimum
    (:func:`chargeplan.central.solve_lp`)."""


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.asarray(a, dtype=dtype).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PlanningInstance:
    """Immutable problem data for one planning run.

    Matrices indexed over time use shape ``(n_slots, n_locations)``;
    pairwise matrices use shape ``(n_locations, n_locations)`` with the
    first index as the origin.  ``assign_cost[i, j]`` is the currency cost
    of redirecting one EV from ``i`` to ``j`` (``FORBIDDEN`` when out of
    range, exactly 0 on the diagonal).  ``delay[j, i]`` is the whole number
    of slots an EV needs to travel from ``j`` to ``i``.

    ``distance`` and ``coordinates`` are optional provenance payloads:
    raw pairwise kilometres (needed to re-derive costs when sweeping the
    range limit) and per-location (lon, lat) or (x, y) points (needed for
    spatial reports).
    """

    n_locations: int
    n_slots: int
    flow: np.ndarray
    alpha: np.ndarray
    beta: float
    assign_cost: np.ndarray
    delay: np.ndarray
    base_cost: float
    location_cost: np.ndarray
    budget: float
    capacity_max: np.ndarray
    recurrence: np.ndarray
    range_limit: float
    distance: np.ndarray | None = None
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        n, T = int(self.n_locations), int(self.n_slots)
        if n <= 0 or T <= 0:
            raise ValueError("n_locations and n_slots must be positive")
        object.__setattr__(self, "n_locations", n)
        object.__setattr__(self, "n_slots", T)
        object.__setattr__(self, "flow", _readonly(self.flow))
        object.__setattr__(self, "alpha", _readonly(self.alpha))
        object.__setattr__(self, "assign_cost", _readonly(self.assign_cost))
        object.__setattr__(self, "delay", _readonly(self.delay, dtype=int))
        object.__setattr__(self, "location_cost", _readonly(self.location_cost))
        object.__setattr__(self, "capacity_max", _readonly(self.capacity_max))
        object.__setattr__(self, "recurrence", _readonly(self.recurrence))
        if self.distance is not None:
            object.__setattr__(self, "distance", _readonly(self.distance))
        if self.coordinates is not None:
            object.__setattr__(self, "coordinates", _readonly(self.coordinates))
        self._validate()

    def _validate(self):
        n, T = self.n_locations, self.n_slots
        if self.flow.shape != (T, n):
            raise ValueError(f"flow must have shape ({T}, {n}), got {self.flow.shape}")
        if self.alpha.shape != (T, n):
            raise ValueError(f"alpha must have shape ({T}, {n}), got {self.alpha.shape}")
        if self.assign_cost.shape != (n, n):
            raise ValueError("assign_cost must be square over locations")
        if self.delay.shape != (n, n):
            raise ValueError("delay must be square over locations")
        if self.location_cost.shape != (n,):
            raise ValueError("location_cost must have one entry per location")
        if self.capacity_max.shape != (n,):
            raise ValueError("capacity_max must have one entry per location")
        if self.recurrence.shape != (T,):
            raise ValueError("recurrence must have one entry per slot")
        # every check is written so that NaN fails it; inf stays legal only
        # where it means "none" (FORBIDDEN, an unbounded budget or capacity)
        if not np.all(np.isfinite(self.flow) & (self.flow >= 0)):
            raise ValueError("flow entries must be finite non-negative numbers")
        if not np.all((self.alpha >= 0) & (self.alpha <= 1)):
            raise ValueError("alpha entries must lie in [0, 1]")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be a finite non-negative number")
        if np.any(np.diagonal(self.assign_cost) != 0):
            raise ValueError("assign_cost diagonal must be exactly 0")
        if not np.all(self.assign_cost >= 0):
            raise ValueError("assign_cost entries must be non-negative numbers")
        if np.any(np.diagonal(self.delay) != 0):
            raise ValueError("delay diagonal must be 0")
        if np.any(self.delay < 0) or np.any(self.delay >= self.n_slots):
            raise ValueError("delay entries must lie in [0, n_slots)")
        if not 0 <= self.base_cost < math.inf:
            raise ValueError("investment costs must be finite non-negative numbers: base_cost")
        if not np.all(np.isfinite(self.location_cost) & (self.location_cost >= 0)):
            raise ValueError("investment costs must be finite non-negative numbers: "
                             "location_cost")
        if not self.budget >= 0:
            raise ValueError("budget must be a non-negative number")
        if not np.all(self.capacity_max >= 0):
            raise ValueError("capacity_max must be non-negative numbers")
        if not np.all(np.isfinite(self.recurrence) & (self.recurrence >= 0)):
            raise ValueError("recurrence must be finite non-negative numbers")
        if not self.range_limit >= 0:
            raise ValueError("range_limit must be a number >= 0")
        if self.distance is not None and self.distance.shape != (n, n):
            raise ValueError("distance must be square over locations")
        if self.distance is not None and np.isnan(self.distance).any():
            raise ValueError("distance entries must be numbers")
        if self.coordinates is not None and self.coordinates.shape != (n, 2):
            raise ValueError("coordinates must have shape (n_locations, 2)")
        if self.coordinates is not None and not np.isfinite(self.coordinates).all():
            raise ValueError("coordinates must be finite numbers")

    @property
    def charging_demand(self) -> np.ndarray:
        """Elementwise ``alpha * flow``: EVs requiring charge per (slot, location)."""
        return self.alpha * self.flow

    @property
    def unit_investment_cost(self) -> np.ndarray:
        """Per-kW investment cost ``base_cost + location_cost`` per location."""
        return self.base_cost + self.location_cost

    @property
    def own_peak(self) -> np.ndarray:
        """``beta * max_t(alpha * flow)``: the capacity for each own demand alone."""
        return self.beta * self.charging_demand.max(axis=0)

    @cached_property
    def range_graph(self) -> "RangeGraph":
        """The in-range pairs as edges: every off-diagonal pair at a finite
        cost (self-assignment is never allowed).  Built on first access, then
        shared."""
        allowed = np.isfinite(self.assign_cost)
        np.fill_diagonal(allowed, False)
        src, dst = np.nonzero(allowed)
        offsets = np.searchsorted(src, np.arange(self.n_locations + 1))
        return RangeGraph(self.n_locations, self.n_slots, src, dst,
                          self.assign_cost[src, dst], self.delay[src, dst], offsets)


def _slot_bins(T: int, loc: np.ndarray, n: int) -> np.ndarray:
    """Flat bincount bins of a (T, E) array: entry (t, e) falls in ``t * n + loc[e]``."""
    return (np.arange(T)[:, None] * n + loc).ravel()


def _arrival_gather(T: int, delay: np.ndarray) -> np.ndarray:
    """Flat take index of a (T, E) plan: entry (t, e) reads the shipment on
    edge ``e`` that left ``delay[e]`` slots before ``t``, cyclically."""
    E = len(delay)
    return ((np.subtract.outer(np.arange(T), delay) % T) * E + np.arange(E)).ravel()


def _binned_sums(values: np.ndarray, bins: np.ndarray, T: int, n: int) -> np.ndarray:
    """``out[t, k]``: the sum of the flat ``values`` in bin ``t * n + k``, in order."""
    return np.bincount(bins, weights=values, minlength=T * n).reshape(T, n)


@dataclass(frozen=True)
class RangeGraph:
    """In-range (origin ``src``, destination ``dst``) pairs, one edge each.

    Edges are origin-major (row-major over the pairs), the central LP's column
    order within a slot; origin ``i`` owns ``offsets[i]:offsets[i + 1]``.  A
    plan on the graph is an (n_slots, E) array, ``z_e[t, e] = z[t, src[e], dst[e]]``.
    """

    n_locations: int
    n_slots: int
    src: np.ndarray
    dst: np.ndarray
    cost: np.ndarray
    delay: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for a in (self.src, self.dst, self.cost, self.delay, self.offsets):
            a.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    @cached_property
    def arrival(self) -> np.ndarray:
        """(T, E): the slot in which a shipment leaving in slot t on edge e
        reaches ``dst[e]``, ``(t + delay[e]) % T``, as the horizon repeats."""
        return _readonly((np.arange(self.n_slots)[:, None] + self.delay) % self.n_slots, int)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (arrival gather, inflow bins, outflow bins); left writable, since
        # np.take copies a read-only index on every call
        T, n = self.n_slots, self.n_locations
        return (_arrival_gather(T, self.delay),
                _slot_bins(T, self.dst, n), _slot_bins(T, self.src, n))

    def _plan_index(self, z_e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The plan indices; a plan of another shape would be read flat, so it is refused."""
        if z_e.shape != (self.n_slots, self.n_edges):
            raise ValueError("z_e must have shape (n_slots, n_edges)")
        return self._index

    def outflow(self, z_e: np.ndarray) -> np.ndarray:
        """(T, n) vehicles leaving each location per slot."""
        _, _, bins = self._plan_index(z_e)
        return _binned_sums(z_e.ravel(), bins, self.n_slots, self.n_locations)

    def inflow(self, z_e: np.ndarray) -> np.ndarray:
        """(T, n) delayed arrivals, equal to :func:`delayed_inflow` of the
        dense plan with ``z_e`` on the edges and zeros elsewhere."""
        gather, bins, _ = self._plan_index(z_e)
        return _binned_sums(z_e.take(gather), bins, self.n_slots, self.n_locations)


@dataclass(frozen=True)
class InvestmentPlan:
    """Installed charging capacity (kW) per location."""

    capacity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "capacity", _readonly(self.capacity))
        if self.capacity.ndim != 1:
            raise ValueError("capacity must be a vector")
        if not np.all(np.isfinite(self.capacity)):
            raise ValueError("capacity entries must be finite")


@dataclass(frozen=True)
class AssignmentPlan:
    """EV redirections (continuous-relaxed vehicle counts) on a range graph.

    ``z[t, e]`` is the number sent from ``graph.src[e]`` to ``graph.dst[e]``
    in slot ``t``; pairs off the graph (the diagonal and out-of-range pairs)
    have no column, so they carry nothing.  ``z`` is kept as a read-only
    view, not a copy, of the array passed in, which nothing else should
    write to afterwards.
    """

    graph: RangeGraph
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).view()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        if z.shape != (self.graph.n_slots, self.graph.n_edges):
            raise ValueError("z must have the graph's dimensions (n_slots, n_edges)")
        if not np.all(np.isfinite(z)):
            raise ValueError("z entries must be finite")

    @staticmethod
    def zeros(instance: PlanningInstance) -> "AssignmentPlan":
        graph = instance.range_graph
        return AssignmentPlan(graph, np.zeros((graph.n_slots, graph.n_edges)))


@dataclass(frozen=True)
class CostBreakdown:
    """Objective value split into its two components (currency)."""

    investment: float
    assignment: float
    total: float


@dataclass(frozen=True)
class ConstraintResidual:
    """Worst violation of one constraint family, in its natural units."""

    violation: float
    where: tuple | None  # offending indices, or None when clean


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint worst residuals for an (investment, assignment) pair.

    Residual units are raw: budget in currency, capacity families in kW,
    flow families in EV counts.  ``feasible`` holds exactly when every
    residual is at most ``tol``.
    """

    residuals: dict[str, ConstraintResidual]
    tol: float
    feasible: bool = field(init=False)

    def __post_init__(self):
        ok = all(r.violation <= self.tol for r in self.residuals.values())
        object.__setattr__(self, "feasible", ok)


@dataclass(frozen=True)
class Solution:
    """Plans plus evaluated cost, feasibility report, and solver statistics."""

    investment: InvestmentPlan
    assignment: AssignmentPlan
    cost: CostBreakdown
    feasibility: FeasibilityReport
    stats: dict


def delayed_inflow(z: np.ndarray, delay: np.ndarray) -> np.ndarray:
    """Total EVs arriving at each (slot, location), accounting for travel delay.

    ``inflow[t, i] = sum_j z[(t - delay[j, i]) mod T, j, i]``, summed in
    ascending ``j`` over every pair, forbidden ones included.  The slot index
    wraps cyclically: the horizon is treated as one period of a recurring
    cycle, so departures late in the horizon arrive at its start.
    """
    T, n, _ = z.shape
    arrived = z.take(_arrival_gather(T, np.asarray(delay).ravel()))
    return _binned_sums(arrived, _slot_bins(T, np.tile(np.arange(n), n), n), T, n)


def _plan_graph(instance: PlanningInstance, asg: AssignmentPlan) -> RangeGraph:
    """The instance's range graph, which ``asg`` must be a plan on."""
    if asg.graph is not instance.range_graph:
        raise ValueError("assignment plan does not match instance dimensions")
    return asg.graph


def evaluate_objective(
    instance: PlanningInstance, inv: InvestmentPlan, asg: AssignmentPlan
) -> CostBreakdown:
    """Evaluate the joint objective for a pair of plans.

    investment = sum_i c_i * (base_cost + location_cost_i)
    assignment = sum_t recurrence_t * sum_e z[t, e] * cost[e]

    Raises ``ValueError`` when either plan does not fit the instance.
    """
    if inv.capacity.shape != (instance.n_locations,):
        raise ValueError("investment plan does not match instance dimensions")
    graph = _plan_graph(instance, asg)
    investment = float(inv.capacity @ instance.unit_investment_cost)
    assignment = float(instance.recurrence @ (asg.z @ graph.cost))
    return CostBreakdown(investment, assignment, investment + assignment)


def check_feasibility(
    instance: PlanningInstance,
    inv: InvestmentPlan,
    asg: AssignmentPlan,
    tol: float = 1e-6,
) -> FeasibilityReport:
    """Compute worst residuals of every constraint family.

    Always returns a report; never raises on infeasible plans.  Each residual
    is ``max(0, lhs - rhs)`` in the constraint's natural units, together with
    the offending indices of the worst violation.
    """
    graph = _plan_graph(instance, asg)
    c, z = inv.capacity, asg.z
    res: dict[str, ConstraintResidual] = {}

    def worst(values: np.ndarray) -> ConstraintResidual:
        v = float(values.max(initial=0.0))
        if v <= 0:
            return ConstraintResidual(0.0, None)
        idx = np.unravel_index(int(np.argmax(values)), values.shape)
        return ConstraintResidual(v, tuple(int(k) for k in idx))

    invest = float(c @ instance.unit_investment_cost)
    res["budget"] = ConstraintResidual(max(0.0, invest - instance.budget), None)

    res["capacity_bounds"] = worst(np.maximum(c - instance.capacity_max, -c))

    outflow = graph.outflow(z)  # (T, n)
    res["flow_conservation"] = worst(outflow - instance.charging_demand)

    load = instance.beta * (instance.charging_demand - outflow + graph.inflow(z))
    upper = load - c[None, :]
    lower = -load
    res["capacity_satisfaction"] = worst(np.maximum(upper, lower))

    neg = worst(-z)
    if neg.where is not None:  # report the cell (t, i, j), not the edge
        t, e = neg.where
        neg = ConstraintResidual(neg.violation, (t, int(graph.src[e]), int(graph.dst[e])))
    res["non_negativity"] = neg

    return FeasibilityReport(res, tol)


def assess(instance: PlanningInstance, inv: InvestmentPlan, asg: AssignmentPlan,
           tol: float, stats: dict) -> Solution:
    """The plans with :func:`evaluate_objective`'s cost, :func:`check_feasibility`'s
    report at ``tol`` and ``stats``.  Every solver, the no-assignment baseline and
    the rounding report return through here, so one rule prices and judges them
    all.  An infeasible report is returned, not raised; the caller decides."""
    cost = evaluate_objective(instance, inv, asg)
    return Solution(inv, asg, cost, check_feasibility(instance, inv, asg, tol), stats)
