"""Synthetic instance generation mirroring the case-study parameterization.

Locations are scattered uniformly over a square city; the designated center
carries the highest land cost, decaying exponentially with distance.
Charging ratios are Beta-distributed, assignment cost is priced per km with
a hard range cutoff, and travel delays derive from a mean speed.
:func:`build_instance` applies these rules, to ingested flows as well.

Flow profiles are synthetic archetypes (residential / office / recreational)
with weekday-weekend modulation; their shape constants are documented here
and deliberately frozen so downstream tests stay stable:

* residential: evening peak (20:00, sigma 2.5 h), weekend factor 1.1
* office:      midday peak (12:30, sigma 3 h), weekend factor 0.25
* recreational: afternoon peak (15:00, sigma 3.5 h), weekday factor 0.5,
  weekend factor 1.6

Archetypes are assigned round-robin by location index (i % 3 into the order
above), so callers can reconstruct the labeling without extra metadata.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import FORBIDDEN, PlanningInstance

ARCHETYPES = ("residential", "office", "recreational")

_PROFILE_SHAPE = {
    # (peak hour, sigma hours, weekday factor, weekend factor)
    "residential": (20.0, 2.5, 1.0, 1.1),
    "office": (12.5, 3.0, 1.0, 0.25),
    "recreational": (15.0, 3.5, 0.5, 1.6),
}
_PROFILE_BASE = 0.15
#: the horizon of every instance, one week: flow profiles and travel delays span it
HORIZON_HOURS = 7 * 24


@dataclass(frozen=True, kw_only=True)
class EconParams:
    """The economics an instance is built with, from generated or ingested
    flows; defaults follow the case-study parameterization.  ``seed`` seeds
    the charging-share draw."""

    seed: int = 0
    alpha_a: float = 10.0
    alpha_b: float = 90.0
    beta_kw: float = 250.0
    base_cost: float = 500.0
    location_cost_scale: float = 500.0
    location_cost_decay: float = 0.3  # per km from the center
    assign_price_per_km: float = 0.2
    range_km: float = 3.0
    recurrence: float = 520.0
    budget: float = 20e9
    capacity_max: float = 1e7
    speed_kmh: float = 30.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{f.name} must be a number")
        if self.alpha_a <= 0 or self.alpha_b <= 0:
            raise ValueError("Beta shape parameters must be positive")
        if self.location_cost_decay <= 0:
            raise ValueError("location cost decay rate must be positive")
        if self.speed_kmh <= 0:
            raise ValueError("travel speed must be positive")


@dataclass(frozen=True, kw_only=True)
class GenParams(EconParams):
    """Generator knobs: the economics of :class:`EconParams` plus the
    synthetic city and its flows."""

    n_locations: int = 20
    n_slots: int = 672
    city_size_km: float = 10.0
    flow_scale: float = 30.0
    flow_noise: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if self.n_locations <= 0 or self.n_slots <= 0:
            raise ValueError("n_locations and n_slots must be positive")


def archetype_of(i: int) -> str:
    return ARCHETYPES[i % 3]


def flow_profile(archetype: str, n_slots: int) -> np.ndarray:
    """Deterministic weekly demand shape for one archetype, one value per slot."""
    peak, sigma, wd, we = _PROFILE_SHAPE[archetype]
    slot_hours = HORIZON_HOURS / n_slots
    hours = (np.arange(n_slots) + 0.5) * slot_hours
    day = np.floor(hours / 24.0).astype(int)
    hour_of_day = hours % 24.0
    day_weight = np.where(day < 5, wd, we)
    bump = np.exp(-0.5 * ((hour_of_day - peak) / sigma) ** 2)
    return day_weight * (_PROFILE_BASE + bump)


def sample_alpha(a: float, b: float, seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. Beta(a, b) charging-share samples in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta shape parameters must be positive")
    rng = np.random.default_rng(seed)
    return rng.beta(a, b, size=shape)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def assignment_costs(
    distance: np.ndarray, price_per_km: float, range_km: float
) -> np.ndarray:
    """Piecewise assignment-cost rule: priced within range, forbidden beyond.

    Only the in-range pairs are priced, so an infinite distance is never
    multiplied by the price."""
    cost = np.full(distance.shape, FORBIDDEN)
    inside = distance < range_km
    cost[inside] = price_per_km * distance[inside]
    np.fill_diagonal(cost, 0.0)
    return cost


def travel_delays(distance: np.ndarray, speed_kmh: float, n_slots: int) -> np.ndarray:
    slot_hours = HORIZON_HOURS / n_slots
    # saturate before the cast: a huge or infinite distance is n_slots - 1
    tau = np.minimum(np.rint(distance / speed_kmh / slot_hours), n_slots - 1).astype(int)
    np.fill_diagonal(tau, 0)
    return tau


def with_range_limit(instance: PlanningInstance, range_km: float) -> PlanningInstance:
    """Rebuild an instance's assignment costs for a different range limit.

    Requires the raw distance matrix to be present.  The per-km price is
    inferred from any priced off-diagonal cell at a finite, positive
    distance, so an instance that prices no such pair can only be given a
    range that still admits none.
    """
    if instance.distance is None:
        raise ValueError("instance does not carry raw distances")
    off = ~np.eye(instance.n_locations, dtype=bool)
    priced = (off & np.isfinite(instance.assign_cost) & np.isfinite(instance.distance)
              & (instance.distance > 0))
    if priced.any():
        i, j = np.argwhere(priced)[0]
        price_per_km = float(instance.assign_cost[i, j] / instance.distance[i, j])
    elif np.any(off & (instance.distance < range_km)):
        raise ValueError(
            f"the instance prices no pair, so it has no per-km price for the "
            f"pairs a {range_km:g} km range admits"
        )
    else:
        price_per_km = 0.0  # every pair stays forbidden; no price is read
    cost = assignment_costs(instance.distance, price_per_km, range_km)
    return dataclasses.replace(instance, assign_cost=cost, range_limit=range_km)


def build_instance(
    flow: np.ndarray,
    alpha: np.ndarray,
    distance: np.ndarray,
    center_km: np.ndarray,
    params: EconParams,
    coordinates: np.ndarray | None = None,
) -> PlanningInstance:
    """The instance that ``params``' economic rules make of (T, n) flows and
    charging shares and an (n, n) distance matrix.

    Assignment is priced per km within the range and forbidden beyond it,
    travel delays follow the mean speed, and each location's cost decays
    exponentially with ``center_km``, its distance from the city center.
    """
    T, n = flow.shape
    location_cost = params.location_cost_scale * np.exp(
        -params.location_cost_decay * center_km
    )
    return PlanningInstance(
        n_locations=n,
        n_slots=T,
        flow=flow,
        alpha=alpha,
        beta=params.beta_kw,
        assign_cost=assignment_costs(distance, params.assign_price_per_km, params.range_km),
        delay=travel_delays(distance, params.speed_kmh, T),
        base_cost=params.base_cost,
        location_cost=location_cost,
        budget=params.budget,
        capacity_max=np.full(n, params.capacity_max),
        recurrence=np.full(T, params.recurrence),
        range_limit=params.range_km,
        distance=distance,
        coordinates=coordinates,
    )


def generate_instance(params: GenParams) -> PlanningInstance:
    """Deterministic synthetic instance for the given parameters and seed."""
    n, T = params.n_locations, params.n_slots
    rng = np.random.default_rng(params.seed)

    points = rng.uniform(0.0, params.city_size_km, size=(n, 2))
    if n > 1 and np.allclose(points, points[0]):
        raise ValueError("degenerate geometry: all locations coincide")
    center = np.array([params.city_size_km / 2.0, params.city_size_km / 2.0])

    amplitude = params.flow_scale * rng.uniform(0.5, 1.5, size=n)
    noise = rng.uniform(1.0 - params.flow_noise, 1.0 + params.flow_noise, size=(T, n))
    flow = np.empty((T, n))
    for i in range(n):
        flow[:, i] = amplitude[i] * flow_profile(archetype_of(i), T)
    flow *= noise

    alpha = rng.beta(params.alpha_a, params.alpha_b, size=(T, n))
    center_km = np.sqrt(((points - center) ** 2).sum(axis=1))
    return build_instance(flow, alpha, pairwise_distances(points), center_km, params, points)
