"""Result reporting: GeoJSON feature collections, flat CSV tables, rounding.

Maps are emitted as data only (RFC 7946); drawing them is out of scope.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .io import write_table
from .model import AssignmentPlan, PlanningInstance, Solution, assess

#: an aggregated flow of at most this many vehicles draws no line feature
#: and no flows.csv row
FLOW_ATOL = 1e-9


def aggregate_flows(
    solution: Solution, window: tuple[int, int] | None = None
) -> np.ndarray:
    """Sum assignments over a half-open slot window: one total per edge of
    the plan's range graph."""
    z = solution.assignment.z
    if window is None:
        window = (0, z.shape[0])
    lo, hi = window
    if not (0 <= lo < hi <= z.shape[0]):
        raise ValueError(f"invalid slot window {window}")
    return z[lo:hi].sum(axis=0)


def _flows(instance: PlanningInstance, solution: Solution, window) -> tuple:
    """The plan's graph, its per-edge flows over the window, and each
    location's net vehicles sent (sent minus received)."""
    graph = solution.assignment.graph
    if graph is not instance.range_graph:
        raise ValueError("solution does not match instance dimensions")
    flows = aggregate_flows(solution, window)
    # row and column sums of the (n, n) flow matrix: numpy's pairwise row sum
    # fixes the last digit the GeoJSON prints, where a bincount could move it
    matrix = np.zeros((instance.n_locations,) * 2)
    matrix[graph.src, graph.dst] = flows
    return graph, flows, matrix.sum(axis=1) - matrix.sum(axis=0)


def solution_geojson(
    instance: PlanningInstance,
    solution: Solution,
    window: tuple[int, int] | None = None,
) -> dict:
    """RFC 7946 feature collection for one solution.

    One point feature per location (capacity, land cost, net assignments
    over the window; positive means the location sends EVs away) and one
    line feature per nonzero aggregated flow.
    """
    if instance.coordinates is None:
        raise ValueError("instance carries no coordinates; cannot build GeoJSON")
    graph, flows, net_sent = _flows(instance, solution, window)
    coords = instance.coordinates
    features = []
    for i in range(instance.n_locations):
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": list(coords[i])},
                "properties": {
                    "location": i,
                    "capacity_kw": float(solution.investment.capacity[i]),
                    "location_cost": float(instance.location_cost[i]),
                    "net_assignments": float(net_sent[i]),
                },
            }
        )
    for e in np.flatnonzero(flows > FLOW_ATOL):
        i, j = int(graph.src[e]), int(graph.dst[e])
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [list(coords[i]), list(coords[j])],
                },
                "properties": {"from": i, "to": j, "vehicles": float(flows[e])},
            }
        )
    return {"type": "FeatureCollection", "features": features}


def write_csv_tables(
    instance: PlanningInstance,
    solution: Solution,
    out_dir,
    window: tuple[int, int] | None = None,
) -> tuple[Path, Path]:
    """Write locations.csv and flows.csv; returns their paths."""
    graph, flows, net_sent = _flows(instance, solution, window)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["location", "capacity_kw", "location_cost", "net_assignments"]
    columns = [solution.investment.capacity, instance.location_cost, net_sent]
    if instance.coordinates is not None:
        header += ["x", "y"]
        columns += [instance.coordinates[:, 0], instance.coordinates[:, 1]]
    loc_path = out_dir / "locations.csv"
    write_table(loc_path, header, ([i] + [f"{column[i]:.9g}" for column in columns]
                                   for i in range(instance.n_locations)))

    flow_path = out_dir / "flows.csv"
    write_table(flow_path, ["from", "to", "vehicles"],
                ([graph.src[e], graph.dst[e], f"{flows[e]:.9g}"]
                 for e in np.flatnonzero(flows > FLOW_ATOL)))
    return loc_path, flow_path


def round_assignments(instance: PlanningInstance, solution: Solution) -> Solution:
    """Integer-rounded assignment variant with a fresh feasibility check.

    Capacities are kept; only z is rounded to the nearest integer, so the
    recheck quantifies how much feasibility degrades under integral flows.
    """
    asg = AssignmentPlan(solution.assignment.graph, np.rint(solution.assignment.z))
    return assess(instance, solution.investment, asg, solution.feasibility.tol,
                  {**solution.stats, "rounded": True})
