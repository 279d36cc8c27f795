"""Turn raw origin-destination trip records into a planning instance.

Pipeline: parse a trips CSV into columns, bin destinations into zones and
time slots to get the flow matrix, average observed trip distances per zone
pair, then attach economic parameters with the same rules the synthetic
generator uses.

Flows count trip *destinations* (charging demand arises where trips end).
The slot index is the weekday-anchored minute of week divided by the slot
length, folded cyclically onto the horizon, so multi-week data accumulate
onto one representative cycle and binning stays shift-equivariant.

The CSV is read once, row by row, straight into one typed buffer per
column (``array.array``); the :class:`TripTable` columns are numpy views of
those buffers, so a parsed row costs its 48 bytes of values and no Python
object outlives its row.  Binning, the per-record distance fallback and the
per-pair averages are array code over that table.  Reading dominates: on a
2-vCPU x86-64 host with CPython 3.11, parsing a 100 000-row file takes
about 0.35 s (a third of it in the ``csv`` module, the rest in the per-row
conversions, checks and appends), grid binning and averaging about 0.02 s.
A 1.5 M-row file parses in about 5 s and adds about 70 MB, the size of its
columns, to the process's peak RSS.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .datagen import GenParams, assignment_costs, sample_alpha, travel_delays
from .model import PlanningInstance

EARTH_RADIUS_KM = 6371.0088

#: ``a`` terms closer than this relative gap may round to equal distances.
#: A gap of 1e-9 in ``a`` is at least 5e-10 in the distance (the square root
#: halves it, the arcsine keeps it), far beyond the three roundings of about
#: 1e-16 each that ``_arc_km`` adds.
_A_TIE_TOL = 1e-9

REQUIRED_COLUMNS = ("start_time", "origin_lng", "origin_lat", "dest_lng", "dest_lat")


@dataclass(frozen=True)
class Zone:
    label: str
    lon: float
    lat: float


@dataclass(frozen=True)
class BinningSpec:
    """Spatial zones plus temporal resolution.

    Either a rectangular grid (``bbox`` as (min_lon, min_lat, max_lon,
    max_lat) with ``rows`` x ``cols`` cells) or an explicit, non-empty zone
    list (records snap to the nearest zone point, ties to the first listed).
    Slot length must divide a day.
    """

    bbox: tuple[float, float, float, float] | None = None
    rows: int = 0
    cols: int = 0
    zones: tuple[Zone, ...] | None = None
    slot_minutes: int = 15
    n_slots: int = 672

    def __post_init__(self):
        if (self.bbox is None) == (self.zones is None):
            raise ValueError("specify exactly one of bbox-grid or zone list")
        if self.bbox is not None:
            if self.rows <= 0 or self.cols <= 0:
                raise ValueError("grid needs positive rows and cols")
            if len(self.bbox) != 4 or not all(map(math.isfinite, self.bbox)):
                raise ValueError("bbox needs four finite numbers")
            min_lon, min_lat, max_lon, max_lat = self.bbox
            if not (min_lon < max_lon and min_lat < max_lat):
                raise ValueError("bbox needs min_lon < max_lon and min_lat < max_lat")
        else:
            if not self.zones:
                raise ValueError("zone list must not be empty")
            if not all(math.isfinite(z.lon) and math.isfinite(z.lat) for z in self.zones):
                raise ValueError("zone coordinates must be finite numbers")
        if 24 * 60 % self.slot_minutes != 0:
            raise ValueError("slot length must divide 24 hours")
        if self.n_slots <= 0:
            raise ValueError("n_slots must be positive")

    @property
    def n_zones(self) -> int:
        if self.zones is not None:
            return len(self.zones)
        return self.rows * self.cols

    def zone_registry(self) -> list[Zone]:
        if self.zones is not None:
            return list(self.zones)
        min_lon, min_lat, max_lon, max_lat = self.bbox
        dlon = (max_lon - min_lon) / self.cols
        dlat = (max_lat - min_lat) / self.rows
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                out.append(
                    Zone(
                        f"r{r}c{c}",
                        min_lon + (c + 0.5) * dlon,
                        min_lat + (r + 0.5) * dlat,
                    )
                )
        return out

    def zones_of(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Zone index per point (int64), -1 where it falls outside the grid.

        Grid cells are half-open except on the far edges, which snap
        inward.  On a zone list a point goes to the zone at the least
        distance as :func:`haversine_km` rounds it; of zones at equal
        distances, the first listed.
        """
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        best = np.full(lon.shape, -1, dtype=np.int64)
        if self.zones is not None:
            # the running best compares haversine ``a`` terms, which rise
            # with distance; only where two of them are too close for the
            # rounded distances to be told apart in advance are those
            # distances computed and compared
            best_a = np.full(lon.shape, np.inf)
            phi = np.radians(lat)
            cos_phi = np.cos(phi)
            for k, z in enumerate(self.zones):
                dlam = np.radians(np.subtract(z.lon, lon))
                a = _haversine_a(phi, cos_phi, np.radians(z.lat), dlam)
                closer = a < best_a * (1 - _A_TIE_TOL)
                near = (a <= best_a * (1 + _A_TIE_TOL)) ^ closer
                if near.any():
                    near &= a != best_a
                    near[near] = _arc_km(a[near]) < _arc_km(best_a[near])
                    closer |= near
                np.copyto(best, k, where=closer)
                np.copyto(best_a, a, where=closer)
            return best
        min_lon, min_lat, max_lon, max_lat = self.bbox
        inside = (min_lon <= lon) & (lon <= max_lon) & (min_lat <= lat) & (lat <= max_lat)
        col = (lon[inside] - min_lon) / (max_lon - min_lon) * self.cols
        row = (lat[inside] - min_lat) / (max_lat - min_lat) * self.rows
        c = np.minimum(col.astype(np.int64), self.cols - 1)
        r = np.minimum(row.astype(np.int64), self.rows - 1)
        best[inside] = r * self.cols + c
        return best

    def slots_of(self, minute_of_week: np.ndarray) -> np.ndarray:
        """Slot index per minute of week, folded cyclically onto the horizon."""
        return (minute_of_week // self.slot_minutes) % self.n_slots


def haversine_km(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Great-circle distance in km, elementwise over broadcast arguments."""
    phi1 = np.radians(lat1)
    dlam = np.radians(np.subtract(lon2, lon1))
    return _arc_km(_haversine_a(phi1, np.cos(phi1), np.radians(lat2), dlam))


def _haversine_a(phi1, cos_phi1, phi2, dlam) -> np.ndarray:
    """The haversine term ``a`` in [0, 1], which rises with distance, from
    latitudes and the longitude difference in radians."""
    return np.sin((phi2 - phi1) / 2) ** 2 + cos_phi1 * np.cos(phi2) * np.sin(dlam / 2) ** 2


def _arc_km(a) -> np.ndarray:
    """Distance in km for haversine terms ``a``.

    The arcsine goes through ``math.asin`` one element at a time: numpy's
    SIMD ``arcsin`` can differ from libm's in the last bit, and distances
    (hence instance files) should not depend on the host's CPU extensions.
    """
    root = np.sqrt(a)
    arc = np.fromiter(map(math.asin, root.ravel().tolist()), float, root.size)
    return 2 * EARTH_RADIUS_KM * arc.reshape(root.shape)


@dataclass(frozen=True)
class TripTable:
    """Parsed trips as parallel columns, one entry per well-formed record."""

    minute: np.ndarray  # int64 weekday-anchored minute of week, Monday 00:00 = 0
    origin_lon: np.ndarray
    origin_lat: np.ndarray
    dest_lon: np.ndarray
    dest_lat: np.ndarray
    distance_km: np.ndarray  # NaN where the record gives no distance

    def __len__(self) -> int:
        return len(self.minute)


@dataclass
class ParseResult:
    records: TripTable
    skipped: int


def parse_trips(path) -> ParseResult:
    """Read trip records from CSV; malformed rows are counted, not fatal.

    Columns are found by header name (the last of duplicated names wins).
    Blank lines are ignored.  A row is malformed, and counted in
    ``skipped``, when it is too short to hold every required column, its
    start time is not ISO 8601, a coordinate is not a finite number, or it
    gives a ``distance_km`` that is not a finite non-negative number.  An
    empty or absent ``distance_km`` means the distance is not given.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty trips file")
        where = {name: k for k, name in enumerate(header)}
        missing = [c for c in REQUIRED_COLUMNS if c not in where]
        if missing:
            raise ValueError(f"trips file missing required columns: {missing}")
        k_time, k_olon, k_olat, k_dlon, k_dlat = (where[c] for c in REQUIRED_COLUMNS)
        has_distance = "distance_km" in where
        k_dist = where.get("distance_km")
        width = max(k_time, k_olon, k_olat, k_dlon, k_dlat) + 1
        fromisoformat, isfinite = datetime.fromisoformat, math.isfinite
        inf, nan = math.inf, math.nan
        # one typed buffer per column: a row costs its 48 bytes of values,
        # not a tuple of Python objects
        minute, dist_col = array("q"), array("d")
        olon, olat, dlon, dlat = array("d"), array("d"), array("d"), array("d")
        skipped = 0
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                skipped += 1
                continue
            try:
                ts = fromisoformat(row[k_time])
                text = row[k_dist] if has_distance and k_dist < len(row) else ""
                dist = nan
                if text:
                    dist = float(text)
                    if not 0.0 <= dist < inf:
                        raise ValueError("distance_km must be finite and non-negative")
                o_lon, o_lat = float(row[k_olon]), float(row[k_olat])
                d_lon, d_lat = float(row[k_dlon]), float(row[k_dlat])
            except ValueError:
                skipped += 1
                continue
            if not (isfinite(o_lon) and isfinite(o_lat) and isfinite(d_lon) and isfinite(d_lat)):
                skipped += 1
                continue
            minute.append(ts.weekday() * 1440 + ts.hour * 60 + ts.minute)
            olon.append(o_lon)
            olat.append(o_lat)
            dlon.append(d_lon)
            dlat.append(d_lat)
            dist_col.append(dist)
    # the columns are views of the buffers, not copies
    table = TripTable(
        minute=np.frombuffer(minute, dtype=np.int64),
        origin_lon=np.frombuffer(olon, dtype=float),
        origin_lat=np.frombuffer(olat, dtype=float),
        dest_lon=np.frombuffer(dlon, dtype=float),
        dest_lat=np.frombuffer(dlat, dtype=float),
        distance_km=np.frombuffer(dist_col, dtype=float),
    )
    return ParseResult(table, skipped)


@dataclass
class FlowResult:
    flow: np.ndarray  # (n_slots, n_zones)
    zones: list[Zone]
    dropped: int
    dest_zone: np.ndarray  # zone index per trip destination, -1 off the grid


def build_flows(trips: TripTable, spec: BinningSpec) -> FlowResult:
    """Count destination arrivals into (slot, zone) cells; zeros are imputed."""
    T, n = spec.n_slots, spec.n_zones
    zone = spec.zones_of(trips.dest_lon, trips.dest_lat)
    kept = zone >= 0
    cell = spec.slots_of(trips.minute[kept]) * n + zone[kept]
    flow = np.bincount(cell, minlength=T * n).reshape(T, n).astype(float)
    return FlowResult(flow, spec.zone_registry(), int(np.count_nonzero(~kept)), zone)


@dataclass
class DistanceResult:
    distance: np.ndarray  # (n, n) mean km per ordered pair
    counts: np.ndarray  # observations per pair
    imputed: np.ndarray  # True where the centroid fallback was used


def build_distances(
    trips: TripTable, spec: BinningSpec, dest_zone: np.ndarray | None = None
) -> DistanceResult:
    """Average observed trip distance per (origin zone, destination zone).

    A record without a distance counts with the haversine distance between
    its own endpoints.  Pairs with no observations fall back to the
    inter-centroid haversine distance and are flagged as imputed.  The
    diagonal is forced to zero.  No symmetry is imposed; empirical averages
    rarely are.  Sums accumulate in record order.  ``dest_zone`` is
    :attr:`FlowResult.dest_zone` of the same trips and spec, so that the
    destinations are not looked up twice; without it they are looked up here.
    """
    n = spec.n_zones
    zi = spec.zones_of(trips.origin_lon, trips.origin_lat)
    zj = spec.zones_of(trips.dest_lon, trips.dest_lat) if dest_zone is None else dest_zone
    kept = (zi >= 0) & (zj >= 0)
    absent = kept & np.isnan(trips.distance_km)
    d = trips.distance_km.copy()
    d[absent] = haversine_km(
        trips.origin_lon[absent], trips.origin_lat[absent],
        trips.dest_lon[absent], trips.dest_lat[absent],
    )
    pair = zi[kept] * n + zj[kept]
    total = np.bincount(pair, weights=d[kept], minlength=n * n).reshape(n, n)
    counts = np.bincount(pair, minlength=n * n).reshape(n, n)
    zones = spec.zone_registry()
    lon = np.array([z.lon for z in zones], dtype=float)
    lat = np.array([z.lat for z in zones], dtype=float)
    centroid = haversine_km(lon[:, None], lat[:, None], lon[None, :], lat[None, :])
    observed = counts > 0
    distance = np.where(observed, total / np.where(observed, counts, 1), centroid)
    imputed = ~observed
    np.fill_diagonal(distance, 0.0)
    np.fill_diagonal(imputed, False)
    return DistanceResult(distance, counts, imputed)


def assemble_instance(
    flow: np.ndarray,
    distance: np.ndarray,
    params: GenParams,
    coordinates: np.ndarray | None = None,
    center_index: int | None = None,
) -> PlanningInstance:
    """Combine binned flows, empirical distances, and economic parameters.

    Location costs decay exponentially with empirical distance from the
    center zone (the busiest zone by total flow unless given explicitly);
    assignment costs, delays, and charging ratios follow the same rules as
    the synthetic generator.
    """
    T, n = flow.shape
    if distance.shape != (n, n):
        raise ValueError("flow and distance shapes are inconsistent")
    if center_index is None:
        center_index = int(np.argmax(flow.sum(axis=0)))
    cost = assignment_costs(distance, params.assign_price_per_km, params.range_km)
    delay = travel_delays(distance, params.speed_kmh, T)
    location_cost = params.location_cost_scale * np.exp(
        -params.location_cost_decay * distance[center_index, :]
    )
    return PlanningInstance(
        n_locations=n,
        n_slots=T,
        flow=flow,
        alpha=sample_alpha(params.alpha_a, params.alpha_b, params.seed, (T, n)),
        beta=params.beta_kw,
        assign_cost=cost,
        delay=delay,
        base_cost=params.base_cost,
        location_cost=location_cost,
        budget=params.budget,
        capacity_max=np.full(n, params.capacity_max),
        recurrence=np.full(T, params.recurrence),
        range_limit=params.range_km,
        distance=distance,
        coordinates=coordinates,
    )
