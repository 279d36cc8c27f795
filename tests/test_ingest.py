"""Trip ingestion: parsing, spatial/temporal binning, distance estimation."""

import csv
import functools
import math
import re
import tempfile
import tracemalloc
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargeplan import ingest
from chargeplan.datagen import GenParams
from chargeplan.ingest import (
    REQUIRED_COLUMNS,
    BinningSpec,
    TripTable,
    Zone,
    assemble_instance,
    build_distances,
    build_flows,
    haversine_km,
    parse_trips,
)

# 2 x 2 grid over a unit degree box; slots are 15 minutes over one week
GRID = BinningSpec(bbox=(0.0, 0.0, 1.0, 1.0), rows=2, cols=2, n_slots=672)

HEADER = "start_time,origin_lng,origin_lat,dest_lng,dest_lat,distance_km"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "trips.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


# ---------------------------------------------------------------- oracle
#
# The row-by-row pipeline that the columnar one replaced, kept as a test
# oracle: csv.DictReader, one record object per row, scalar zone and slot
# lookups, and the math-module haversine.  It also skips a row whose
# distance_km is given but not a finite non-negative number, or whose start
# time is not an ISO date alone or one followed by T or a space.

#: an ISO 8601 calendar or week date, alone or followed by T or a space
ISO_DATE_THEN_T_OR_SPACE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{8}|[0-9]{4}-?W[0-9]{2}(-?[0-9])?)([T ].*)?", re.DOTALL)


@dataclass(frozen=True)
class TripRecord:
    start_time: datetime
    origin: tuple[float, float]  # (lon, lat)
    destination: tuple[float, float]
    distance_km: float | None = None


def oracle_haversine(lon1, lat1, lon2, lat2):
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * 6371.0088 * math.asin(math.sqrt(a))


def oracle_zone_of(spec, lon, lat):
    if spec.zones is not None:
        best, best_d = None, math.inf
        for k, z in enumerate(spec.zones):
            d = oracle_haversine(lon, lat, z.lon, z.lat)
            if d < best_d:
                best, best_d = k, d
        return best
    min_lon, min_lat, max_lon, max_lat = spec.bbox
    if not (min_lon <= lon <= max_lon and min_lat <= lat <= max_lat):
        return None
    c = min(int((lon - min_lon) / (max_lon - min_lon) * spec.cols), spec.cols - 1)
    r = min(int((lat - min_lat) / (max_lat - min_lat) * spec.rows), spec.rows - 1)
    return r * spec.cols + c


def oracle_minute_of_week(ts):
    return ts.weekday() * 24 * 60 + ts.hour * 60 + ts.minute


def oracle_slot_of(spec, ts):
    return (oracle_minute_of_week(ts) // spec.slot_minutes) % spec.n_slots


def oracle_parse(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        has_distance = "distance_km" in reader.fieldnames
        records, skipped = [], 0
        for row in reader:
            try:
                ts = datetime.fromisoformat(row["start_time"])
                if not ISO_DATE_THEN_T_OR_SPACE.fullmatch(row["start_time"]):
                    raise ValueError("no T or space between date and time")
                origin = (float(row["origin_lng"]), float(row["origin_lat"]))
                dest = (float(row["dest_lng"]), float(row["dest_lat"]))
                dist = None
                if has_distance and row["distance_km"] not in (None, ""):
                    dist = float(row["distance_km"])
                    if not (math.isfinite(dist) and dist >= 0):
                        raise ValueError("bad distance")
                if not all(math.isfinite(v) for v in (*origin, *dest)):
                    raise ValueError("non-finite coordinate")
                records.append(TripRecord(ts, origin, dest, dist))
            except (ValueError, TypeError, KeyError):
                skipped += 1
    return records, skipped


def oracle_flows(records, spec):
    flow = np.zeros((spec.n_slots, spec.n_zones))
    dropped = 0
    for rec in records:
        zone = oracle_zone_of(spec, *rec.destination)
        if zone is None:
            dropped += 1
            continue
        flow[oracle_slot_of(spec, rec.start_time), zone] += 1.0
    return flow, dropped


def oracle_distances(records, spec):
    n = spec.n_zones
    total = np.zeros((n, n))
    counts = np.zeros((n, n))
    for rec in records:
        zi = oracle_zone_of(spec, *rec.origin)
        zj = oracle_zone_of(spec, *rec.destination)
        if zi is None or zj is None:
            continue
        d = rec.distance_km
        if d is None:
            d = oracle_haversine(*rec.origin, *rec.destination)
        total[zi, zj] += d
        counts[zi, zj] += 1.0
    zones = spec.zone_registry()
    centroid = np.array(
        [[oracle_haversine(a.lon, a.lat, b.lon, b.lat) for b in zones] for a in zones]
    )
    observed = counts > 0
    distance = np.where(observed, total / np.where(observed, counts, 1.0), centroid)
    imputed = ~observed
    np.fill_diagonal(distance, 0.0)
    np.fill_diagonal(imputed, False)
    return distance, counts.astype(int), imputed


# ---------------------------------------------------------------- tests


class TestParseTrips:
    def test_single_valid_row(self, tmp_path):
        path = write_csv(tmp_path, ["2024-03-04T08:10:00,0.1,0.2,0.8,0.9,4.5"])
        result = parse_trips(path)
        assert result.skipped == 0
        assert len(result.records) == 1
        rec = result.records
        assert rec.minute[0] == 8 * 60 + 10  # Monday 2024-03-04 08:10
        assert (rec.origin_lon[0], rec.origin_lat[0]) == (0.1, 0.2)
        assert (rec.dest_lon[0], rec.dest_lat[0]) == (0.8, 0.9)
        assert rec.distance_km[0] == 4.5

    def test_distance_column_optional(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["2024-03-04T08:10:00,0.1,0.2,0.8,0.9"],
            header="start_time,origin_lng,origin_lat,dest_lng,dest_lat",
        )
        result = parse_trips(path)
        assert np.isnan(result.records.distance_km[0])  # not given

    def test_malformed_rows_skipped_not_fatal(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "2024-03-04T08:10:00,0.1,0.2,0.8,0.9,4.5",
                "not-a-date,0.1,0.2,0.8,0.9,4.5",
                "2024-03-04T09:00:00,zzz,0.2,0.8,0.9,4.5",
                "2024-03-04T09:00:00,0.1,nan,0.8,0.9,",
            ],
        )
        result = parse_trips(path)
        assert len(result.records) == 1
        assert result.skipped == 3

    @pytest.mark.parametrize("sep", ["?", "x", "t", "1", "_"])
    def test_date_and_time_separated_by_t_or_space_only(self, tmp_path, sep):
        # datetime.fromisoformat on CPython 3.11 takes any character there
        path = write_csv(tmp_path, [
            "2024-03-04T08:10:00,0.1,0.2,0.8,0.9,",
            "2024-03-04 08:20:00,0.1,0.2,0.8,0.9,",
            "2024-03-05,0.1,0.2,0.8,0.9,",
            f"2024-03-04{sep}08:30:00,0.1,0.2,0.8,0.9,",
            f"2024-W10-1{sep}08:40,0.1,0.2,0.8,0.9,",
            f"2024-03-04{sep}08:50:00+01:00,0.1,0.2,0.8,0.9,",
            f"2024-03-04{sep}09:00:00 +01:00,0.1,0.2,0.8,0.9,",
        ])
        result = parse_trips(path)
        assert result.records.minute.tolist() == [490, 500, 1440]
        assert result.skipped == 4

    def test_start_times_that_need_python_3_11(self, tmp_path):
        # CPython 3.10's datetime.fromisoformat rejects all three, so on it
        # the same file would give another instance
        path = write_csv(tmp_path, [
            "2024-03-04T08:10:00Z,0.1,0.2,0.8,0.9,",
            "2024-03-04T08:20:00.5,0.1,0.2,0.8,0.9,",
            "20240304T083000,0.1,0.2,0.8,0.9,",
        ])
        result = parse_trips(path)
        assert result.records.minute.tolist() == [490, 500, 510]
        assert result.skipped == 0

    @pytest.mark.parametrize("distance", ["nan", "inf", "-inf", "-2.0"])
    def test_non_finite_or_negative_distance_skipped(self, tmp_path, distance):
        path = write_csv(
            tmp_path,
            [
                "2024-03-04T08:10:00,0.1,0.2,0.8,0.9,4.5",
                f"2024-03-04T08:20:00,0.1,0.2,0.8,0.9,{distance}",
            ],
        )
        result = parse_trips(path)
        assert len(result.records) == 1
        assert result.skipped == 1

    def test_blank_lines_ignored_short_rows_malformed(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "",
                "2024-03-04T08:10:00,0.1,0.2,0.8,0.9",  # stops before distance_km
                "2024-03-04T08:10:00,0.1,0.2,0.8",  # stops before dest_lat
                "",
            ],
        )
        result = parse_trips(path)
        assert len(result.records) == 1
        assert np.isnan(result.records.distance_km[0])
        assert result.skipped == 1

    def test_columns_found_by_name_last_duplicate_wins(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["0.8,0.9,9.0,0.5,2024-03-04T08:10:00,0.1,0.2"],
            header="dest_lng,dest_lat,distance_km,dest_lng,start_time,origin_lng,origin_lat",
        )
        rec = parse_trips(path).records
        assert (rec.dest_lon[0], rec.dest_lat[0]) == (0.5, 0.9)
        assert (rec.origin_lon[0], rec.origin_lat[0]) == (0.1, 0.2)

    def test_missing_required_column_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["2024-03-04T08:10:00,0.1,0.2,0.8"],
            header="start_time,origin_lng,origin_lat,dest_lng",
        )
        with pytest.raises(ValueError, match="dest_lat"):
            parse_trips(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            parse_trips(path)

    def test_header_only_file_yields_no_records(self, tmp_path):
        path = write_csv(tmp_path, [])
        result = parse_trips(path)
        assert len(result.records) == 0 and result.skipped == 0

    def test_peak_memory_per_row_is_bounded(self, tmp_path):
        # the columns take 48 bytes a row; a parse that kept a Python tuple
        # per row until the end took over 370
        rng = np.random.default_rng(0)
        n = 20_000
        minutes = rng.integers(0, 7 * 1440, n)
        coords = rng.uniform(0.0, 1.0, (n, 4))
        km = rng.uniform(0.0, 30.0, n)
        start = datetime(2024, 3, 4)
        rows = [
            f"{(start + timedelta(minutes=int(m))).isoformat()},"
            f"{c[0]:.6f},{c[1]:.6f},{c[2]:.6f},{c[3]:.6f},{d:.3f}"
            for m, c, d in zip(minutes, coords, km)
        ]
        path = write_csv(tmp_path, rows)
        tracemalloc.start()
        try:
            parsed = parse_trips(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(parsed.records), parsed.skipped) == (n, 0)
        assert peak / n <= 150

    def test_peak_memory_per_row_when_later_rows_are_wider(self, tmp_path):
        # a block of 38-character rows, then 40 000 of about 200 characters
        # (a long note column): the columns hold room for the rows read,
        # not for the rest of the file at the first block's rows per byte
        start = datetime(2024, 3, 4)
        n_short, n_wide = ingest._BLOCK_CHARS // 38, 40_000
        rng = np.random.default_rng(1)
        times = [(start + timedelta(minutes=int(m))).isoformat()
                 for m in rng.integers(0, 7 * 1440, n_short + n_wide)]
        short = [f"{t},0.1,0.2,0.8,0.9,1," for t in times[:n_short]]
        wide = [f"{t},{c[0]:.6f},{c[1]:.6f},{c[2]:.6f},{c[3]:.6f},{d:.3f},{'x' * 140}"
                for t, c, d in zip(times[n_short:], rng.uniform(0.0, 1.0, (n_wide, 4)),
                                   rng.uniform(0.0, 30.0, n_wide))]
        path = write_csv(tmp_path, short + wide, header=f"{HEADER},note")
        tracemalloc.start()
        try:
            parsed = parse_trips(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = n_short + n_wide
        assert (len(parsed.records), parsed.skipped) == (n, 0)
        assert peak / n <= 150

    @pytest.mark.parametrize("sep", ["T", " "], ids=["canonical", "space-separated"])
    def test_block_working_set_does_not_grow_with_the_file(self, tmp_path, sep):
        # beyond the columns' 48 bytes a row, a parse holds one block's
        # working set, whatever the file's length, whether the array code
        # reads the lines or hands them all to the row checks (no line with
        # a space-separated start time is canonical); the allowance covers
        # the columns' buffers, which grow by appending and so hold room for
        # up to 1/16 more rows than they end with (240 kB at 80 000 rows)
        def working_set(n):
            rng = np.random.default_rng(n)
            start = datetime(2024, 3, 4)
            rows = [f"{(start + timedelta(minutes=int(m))).isoformat(sep)},"
                    f"{c[0]:.6f},{c[1]:.6f},{c[2]:.6f},{c[3]:.6f},{d:.3f}"
                    for m, c, d in zip(rng.integers(0, 7 * 1440, n),
                                       rng.uniform(0.0, 1.0, (n, 4)),
                                       rng.uniform(0.0, 30.0, n))]
            path = write_csv(tmp_path, rows)
            assert path.stat().st_size >= 4 * ingest._BLOCK_CHARS
            tracemalloc.start()
            try:
                parsed = parse_trips(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(parsed.records) == n
            return peak - 48 * n

        assert abs(working_set(80_000) - working_set(20_000)) <= 512 * 1024


class TestBinningSpec:
    def test_grid_or_zones_exactly_one(self):
        with pytest.raises(ValueError, match="exactly one"):
            BinningSpec()
        with pytest.raises(ValueError, match="exactly one"):
            BinningSpec(bbox=(0, 0, 1, 1), rows=2, cols=2, zones=(Zone("a", 0, 0),))

    def test_slot_length_must_divide_a_day(self):
        with pytest.raises(ValueError, match="divide"):
            BinningSpec(bbox=(0, 0, 1, 1), rows=1, cols=1, slot_minutes=7)

    @pytest.mark.parametrize("slot_minutes", [-15, 0])
    def test_slot_length_must_be_positive(self, slot_minutes):
        # 1440 % -15 == 0, and 1440 % 0 divides by zero
        with pytest.raises(ValueError, match="positive"):
            BinningSpec(bbox=(0, 0, 1, 1), rows=1, cols=1, slot_minutes=slot_minutes)

    @pytest.mark.parametrize("bbox", [(0, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1), (0, 0, math.inf, 1)])
    def test_degenerate_bbox_rejected(self, bbox):
        with pytest.raises(ValueError, match="bbox"):
            BinningSpec(bbox=bbox, rows=1, cols=1)

    def test_zone_list_must_be_nonempty_and_finite(self):
        with pytest.raises(ValueError, match="empty"):
            BinningSpec(zones=())
        with pytest.raises(ValueError, match="finite"):
            BinningSpec(zones=(Zone("a", math.nan, 0.0),))

    def test_grid_cell_lookup(self):
        assert GRID.n_zones == 4
        lon = [0.25, 0.75, 0.25, 1.0, 1.5]
        lat = [0.25, 0.25, 0.75, 1.0, 0.5]
        # r0c0, r0c1, r1c0, the far corner snapping inward, outside (-1)
        assert GRID.zones_of(lon, lat).tolist() == [0, 1, 2, 3, -1]

    def test_zone_list_snaps_to_nearest(self):
        spec = BinningSpec(
            zones=(Zone("a", 0.0, 0.0), Zone("b", 1.0, 1.0)), n_slots=4
        )
        assert spec.zones_of([0.1, 0.9], [0.1, 0.8]).tolist() == [0, 1]

    def test_zone_list_tie_goes_to_first_listed(self):
        spec = BinningSpec(
            zones=(Zone("a", 0.0, 0.5), Zone("b", 1.0, 0.5), Zone("c", 0.0, 0.5)), n_slots=4
        )
        assert spec.zones_of([0.5, 0.0], [0.5, 0.5]).tolist() == [0, 0]

    def test_zone_list_tie_on_rounded_distance_goes_to_first_listed(self):
        # the zone points are one float apart, so their haversine ``a`` terms
        # differ, yet both round to the same distance: nearer by ``a`` is not
        # nearer by distance, and the first listed wins either way round
        far_a, near_a = Zone("far_a", 0.75, 0.5400000000000001), Zone("near_a", 0.75, 0.54)
        assert far_a.lat != near_a.lat
        assert oracle_haversine(0.5, 0.5, far_a.lon, far_a.lat) == oracle_haversine(
            0.5, 0.5, near_a.lon, near_a.lat)
        for zones in ((far_a, near_a), (near_a, far_a)):
            spec = BinningSpec(zones=zones, n_slots=4)
            assert spec.zones_of([0.5], [0.5]).tolist() == [0]

    def test_slot_is_weekday_anchored(self, tmp_path):
        # 2024-03-04 is a Monday; 00:00-00:14 is slot 0
        stamps = ["2024-03-04T00:00", "2024-03-04T00:15", "2024-03-05T00:00", "2024-03-11T00:00"]
        path = write_csv(tmp_path, [f"{ts},0.5,0.5,0.5,0.5," for ts in stamps])
        slots = GRID.slots_of(parse_trips(path).records.minute)
        # Tuesday is slot 96; the following Monday folds back onto slot 0
        assert slots.tolist() == [0, 1, 96, 0]

    def test_grid_centroids_are_cell_centers(self):
        zones = GRID.zone_registry()
        assert zones[0].label == "r0c0"
        assert (zones[0].lon, zones[0].lat) == (0.25, 0.25)
        assert (zones[3].lon, zones[3].lat) == (0.75, 0.75)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(10.0, 50.0, 10.0, 50.0) == 0.0

    def test_one_degree_latitude(self):
        # a degree of latitude is about 111.2 km everywhere
        d = haversine_km(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111.195, abs=0.01)

    def test_symmetry(self):
        a = haversine_km(0.3, 0.2, 0.9, 0.7)
        b = haversine_km(0.9, 0.7, 0.3, 0.2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_broadcasts_like_the_scalar_formula(self):
        lon = np.array([0.1, 13.4, -70.0])
        lat = np.array([0.2, 52.5, -33.4])
        d = haversine_km(lon[:, None], lat[:, None], lon[None, :], lat[None, :])
        points = list(zip(lon, lat))
        expected = [[oracle_haversine(*p, *q) for q in points] for p in points]
        np.testing.assert_allclose(d, expected, rtol=1e-15, atol=0.0)


def trip(ts, dest, origin=(0.25, 0.25), dist=None):
    """One CSV row for a trip starting at datetime ``ts``."""
    km = "" if dist is None else repr(dist)
    return f"{ts.isoformat()},{origin[0]!r},{origin[1]!r},{dest[0]!r},{dest[1]!r},{km}"


def table(rows) -> TripTable:
    """Parse CSV rows (see :func:`trip`) into a TripTable; none may be malformed."""
    with tempfile.TemporaryDirectory() as tmp:
        parsed = parse_trips(write_csv(Path(tmp), rows))
    assert parsed.skipped == 0
    return parsed.records


class TestBuildFlows:
    def test_counts_destinations(self):
        mon8 = datetime(2024, 3, 4, 8, 0)
        records = table([
            trip(mon8, (0.75, 0.25)),
            trip(mon8, (0.75, 0.25)),
            trip(mon8, (0.25, 0.75)),
        ])
        result = build_flows(records, GRID)
        slot = 8 * 4  # Monday 08:00, 15-minute slots
        assert result.flow[slot, 1] == 2.0
        assert result.flow[slot, 2] == 1.0
        assert result.flow.sum() == 3.0
        assert result.dropped == 0

    def test_out_of_bbox_destinations_dropped(self):
        records = table([trip(datetime(2024, 3, 4, 8, 0), (2.0, 2.0))])
        result = build_flows(records, GRID)
        assert result.flow.sum() == 0.0
        assert result.dropped == 1

    def test_total_conserved(self):
        rng = np.random.default_rng(0)
        records = table([
            trip(
                datetime(2024, 3, 4) + timedelta(minutes=int(rng.integers(0, 7 * 1440))),
                (float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
            )
            for _ in range(200)
        ])
        result = build_flows(records, GRID)
        assert result.flow.sum() + result.dropped == 200

    @given(shift=st.integers(0, 671))
    @settings(max_examples=20, deadline=None)
    def test_shift_equivariance(self, shift):
        # delaying every trip by k slots rotates the flow matrix by k rows
        base_ts = datetime(2024, 3, 4, 0, 0)
        starts = [(base_ts + timedelta(minutes=37), (0.75, 0.25)),
                  (base_ts + timedelta(minutes=1200), (0.25, 0.75))]
        records = table([trip(ts, dest) for ts, dest in starts])
        shifted = table([trip(ts + timedelta(minutes=15 * shift), dest) for ts, dest in starts])
        f0 = build_flows(records, GRID).flow
        f1 = build_flows(shifted, GRID).flow
        np.testing.assert_array_equal(np.roll(f0, shift, axis=0), f1)


def distances_on_grid(records):
    return build_distances(records, GRID, GRID.zones_of(records.dest_lon, records.dest_lat))


class TestBuildDistances:
    def test_mean_of_observed_distances(self):
        mon = datetime(2024, 3, 4, 8, 0)
        records = table([
            trip(mon, (0.75, 0.25), origin=(0.25, 0.25), dist=2.0),
            trip(mon, (0.75, 0.25), origin=(0.25, 0.25), dist=4.0),
        ])
        result = distances_on_grid(records)
        assert result.distance[0, 1] == pytest.approx(3.0)
        assert result.counts[0, 1] == 2
        assert not result.imputed[0, 1]

    def test_haversine_fallback_per_record(self):
        mon = datetime(2024, 3, 4, 8, 0)
        records = table([trip(mon, (0.75, 0.25), origin=(0.25, 0.25))])
        result = distances_on_grid(records)
        expected = haversine_km(0.25, 0.25, 0.75, 0.25)
        assert result.distance[0, 1] == pytest.approx(expected)

    def test_unobserved_pairs_imputed_from_centroids(self):
        result = distances_on_grid(table([]))
        zones = GRID.zone_registry()
        expected = haversine_km(zones[0].lon, zones[0].lat, zones[3].lon, zones[3].lat)
        assert result.distance[0, 3] == pytest.approx(expected)
        assert result.imputed[0, 3]
        assert not result.imputed[0, 0]  # diagonal never flagged

    def test_diagonal_forced_to_zero(self):
        mon = datetime(2024, 3, 4, 8, 0)
        # a trip within one zone would otherwise leave a nonzero diagonal
        records = table([trip(mon, (0.3, 0.3), origin=(0.2, 0.2), dist=5.0)])
        result = distances_on_grid(records)
        assert result.distance[0, 0] == 0.0

    def test_no_symmetry_imposed(self):
        mon = datetime(2024, 3, 4, 8, 0)
        records = table([
            trip(mon, (0.75, 0.25), origin=(0.25, 0.25), dist=2.0),
            trip(mon, (0.25, 0.25), origin=(0.75, 0.25), dist=6.0),
        ])
        result = distances_on_grid(records)
        assert result.distance[0, 1] == pytest.approx(2.0)
        assert result.distance[1, 0] == pytest.approx(6.0)


# ------------------------------------------------- columnar vs. row-by-row

UNIT_BOX = (0.0, 0.0, 1.0, 1.0)
CITY_BOX = (13.30, 52.45, 13.50, 52.55)
LATTICE = [0.0, 0.25, 0.5, 0.75, 1.0]  # quarter points of the unit box


@st.composite
def binning_specs(draw):
    timing = dict(
        slot_minutes=draw(st.sampled_from([1, 15, 60, 1440])),
        n_slots=draw(st.sampled_from([1, 7, 96, 672])),
    )
    if draw(st.booleans()):
        bbox = draw(st.sampled_from([UNIT_BOX, CITY_BOX]))
        return BinningSpec(bbox=bbox, rows=draw(st.integers(1, 5)),
                           cols=draw(st.integers(1, 5)), **timing)
    # zone points on the lattice, so duplicated and mirrored points make
    # exact ties for lattice trips
    points = draw(st.lists(st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE)),
                           min_size=1, max_size=5))
    zones = tuple(Zone(f"z{k}", lon, lat) for k, (lon, lat) in enumerate(points))
    return BinningSpec(zones=zones, **timing)


@functools.lru_cache(maxsize=None)
def coordinate(lo, hi, cuts):
    """A coordinate field: cell boundaries, box edges and their float
    neighbours, lattice points, points in and around the box, or text that
    is not a finite number."""
    span = hi - lo
    edges = [lo + k * span / cuts for k in range(cuts + 1)] + [lo, hi]
    edges += [math.nextafter(v, d) for v in (lo, hi) for d in (-math.inf, math.inf)]
    number = st.one_of(
        st.sampled_from(edges + LATTICE),
        st.floats(lo - 0.2 * span, hi + 0.2 * span),
    ).map(repr)
    bad = st.sampled_from(["nan", "inf", "-inf", "1e999", "zzz", ""])
    return st.one_of(number, number, number, bad)


@st.composite
def stamp_fields(draw):
    """A start_time field: ISO 8601 over three decades, naive or with a UTC
    offset, in three layouts, or text that is not a timestamp."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(
            ["not-a-date", "2024-02-30T25:00:00", "2024-13-01", "", "2024-03-04T08"]
        ))
    ts = datetime(2000, 1, 1) + timedelta(seconds=draw(st.integers(0, 31 * 365 * 86400)))
    if draw(st.booleans()):
        ts = ts.replace(tzinfo=timezone(timedelta(minutes=draw(st.integers(-1439, 1439)))))
    layout = draw(st.sampled_from(["T", " ", "minutes"]))
    return ts.isoformat(timespec="minutes") if layout == "minutes" else ts.isoformat(sep=layout)


STAMPS = stamp_fields()


DISTANCES = st.one_of(
    st.floats(0.0, 50.0).map(repr),
    st.sampled_from(["", "", "0", "-0.0", "nan", "inf", "-inf", "-1.5", "abc"]),
)


@st.composite
def trips_files(draw, spec):
    """CSV text with shuffled, optional, extra and duplicated columns."""
    names = list(REQUIRED_COLUMNS)
    if draw(st.booleans()):
        names.append("distance_km")
    if draw(st.booleans()):
        names.append("note")
    names = draw(st.permutations(names))
    if draw(st.booleans()):
        names.append(draw(st.sampled_from(names)))  # a duplicated name: the last wins
    lo_lon, lo_lat, hi_lon, hi_lat = spec.bbox or UNIT_BOX
    fields = {
        "start_time": STAMPS,
        "origin_lng": coordinate(lo_lon, hi_lon, spec.cols or 4),
        "origin_lat": coordinate(lo_lat, hi_lat, spec.rows or 4),
        "dest_lng": coordinate(lo_lon, hi_lon, spec.cols or 4),
        "dest_lat": coordinate(lo_lat, hi_lat, spec.rows or 4),
        "distance_km": DISTANCES,
        "note": st.just("x"),
    }
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 24))):
        shape = draw(st.sampled_from(["full"] * 6 + ["blank", "short", "long"]))
        if shape == "blank":
            lines.append("")
            continue
        row = [draw(fields[name]) for name in names]
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row.append(draw(DISTANCES))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@st.composite
def ingest_cases(draw):
    spec = draw(binning_specs())
    return spec, draw(trips_files(spec))


class TestColumnarMatchesRowByRow:
    @given(case=ingest_cases())
    @settings(max_examples=100, deadline=None)
    def test_same_flows_counts_and_distances(self, case):
        spec, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trips.csv"
            path.write_text(text)
            parsed = parse_trips(path)
            records, skipped = oracle_parse(path)
        trips = parsed.records
        assert (len(trips), parsed.skipped) == (len(records), skipped)

        # the columns hold the records, a missing distance as NaN
        np.testing.assert_array_equal(trips.origin_lon, [r.origin[0] for r in records])
        np.testing.assert_array_equal(trips.dest_lat, [r.destination[1] for r in records])
        np.testing.assert_array_equal(
            trips.distance_km,
            [math.nan if r.distance_km is None else r.distance_km for r in records],
        )
        assert spec.slots_of(trips.minute).tolist() == [
            oracle_slot_of(spec, r.start_time) for r in records
        ]
        assert spec.zones_of(trips.dest_lon, trips.dest_lat).tolist() == [
            -1 if z is None else z for z in (oracle_zone_of(spec, *r.destination) for r in records)
        ]

        flows = build_flows(trips, spec)
        flow, dropped = oracle_flows(records, spec)
        np.testing.assert_array_equal(flows.flow, flow)
        assert flows.dropped == dropped

        got = build_distances(trips, spec, flows.dest_zone)
        distance, counts, imputed = oracle_distances(records, spec)
        np.testing.assert_array_equal(got.counts, counts)
        np.testing.assert_array_equal(got.imputed, imputed)
        np.testing.assert_allclose(got.distance, distance, rtol=1e-12, atol=0.0)


# ------------------------------------------- block reader vs. row checks
#
# parse_trips parses canonical lines with array code over blocks of the file
# and hands every other line to the per-row checks.  The DictReader oracle
# reads everything row by row, so on any file the two must give the same
# columns, bit for bit, and the same skip count.

@st.composite
def decimals(draw, min_digits, max_digits):
    """``-?D+(.D*)?`` with ``min_digits`` to ``max_digits`` digits."""
    digits = draw(st.text("0123456789", min_size=min_digits, max_size=max_digits))
    cut = draw(st.integers(1, len(digits)))
    point = "." if cut < len(digits) or draw(st.booleans()) else ""
    return draw(st.sampled_from(["", "-"])) + digits[:cut] + point + digits[cut:]


#: fields the block reader parses, by kind
CANONICAL_FIELDS = {
    "number": st.one_of(st.floats(-180.0, 180.0).map(lambda x: f"{x:.6f}"), decimals(1, 15)),
    "stamp": st.datetimes(min_value=datetime(1, 1, 1),
                          max_value=datetime(9999, 12, 31, 23, 59, 59))
    .map(lambda ts: ts.replace(microsecond=0).isoformat()),
    "note": st.sampled_from(["x", ""]),
}

#: fields it leaves to the row checks, some of which those accept
ODD_FIELDS = {
    "number": st.one_of(decimals(16, 17), st.sampled_from([
        " 1.5", "1.5 ", "1e3", "1E-2", "1_0", "+1", ".5", "-.5", "nan", "inf", "-inf", "",
        "-", ".", "1.2.3", "--1", "1-2", "\u0663", "\uff11.5", "1\u00b2", "5\u00e9",
        # 16 digits, where mantissa / 10**k rounds twice and misses float()
        "96.48064786969077", "-91128735.31840813",
    ])),
    "stamp": st.one_of(
        # the canonical layout, mostly not on the calendar
        st.tuples(*(st.integers(0, hi) for hi in (9999, 19, 39, 29, 69, 69)))
        .map(lambda t: "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(*t)),
        st.sampled_from([
            "2024-02-29T00:00:00", "2023-02-29T00:00:00", "2000-02-29T12:00:00",
            "1900-02-29T12:00:00", "2024-03-04T24:00:00", "2024-03-04 08:10:00",
            "2024-03-04T08:10", "2024-03-04T08:10:00.5", "2024-03-04T08:10:00+01:00",
            "0000-01-01T00:00:00", "2024-04-31T00:00:00", "2024-03-04t08:10:00",
            "2024-03-04?08:10:00", "2024-03-04x08:10:00+01:00",
            "\uff12024-03-04T08:10:00", "",
        ]),
    ),
    # a lone CR ends a CSV row even inside a column nobody reads
    "note": st.sampled_from(["\u00e9", "x\ry"]),
}


@st.composite
def mixed_trips_files(draw):
    """CSV text of canonical rows, some with one odd field, mixed with
    blank, short, long and quoted rows, under any line ending."""
    names = list(REQUIRED_COLUMNS) + ["distance_km"] * draw(st.booleans())
    names = draw(st.permutations(names + ["note"] * draw(st.booleans())))
    kinds = [{"start_time": "stamp", "note": "note"}.get(name, "number") for name in names]
    text = ",".join(names)
    for _ in range(draw(st.integers(0, 30))):
        text += draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
        shape = draw(st.sampled_from(["full"] * 4 + ["odd"] * 4
                                     + ["blank", "short", "long", "quoted"]))
        if shape == "blank":
            continue
        row = [draw(CANONICAL_FIELDS[kind]) for kind in kinds]
        k = draw(st.integers(0, len(row) - 1))
        if shape == "odd":
            row[k] = draw(ODD_FIELDS[kinds[k]])
        elif shape == "short":
            row = row[:max(k, 1)]
        elif shape == "long":
            row.append(draw(CANONICAL_FIELDS["number"]))
        elif shape == "quoted":
            row[k] = '"' + row[k] + draw(st.sampled_from(["", "\n", ",", "\r\n", "\r"])) + '"'
        text += ",".join(row)
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


#: rows ended by a CR and then a CRLF, two line ends, and by a lone CR at the
#: end of the file; a block of 38 characters, read after the header, ends at
#: the first CR
CR_ENDS = (HEADER + "\n2024-03-04T08:10:00,0.1,0.2,0.3,0.4,1\r\r\n"
           "2024-03-04 08:10:00,0.5,0.2,0.3,0.4,\r2024-03-05T09:00:00,0.25,0.5,0.75,1.0,2.5\r")


class TestBlockReaderMatchesRowChecks:
    @given(text=mixed_trips_files(), block=st.one_of(st.integers(1, 64), st.integers(64, 4096)))
    @example(text=CR_ENDS, block=1)
    @example(text=CR_ENDS, block=38)
    @settings(max_examples=100, deadline=None)
    def test_same_columns_bit_for_bit(self, text, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trips.csv"
            path.write_text(text, newline="")
            # small blocks, so lines and line ends straddle block
            # boundaries, and blocks of many lines, so records of both
            # kinds share a block
            with mock.patch.object(ingest, "_BLOCK_CHARS", block):
                parsed = parse_trips(path)
            self.assert_oracle_columns(parsed, path)

    @staticmethod
    def assert_oracle_columns(parsed, path):
        """``parsed`` holds the records and skip count of the row-by-row
        oracle's parse of ``path``, bit for bit."""
        records, skipped = oracle_parse(path)
        assert parsed.skipped == skipped
        expected = {
            "minute": [oracle_minute_of_week(r.start_time) for r in records],
            "origin_lon": [r.origin[0] for r in records],
            "origin_lat": [r.origin[1] for r in records],
            "dest_lon": [r.destination[0] for r in records],
            "dest_lat": [r.destination[1] for r in records],
            "distance_km": [math.nan if r.distance_km is None else r.distance_km
                            for r in records],
        }
        for name, values in expected.items():
            column = getattr(parsed.records, name)
            assert column.tobytes() == np.array(values, dtype=column.dtype).tobytes(), name

    @staticmethod
    def spied_parse(path, chars=256):
        """Parse ``path`` in blocks of ``chars`` characters; the parse, the
        line count of each block the array code reads, and the spy on the
        ``csv`` route."""
        array_code, counts = ingest._TripReader._block, []

        def block(*args):
            counts.append(array_code(*args))
            return counts[-1]

        with mock.patch.object(ingest, "_BLOCK_CHARS", chars), \
                mock.patch.object(ingest._TripReader, "_block", autospec=True,
                                  side_effect=block), \
                mock.patch.object(ingest._TripReader, "_rows", autospec=True,
                                  side_effect=ingest._TripReader._rows) as rows:
            return parse_trips(path), counts, rows

    @staticmethod
    def canonical_lines(n):
        start = datetime(2024, 3, 4)
        return [f"{(start + timedelta(minutes=7 * k)).isoformat()},0.{k:04d},0.2,0.3,0.4,{k % 5}"
                for k in range(n)]

    def test_array_code_reads_every_block_of_a_crlf_file(self, tmp_path):
        path = tmp_path / "trips.csv"
        body = "".join(line + "\r\n" for line in self.canonical_lines(2000))
        path.write_text(HEADER + "\r\n" + body, newline="")
        parsed, block_lines, rows = self.spied_parse(path)
        # every CR starts a CRLF, so the array code reads every line
        assert rows.call_count == 0
        assert len(block_lines) > 1 and sum(block_lines) == 2000
        self.assert_oracle_columns(parsed, path)

    def test_array_code_reads_a_lone_cr_file(self, tmp_path):
        path = tmp_path / "trips.csv"
        body = "".join(line + "\r" for line in self.canonical_lines(2000))
        path.write_text(HEADER + "\r" + body, newline="")
        parsed, block_lines, rows = self.spied_parse(path)
        # a lone CR ends a line as a LF does, so the array code reads every line
        assert rows.call_count == 0
        assert len(block_lines) > 1 and sum(block_lines) == 2000
        assert len(parsed.records) == 2000
        self.assert_oracle_columns(parsed, path)

    def test_a_quote_hands_the_rest_to_csv(self, tmp_path):
        # a quoted field may span lines, so csv reads the file from the
        # block that holds the first quote to its end
        path = tmp_path / "trips.csv"
        lines = self.canonical_lines(2000)
        lines[1000] = lines[1000].replace(",0.2,", ',"0.2",')
        body = "".join(line + "\n" for line in lines)
        path.write_text(HEADER + "\n" + body, newline="")
        parsed, block_lines, rows = self.spied_parse(path)
        # the array code reads the blocks before the one holding the quote:
        # each is 256 characters and the rest of the line the 256th is on
        start = 0
        while (end := body.index("\n", start + 256) + 1) <= body.index('"'):
            start = end
        assert len(block_lines) >= 3 and sum(block_lines) == body[:start].count("\n")
        assert rows.call_count == 1
        assert len(parsed.records) == 2000
        self.assert_oracle_columns(parsed, path)

    def test_default_blocks_with_scattered_odd_lines(self, tmp_path):
        # blocks of the real size, each merging thousands of canonical
        # lines with the few odd ones: about 1% of the lines carry a defect
        # or a character beyond ASCII, and off-grid points are scattered too
        rng = np.random.default_rng(5)
        n = 24_000
        start = datetime(2024, 3, 4)
        rows = []
        for k in range(n):
            lon, lat = rng.uniform(13.3, 13.5, 2), rng.uniform(52.45, 52.55, 2)
            if k % 53 == 0:  # off the grid: east of it, or west of the meridian
                lon[1] = rng.choice([13.55, -0.05])
            row = [(start + timedelta(seconds=int(rng.integers(28 * 86400)))).isoformat(),
                   f"{lon[0]:.6f}", f"{lat[0]:.6f}", f"{lon[1]:.6f}", f"{lat[1]:.6f}",
                   f"{rng.uniform(0, 30):.3f}" if k % 2 else ""]
            if k % 97 == 13:  # the benchmark's defects, and two beyond ASCII
                field, value = [(0, "2024-02-30T25:00:00"), (3, "n/a"), (2, "nan"),
                                (1, "\u0663.5"), (4, "5\u00e9")][k % 5]
                row[field] = value
            rows.append(",".join(row))
        path = write_csv(tmp_path, rows)
        assert path.stat().st_size >= 4 * ingest._BLOCK_CHARS
        parsed, block_lines, csv_rest = self.spied_parse(path, ingest._BLOCK_CHARS)
        # every block is read by the array code, none by csv alone
        assert len(block_lines) >= 4 and sum(block_lines) == n and csv_rest.call_count == 0
        assert parsed.skipped > 0
        self.assert_oracle_columns(parsed, path)

    def test_odd_last_line_without_a_line_feed(self, tmp_path):
        # the row checks read an odd last line up to the end of the file,
        # not into the padding after its block: a trailing space would make
        # its start time malformed
        path = tmp_path / "trips.csv"
        path.write_text("origin_lng,origin_lat,dest_lng,dest_lat,start_time\n"
                        "0.5,0.1,0.2,0.3,2024-03-04T08:10:00\n"
                        "1e3,0.1,0.2,0.3,2024-03-04T08:10:00")
        parsed = parse_trips(path)
        assert (len(parsed.records), parsed.skipped) == (2, 0)
        self.assert_oracle_columns(parsed, path)

    def test_array_code_reads_the_blocks_after_odd_lines(self, tmp_path):
        # 100 lines with space-separated start times, which the array code
        # leaves to the row checks, then 2000 canonical lines
        start = datetime(2024, 3, 4)
        rows = [f"{(start + timedelta(minutes=7 * k)).isoformat(' ' if k < 100 else 'T')},"
                f"0.{k:04d},0.2,0.3,0.4,{k % 5}" for k in range(2100)]
        path = write_csv(tmp_path, rows)
        parsed, block_lines, csv_rest = self.spied_parse(path)
        # each block is routed by its own lines: the odd ones first do not
        # send the canonical ones after them to csv
        assert len(block_lines) > 1 and sum(block_lines) == len(rows)
        assert csv_rest.call_count == 0
        assert (len(parsed.records), parsed.skipped) == (2100, 0)
        self.assert_oracle_columns(parsed, path)

    def test_line_numbers_across_block_splits(self, tmp_path):
        # every kind of line end, a CR of a CR-CRLF pair among them, before
        # a field over the size limit on line 9; wherever the blocks split
        # the file, the error names the line csv.reader names
        row = "2024-03-04T08:10:00,0.1,0.2,0.3,0.4,1"
        text = (HEADER + "\r" + row + "\r\r\n" + row + "\r\n" + row + "\n\r\r\n"
                + row + "\r" + row[:-1] + "1" * 40 + "\n" + row + "\n")
        path = tmp_path / "trips.csv"
        path.write_text(text, newline="")
        limit = csv.field_size_limit(32)
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                with pytest.raises(csv.Error, match="field larger than field limit"):
                    for _ in reader:
                        pass
                assert reader.line_num == 9
            for chars in range(1, 90):
                with mock.patch.object(ingest, "_BLOCK_CHARS", chars), \
                        pytest.raises(ValueError, match="trips file line 9: field larger"):
                    parse_trips(path)
        finally:
            csv.field_size_limit(limit)


class TestAssembleInstance:
    def _small(self):
        flow = np.zeros((8, 3))
        flow[2, 0] = 5.0
        flow[5, 1] = 3.0
        flow[1, 2] = 10.0  # busiest zone -> center
        distance = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]
        )
        return flow, distance

    def test_center_is_busiest_zone(self):
        flow, distance = self._small()
        params = GenParams(n_locations=3, n_slots=8, seed=0)
        inst = assemble_instance(flow, distance, params)
        expected = 500.0 * np.exp(-0.3 * distance[2, :])
        np.testing.assert_allclose(inst.location_cost, expected, rtol=1e-12)

    def test_costs_and_delays_follow_generator_rules(self):
        flow, distance = self._small()
        params = GenParams(n_locations=3, n_slots=8, seed=0, range_km=1.6)
        inst = assemble_instance(flow, distance, params)
        assert inst.assign_cost[0, 1] == pytest.approx(0.2)
        assert np.isinf(inst.assign_cost[0, 2])  # 2.0 km >= 1.6 km limit
        assert inst.beta == 250.0
        assert inst.n_slots == 8

    def test_alpha_is_seeded(self):
        flow, distance = self._small()
        params = GenParams(n_locations=3, n_slots=8, seed=11)
        a = assemble_instance(flow, distance, params)
        b = assemble_instance(flow, distance, params)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        c = assemble_instance(
            flow, distance, GenParams(n_locations=3, n_slots=8, seed=12)
        )
        assert not np.array_equal(a.alpha, c.alpha)

    def test_shape_mismatch_rejected(self):
        flow, _ = self._small()
        with pytest.raises(ValueError, match="inconsistent"):
            assemble_instance(flow, np.zeros((2, 2)), GenParams())
