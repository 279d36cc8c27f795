"""Reporting: GeoJSON structure, CSV tables, and integer rounding."""

import csv
import json

import numpy as np
import pytest

from chargeplan.central import solve_base_model, solve_centralized
from chargeplan.datagen import GenParams, generate_instance
from chargeplan.model import InvestmentPlan, assess
from chargeplan.report import (
    aggregate_flows,
    round_assignments,
    solution_geojson,
    write_csv_tables,
)

from conftest import make_instance, plan_of


@pytest.fixture
def pooled():
    """Two-location instance with a hand-built plan shipping 5 each way.

    Built by hand rather than solved: the 11-cost optimum is a degenerate
    face, so a solver may legitimately return any point on it, while these
    tests need fixed numbers.
    """
    inst = make_instance(
        [[10.0, 0.0], [0.0, 10.0]],
        beta=1.0,
        base_cost=1.0,
        assign_cost=[[0.0, 0.1], [0.1, 0.0]],
        coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]),
    )
    z = np.zeros((2, 2, 2))
    z[0, 0, 1] = 5.0
    z[1, 1, 0] = 5.0
    inv = InvestmentPlan([5.0, 5.0])
    asg = plan_of(inst, z)
    sol = assess(inst, inv, asg, 1e-6, {"method": "manual"})
    return inst, sol


class TestAggregateFlows:
    def test_full_horizon_default(self, pooled):
        inst, sol = pooled
        flows = aggregate_flows(sol)
        np.testing.assert_allclose(flows, sol.assignment.z.sum(axis=0))

    def test_half_open_window(self, pooled):
        inst, sol = pooled
        first = aggregate_flows(sol, (0, 1))
        np.testing.assert_allclose(first, sol.assignment.z[0])
        # [0, 1) + [1, 2) tiles the horizon
        second = aggregate_flows(sol, (1, 2))
        np.testing.assert_allclose(first + second, aggregate_flows(sol))

    def test_invalid_window_rejected(self, pooled):
        _, sol = pooled
        with pytest.raises(ValueError, match="window"):
            aggregate_flows(sol, (1, 1))
        with pytest.raises(ValueError, match="window"):
            aggregate_flows(sol, (0, 99))


class TestGeojson:
    def test_rfc7946_skeleton(self, pooled):
        inst, sol = pooled
        doc = solution_geojson(inst, sol)
        assert doc["type"] == "FeatureCollection"
        for feature in doc["features"]:
            assert feature["type"] == "Feature"
            assert feature["geometry"]["type"] in ("Point", "LineString")
            assert "properties" in feature

    def test_point_per_location_and_line_per_flow(self, pooled):
        inst, sol = pooled
        doc = solution_geojson(inst, sol)
        points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
        lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
        assert len(points) == 2
        # optimum ships 5 vehicles each way -> two line features
        assert len(lines) == 2
        by_pair = {(l["properties"]["from"], l["properties"]["to"]): l for l in lines}
        assert by_pair[(0, 1)]["properties"]["vehicles"] == pytest.approx(5.0, abs=1e-6)
        assert by_pair[(1, 0)]["properties"]["vehicles"] == pytest.approx(5.0, abs=1e-6)

    def test_point_properties(self, pooled):
        inst, sol = pooled
        doc = solution_geojson(inst, sol)
        point = doc["features"][0]
        props = point["properties"]
        assert props["capacity_kw"] == pytest.approx(5.0, abs=1e-6)
        assert props["location_cost"] == 0.0
        # equal shipments both ways cancel in the net
        assert props["net_assignments"] == pytest.approx(0.0, abs=1e-6)
        assert point["geometry"]["coordinates"] == [0.0, 0.0]

    def test_zero_solution_has_no_lines(self):
        inst = make_instance(
            [[2.0, 1.0]], coordinates=np.array([[0.0, 0.0], [1.0, 0.0]])
        )
        sol = solve_base_model(inst)
        doc = solution_geojson(inst, sol)
        types = [f["geometry"]["type"] for f in doc["features"]]
        assert types == ["Point", "Point"]

    def test_requires_coordinates(self):
        inst = make_instance([[1.0]])
        sol = solve_base_model(inst)
        with pytest.raises(ValueError, match="coordinates"):
            solution_geojson(inst, sol)

    def test_mismatched_solution_rejected(self, pooled):
        inst, _ = pooled
        other = generate_instance(GenParams(n_locations=5, n_slots=4, seed=0))
        sol5 = solve_base_model(other)
        with pytest.raises(ValueError, match="match"):
            solution_geojson(inst, sol5)

    def test_document_is_strict_json(self, pooled):
        inst, sol = pooled
        doc = json.loads(json.dumps(solution_geojson(inst, sol), allow_nan=False))
        assert doc["type"] == "FeatureCollection"


class TestCsvTables:
    def test_tables_written_and_parse(self, tmp_path, pooled):
        inst, sol = pooled
        loc_path, flow_path = write_csv_tables(inst, sol, tmp_path)
        with open(loc_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["capacity_kw"]) == pytest.approx(5.0, abs=1e-6)
        assert rows[0]["x"] == "0" and rows[0]["y"] == "0"
        with open(flow_path) as fh:
            flow_rows = list(csv.DictReader(fh))
        assert {(r["from"], r["to"]) for r in flow_rows} == {("0", "1"), ("1", "0")}

    def test_coordinates_columns_optional(self, tmp_path):
        inst = make_instance([[1.0]])
        sol = solve_base_model(inst)
        loc_path, _ = write_csv_tables(inst, sol, tmp_path)
        with open(loc_path) as fh:
            header = fh.readline().strip().split(",")
        assert "x" not in header


class TestRounding:
    def test_integers_pass_through(self, pooled):
        inst, sol = pooled
        rounded = round_assignments(inst, sol)
        np.testing.assert_array_equal(rounded.assignment.z, np.rint(sol.assignment.z))
        np.testing.assert_array_equal(
            rounded.investment.capacity, sol.investment.capacity
        )
        assert rounded.stats["rounded"] is True

    def test_fractional_solution_rechecked(self):
        # alpha = 0.5 makes the demand (and hence the optimal shipment of
        # 1.5 vehicles toward the cheap location) fractional
        inst = make_instance(
            [[3.0, 0.0]],
            alpha=[[0.5, 0.5]],
            beta=2.0,
            base_cost=0.0,
            location_cost=[3.0, 1.0],
            assign_cost=[[0.0, 0.1], [np.inf, 0.0]],
        )
        sol = solve_centralized(inst)
        assert np.any(np.abs(sol.assignment.z - np.rint(sol.assignment.z)) > 1e-6)
        rounded = round_assignments(inst, sol)
        # rounding moves at most half a vehicle per cell; with capacity kept
        # fixed the worst capacity residual is bounded by beta * 0.5 per cell
        res = rounded.feasibility.residuals["capacity_satisfaction"].violation
        n_cells = 2  # vehicles rounded per (slot, location) here
        assert res <= inst.beta * 0.5 * n_cells + 1e-9
        # the objective was re-evaluated, not copied
        assert rounded.cost.total != sol.cost.total
