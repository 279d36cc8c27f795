"""End-to-end CLI contract: commands, configs, exit codes, determinism."""

import ast
import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargeplan import central
from chargeplan import ingest as ingest_module
from chargeplan import io
from chargeplan.central import solve_centralized
from chargeplan.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from chargeplan.datagen import GenParams, generate_instance

from conftest import make_instance, own_peak_caps


def run(*argv):
    return main(["--quiet", *argv])


def refusal(capsys) -> str:
    """The stderr of a run refused with exit 2: one line, ``error: `` and the
    reason, with no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    return err


@pytest.fixture
def instance_file(tmp_path):
    """A small generated instance on disk."""
    out = tmp_path / "gen"
    code = run(
        "--config", str(write_config(tmp_path, {
            "generate": {"n_locations": 5, "n_slots": 24, "seed": 3,
                         "range_km": 6.0}
        })),
        "--out", str(out),
        "generate",
    )
    assert code == EXIT_OK
    return out / "instance.json"


def highs_fails():
    """Make every HiGHS solve stop short of optimality (iteration limit)."""
    return mock.patch.object(central.highspy._Highs, "getModelStatus",
                             return_value=central.highspy.HighsModelStatus.kIterationLimit)


#: every key the retired ``solver`` config section ever took, with a value
RETIRED_SOLVER_SECTION = {"backend": "highs", "max_iterations": 20000,
                          "optimality_tol": 1e-7, "feasibility_tol": 1e-7}


def fieldless_instance(tmp_path):
    """An instance file with the right version but none of the fields."""
    path = tmp_path / "fieldless.json"
    path.write_text(json.dumps({"version": "charge-plan-instance/1"}))
    return path


@contextlib.contextmanager
def opens_of(path):
    """Collect the modes ``path`` is opened in through ``pathlib`` meanwhile."""
    opens = []
    original = Path.open

    def spy(self, mode="r", *args, **kwargs):
        if self == path:
            opens.append(mode)
        return original(self, mode, *args, **kwargs)

    with mock.patch.object(Path, "open", spy):
        yield opens


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestGenerate:
    def test_writes_instance_and_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        code = run("--out", str(out), "--seed", "7", "generate")
        assert code == EXIT_OK
        assert (out / "instance.json").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["generate"]["seed"] == 7
        assert resolved["generate"]["beta_kw"] == 250.0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"generate": {"n_locations": 6, "n_slots": 48}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("--config", str(cfg), "--seed", "1", "--out", str(a), "generate") == EXIT_OK
        assert run("--config", str(cfg), "--seed", "1", "--out", str(b), "generate") == EXIT_OK
        assert (a / "instance.json").read_bytes() == (b / "instance.json").read_bytes()
        assert (a / "resolved_config.json").read_bytes() == (
            b / "resolved_config.json"
        ).read_bytes()

    def test_invalid_generate_params_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generate": {"n_locations": 0}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert "n_locations and n_slots must be positive" in refusal(capsys)

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generate": {"n_loctaions": 5}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert "unknown keys in config section 'generate': ['n_loctaions']" in refusal(capsys)

    def test_unknown_config_section_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generator": {}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert "unknown config sections: ['generator']" in refusal(capsys)

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("--config", str(path), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert "config file is not valid JSON" in refusal(capsys)

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert run("--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert "config file not found" in refusal(capsys)

    @pytest.mark.parametrize("value", [4.0, True, "4"])
    def test_non_integer_int_field_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"generate": {"n_locations": value}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert "n_locations must be an integer" in refusal(capsys)

    @pytest.mark.parametrize("key, value", [
        ("budget", "x"), ("range_km", True), ("beta_kw", None),
    ])
    def test_non_number_float_field_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"generate": {key: value}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG
        assert f"{key} must be a number" in refusal(capsys)

    @pytest.mark.parametrize("key", ["budget", "city_size_km", "flow_noise"])
    def test_nan_param_exit_2(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {"generate": {key: math.nan}})
        out = tmp_path / "x"
        assert run("--config", str(cfg), "--out", str(out), "generate") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key} must be a number" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_range_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generate": {"range_km": -1}})
        out = tmp_path / "x"
        assert run("--config", str(cfg), "--out", str(out), "generate") == EXIT_CONFIG
        assert "range_limit must be a number >= 0" in capsys.readouterr().err
        assert not out.exists()


    def test_degenerate_geometry_exit_2(self, tmp_path, capsys):
        # a city of size 0 puts every location on one point
        cfg = write_config(tmp_path, {"generate": {"n_locations": 3, "city_size_km": 0.0}})
        out = tmp_path / "x"
        assert run("--config", str(cfg), "--out", str(out), "generate") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "degenerate geometry: all locations coincide" in err and "Traceback" not in err
        assert not out.exists()

TRIPS_50 = Path(__file__).parent / "data" / "trips_50.csv"
GRID_2X2 = {"binning": {"bbox": [0, 0, 1, 1], "rows": 2, "cols": 2}}
THREE_ZONES = {"binning": {"zones": [
    {"label": "west", "lon": 0.2, "lat": 0.2},
    {"label": "east", "lon": 0.8, "lat": 0.2},
    {"label": "north", "lon": 0.5, "lat": 0.8},
]}}


def ingest(tmp_path, doc, trips=TRIPS_50, name="ingest"):
    """Run ``ingest`` with config ``doc``; returns (exit code, output dir)."""
    out = tmp_path / name
    cfg = write_config(tmp_path, doc, name=f"{name}.json")
    return run("--config", str(cfg), "--out", str(out), "ingest", str(trips)), out


class TestIngest:
    def test_grid_summary(self, tmp_path):
        code, out = ingest(tmp_path, GRID_2X2)
        assert code == EXIT_OK
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary == {"records_read": 50, "skipped": 3, "dropped": 4,
                           "retained": 43, "zones": 4, "imputed_pairs": 8}

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # a UTF-8 trips file that starts with a byte-order mark reads as the
        # same file without one
        trips = tmp_path / "bom.csv"
        trips.write_bytes(b"\xef\xbb\xbf" + TRIPS_50.read_bytes())
        code, plain = ingest(tmp_path, GRID_2X2)
        assert code == EXIT_OK
        code, bom = ingest(tmp_path, GRID_2X2, trips=trips, name="bom")
        assert code == EXIT_OK
        for name in ("instance.json", "ingest_summary.json"):
            assert (bom / name).read_bytes() == (plain / name).read_bytes()

    def test_zone_list_config_round_trips(self, tmp_path):
        code, out = ingest(tmp_path, THREE_ZONES)
        assert code == EXIT_OK
        summary = json.loads((out / "ingest_summary.json").read_text())
        # every well-formed record snaps to some zone, so none is dropped
        assert (summary["zones"], summary["skipped"], summary["dropped"]) == (3, 3, 0)
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["binning"]["zones"] == THREE_ZONES["binning"]["zones"]
        code, again = ingest(tmp_path, resolved, name="again")
        assert code == EXIT_OK
        for name in ("resolved_config.json", "instance.json", "ingest_summary.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_config_decodes_utf8_under_an_ascii_locale(self, tmp_path):
        doc = copy.deepcopy(THREE_ZONES)
        doc["binning"]["zones"][0]["label"] = "Chenghua \u6210\u534e"
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        code = "import sys; from chargeplan.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", code, "--quiet", "--config", str(cfg),
                               "--out", str(out), "ingest", str(TRIPS_50)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        resolved = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
        assert resolved["binning"]["zones"][0]["label"] == "Chenghua \u6210\u534e"

    @pytest.mark.parametrize("zones, message", [
        ([{"label": "a", "lon": 0.1}], "'lat'"),  # no lat
        ([{"label": "a", "lon": 0.1, "lat": 0.2, "height": 3}], "'height'"),  # unknown key
        ([{"label": "a", "lon": "east", "lat": 0.2}], "zones[0].lon must be a number, got 'east'"),
        (["a"], "mapping"),  # not an object
        ([], "zone list must not be empty"),
        (5, "zones must be a list, got 5"),
        ([{"label": "a", "lon": True, "lat": 0.2}], "zones[0].lon must be a number, got True"),
        ([{"label": "a", "lon": 0.1, "lat": 0.2}, {"label": "b", "lon": 0.5, "lat": "0.3"}],
         "zones[1].lat must be a number, got '0.3'"),
        ([{"label": 7, "lon": 0.1, "lat": 0.2}], "zones[0].label must be a string, got 7"),
    ], ids=["zones0", "zones1", "zones2", "zones3", "zones4", "5",
            "boolean-lon", "string-lat", "number-label"])
    def test_malformed_zone_list_exit_2(self, tmp_path, capsys, zones, message):
        code, out = ingest(tmp_path, {"binning": {"zones": zones}})
        assert code == EXIT_CONFIG
        err = refusal(capsys)
        assert "invalid config section 'binning'" in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("bbox, message", [
        ([0, 0, True, 1], "bbox[2] must be a number, got True"),
        ([0, "0", 1, 1], "bbox[1] must be a number, got '0'"),
        ([0, 0, 1, None], "bbox[3] must be a number, got None"),
        ([0, 0, 1], "bbox needs four finite numbers"),
        ("0,0,1,1", "bbox must be a list, got '0,0,1,1'"),
    ], ids=["boolean", "string", "null", "three-numbers", "not-a-list"])
    def test_malformed_bbox_exit_2(self, tmp_path, capsys, bbox, message):
        code, out = ingest(tmp_path, {"binning": dict(GRID_2X2["binning"], bbox=bbox)})
        assert code == EXIT_CONFIG
        err = refusal(capsys)
        assert "invalid config section 'binning'" in err
        assert message in err
        assert not out.exists()

    def test_zero_slot_minutes_exit_2(self, tmp_path, capsys):
        doc = {"binning": dict(GRID_2X2["binning"], slot_minutes=0)}
        code, out = ingest(tmp_path, doc)
        assert code == EXIT_CONFIG
        assert "invalid config section 'binning'" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_other_than_one_week_exit_2(self, tmp_path, capsys):
        # 672 hourly slots span four weeks, while travel delays assume one
        doc = {"binning": dict(GRID_2X2["binning"], slot_minutes=60)}
        code, out = ingest(tmp_path, doc)
        assert code == EXIT_CONFIG
        assert "do not span one week" in refusal(capsys)
        assert not out.exists()
        doc["binning"]["n_slots"] = 168
        code, _ = ingest(tmp_path, doc, name="hourly")
        assert code == EXIT_OK

    @pytest.mark.parametrize("key, value", [
        ("n_locations", 3), ("n_slots", 96), ("city_size_km", 1),
        ("flow_scale", 5), ("flow_noise", 0.5),
    ])
    def test_generator_only_econ_key_exit_2(self, tmp_path, capsys, key, value):
        # the zones and slots come from the binning and the flows from the
        # trips, so a generator knob in econ would be silently ignored
        code, out = ingest(tmp_path, dict(GRID_2X2, econ={key: value}))
        assert code == EXIT_CONFIG
        assert f"unknown keys in config section 'econ': ['{key}']" in refusal(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("distance", ["nan", "-2.0"])
    def test_bad_distance_row_skipped_not_fatal(self, tmp_path, distance):
        lines = TRIPS_50.read_text().splitlines()
        k = next(k for k, line in enumerate(lines[1:], 1) if not line.endswith(","))
        lines[k] = lines[k].rsplit(",", 1)[0] + "," + distance
        trips = tmp_path / "trips.csv"
        trips.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = ingest(tmp_path, GRID_2X2, trips=trips)
        assert code == EXIT_OK
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert (summary["records_read"], summary["skipped"]) == (50, 4)

    def test_huge_distance_saturates_the_delay(self, tmp_path):
        # 1e308 km is a valid record; its pair's delay is the last slot and
        # the pair is beyond any range, so forbidden
        lines = TRIPS_50.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",1e308"
        trips = tmp_path / "trips.csv"
        trips.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = ingest(tmp_path, GRID_2X2, trips=trips)
        assert code == EXIT_OK
        spec = ingest_module.BinningSpec(bbox=(0, 0, 1, 1), rows=2, cols=2)
        origin_lon, origin_lat, dest_lon, dest_lat = (float(x) for x in lines[1].split(",")[1:5])
        i = spec.zones_of(np.array([origin_lon]), np.array([origin_lat]))[0]
        j = spec.zones_of(np.array([dest_lon]), np.array([dest_lat]))[0]
        instance = io.load_instance(out / "instance.json")
        assert instance.delay[i, j] == instance.n_slots - 1
        assert not np.isfinite(instance.assign_cost[i, j])

    def test_grid_above_the_lp_column_limit_exit_2(self, tmp_path, capsys):
        # 10^10 zones: refused by name before any per-zone array is built
        doc = {"binning": dict(GRID_2X2["binning"], rows=100_000, cols=100_000)}
        code, out = ingest(tmp_path, doc)
        assert code == EXIT_CONFIG
        assert "10000000000 zones" in refusal(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("block", [256, 1 << 20], ids=["small", "large"])
    @pytest.mark.parametrize("ends", [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"), ("\r", "\n")],
                             ids=["lf", "crlf", "cr", "cr-then-lf"])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["blocks", "csv"])
    def test_oversized_field_exit_2_and_nothing_written(self, tmp_path, capsys, quote, ends,
                                                        block):
        # a field over csv's size limit on line 41: on a line longer than a
        # read block, after lines that fill several blocks, or in one block
        # that holds the whole file; quoted, the csv route for the rest of
        # the file reads it, otherwise the block reader hands its line to the
        # row checks.  csv ends a line at a lone CR too, so the first 20
        # lines end with ends[0], the others with ends[1].
        lines = TRIPS_50.read_text().splitlines()
        huge = "1" * (csv.field_size_limit() + 1)
        lines[40] = f"{lines[40].rsplit(',', 1)[0]},{quote}{huge}{quote}"
        trips = tmp_path / "trips.csv"
        trips.write_text("".join(line + ends[k >= 20] for k, line in enumerate(lines)),
                         newline="")
        with mock.patch.object(ingest_module, "_BLOCK_CHARS", block):
            code, out = ingest(tmp_path, GRID_2X2, trips=trips)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "trips file line 41: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()


    def test_seed_flag_is_the_econ_seed(self, tmp_path):
        # --seed seeds ingest's charging-share draw as econ.seed does
        flag = tmp_path / "flag"
        assert run("--config", str(write_config(tmp_path, GRID_2X2)), "--seed", "5",
                   "--out", str(flag), "ingest", str(TRIPS_50)) == EXIT_OK
        code, econ = ingest(tmp_path, dict(GRID_2X2, econ={"seed": 5}), name="econ")
        assert code == EXIT_OK
        code, default = ingest(tmp_path, GRID_2X2, name="default")
        assert code == EXIT_OK
        assert (flag / "instance.json").read_bytes() == (econ / "instance.json").read_bytes()
        alpha = json.loads((flag / "instance.json").read_text())["alpha"]
        assert alpha != json.loads((default / "instance.json").read_text())["alpha"]

    @pytest.mark.parametrize("key, message", [
        ("rows", "grid needs positive rows and cols"),
        ("n_slots", "n_slots must be positive"),
    ])
    def test_zero_grid_rows_or_slots_exit_2(self, tmp_path, capsys, key, message):
        code, out = ingest(tmp_path, {"binning": dict(GRID_2X2["binning"], **{key: 0})})
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invalid config section 'binning'" in err and message in err
        assert not out.exists()

    def test_oversized_header_field_exit_2(self, tmp_path, capsys):
        lines = TRIPS_50.read_text().splitlines()
        lines[0] += "," + "x" * (csv.field_size_limit() + 1)
        trips = tmp_path / "trips.csv"
        trips.write_text("\n".join(lines) + "\n")
        code, out = ingest(tmp_path, GRID_2X2, trips=trips)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "trips file line 1: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

class TestSolve:
    def test_centralized_solution_written(self, tmp_path, instance_file):
        out = tmp_path / "sol"
        code = run("--out", str(out), "solve", str(instance_file),
                   "--method", "centralized")
        assert code == EXIT_OK
        sol = io.load_solution(out / "solution.json", io.load_instance(instance_file))
        assert sol.feasibility.feasible
        doc = json.loads((out / "solution.json").read_text())
        assert doc["instance_checksum"] == io.file_checksum(instance_file)
        # no wall-clock noise in result files
        assert "timings" not in doc["stats"] and "wall_ms" not in json.dumps(doc)

    def test_instance_file_read_once(self, tmp_path, instance_file):
        # the checksum is of the bytes that were solved: a rewrite of the file
        # during the solve cannot make the two disagree
        out = tmp_path / "sol"
        with opens_of(instance_file) as opens:
            assert run("--out", str(out), "solve", str(instance_file)) == EXIT_OK
        assert len(opens) == 1
        doc = json.loads((out / "solution.json").read_text())
        assert doc["instance_checksum"] == hashlib.sha256(instance_file.read_bytes()).hexdigest()

    def test_solve_reruns_byte_identical(self, tmp_path, instance_file):
        a, b = tmp_path / "sa", tmp_path / "sb"
        for out in (a, b):
            assert run("--out", str(out), "solve", str(instance_file)) == EXIT_OK
        assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()

    def test_admm_writes_convergence_csv(self, tmp_path, instance_file):
        out = tmp_path / "admm"
        code = run("--out", str(out), "solve", str(instance_file), "--method", "admm")
        assert code == EXIT_OK
        with open(out / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "convergence log must not be empty"
        assert list(rows[0]) == ["k", "Q_primal", "Q_dual", "objective"]
        ks = [int(r["k"]) for r in rows]
        assert ks == list(range(1, len(ks) + 1))
        assert float(rows[-1]["Q_primal"]) <= 1e-4

    def test_admm_reruns_byte_identical(self, tmp_path, instance_file):
        # no timing reaches a result file, the convergence log included
        a, b = tmp_path / "aa", tmp_path / "ab"
        for out in (a, b):
            assert run("--out", str(out), "solve", str(instance_file),
                       "--method", "admm") == EXIT_OK
        for name in ("solution.json", "convergence.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_base_method(self, tmp_path, instance_file):
        out = tmp_path / "base"
        assert run("--out", str(out), "solve", str(instance_file),
                   "--method", "base") == EXIT_OK
        sol = io.load_solution(out / "solution.json", io.load_instance(instance_file))
        assert np.all(sol.assignment.z == 0)

    def test_infeasible_instance_exit_3(self, tmp_path):
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0])
        path = tmp_path / "bad.json"
        io.save_instance(inst, path)
        out = tmp_path / "sol"
        code = run("--out", str(out), "solve", str(path))
        assert code == EXIT_INFEASIBLE
        assert (out / "infeasible.json").exists()
        assert (out / "resolved_config.json").exists()

    def test_investment_cost_below_highs_matrix_values_exit_2(self, tmp_path, capsys):
        # HiGHS would drop the 1e-17 budget-row entries and solve another LP
        inst = make_instance([[3.0, 1.0]], base_cost=1e-17)
        path = tmp_path / "tiny.json"
        io.save_instance(inst, path)
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "at or below 1e-9" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_convergence_exit_4(self, tmp_path, capsys, instance_file):
        cfg = write_config(
            tmp_path, {"admm": {"max_iterations": 1, "threshold": 1e-12}}
        )
        out = tmp_path / "sol"
        code = run("--config", str(cfg), "--out", str(out),
                   "solve", str(instance_file), "--method", "admm")
        assert code == EXIT_NO_CONVERGENCE
        # the best iterate is still written for inspection
        assert (out / "solution.json").exists()
        assert (out / "convergence.csv").exists()
        assert "no convergence: best iterate after 1 iterations" in capsys.readouterr().err

    def test_agreement_on_a_failing_plan_exit_4_names_the_agreed_iterate(self, tmp_path,
                                                                         capsys):
        # at 0.7 times its own peaks the residuals reach the threshold on a
        # plan that breaks a cap, and run_admm returns that agreed iterate
        inst = generate_instance(GenParams(n_locations=6, n_slots=24, range_km=5.0, seed=1))
        path = tmp_path / "low.json"
        io.save_instance(own_peak_caps(inst, 0.7), path)
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path),
                   "--method", "admm") == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("no convergence: agreed iterate after ")
        assert err.rstrip().endswith(", which fails the check at 1e-4")
        assert (out / "solution.json").exists()

    def test_unreadable_instance_exit_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{}")
        assert run("--out", str(tmp_path / "o"), "solve", str(path)) == EXIT_CONFIG

    @pytest.mark.parametrize("doc, method", [
        ({"admm": {"max_iterations": 10.0}}, "admm"),
        ({"admm": {"max_iterations": "x"}}, "centralized"),
    ])
    def test_non_integer_max_iterations_exit_2(self, tmp_path, capsys, instance_file,
                                               doc, method):
        cfg = write_config(tmp_path, doc)
        code = run("--config", str(cfg), "--out", str(tmp_path / "sol"),
                   "solve", str(instance_file), "--method", method)
        assert code == EXIT_CONFIG
        assert "max_iterations must be an integer" in refusal(capsys)

    @pytest.mark.parametrize("key, value", [
        ("workers", 2), ("enforce_budget", False),
        ("capacity_cap", 1e7), ("assignment_cap", 1e4),
    ])
    def test_retired_admm_key_exit_2(self, tmp_path, capsys, instance_file, key, value):
        cfg = write_config(tmp_path, {"admm": {key: value}})
        code = run("--config", str(cfg), "--out", str(tmp_path / "sol"),
                   "solve", str(instance_file), "--method", "admm")
        assert code == EXIT_CONFIG
        assert f"unknown keys in config section 'admm': ['{key}']" in refusal(capsys)

    @pytest.mark.parametrize("key", sorted(RETIRED_SOLVER_SECTION))
    def test_retired_solver_key_exit_2(self, tmp_path, capsys, instance_file, key):
        # HiGHS is the only LP backend: the whole solver section is retired
        # from every command that read it
        cfg = write_config(tmp_path, {"solver": {key: RETIRED_SOLVER_SECTION[key]}})
        for command in ("solve", "sweep-r", "compare"):
            out = tmp_path / command
            assert run("--config", str(cfg), "--out", str(out),
                       command, str(instance_file)) == EXIT_CONFIG, command
            assert "unknown config sections: ['solver']" in refusal(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("rho", math.nan), ("threshold", math.nan), ("rho", math.inf),
    ])
    def test_non_finite_admm_setting_exit_2(self, tmp_path, capsys, instance_file,
                                            key, value):
        cfg = write_config(tmp_path, {"admm": {key: value}})
        out = tmp_path / "sol"
        code = run("--config", str(cfg), "--out", str(out),
                   "solve", str(instance_file), "--method", "admm")
        assert code == EXIT_CONFIG
        assert f"{key} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_instance_field_exit_2(self, tmp_path, capsys):
        doc = io.instance_to_dict(make_instance(np.ones((2, 2))))
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(doc, budget=math.nan)))
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path), "--method", "base") == EXIT_CONFIG
        assert "budget must be a non-negative number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["flow", "beta", "recurrence", "coordinates"])
    def test_infinite_instance_value_exit_2(self, tmp_path, capsys, instance_file, field):
        doc = json.loads(instance_file.read_text())
        holder, key = doc, field
        while isinstance(holder[key], list):  # down to the first entry
            holder, key = holder[key], 0
        holder[key] = math.inf
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        for method in ("centralized", "admm", "base"):
            out = tmp_path / method
            assert run("--out", str(out), "solve", str(path),
                       "--method", method) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert field in err and "finite" in err and "Traceback" not in err
            assert not out.exists()

    def test_negative_range_limit_exit_2(self, tmp_path, capsys):
        doc = io.instance_to_dict(make_instance(np.ones((2, 2))))
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(dict(doc, range_limit=-1)))
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path)) == EXIT_CONFIG
        assert "range_limit must be a number >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("n_locations", 0, "n_locations and n_slots must be positive"),
        ("flow", [[1.0, 1.0]], "flow must have shape (3, 2), got (1, 2)"),
        ("alpha", [[1.0, 1.0, 1.0]] * 2, "alpha must have shape (3, 2), got (2, 3)"),
        ("assign_cost", [[0.0, 1.0]], "assign_cost must be square over locations"),
        ("delay", [[0, 0, 0], [0, 0, 0]], "delay must be square over locations"),
        ("location_cost", [0.0], "location_cost must have one entry per location"),
        ("capacity_max", [1.0, 1.0, 1.0], "capacity_max must have one entry per location"),
        ("recurrence", [1.0, 1.0], "recurrence must have one entry per slot"),
        ("delay", [[1, 0], [0, 0]], "delay diagonal must be 0"),
        ("distance", [[0.0, 1.0]], "distance must be square over locations"),
        ("coordinates", [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
         "coordinates must have shape (n_locations, 2)"),
    ], ids=["zero-locations", "flow", "alpha", "assign_cost", "delay", "location_cost",
            "capacity_max", "recurrence", "delay-diagonal", "distance", "coordinates"])
    def test_instance_of_the_wrong_shape_exit_2(self, tmp_path, capsys, field, value,
                                                message):
        inst = make_instance(np.ones((3, 2)), distance=np.ones((2, 2)),
                             coordinates=np.zeros((2, 2)))
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(dict(io.instance_to_dict(inst), **{field: value})))
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path), "--method", "base") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_max_iterations_exit_2(self, tmp_path, capsys, instance_file):
        cfg = write_config(tmp_path, {"admm": {"max_iterations": 0}})
        out = tmp_path / "sol"
        assert run("--config", str(cfg), "--out", str(out), "solve", str(instance_file),
                   "--method", "admm") == EXIT_CONFIG
        assert "max_iterations must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("delay", [[0, 1.5], [1, 0]]), ("n_locations", 2.5), ("n_slots", 2.5),
    ])
    def test_fractional_integer_field_exit_2(self, tmp_path, capsys, field, value):
        doc = io.instance_to_dict(make_instance(np.ones((2, 2))))
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(dict(doc, **{field: value})))
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path)) == EXIT_CONFIG
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_lp_failure_exit_4(self, tmp_path, capsys, instance_file):
        out = tmp_path / "sol"
        with highs_fails():
            code = run("--out", str(out), "solve", str(instance_file))
        assert code == EXIT_NO_CONVERGENCE
        assert "no convergence: LP solve failed" in capsys.readouterr().err
        assert not out.exists()

    def test_lp_above_the_column_limit_exit_2(self, tmp_path, capsys, instance_file,
                                              monkeypatch):
        # the column count comes from the range graph, before the LP's arrays
        monkeypatch.setattr(central, "MAX_LP_COLUMNS", 10)
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(instance_file)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "columns, above the 10 supported" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("beta", "250"), ("budget", True)])
    def test_number_written_as_another_type_exit_2(self, tmp_path, capsys, field, value):
        doc = io.instance_to_dict(make_instance(np.ones((2, 2))))
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(dict(doc, **{field: value})))
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(path), "--method", "base") == EXIT_CONFIG
        assert f"{field} must be a number" in capsys.readouterr().err
        assert not out.exists()


class TestSweepR:
    def test_sweep_table_matches_base_at_zero(self, tmp_path, instance_file):
        out = tmp_path / "sweep"
        code = run("--out", str(out), "sweep-r", str(instance_file),
                   "--r-values", "0,1,3,5,7")
        assert code == EXIT_OK
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["R_km"]) for r in rows] == [0.0, 1.0, 3.0, 5.0, 7.0]
        totals = [float(r["total"]) for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))

        base_out = tmp_path / "base"
        assert run("--out", str(base_out), "solve", str(instance_file),
                   "--method", "base") == EXIT_OK
        base = io.load_solution(base_out / "solution.json",
                                io.load_instance(instance_file))
        assert totals[0] == pytest.approx(base.cost.total, rel=1e-9)
        assert rows[0]["reduction_pct"] == ""

    def test_reduction_pct_against_the_previous_row(self, tmp_path, instance_file):
        out = tmp_path / "sweep"
        assert run("--out", str(out), "sweep-r", str(instance_file),
                   "--r-values", "0,1,3,5,7") == EXIT_OK
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["reduction_pct"] == ""
        for prev, row in zip(rows, rows[1:]):
            before, total = float(prev["total"]), float(row["total"])
            assert float(row["reduction_pct"]) == pytest.approx(
                100.0 * (before - total) / before, rel=1e-5, abs=1e-9)

    def test_no_reduction_after_a_zero_total(self, tmp_path):
        # with no flow every total is 0, so no row has a reduction to report
        inst = generate_instance(GenParams(n_locations=5, n_slots=24, seed=3, range_km=6.0))
        path = tmp_path / "idle.json"
        io.save_instance(dataclasses.replace(inst, flow=np.zeros_like(inst.flow)), path)
        out = tmp_path / "sweep"
        assert run("--out", str(out), "sweep-r", str(path),
                   "--r-values", "0,1,3,5,7") == EXIT_OK
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["total"]) for r in rows] == [0.0] * 5
        assert [r["reduction_pct"] for r in rows] == [""] * 5

    def test_r_values_from_config(self, tmp_path, instance_file):
        cfg = write_config(tmp_path, {"sweep": {"r_values": [0, 5]}})
        out = tmp_path / "sweep"
        assert run("--config", str(cfg), "--out", str(out),
                   "sweep-r", str(instance_file)) == EXIT_OK
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_empty_r_list_exit_2(self, tmp_path, capsys, instance_file):
        for flag in [], ["--r-values", ","]:
            assert run("--out", str(tmp_path / "s"), "sweep-r",
                       str(instance_file), *flag) == EXIT_CONFIG
            assert refusal(capsys) == "error: empty R list\n"

    def test_nan_r_exit_2(self, tmp_path, capsys, instance_file):
        out = tmp_path / "s"
        assert run("--out", str(out), "sweep-r", str(instance_file),
                   "--r-values", "0,nan") == EXIT_CONFIG
        assert "range_limit must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_r_exit_2(self, tmp_path, capsys, instance_file):
        out = tmp_path / "s"
        assert run("--out", str(out), "sweep-r", str(instance_file),
                   "--r-values=0,-1") == EXIT_CONFIG
        assert "range_limit must be a number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_string_r_in_config_exit_2(self, tmp_path, capsys, instance_file):
        cfg = write_config(tmp_path, {"sweep": {"r_values": [0, "5"]}})
        out = tmp_path / "s"
        assert run("--config", str(cfg), "--out", str(out),
                   "sweep-r", str(instance_file)) == EXIT_CONFIG
        assert "r_values must be numbers, got [0, '5']" in refusal(capsys)
        assert not out.exists()

    def test_infeasible_r_is_named_and_nothing_written(self, tmp_path, capsys, instance_file):
        # caps at 0.9 of each own peak: R = 7 can redirect the excess, R = 0
        # cannot, and the sweep stops there, on the closed-form baseline
        doc = json.loads(instance_file.read_text())
        demand = np.asarray(doc["alpha"]) * np.asarray(doc["flow"])
        doc["capacity_max"] = (0.9 * doc["beta"] * demand.max(axis=0)).tolist()
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        assert run("--out", str(out), "sweep-r", str(path),
                   "--r-values", "7,0,3") == EXIT_INFEASIBLE
        assert ("infeasible: R=0 km: the no-assignment plan breaks capacity_bounds"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_lp_failure_exit_4(self, tmp_path, instance_file):
        out = tmp_path / "sweep"
        with highs_fails():
            code = run("--out", str(out), "sweep-r", str(instance_file),
                       "--r-values", "0,3")
        assert code == EXIT_NO_CONVERGENCE
        assert not out.exists()

    def test_lp_above_the_column_limit_exit_2(self, tmp_path, capsys, instance_file,
                                              monkeypatch):
        monkeypatch.setattr(central, "MAX_LP_COLUMNS", 10)
        out = tmp_path / "sweep"
        assert run("--out", str(out), "sweep-r", str(instance_file),
                   "--r-values", "0,3") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "columns, above the 10 supported" in err and "Traceback" not in err
        assert not out.exists()

    def test_beta_below_highs_matrix_values_exit_2(self, tmp_path, capsys, instance_file):
        inst = io.load_instance(instance_file)
        path = tmp_path / "tiny-beta.json"
        io.save_instance(dataclasses.replace(inst, beta=1e-10), path)
        out = tmp_path / "s"
        assert run("--out", str(out), "sweep-r", str(path), "--r-values", "0,3") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "at or below 1e-9" in err and "Traceback" not in err
        assert not out.exists()

    def test_unreadable_instance_exit_2(self, tmp_path):
        path = fieldless_instance(tmp_path)
        assert run("--out", str(tmp_path / "s"), "sweep-r", str(path),
                   "--r-values", "0,1") == EXIT_CONFIG

    def test_instance_without_distances_exit_2(self, tmp_path):
        inst = make_instance(np.ones((2, 2)))
        path = tmp_path / "nodist.json"
        io.save_instance(inst, path)
        assert run("--out", str(tmp_path / "s"), "sweep-r", str(path),
                   "--r-values", "0,1") == EXIT_CONFIG
        assert not (tmp_path / "s").exists()

    def test_no_price_to_widen_the_range_with_exit_2(self, tmp_path, capsys):
        # every pair is out of range, so no cost says what a kilometre costs
        inst = generate_instance(GenParams(n_locations=5, n_slots=24, seed=3,
                                           range_km=0.0, assign_price_per_km=80.0))
        path = tmp_path / "unpriced.json"
        io.save_instance(inst, path)
        assert run("--out", str(tmp_path / "s"), "sweep-r", str(path),
                   "--r-values", "0,6") == EXIT_CONFIG
        assert "prices no pair" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestReport:
    def _solved(self, tmp_path, instance_file):
        out = tmp_path / "sol"
        assert run("--out", str(out), "solve", str(instance_file)) == EXIT_OK
        return out / "solution.json"

    def test_geojson_report(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        out = tmp_path / "rep"
        code = run("--out", str(out), "report", str(sol_path),
                   str(instance_file), "--format", "geojson")
        assert code == EXIT_OK
        doc = json.loads((out / "solution.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        assert (out / "solution_rounded.json").exists()

    def test_csv_report_with_window(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        out = tmp_path / "rep"
        code = run("--out", str(out), "report", str(sol_path),
                   str(instance_file), "--format", "csv", "--window", "0:12")
        assert code == EXIT_OK
        assert (out / "locations.csv").exists()
        assert (out / "flows.csv").exists()

    @pytest.mark.parametrize("window", ["0:9999", "5:3", "1:2:3", "a:b", "-1:4"])
    def test_bad_window_exit_2_and_nothing_written(self, tmp_path, capsys, instance_file,
                                                   window):
        sol_path = self._solved(tmp_path, instance_file)
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path), str(instance_file),
                   f"--window={window}") == EXIT_CONFIG
        err = refusal(capsys)
        assert f"--window {window}" in err or f"--window takes lo:hi, got '{window}'" in err
        assert not out.exists()

    def test_geojson_without_coordinates_exit_2_and_nothing_written(self, tmp_path, capsys,
                                                                   instance_file):
        doc = json.loads(instance_file.read_text())
        del doc["coordinates"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        sol_path = self._solved(tmp_path, bare)
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path), str(bare),
                   "--format", "geojson") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "carries no coordinates" in err and "Traceback" not in err
        assert not out.exists()

    def test_stored_cost_is_not_read(self, tmp_path, instance_file):
        # the file's cost block is an output: report re-judges the plan
        sol_path = self._solved(tmp_path, instance_file)
        assert run("--out", str(tmp_path / "rep"), "report", str(sol_path),
                   str(instance_file)) == EXIT_OK
        doc = json.loads(sol_path.read_text())
        for k, total in enumerate(["oops", -1.0]):
            doc["cost"]["total"] = total
            sol_path.write_text(json.dumps(doc, indent=1))
            out = tmp_path / f"edited-{k}"
            assert run("--out", str(out), "report", str(sol_path),
                       str(instance_file)) == EXIT_OK
            names = sorted(p.name for p in out.iterdir())
            assert names == sorted(p.name for p in (tmp_path / "rep").iterdir())
            for name in names:
                assert (out / name).read_bytes() == (tmp_path / "rep" / name).read_bytes(), name

    def test_instance_file_read_once(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        with opens_of(instance_file) as opens:
            assert run("--out", str(tmp_path / "rep"), "report", str(sol_path),
                       str(instance_file)) == EXIT_OK
        assert len(opens) == 1

    def test_checksum_mismatch_exit_2(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        other = tmp_path / "other.json"
        inst = generate_instance(GenParams(n_locations=5, n_slots=24, seed=99,
                                           range_km=6.0))
        io.save_instance(inst, other)
        assert run("--out", str(tmp_path / "rep"), "report", str(sol_path),
                   str(other)) == EXIT_CONFIG

    def test_rounded_solution_keeps_its_instance_checksum(self, tmp_path, capsys,
                                                          instance_file):
        # the rounded plan names the instance file it was made from, so it
        # is refused against another one with the same range graph
        sol_path = self._solved(tmp_path, instance_file)
        assert run("--out", str(tmp_path / "rep"), "report", str(sol_path),
                   str(instance_file)) == EXIT_OK
        doc = json.loads(instance_file.read_text())
        doc["budget"] *= 2.0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        out = tmp_path / "rep-other"
        assert run("--out", str(out), "report", str(tmp_path / "rep" / "solution_rounded.json"),
                   str(other)) == EXIT_CONFIG
        assert "different instance file" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_solution_exit_2_before_allocating(self, tmp_path, instance_file,
                                                        capsys):
        # a dense plan of 24 x 1e7 x 1e7 cells cannot be allocated: the
        # counts must be compared with the instance first
        sol_path = self._solved(tmp_path, instance_file)
        doc = json.loads(sol_path.read_text())
        doc["n_locations"] = 10_000_000
        sol_path.write_text(json.dumps(doc))
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path),
                   str(instance_file)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "10000000 locations" in err and "Traceback" not in err
        assert not out.exists()

    def test_triplet_on_a_forbidden_pair_exit_2_and_nothing_written(
        self, tmp_path, instance_file, capsys
    ):
        sol_path = self._solved(tmp_path, instance_file)
        doc = json.loads(sol_path.read_text())
        doc["assignments"].append([0, 0, 1, 1.0])  # 0 -> 1 is out of range
        sol_path.write_text(json.dumps(doc))
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path),
                   str(instance_file)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(0, 0, 1) is on a diagonal or out-of-range pair" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cell, message", [
        (("capacity", 0), "capacity entries must be finite"),
        (("assignments", 0, 3), "z entries must be finite"),
    ], ids=["capacity", "assignment"])
    def test_infinite_plan_entry_exit_2_and_nothing_written(self, tmp_path, capsys,
                                                            instance_file, cell, message):
        sol_path = self._solved(tmp_path, instance_file)
        doc = json.loads(sol_path.read_text())
        holder = doc
        for key in cell[:-1]:
            holder = holder[key]
        holder[cell[-1]] = math.inf
        sol_path.write_text(json.dumps(doc))  # written as Infinity, which json reads
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path),
                   str(instance_file)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_capacity_of_the_wrong_length_exit_2(self, tmp_path, capsys, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        doc = json.loads(sol_path.read_text())
        doc["capacity"].pop()
        sol_path.write_text(json.dumps(doc))
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path),
                   str(instance_file)) == EXIT_CONFIG
        assert "capacity must have 5 entries, got shape (4,)" in capsys.readouterr().err
        assert not out.exists()

    def test_rounded_solution_is_integral(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path),
                   str(instance_file)) == EXIT_OK
        rounded = io.load_solution(out / "solution_rounded.json",
                                   io.load_instance(instance_file))
        z = rounded.assignment.z
        np.testing.assert_array_equal(z, np.rint(z))


#: the header row of each result table the CLI writes
TABLE_HEADERS = {
    "convergence.csv": ["k", "Q_primal", "Q_dual", "objective"],
    "sweep.csv": ["R_km", "investment", "assignment", "total", "reduction_pct"],
    "locations.csv": ["location", "capacity_kw", "location_cost", "net_assignments",
                      "x", "y"],
    "flows.csv": ["from", "to", "vehicles"],
    "comparison.csv": ["method", "investment", "assignment", "total", "gap_to_best_pct",
                       "feasible"],
}


class TestResolvedConfig:
    @pytest.mark.parametrize("command, code", [
        pytest.param(["generate"], EXIT_OK, id="generate"),
        pytest.param(["ingest", str(TRIPS_50)], EXIT_OK, id="ingest"),
        pytest.param(["solve", "{instance}", "--method", "admm"], EXIT_OK, id="solve"),
        pytest.param(["solve", "{infeasible}"], EXIT_INFEASIBLE, id="solve-infeasible"),
        pytest.param(["sweep-r", "{instance}", "--r-values", "0,3"], EXIT_OK, id="sweep-r"),
        pytest.param(["report", "{solution}", "{instance}", "--format", "geojson"], EXIT_OK,
                     id="report"),
        pytest.param(["report", "{solution}", "{instance}"], EXIT_OK, id="report-csv"),
        pytest.param(["compare", "{instance}", "--methods", "base,centralized"], EXIT_OK,
                     id="compare"),
    ])
    def test_every_command_replays_its_resolved_config(self, tmp_path, instance_file,
                                                       command, code):
        assert run("--out", str(tmp_path / "sol"), "solve", str(instance_file)) == EXIT_OK
        infeasible = tmp_path / "infeasible.json"
        io.save_instance(make_instance([[10.0]], beta=2.0, capacity_max=[5.0]), infeasible)
        argv = [arg.format(instance=instance_file, infeasible=infeasible,
                           solution=tmp_path / "sol" / "solution.json")
                for arg in command]
        first = tmp_path / "first"
        assert run("--config", str(write_config(tmp_path, GRID_2X2)), "--out", str(first),
                   *argv) == code
        again = tmp_path / "again"
        assert run("--config", str(first / "resolved_config.json"), "--out", str(again),
                   *argv) == code
        assert (again / "resolved_config.json").read_bytes() == (
            first / "resolved_config.json").read_bytes()
        # every JSON document the command wrote is laid out as json.dumps
        # lays it out at indent 1, and every table is comma-separated with
        # LF line ends, its header first
        for path in sorted(first.iterdir()):
            text = path.read_bytes().decode()
            if path.suffix == ".csv":
                assert "\r" not in text, path.name
                rows = list(csv.reader(StringIO(text)))
                assert rows[0] == TABLE_HEADERS[path.name], path.name
                assert {len(row) for row in rows} == {len(rows[0])}, path.name
            else:
                assert path.suffix in (".json", ".geojson"), path.name
                assert text == json.dumps(json.loads(text), indent=1), path.name


class TestCompare:
    def test_three_way_comparison(self, tmp_path, instance_file):
        out = tmp_path / "cmp"
        code = run("--out", str(out), "compare", str(instance_file),
                   "--methods", "base,centralized,admm")
        assert code == EXIT_OK
        doc = json.loads((out / "comparison.json").read_text())
        assert set(doc) == {"base", "centralized", "admm"}
        assert doc["centralized"]["gap_to_best_pct"] == pytest.approx(0.0, abs=1e-4)
        assert doc["base"]["total"] >= doc["centralized"]["total"] - 1e-9
        for row in doc.values():
            assert row["feasible"] is True
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["base", "centralized", "admm"]

    def test_unbounded_budget_exit_0(self, tmp_path, instance_file):
        doc = json.loads(instance_file.read_text())
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(dict(doc, budget=math.inf)))
        out = tmp_path / "cmp"
        assert run("--out", str(out), "compare", str(path)) == EXIT_OK
        doc = json.loads((out / "comparison.json").read_text())
        assert all(row["feasible"] for row in doc.values())

    def test_empty_method_list_exit_2(self, tmp_path, capsys, instance_file):
        assert run("--out", str(tmp_path / "c"), "compare", str(instance_file),
                   "--methods", ",") == EXIT_CONFIG
        assert "--methods takes one or more of centralized, admm, base, got ','" in refusal(capsys)

    def test_unknown_method_exit_2(self, tmp_path, capsys, instance_file):
        assert run("--out", str(tmp_path / "c"), "compare", str(instance_file),
                   "--methods", "magic") == EXIT_CONFIG
        assert "got 'magic'" in refusal(capsys)

    def test_unreadable_instance_exit_2(self, tmp_path):
        path = fieldless_instance(tmp_path)
        assert run("--out", str(tmp_path / "c"), "compare", str(path)) == EXIT_CONFIG

    def test_lp_failure_exit_4(self, tmp_path, instance_file):
        with highs_fails():
            code = run("--out", str(tmp_path / "c"), "compare",
                       str(instance_file), "--methods", "centralized")
        assert code == EXIT_NO_CONVERGENCE
        assert not (tmp_path / "c").exists()

    def test_lp_above_the_column_limit_exit_2(self, tmp_path, capsys, instance_file,
                                              monkeypatch):
        monkeypatch.setattr(central, "MAX_LP_COLUMNS", 10)
        out = tmp_path / "c"
        assert run("--out", str(out), "compare", str(instance_file),
                   "--methods", "base,centralized") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "columns, above the 10 supported" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_integer_max_iterations_exit_2(self, tmp_path, instance_file):
        cfg = write_config(tmp_path, {"admm": {"max_iterations": 10.0}})
        code = run("--config", str(cfg), "--out", str(tmp_path / "c"), "compare",
                   str(instance_file), "--methods", "base,admm")
        assert code == EXIT_CONFIG

    def test_infeasible_names_the_method(self, tmp_path, capsys):
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0])
        path = tmp_path / "bad.json"
        io.save_instance(inst, path)
        code = run("--out", str(tmp_path / "c"), "compare", str(path),
                   "--methods", "centralized,base")
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: centralized: ")
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_gap_is_to_the_cheapest_plan_that_passes_its_check(self, tmp_path):
        # at 0.7 times its own peaks ADMM stops on a plan that breaks a cap
        # and costs less than the LP optimum
        inst = generate_instance(GenParams(n_locations=6, n_slots=24, range_km=5.0, seed=3))
        path = tmp_path / "low.json"
        io.save_instance(own_peak_caps(inst, 0.7), path)
        out = tmp_path / "cmp"
        assert run("--out", str(out), "compare", str(path),
                   "--methods", "centralized,admm") == EXIT_NO_CONVERGENCE
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["admm"]["feasible"] is False
        assert doc["admm"]["total"] < doc["centralized"]["total"]
        assert doc["centralized"]["gap_to_best_pct"] == 0.0
        assert doc["admm"]["gap_to_best_pct"] == pytest.approx(
            100.0 * (doc["admm"]["total"] / doc["centralized"]["total"] - 1.0))
        # with no plan that passes, the cheapest one is the reference
        assert run("--out", str(out), "compare", str(path),
                   "--methods", "admm") == EXIT_NO_CONVERGENCE
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["admm"]["gap_to_best_pct"] == 0.0

    def test_non_converged_admm_exit_4_after_writing(self, tmp_path, instance_file):
        cfg = write_config(
            tmp_path, {"admm": {"max_iterations": 1, "threshold": 1e-12}}
        )
        out = tmp_path / "cmp"
        code = run("--config", str(cfg), "--out", str(out), "compare",
                   str(instance_file), "--methods", "base,admm")
        assert code == EXIT_NO_CONVERGENCE
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["base"]["converged"] is True
        assert doc["admm"]["converged"] is False
        assert (out / "comparison.csv").exists()


# ------------------------------------------------- malformed input, one exit code

VALID_CONFIG = {
    "admm": {"rho": 0.1, "max_iterations": 50, "threshold": 1e-4},
    "sweep": {"r_values": [0, 3]},
}
#: the commands that read each config section
SECTION_READERS = {"admm": ("solve", "compare"), "sweep": ("sweep-r",)}
INPUT_COMMANDS = ("solve", "sweep-r", "report", "compare")
#: document fields whose absence is valid (a solution's cost is not read)
OPTIONAL_FIELDS = {"distance", "coordinates", "stats", "instance_checksum", "cost"}


@functools.cache
def valid_documents() -> dict:
    """A tiny instance, its centralized solution and a config that reads
    every section the input commands use."""
    inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=3, range_km=6.0))
    instance = io.instance_to_dict(inst)
    checksum = hashlib.sha256(json.dumps(instance, indent=1).encode()).hexdigest()
    solution = io.solution_to_dict(solve_centralized(inst), checksum)
    return {"instance": instance, "solution": solution, "config": VALID_CONFIG}


def other_json_types(value) -> list:
    """Stand-ins of a JSON type other than ``value``'s (numbers are one type)."""
    number = (int, float)
    return [v for v in ("x", 5, [1], {"a": 1})
            if not (isinstance(v, number) and isinstance(value, number))
            and type(v) is not type(value)]


@st.composite
def corruptions(draw):
    """One corrupting edit ``(document, op, path, value)`` of a valid input."""
    docs = valid_documents()
    document = draw(st.sampled_from(["instance", "solution", "config"]))
    doc = docs[document]
    kind = draw(st.sampled_from(
        ["root", "drop", "null", "retype"] if document != "config"
        else ["root", "missing", "null", "retype", "section", "unknown-key"]
    ))
    if document == "solution" and draw(st.booleans()):
        kind = draw(st.sampled_from(["triplet", "off-graph"]))
    if kind == "root":
        return document, "set", (), draw(st.sampled_from([[], [1], 5, 2.5]))
    if kind == "missing":
        return document, "missing", (), None
    if kind == "triplet":
        T, n = doc["n_slots"], doc["n_locations"]
        axis = draw(st.integers(0, 2))
        bad = draw(st.sampled_from([(T, n, n)[axis], 99, -1, 0.5]))
        triplet = [0, 0, 1, 1.0]
        triplet[axis] = bad
        return document, "append", ("assignments",), triplet
    if kind == "off-graph":
        # a nonzero triplet on the diagonal or on an out-of-range pair
        cost = docs["instance"]["assign_cost"]
        i, j = draw(st.sampled_from([(i, j) for i, row in enumerate(cost)
                                     for j, v in enumerate(row)
                                     if i == j or v == "forbidden"]))
        t = draw(st.integers(0, doc["n_slots"] - 1))
        return document, "append", ("assignments",), [t, i, j, 1.0]
    if document == "config":
        section = draw(st.sampled_from(sorted(doc)))
        if kind == "section":
            return document, "set", (section,), draw(st.sampled_from(["x", 5, [1]]))
        if kind == "unknown-key":
            return document, "set", (section, "bogus"), 1
        key = draw(st.sampled_from(sorted(doc[section])))
        path = (section, key)
    else:
        path = (draw(st.sampled_from(sorted(set(doc) - OPTIONAL_FIELDS))),)
        if kind == "drop":
            return document, "drop", path, None
    value = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
    if kind == "null":
        return document, "set", path, None
    return document, "set", path, draw(st.sampled_from(other_json_types(value)))


def corrupt(docs: dict, case) -> dict:
    document, op, path, value = case
    docs = copy.deepcopy(docs)
    if op == "missing":
        del docs[document]
    elif not path:
        docs[document] = value
    else:
        *parents, key = path
        holder = docs[document]
        for parent in parents:
            holder = holder[parent]
        if op == "drop":
            del holder[key]
        elif op == "append":
            holder[key].append(value)
        else:
            holder[key] = value
    return docs


def readers(case) -> tuple[str, ...]:
    document, op, path, _ = case
    if document == "solution":
        return ("report",)
    if document == "config" and path:
        return SECTION_READERS[path[0]]
    return INPUT_COMMANDS


def run_command(command: str, work: Path) -> tuple[int, str]:
    """Run one input command on the files in ``work``; (exit code, stderr)."""
    inputs = {"instance": str(work / "instance.json"),
              "solution": str(work / "solution.json")}
    operands = {
        "solve": ["solve", inputs["instance"]],
        "sweep-r": ["sweep-r", inputs["instance"]],
        "report": ["report", inputs["solution"], inputs["instance"]],
        "compare": ["compare", inputs["instance"], "--methods", "base,centralized"],
    }[command]
    err = StringIO()
    with contextlib.redirect_stderr(err):
        code = run("--config", str(work / "config.json"), "--out",
                   str(work / command), *operands)
    return code, err.getvalue()


def write_documents(docs: dict, work: Path) -> None:
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc, indent=1))


def test_valid_documents_pass_every_input_command(tmp_path):
    write_documents(valid_documents(), tmp_path)
    for command in INPUT_COMMANDS:
        assert run_command(command, tmp_path) == (EXIT_OK, ""), command


@given(case=corruptions())
@example(case=("instance", "set", (), []))
@example(case=("instance", "set", ("n_locations",), None))
@example(case=("config", "set", ("sweep",), 5))
@example(case=("config", "set", ("sweep", "r_values"), 5))
@example(case=("solution", "append", ("assignments",), [99, 0, 1, 1.0]))
@example(case=("solution", "append", ("assignments",), [-1, 0, 1, 1.0]))
@example(case=("solution", "append", ("assignments",), [0, 0, 1, 1.0]))
@example(case=("solution", "append", ("assignments",), [3, 2, 2, 1.0]))
@example(case=("config", "missing", (), None))
@settings(max_examples=150, deadline=None)
def test_corrupted_input_exits_2_and_writes_nothing(case):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_documents(corrupt(valid_documents(), case), work)
        for command in readers(case):
            code, err = run_command(command, work)
            assert code == EXIT_CONFIG, (command, err)
            assert err.startswith("error: ") and "Traceback" not in err
            assert not (work / command).exists(), command


#: the calls that write JSON text or CSV rows, which only ``io`` makes
WRITER_CALLS = {("json", "dump"), ("json", "dumps"), ("csv", "writer")}


def test_only_io_writes_json_or_csv():
    calls = []
    for path in sorted(Path(central.__file__).parent.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {(node.module, alias.name) for alias in node.names}
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)):
                names = {(node.func.value.id, node.func.attr)}
            else:
                continue
            calls += [f"{path.name}:{node.lineno} {'.'.join(name)}"
                      for name in names & WRITER_CALLS]
    assert not calls, calls


#: what ``raise Name(...)`` may name in the package: the types ``main`` maps
#: to an exit code (it maps the OSError of file access too)
RAISED_TYPES = {"ValueError", "InfeasibleProblemError", "ConvergenceError"}


def test_the_package_raises_only_the_types_main_maps():
    # a bare raise, ``raise error`` and ``raise type(exc)(...)`` re-raise an
    # exception already made, so only a constructor call names a new type
    named, raises = [], 0
    for path in sorted(Path(central.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raises += 1
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None and name not in RAISED_TYPES:
                    named.append(f"{path.name}:{node.lineno} raises {name}")
    assert raises > 0
    assert not named, named
