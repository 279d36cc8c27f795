"""End-to-end CLI contract: commands, configs, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from chargeplan import io
from chargeplan.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from chargeplan.datagen import GenParams, generate_instance

from conftest import make_instance


def run(*argv):
    return main(["--quiet", *argv])


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


#: forces the embedded simplex to give up after one pivot
SIMPLEX_ONE_PIVOT = {"solver": {"backend": "simplex", "max_iterations": 1}}


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

    def test_invalid_generate_params_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"generate": {"n_locations": 0}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"generate": {"n_loctaions": 5}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG

    def test_unknown_config_section_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": {}})
        assert run("--config", str(cfg), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("--config", str(path), "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG

    def test_missing_config_exit_2(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x"), "generate") == EXIT_CONFIG


class TestSolve:
    def test_centralized_solution_written(self, tmp_path, instance_file):
        out = tmp_path / "sol"
        code = run("--out", str(out), "solve", str(instance_file),
                   "--method", "centralized")
        assert code == EXIT_OK
        sol = io.load_solution(out / "solution.json")
        assert sol.feasibility.feasible
        doc = json.loads((out / "solution.json").read_text())
        assert doc["instance_checksum"] == io.file_checksum(instance_file)
        # no wall-clock noise in result files
        assert not any("wall" in k for k in doc["stats"])

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
        assert list(rows[0]) == ["k", "Q_primal", "Q_dual", "objective", "wall_ms"]
        ks = [int(r["k"]) for r in rows]
        assert ks == list(range(1, len(ks) + 1))
        assert float(rows[-1]["Q_primal"]) <= 1e-4

    def test_base_method(self, tmp_path, instance_file):
        out = tmp_path / "base"
        assert run("--out", str(out), "solve", str(instance_file),
                   "--method", "base") == EXIT_OK
        sol = io.load_solution(out / "solution.json")
        assert np.all(sol.assignment.z == 0)

    def test_infeasible_instance_exit_3(self, tmp_path):
        inst = make_instance([[10.0]], beta=2.0, capacity_max=[5.0])
        path = tmp_path / "bad.json"
        io.save_instance(inst, path)
        out = tmp_path / "sol"
        code = run("--out", str(out), "solve", str(path))
        assert code == EXIT_INFEASIBLE
        assert (out / "infeasible.json").exists()

    def test_non_convergence_exit_4(self, tmp_path, instance_file):
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

    def test_unreadable_instance_exit_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{}")
        assert run("--out", str(tmp_path / "o"), "solve", str(path)) == EXIT_CONFIG

    def test_solver_config_section_respected(self, tmp_path, instance_file):
        cfg = write_config(tmp_path, {"solver": {"backend": "highs"}})
        out = tmp_path / "sol"
        assert run("--config", str(cfg), "--out", str(out),
                   "solve", str(instance_file)) == EXIT_OK
        sol = io.load_solution(out / "solution.json")
        assert sol.stats["backend"] == "highs"


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
        base = io.load_solution(base_out / "solution.json")
        assert totals[0] == pytest.approx(base.cost.total, rel=1e-9)
        assert rows[0]["reduction_pct"] == ""

    def test_r_values_from_config(self, tmp_path, instance_file):
        cfg = write_config(tmp_path, {"sweep": {"r_values": [0, 5]}})
        out = tmp_path / "sweep"
        assert run("--config", str(cfg), "--out", str(out),
                   "sweep-r", str(instance_file)) == EXIT_OK
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_empty_r_list_exit_2(self, tmp_path, instance_file):
        assert run("--out", str(tmp_path / "s"), "sweep-r",
                   str(instance_file)) == EXIT_CONFIG

    def test_simplex_iteration_limit_exit_4(self, tmp_path, instance_file):
        cfg = write_config(tmp_path, SIMPLEX_ONE_PIVOT)
        out = tmp_path / "sweep"
        code = run("--config", str(cfg), "--out", str(out), "sweep-r",
                   str(instance_file), "--r-values", "0,3")
        assert code == EXIT_NO_CONVERGENCE
        assert not (out / "sweep.csv").exists()

    def test_instance_without_distances_exit_2(self, tmp_path):
        inst = make_instance(np.ones((2, 2)))
        path = tmp_path / "nodist.json"
        io.save_instance(inst, path)
        assert run("--out", str(tmp_path / "s"), "sweep-r", str(path),
                   "--r-values", "0,1") == EXIT_CONFIG


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

    def test_checksum_mismatch_exit_2(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        other = tmp_path / "other.json"
        inst = generate_instance(GenParams(n_locations=5, n_slots=24, seed=99,
                                           range_km=6.0))
        io.save_instance(inst, other)
        assert run("--out", str(tmp_path / "rep"), "report", str(sol_path),
                   str(other)) == EXIT_CONFIG

    def test_rounded_solution_is_integral(self, tmp_path, instance_file):
        sol_path = self._solved(tmp_path, instance_file)
        out = tmp_path / "rep"
        assert run("--out", str(out), "report", str(sol_path),
                   str(instance_file)) == EXIT_OK
        rounded = io.load_solution(out / "solution_rounded.json")
        z = rounded.assignment.z
        np.testing.assert_array_equal(z, np.rint(z))


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

    def test_empty_method_list_exit_2(self, tmp_path, instance_file):
        assert run("--out", str(tmp_path / "c"), "compare", str(instance_file),
                   "--methods", ",") == EXIT_CONFIG

    def test_unknown_method_exit_2(self, tmp_path, instance_file):
        assert run("--out", str(tmp_path / "c"), "compare", str(instance_file),
                   "--methods", "magic") == EXIT_CONFIG

    def test_simplex_iteration_limit_exit_4(self, tmp_path, instance_file):
        cfg = write_config(tmp_path, SIMPLEX_ONE_PIVOT)
        code = run("--config", str(cfg), "--out", str(tmp_path / "c"), "compare",
                   str(instance_file), "--methods", "centralized")
        assert code == EXIT_NO_CONVERGENCE

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
