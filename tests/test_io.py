"""JSON round-trips for instances and solutions, plus version handling."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargeplan.central import solve_centralized
from chargeplan.datagen import GenParams, generate_instance
from chargeplan.io import (
    INSTANCE_VERSION,
    SOLUTION_VERSION,
    dumps,
    file_checksum,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_solution,
    read_instance,
    save_instance,
    save_solution,
    solution_from_dict,
    solution_to_dict,
)
from chargeplan.model import (
    FORBIDDEN,
    AssignmentPlan,
    InvestmentPlan,
    assess,
    check_feasibility,
    evaluate_objective,
)

from conftest import dense, edge_cases, make_instance, random_instance


def set_nested(doc: dict, path: tuple, value) -> None:
    """Set ``doc[path[0]][path[1]]...`` to ``value``."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def assert_instances_equal(a, b):
    assert a.n_locations == b.n_locations
    assert a.n_slots == b.n_slots
    np.testing.assert_array_equal(a.flow, b.flow)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    assert a.beta == b.beta
    np.testing.assert_array_equal(a.assign_cost, b.assign_cost)
    np.testing.assert_array_equal(a.delay, b.delay)
    assert a.base_cost == b.base_cost
    np.testing.assert_array_equal(a.location_cost, b.location_cost)
    assert a.budget == b.budget
    np.testing.assert_array_equal(a.capacity_max, b.capacity_max)
    np.testing.assert_array_equal(a.recurrence, b.recurrence)
    assert a.range_limit == b.range_limit


class TestInstanceIO:
    def test_round_trip_with_forbidden_cells(self, tmp_path, rng):
        inst = random_instance(rng, forbid_frac=0.5)
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert_instances_equal(inst, back)

    def test_round_trip_with_optional_fields(self, tmp_path):
        inst = generate_instance(GenParams(n_locations=5, n_slots=12, seed=0))
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(inst.distance, back.distance)
        np.testing.assert_array_equal(inst.coordinates, back.coordinates)

    def test_optional_fields_stay_optional(self, tmp_path):
        inst = make_instance(np.ones((2, 2)))
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        assert "distance" not in doc
        assert "coordinates" not in doc
        assert load_instance(path).distance is None

    def test_forbidden_serialized_as_string(self):
        cost = np.array([[0.0, FORBIDDEN], [1.0, 0.0]])
        inst = make_instance(np.ones((1, 2)), assign_cost=cost)
        doc = instance_to_dict(inst)
        assert doc["assign_cost"][0][1] == "forbidden"
        assert doc["version"] == INSTANCE_VERSION
        back = instance_from_dict(doc)
        assert back.assign_cost[0, 1] == FORBIDDEN

    def test_wrong_version_rejected(self):
        inst = make_instance(np.ones((1, 1)))
        doc = instance_to_dict(inst)
        doc["version"] = "charge-plan-instance/99"
        with pytest.raises(ValueError, match="version"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("root", [[], 5, "instance"])
    def test_non_object_root_rejected(self, root):
        with pytest.raises(ValueError, match="must be a JSON object"):
            instance_from_dict(root)

    @pytest.mark.parametrize("field, value", [
        ("delay", [[0, 1.5], [1, 0]]), ("n_locations", 2.5), ("n_slots", 2.5),
        ("delay", [[0, None], [1, 0]]), ("n_slots", [2]),
    ])
    def test_fractional_or_non_integer_counts_rejected(self, field, value):
        doc = instance_to_dict(make_instance(np.ones((2, 2))))
        with pytest.raises(ValueError, match=field):
            instance_from_dict(dict(doc, **{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("beta", None), ("flow", None), ("assign_cost", 5), ("beta", [1]),
        # a number written as a string, a boolean or null is not read as one
        ("beta", "1"), ("base_cost", "1"), ("n_locations", "2"), ("range_limit", "10"),
        ("flow", [["1", "1"], ["1", "1"]]), ("assign_cost", [[0, "1"], ["1", 0]]),
        ("budget", True), ("capacity_max", [1e9, False]), ("recurrence", [1, None]),
        ("delay", [[0, True], [0, 0]]), ("n_slots", "2"),
    ])
    def test_mistyped_field_is_a_value_error(self, field, value):
        doc = instance_to_dict(make_instance(np.ones((2, 2))))
        with pytest.raises(ValueError):
            instance_from_dict(dict(doc, **{field: value}))

    def test_missing_field_named(self):
        doc = instance_to_dict(make_instance(np.ones((2, 2))))
        del doc["budget"]
        with pytest.raises(ValueError, match="no field 'budget'"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("data", [b'{\r\n "version": 1,\r\n x}', b'{\r "a": 1\r,}',
                                      b"\xff{}", b"\xef\xbb\xbf{}"])
    def test_unreadable_file_fails_as_when_read_as_text(self, tmp_path, data):
        # read_instance parses the bytes it hashes, with the decoding and
        # line-end translation of Path.read_text, so messages name the same
        # position
        path = tmp_path / "instance.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as as_text:
            instance_from_dict(json.loads(path.read_text(encoding="utf-8")))
        for load in (load_instance, read_instance):
            with pytest.raises(type(as_text.value), match=re.escape(str(as_text.value))):
                load(path)

    def test_save_is_deterministic(self, tmp_path, rng):
        inst = random_instance(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, p1)
        save_instance(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert file_checksum(p1) == file_checksum(p2)


class TestSolutionIO:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        inst = random_instance(rng)
        sol = solve_centralized(inst)
        path = tmp_path / "solution.json"
        save_solution(sol, path, instance_checksum="abc123")
        back = load_solution(path, inst)
        np.testing.assert_array_equal(back.investment.capacity, sol.investment.capacity)
        np.testing.assert_array_equal(back.assignment.z, sol.assignment.z)
        assert back.cost.total == sol.cost.total
        assert back.cost.investment == sol.cost.investment
        assert back.feasibility.feasible == sol.feasibility.feasible
        assert back.feasibility.tol == sol.feasibility.tol
        for name, res in sol.feasibility.residuals.items():
            assert back.feasibility.residuals[name].violation == res.violation
            assert back.feasibility.residuals[name].where == res.where
        assert back.stats["method"] == "centralized"

    def test_assignments_stored_sparsely(self, tmp_path, rng):
        inst = random_instance(rng)
        sol = solve_centralized(inst)
        path = tmp_path / "solution.json"
        save_solution(sol, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == SOLUTION_VERSION
        nnz = int((sol.assignment.z != 0).sum())
        assert len(doc["assignments"]) == nnz
        z = dense(sol.assignment)
        for t, i, j, v in doc["assignments"]:
            assert z[t, i, j] == v
        # slot-major, then origin-major, then destination: the order of np.nonzero
        assert doc["assignments"] == [[t, i, j, z[t, i, j]] for t, i, j in np.argwhere(z)]

    def test_checksum_embedded(self, tmp_path, rng):
        inst = random_instance(rng)
        ipath = tmp_path / "instance.json"
        save_instance(inst, ipath)
        sol = solve_centralized(inst)
        spath = tmp_path / "solution.json"
        save_solution(sol, spath, instance_checksum=file_checksum(ipath))
        doc = json.loads(spath.read_text())
        assert doc["instance_checksum"] == file_checksum(ipath)

    def test_load_checks_the_instance_checksum(self, tmp_path, rng):
        inst = random_instance(rng)
        ipath, spath = tmp_path / "instance.json", tmp_path / "solution.json"
        save_instance(inst, ipath)
        sol = solve_centralized(inst)
        save_solution(sol, spath, instance_checksum=file_checksum(ipath))
        for checksum in (file_checksum(ipath), None):
            assert load_solution(spath, inst, checksum).cost == sol.cost
        for checksum in ("abc123", file_checksum(ipath).upper(), ""):
            with pytest.raises(ValueError, match="different instance file"):
                load_solution(spath, inst, checksum)

    def test_timings_are_left_out_of_the_stats(self, tmp_path):
        # the timings entry is left out whatever its stats are named; a
        # top-level key is written whatever its name
        inst = make_instance(np.ones((2, 3)))
        stats = {"method": "manual", "timings": {"wall_ms": 3.5, "solve_s": 0.1},
                 "iterations": 7, "wall_time_s": 0.1, "converged": True}
        sol = dataclasses.replace(solve_centralized(inst), stats=stats)
        save_solution(sol, tmp_path / "solution.json")
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert list(doc["stats"].items()) == [
            ("method", "manual"), ("iterations", 7), ("wall_time_s", 0.1),
            ("converged", True)]

    def test_load_decodes_utf8_under_an_ascii_locale(self, tmp_path):
        inst = make_instance(np.ones((2, 3)))
        ipath, spath = tmp_path / "instance.json", tmp_path / "solution.json"
        save_instance(inst, ipath)
        doc = solution_to_dict(solve_centralized(inst))
        doc["stats"]["note"] = "caf\u00e9"
        spath.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        code = ("import sys; from chargeplan import io; print(ascii(io.load_solution("
                "sys.argv[2], io.load_instance(sys.argv[1])).stats['note']))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(ipath), str(spath)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "'caf\\xe9'", proc.stderr

    def test_wrong_version_rejected(self, tmp_path, rng):
        inst = random_instance(rng)
        sol = solve_centralized(inst)
        path = tmp_path / "solution.json"
        save_solution(sol, path)
        doc = json.loads(path.read_text())
        doc["version"] = "something-else/1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_solution(path, inst)

    @pytest.mark.parametrize("triplet", [
        [2, 0, 1, 1.0], [-1, 0, 1, 1.0], [0, 0, 3, 1.0], [0, -1, 1, 1.0],
        [0.5, 0, 1, 1.0], [0, 0, 1],
    ])
    def test_triplet_outside_the_plan_rejected(self, triplet):
        inst = make_instance(np.ones((2, 3)))
        doc = solution_to_dict(solve_centralized(inst))
        doc["assignments"].append(triplet)
        with pytest.raises(ValueError, match="assignment"):
            solution_from_dict(doc, inst)

    @pytest.mark.parametrize("repeat", [1.5, 0.0])
    def test_two_triplets_on_one_cell_rejected(self, repeat):
        inst = make_instance(np.ones((2, 3)))
        doc = solution_to_dict(solve_centralized(inst))
        doc["assignments"] = [[0, 0, 1, 0.5], [1, 2, 0, 4.0], [0, 0, 1, repeat]]
        with pytest.raises(ValueError, match=re.escape("assignment (0, 0, 1) is given twice")):
            solution_from_dict(doc, inst)

    def test_triplets_fill_their_cells(self):
        inst = make_instance(np.ones((2, 3)))
        doc = solution_to_dict(solve_centralized(inst))
        doc["assignments"] = [[1, 2, 0, 4.0], [0, 0, 1, 0.5]]
        z = dense(solution_from_dict(doc, inst).assignment)
        assert (z[1, 2, 0], z[0, 0, 1]) == (4.0, 0.5)
        assert np.count_nonzero(z) == 2

    @pytest.mark.parametrize("triplet", [[0, 1, 1, 1.0], [1, 0, 2, 0.5], [1, 2, 0, -2.0]])
    def test_triplet_on_a_diagonal_or_out_of_range_pair_rejected(self, triplet):
        cost = np.ones((3, 3))
        np.fill_diagonal(cost, 0.0)
        cost[0, 2] = cost[2, 0] = FORBIDDEN
        inst = make_instance(np.ones((2, 3)), assign_cost=cost)
        doc = solution_to_dict(solve_centralized(inst))
        doc["assignments"].append(triplet)
        with pytest.raises(ValueError, match="diagonal or out-of-range"):
            solution_from_dict(doc, inst)
        # a zero there carries nothing, so it is read as no assignment
        doc["assignments"][-1][3] = 0.0
        assert solution_from_dict(doc, inst).assignment.z.shape == (2, 4)

    @pytest.mark.parametrize("root", [[], 5])
    def test_non_object_root_rejected(self, root):
        with pytest.raises(ValueError, match="must be a JSON object"):
            solution_from_dict(root, make_instance(np.ones((1, 1))))

    @pytest.mark.parametrize("field, value", [
        ("capacity", ["1", 0, 0]), ("capacity", [True, 0, 0]), ("capacity", [None, 0, 0]),
        ("assignments", [[0, 0, 1, "0.5"]]), ("assignments", [[0, 0, 1, True]]),
        ("assignments", [[0, 0, 1, None]]), ("assignments", [[0, 0, 1, 0.5], [1, 0, 2]]),
    ])
    def test_mistyped_value_is_a_value_error(self, field, value):
        inst = make_instance(np.ones((2, 3)))
        doc = solution_to_dict(solve_centralized(inst))
        with pytest.raises(ValueError, match=field):
            solution_from_dict(dict(doc, **{field: value}), inst)

    @pytest.mark.parametrize("path, value", [
        (("feasibility", "tol"), "1e-6"), (("feasibility", "tol"), None),
        (("stats",), [["a", 1]]), (("feasibility", "tol"), math.inf),
        (("feasibility", "tol"), math.nan), (("feasibility", "tol"), -1.0),
    ])
    def test_mistyped_nested_value_is_a_value_error(self, path, value):
        inst = make_instance(np.ones((2, 3)))
        doc = json.loads(json.dumps(solution_to_dict(solve_centralized(inst))))
        set_nested(doc, path, value)
        with pytest.raises(ValueError, match=re.escape(".".join(path))):
            solution_from_dict(doc, inst)

    @pytest.mark.parametrize("path, value", [
        (("cost", "total"), "oops"), (("cost", "investment"), True),
        (("feasibility", "residuals", "budget", "violation"), "0"),
        (("feasibility", "residuals", "budget", "where"), "ab"),
        (("feasibility", "residuals", "budget", "where"), [0.5]),
        (("feasibility", "residuals", "budget"), 0.0),
        (("feasibility", "residuals"), []), (("cost",), 5),
        (("cost", "total"), 1e9), (("feasibility", "feasible"), False),
        (("feasibility", "residuals", "budget", "violation"), 1e9),
    ])
    def test_stored_cost_and_residuals_are_not_read(self, path, value):
        inst = make_instance(np.ones((2, 3)))
        sol = solve_centralized(inst)
        doc = json.loads(json.dumps(solution_to_dict(sol)))
        set_nested(doc, path, value)
        back = solution_from_dict(doc, inst)
        assert back.cost == sol.cost
        assert back.feasibility == sol.feasibility

    def test_an_edited_plan_is_judged_as_edited(self, tmp_path):
        inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=1, range_km=6.0))
        sol = solve_centralized(inst)
        path = tmp_path / "solution.json"
        save_solution(sol, path)
        doc = json.loads(path.read_text())
        big = int(np.argmax(doc["capacity"]))
        doc["capacity"][big] /= 2
        path.write_text(json.dumps(doc, indent=1))
        back = load_solution(path, inst)
        inv = InvestmentPlan(np.array(doc["capacity"]))
        assert back.cost == evaluate_objective(inst, inv, sol.assignment)
        assert back.cost.total < sol.cost.total
        verdict = check_feasibility(inst, inv, sol.assignment, sol.feasibility.tol)
        assert back.feasibility == verdict
        assert not back.feasibility.feasible
        assert back.feasibility.residuals["capacity_satisfaction"].violation > 0

    @given(case=edge_cases(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_save_then_load_is_the_identity(self, case, seed):
        inst, z_e = case
        capacity = np.random.default_rng(seed).uniform(-1.0, 5.0, inst.n_locations)
        inv, asg = InvestmentPlan(capacity), AssignmentPlan(inst.range_graph, z_e)
        sol = assess(inst, inv, asg, 1e-6, {"method": "manual"})
        doc = json.loads(json.dumps(solution_to_dict(sol, "abc")))
        back = solution_from_dict(doc, inst)
        assert back.assignment.graph is inst.range_graph
        np.testing.assert_array_equal(back.assignment.z, sol.assignment.z)
        np.testing.assert_array_equal(back.investment.capacity, capacity)
        assert back.cost == sol.cost
        assert back.feasibility == sol.feasibility
        assert back.stats == sol.stats


#: numbers as the documents hold them, with the values ``json`` spells its
#: own way and ints beyond 64 bits
numbers = st.one_of(st.floats(), st.integers(), st.integers(2**63, 2**70).map(lambda v: -v),
                    st.sampled_from([float("nan"), float("inf"), -float("inf"), 2**64]))
#: strings that hold the separators the writer replaces, line ends and
#: characters outside ASCII
texts = st.one_of(st.text(), st.sampled_from([", ", "], [", "[1, 2]", "a\nb", "\u00e9\u8def", ""]))
leaves = st.one_of(st.none(), st.booleans(), numbers, texts, st.floats().map(np.float64))
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=2),
        st.lists(numbers, max_size=5),
        st.lists(st.lists(numbers, min_size=1, max_size=4), max_size=4),
    ),
    max_leaves=30,
)


class TestDumps:
    """:func:`dumps` writes exactly what ``json.dumps`` writes at indent 1."""

    @given(doc=json_trees)
    @example(doc=[1, True])
    @example(doc=[[], {}, [[]], {"a": {}}, [[1.0]], [[1, 2], []]])
    @example(doc={"m": [[1, 2.5], [float("nan"), -float("inf")]], "s": "], [, "})
    @settings(max_examples=1000, deadline=None)
    def test_generic_trees(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=1)

    @given(case=edge_cases(), unbounded=st.booleans(), located=st.booleans(),
           empty_plan=st.booleans(), stats=st.dictionaries(texts, json_trees, max_size=3))
    @example(case=(make_instance([[2.0]]), np.zeros((1, 0))), unbounded=True, located=True,
             empty_plan=True, stats={})
    @settings(max_examples=200, deadline=None)
    def test_instance_and_solution_documents(self, case, unbounded, located, empty_plan,
                                             stats):
        inst, z_e = case
        n, rng = inst.n_locations, np.random.default_rng(inst.n_slots)
        if unbounded:
            inst = dataclasses.replace(inst, budget=np.inf, capacity_max=np.full(n, np.inf))
        if located:
            inst = dataclasses.replace(inst, distance=rng.uniform(0.0, 9.0, (n, n)),
                                       coordinates=rng.uniform(-1.0, 1.0, (n, 2)))
        if empty_plan:
            z_e = np.zeros_like(z_e)
        doc = instance_to_dict(inst)
        assert dumps(doc) == json.dumps(doc, indent=1)
        capacity = rng.uniform(0.0, 5.0, n)
        sol = assess(inst, InvestmentPlan(capacity), AssignmentPlan(inst.range_graph, z_e),
                     1e-6, dict(stats, method="manual"))
        doc = solution_to_dict(sol, "abc")
        assert dumps(doc) == json.dumps(doc, indent=1)

    def test_saved_files_are_the_documents(self, tmp_path):
        inst = generate_instance(GenParams(n_locations=4, n_slots=12, seed=2))
        save_instance(inst, tmp_path / "instance.json")
        assert ((tmp_path / "instance.json").read_text()
                == json.dumps(instance_to_dict(inst), indent=1))
        sol = solve_centralized(inst)
        save_solution(sol, tmp_path / "solution.json", "abc")
        assert ((tmp_path / "solution.json").read_text()
                == json.dumps(solution_to_dict(sol, "abc"), indent=1))
