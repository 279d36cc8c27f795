"""MPS export: HiGHS reads every written file back exactly, under the names
the layout contract gives."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize._highspy import _core as highspy

from chargeplan.central import _HIGHS_OPTIONS, build_lp, solve_lp
from chargeplan.datagen import GenParams, generate_instance
from chargeplan.mps import col_names, row_names, write_mps

from conftest import edge_cases, highs_read, make_instance, random_instance


def assert_read_back_exactly(path, lp):
    """HiGHS's reading of the file is ``lp``: the column-major arrays, costs,
    bounds and names agree exactly, not approximately."""
    back = highs_read(path).getLp()
    assert (back.num_row_, back.num_col_) == (lp.n_rows, lp.n_cols)
    assert (back.sense_, back.offset_) == (highspy.ObjSense.kMinimize, 0.0)
    matrix = back.a_matrix_
    assert matrix.format_ == highspy.MatrixFormat.kColwise
    np.testing.assert_array_equal(matrix.start_, lp.start)
    np.testing.assert_array_equal(matrix.index_, lp.index)
    np.testing.assert_array_equal(matrix.value_, lp.vals)
    np.testing.assert_array_equal(back.col_cost_, lp.obj)
    np.testing.assert_array_equal(back.col_lower_, np.zeros(lp.n_cols))
    np.testing.assert_array_equal(back.col_upper_, lp.ub)
    np.testing.assert_array_equal(back.row_lower_, np.full(lp.n_rows, -np.inf))
    np.testing.assert_array_equal(back.row_upper_, lp.rhs)
    assert back.col_names_ == col_names(lp)
    assert back.row_names_ == row_names(lp)


def test_single_location_file_layout(tmp_path):
    inst = make_instance([[3.0]], base_cost=2.0)
    lp = build_lp(inst)
    path = tmp_path / "tiny.mps"
    write_mps(lp, path)
    text = path.read_text()
    assert text.startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    # exactly one structural column: the capacity variable
    column_lines = [
        line for line in text.splitlines() if line.lstrip().startswith("C_1")
    ]
    assert column_lines  # appears in the objective and the budget row
    assert "Z_" not in text
    assert_read_back_exactly(path, lp)


def test_variable_names_are_one_based(tmp_path):
    inst = make_instance(np.ones((2, 3)))
    lp = build_lp(inst)
    names = col_names(lp)
    assert names[:3] == ["C_1", "C_2", "C_3"]
    assert "Z_1_2_1" in names
    assert "Z_3_2_2" in names
    # names decode back to model indices: the column HiGHS reads as Z_1_2_1
    # (origin 0, destination 1, slot 0, no delay) sits in origin 0's flow row
    # and in both ends' capacity rows of slot 0
    path = tmp_path / "named.mps"
    write_mps(lp, path)
    back = highs_read(path).getLp()
    k = back.col_names_.index("Z_1_2_1")
    matrix = back.a_matrix_
    rows = matrix.index_[matrix.start_[k]:matrix.start_[k + 1]]
    assert [back.row_names_[r] for r in rows] == ["FLOW_1_1", "CAPU_1_1", "CAPU_2_1"]
    assert_read_back_exactly(path, lp)


def test_unbounded_budget_reads_back_as_infinite(tmp_path):
    lp = build_lp(make_instance(np.ones((2, 2)), budget=np.inf))
    path = tmp_path / "unbounded.mps"
    write_mps(lp, path)
    assert lp.rhs[0] == np.inf
    assert_read_back_exactly(path, lp)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_preserves_every_coefficient(tmp_path, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    lp = build_lp(inst)
    path = tmp_path / f"rt_{seed}.mps"
    write_mps(lp, path)
    assert_read_back_exactly(path, lp)


@given(case=edge_cases())
@settings(max_examples=60, deadline=None)
def test_round_trip_on_edge_cases(case):
    # asymmetric and empty range graphs, an isolated location, wrapping delays
    inst, _ = case
    lp = build_lp(inst)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edge.mps"
        write_mps(lp, path)
        assert_read_back_exactly(path, lp)


def test_round_trip_solves_to_same_objective(tmp_path):
    # the model HiGHS read, solved under the options every solve uses, gives
    # the point and objective of the LP handed to HiGHS directly
    rng = np.random.default_rng(42)
    lp = build_lp(random_instance(rng))
    path = tmp_path / "solve.mps"
    write_mps(lp, path)
    highs = highs_read(path)
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    x1, s1 = solve_lp(lp)
    x2, s2 = solve_lp(lp, highs)
    np.testing.assert_array_equal(x2, x1)
    assert s2["lp_objective"] == s1["lp_objective"]


def test_round_trip_on_a_generated_instance_with_single_edge_origins(tmp_path):
    # four origins with one edge carry their demand as UP bounds and one
    # with none has no row: HiGHS reads the file back exactly and solves it
    # to the point of the LP handed to it directly
    lp = build_lp(generate_instance(GenParams(n_locations=20, n_slots=96, seed=0)))
    assert np.isfinite(lp.ub[20:]).sum() == 4 * 96
    path = tmp_path / "generated.mps"
    write_mps(lp, path)
    assert_read_back_exactly(path, lp)
    highs = highs_read(path)
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    x1, s1 = solve_lp(lp)
    x2, s2 = solve_lp(lp, highs)
    np.testing.assert_array_equal(x2, x1)
    assert s2["lp_objective"] == s1["lp_objective"]


def value_fields(text: str, section: str) -> list[float]:
    """The value field, the last on each line, of one section of an MPS file."""
    lines = text.splitlines()
    begin = lines.index(section) + 1
    end = next(k for k in range(begin, len(lines)) if not lines[k].startswith(" "))
    return [float(line.split()[-1]) for line in lines[begin:end]]


def test_awkward_doubles_survive(tmp_path):
    # values with no short decimal representation must be written bit-exactly.
    # HiGHS's reader drops matrix entries at or below small_matrix_value
    # (1e-9 by default, 1e-12 at the least), so this budget coefficient of
    # 1e-17 is checked in the file's own value fields
    inst = make_instance(
        [[np.pi], [1.0 / 3.0]],
        beta=np.nextafter(1.0, 2.0),
        base_cost=1e-17,
        budget=12345678901234.567,
    )
    lp = build_lp(inst)
    path = tmp_path / "awkward.mps"
    write_mps(lp, path)
    text = path.read_text()
    # each column lists its cost, when nonzero, then its matrix entries
    columns = []
    for k in range(lp.n_cols):
        columns += [lp.obj[k]] if lp.obj[k] != 0.0 else []
        columns += lp.vals[lp.start[k]:lp.start[k + 1]].tolist()
    np.testing.assert_array_equal(value_fields(text, "COLUMNS"), columns)
    assert 1e-17 in value_fields(text, "COLUMNS")
    np.testing.assert_array_equal(value_fields(text, "RHS"), lp.rhs[lp.rhs != 0.0])
    np.testing.assert_array_equal(value_fields(text, "BOUNDS"), lp.ub[np.isfinite(lp.ub)])
