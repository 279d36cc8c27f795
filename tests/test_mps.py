"""MPS export/import: exact round-trips and the variable-name contract."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from chargeplan.central import build_lp, solve_lp
from chargeplan.mps import col_names, read_mps, row_names, write_mps

from conftest import edge_cases, make_instance, random_instance


def assert_same_matrix(back, lp):
    """The column-major arrays agree exactly, not approximately."""
    for name in ("start", "index", "vals"):
        np.testing.assert_array_equal(getattr(back, name), getattr(lp, name))


def assert_same_lp(back, lp):
    assert (back.n_rows, back.n_cols) == (lp.n_rows, lp.n_cols)
    assert (back.n_locations, back.n_slots) == (lp.n_locations, lp.n_slots)
    assert row_names(back) == row_names(lp)
    assert col_names(back) == col_names(lp)
    assert_same_matrix(back, lp)
    np.testing.assert_array_equal(back.rhs, lp.rhs)
    np.testing.assert_array_equal(back.obj, lp.obj)
    np.testing.assert_array_equal(back.ub, lp.ub)
    np.testing.assert_array_equal(back.edges, lp.edges)


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


def test_variable_names_are_one_based(tmp_path):
    inst = make_instance(np.ones((2, 3)))
    lp = build_lp(inst)
    names = col_names(lp)
    assert names[:3] == ["C_1", "C_2", "C_3"]
    assert "Z_1_2_1" in names
    assert "Z_3_2_2" in names
    # names decode back to model indices
    path = tmp_path / "named.mps"
    write_mps(lp, path)
    back = read_mps(path)
    assert (back.n_locations, back.n_slots) == (3, 2)
    assert [0, 1] in back.edges.tolist()  # Z_1_2_1: origin 0, destination 1


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_preserves_every_coefficient(tmp_path, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    lp = build_lp(inst)
    path = tmp_path / f"rt_{seed}.mps"
    write_mps(lp, path)
    back = read_mps(path)

    assert back.n_rows == lp.n_rows
    assert back.n_cols == lp.n_cols
    assert_same_lp(back, lp)


@given(case=edge_cases())
@settings(max_examples=60, deadline=None)
def test_round_trip_on_edge_cases(case):
    # asymmetric and empty range graphs, an isolated location, wrapping delays
    inst, _ = case
    lp = build_lp(inst)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edge.mps"
        write_mps(lp, path)
        assert_same_lp(read_mps(path), lp)


def test_round_trip_solves_to_same_objective(tmp_path):
    rng = np.random.default_rng(42)
    inst = random_instance(rng)
    lp = build_lp(inst)
    path = tmp_path / "solve.mps"
    write_mps(lp, path)
    back = read_mps(path)
    x1, s1 = solve_lp(lp)
    x2, s2 = solve_lp(back)
    assert s1["lp_objective"] == pytest.approx(s2["lp_objective"], abs=1e-9)


def test_awkward_doubles_survive(tmp_path):
    # values with no short decimal representation must round-trip bit-exactly
    inst = make_instance(
        [[np.pi], [1.0 / 3.0]],
        beta=np.nextafter(1.0, 2.0),
        base_cost=1e-17,
        budget=12345678901234.567,
    )
    lp = build_lp(inst)
    path = tmp_path / "awkward.mps"
    write_mps(lp, path)
    back = read_mps(path)
    assert_same_matrix(back, lp)
    np.testing.assert_array_equal(back.rhs, lp.rhs)


def test_unknown_bound_type_rejected(tmp_path):
    inst = make_instance([[1.0]])
    path = tmp_path / "bad.mps"
    write_mps(build_lp(inst), path)
    text = path.read_text().replace(" UP BND", " FR BND")
    path.write_text(text)
    with pytest.raises(ValueError, match="bound"):
        read_mps(path)


def test_lower_bound_rejected(tmp_path):
    # every column is bounded below by zero; a file that says otherwise is not
    # this LP
    path = tmp_path / "lo.mps"
    write_mps(build_lp(make_instance([[1.0]], capacity_max=[4.0])), path)
    text = path.read_text().replace("BOUNDS\n", "BOUNDS\n LO BND           C_1           1\n")
    path.write_text(text)
    with pytest.raises(ValueError, match="bound type 'LO'"):
        read_mps(path)


def test_names_off_the_layout_rejected(tmp_path):
    path = tmp_path / "names.mps"
    write_mps(build_lp(make_instance(np.ones((2, 2)))), path)
    path.write_text(path.read_text().replace("Z_2_1_2", "Z_2_1_3"))
    with pytest.raises(ValueError, match="layout"):
        read_mps(path)


def test_column_listed_in_two_places_rejected(tmp_path):
    # MPS lists each column's entries together; an entry of C_1 after other
    # columns' would otherwise be read into the last column
    path = tmp_path / "split.mps"
    write_mps(build_lp(make_instance(np.ones((2, 2)))), path)
    extra = "    C_1           FLOW_1_1      1\nRHS\n"
    path.write_text(path.read_text().replace("RHS\n", extra))
    with pytest.raises(ValueError, match="C_1: its entries are not contiguous"):
        read_mps(path)


@pytest.mark.parametrize("sense", ["G", "E"])
def test_row_sense_other_than_l_rejected(tmp_path, sense):
    # the LP's rows all read <=; a >= or = row must not be solved as <=
    path = tmp_path / "sense.mps"
    path.write_text(
        "NAME          HAND\n"
        "ROWS\n"
        " N  COST\n"
        f" {sense}  BUDGET\n"
        "COLUMNS\n"
        "    C_1           COST          1\n"
        "    C_1           BUDGET        1\n"
        "RHS\n"
        "    RHS           BUDGET        5\n"
        "ENDATA\n"
    )
    with pytest.raises(ValueError, match="sense"):
        read_mps(path)
