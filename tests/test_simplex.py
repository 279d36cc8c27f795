"""The embedded two-phase simplex against hand solutions and scipy."""

import warnings

import numpy as np
import pytest
import scipy.optimize

from chargeplan.central import build_lp
from chargeplan.simplex import solve_simplex

from conftest import make_instance


def test_textbook_maximization_as_min():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36
    c = np.array([-3.0, -5.0])
    A = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    res = solve_simplex(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-36.0)
    np.testing.assert_allclose(res.x, [2.0, 6.0], atol=1e-9)


def test_min_cost_with_lower_bound_row():
    # min x + 2y s.t. x + y >= 3 (as -x - y <= -3) -> x = 3, y = 0
    res = solve_simplex(
        np.array([1.0, 2.0]), np.array([[-1.0, -1.0]]), np.array([-3.0])
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    np.testing.assert_allclose(res.x, [3.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    # x <= 1 and x >= 2 cannot both hold
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -2.0])
    res = solve_simplex(np.array([1.0]), A, b)
    assert res.status == "infeasible"
    assert res.x is None


def test_unbounded_budget_row_refused_by_name():
    # the LP of an instance with an unbounded budget has an infinite rhs,
    # which the simplex cannot take: refused by name before any arithmetic
    lp = build_lp(make_instance([[3.0, 0.0], [0.0, 3.0]], budget=np.inf))
    assert np.isinf(lp.rhs).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^b has a non-finite entry"):
            solve_simplex(lp.obj, lp.matrix().toarray(), lp.rhs)


@pytest.mark.parametrize("c, A, b, message", [
    ([1.0], [[1.0]], [1.0, 2.0], r"^b has shape \(2,\), expected \(1,\)"),
    ([1.0, 1.0], [[1.0]], [1.0], r"^c has shape \(2,\), expected \(1,\)"),
    ([1.0], [1.0], [1.0], "^A must be a matrix"),
    ([np.nan], [[1.0]], [1.0], "^c has a non-finite entry"),
    ([1.0], [[np.inf]], [1.0], "^A has a non-finite entry"),
], ids=["b-length", "c-length", "A-vector", "c-nan", "A-inf"])
def test_bad_input_refused_by_name(c, A, b, message):
    with pytest.raises(ValueError, match=message):
        solve_simplex(np.array(c), np.array(A), np.array(b))


def test_unbounded_detected():
    # min -x with only x >= 1
    res = solve_simplex(np.array([-1.0]), np.array([[-1.0]]), np.array([-1.0]))
    assert res.status == "unbounded"


def test_degenerate_instance_terminates():
    # classic degenerate vertex: several rows active at the optimum
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    res = solve_simplex(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def test_iteration_limit_reported():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.0, 1.0, size=(8, 12))
    b = rng.uniform(1.0, 2.0, size=8)
    c = rng.uniform(-1.0, 0.0, size=12)
    res = solve_simplex(c, A, b, max_iterations=1)
    assert res.status == "iteration_limit"


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_feasible_lps(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    A = rng.uniform(-1.0, 2.0, size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)  # b > 0 keeps x = 0 feasible
    c = rng.uniform(-2.0, 2.0, size=n)
    # cap every variable so the problem is bounded regardless of c's sign
    A = np.vstack([A, np.eye(n)])
    b = np.concatenate([b, np.full(n, 5.0)])

    res = solve_simplex(c, A, b)
    ref = scipy.optimize.linprog(c, A_ub=A, b_ub=b, method="highs")
    assert res.status == "optimal"
    assert ref.success
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)
    assert np.all(A @ res.x <= b + 1e-7)
    assert np.all(res.x >= -1e-9)


def test_redundant_equality_like_rows_handled():
    # duplicated rows leave a dependent phase-1 artificial; it must stay benign
    A = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    b = np.array([2.0, 2.0, -2.0])  # forces x + y == 2 exactly
    res = solve_simplex(np.array([1.0, 3.0]), A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)
    np.testing.assert_allclose(res.x, [2.0, 0.0], atol=1e-8)
