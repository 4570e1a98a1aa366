import math

import numpy as np
import pytest

from orbitopes import lp
from orbitopes.curve import Representation, orbit_points
from orbitopes.lp import gauge, max_min_slack, simplex_minimize


def test_simplex_small_optimal():
    res = simplex_minimize(np.array([[1.0, 2.0]]), np.array([4.0]),
                           np.array([1.0, 1.0]))
    assert res.ok
    assert np.allclose(res.x, [0.0, 2.0])
    assert abs(res.objective - 2.0) < 1e-9


def test_simplex_negative_rhs_is_flipped():
    res = simplex_minimize(np.array([[-1.0, 0.0]]), np.array([-3.0]),
                           np.array([1.0, 1.0]))
    assert res.ok and abs(res.objective - 3.0) < 1e-9


def test_simplex_infeasible():
    # x1 + x2 = -1 with x >= 0 has no solution
    res = simplex_minimize(np.array([[1.0, 1.0]]), np.array([-1.0]),
                           np.array([0.0, 0.0]))
    assert res.status == "infeasible"


def test_simplex_unbounded():
    # min -x1 s.t. x1 - x2 = 0: both can grow forever
    res = simplex_minimize(np.array([[1.0, -1.0]]), np.array([0.0]),
                           np.array([-1.0, 0.0]))
    assert res.status == "unbounded"


def test_simplex_redundant_constraints():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = simplex_minimize(A, np.array([2.0, 4.0]), np.array([1.0, 0.0]))
    assert res.ok and abs(res.objective - 0.0) < 1e-9


def test_simplex_drops_the_row_of_a_redundant_artificial():
    # Phase 1 leaves a zero-level artificial at a basis position other than
    # its own row; the row to drop is the artificial's.  Dropping the row at
    # its basis position instead left a singular basis ("stalled").
    A = np.array([[9, 0, 7, 4, 1], [-3, 1, -3, -1, 0], [-2, 2, -3, 1, -1],
                  [0, -3, 2, -1, -1], [15, -12, 20, -1, 2],
                  [-10, -3, -6, -3, -5]], dtype=float)
    b = A @ np.array([0.0, 0.0, 1.0, 0.0, 2.0])
    res = simplex_minimize(A, b, np.array([2.0, 0.0, 0.0, -3.0, -2.0]))
    assert res.ok and abs(res.objective + 4.0) < 1e-9
    assert np.allclose(res.x, [0.0, 0.0, 1.0, 0.0, 2.0])


def test_basis_is_factorized_only_to_refactor_or_conclude(monkeypatch):
    calls = {"solve": 0, "inv": 0, "_pivot": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "solve")
    counted(np.linalg, "inv")
    counted(lp, "_pivot")
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, size=(20, 400))
    b = A @ rng.uniform(0, 1, size=400)
    res = simplex_minimize(A, b, rng.uniform(0, 1, size=400))
    pivots = calls["_pivot"]
    assert res.ok and pivots > 2 * lp._REFACTOR_EVERY
    assert calls["solve"] == 2  # the optimal x_b of each phase
    # periodic refactorizations plus one fresh check per phase verdict
    assert calls["inv"] <= 2 + pivots // lp._REFACTOR_EVERY


def test_simplex_degenerate_vertex_terminates():
    # many constraints meeting at one point; exercises the Bland fallback
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, size=(6, 12))
    b = np.zeros(6)
    c = rng.uniform(0, 1, size=12)
    res = simplex_minimize(A, b, c)
    assert res.status in ("optimal", "infeasible")


def test_gauge_square():
    square = np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]])
    assert abs(gauge(square, np.array([0.25, 0.25])) - 0.25) < 1e-9
    assert abs(gauge(square, np.array([1.0, 0.0])) - 1.0) < 1e-9
    assert abs(gauge(square, np.array([2.0, 2.0])) - 2.0) < 1e-9
    assert gauge(square, np.array([0.0, 0.0])) == 0.0


def test_gauge_outside_conic_span_is_inf():
    ray = np.array([[1.0, 0.0]])
    assert gauge(ray, np.array([0.0, 1.0])) == math.inf


def test_gauge_raises_when_the_simplex_stalls():
    # a point strictly inside the universal body of order 3, at gauge 0.75
    # (HiGHS agrees), on which phase two runs out of pivots over 4096
    # curve points: no gauge, rather than inf for "outside"
    rep = Representation((1, 2, 3))
    hull = orbit_points(rep, np.arange(4096) * (2 * math.pi / 4096))
    thetas = np.array([0.7420342946275719, 0.7420342946275719, 0.732421875])
    weights = np.array([0.7421875, 0.7421875, 0.73046875])
    point = 0.75 * ((weights / weights.sum()) @ orbit_points(rep, thetas))
    with pytest.raises(ArithmeticError, match="stalled"):
        gauge(hull, point)


def test_max_min_slack_circle_single_contact():
    thetas = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
    mask = np.abs(np.angle(np.exp(1j * thetas))) > 0.05
    grid = np.column_stack([np.cos(thetas[mask]), np.sin(thetas[mask])])
    eq = np.array([[1.0, 0.0]])
    delta, w, status = max_min_slack(eq, grid)
    assert status == "optimal"
    assert w is not None and abs(w @ [1.0, 0.0] - 1.0) < 1e-9
    # optimum is 1 - cos of the first grid angle beyond the exclusion arc
    first = thetas[mask][np.argmin(np.abs(thetas[mask] - 0.05))]
    assert abs(delta - (1 - math.cos(first))) < 1e-6


def test_max_min_slack_infeasible_equalities():
    eq = np.array([[1.0, 0.0], [-1.0, 0.0]])  # w1 = 1 and -w1 = 1
    grid = np.array([[0.0, 1.0], [0.0, -1.0]])
    delta, w, status = max_min_slack(eq, grid)
    assert status != "optimal"
    assert w is None
