"""``simplex_minimize`` checked against SciPy's HiGHS on small drawn LPs.

SciPy is needed only here, as an independent oracle; the package itself
depends on numpy alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitopes import lp
from orbitopes.lp import simplex_minimize

linprog = pytest.importorskip("scipy.optimize").linprog

OBJECTIVE_TOL = 1e-7


def oracle(A, b, c):
    """``(status, objective)`` from HiGHS.  Feasibility is decided with a
    zero objective first, so an LP that is both infeasible and has an
    improving ray reads "infeasible", as in a two-phase simplex."""
    feasible = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs")
    assert feasible.status in (0, 2), feasible.message
    if feasible.status == 2:
        return "infeasible", None
    res = linprog(c, A_eq=A, b_eq=b, method="highs")
    assert res.status in (0, 3), res.message
    return ("optimal", res.fun) if res.status == 0 else ("unbounded", None)


def assert_matches_oracle(result, A, b, c):
    status, objective = oracle(A, b, c)
    assert result.status == status
    if status == "optimal":
        assert abs(result.objective - objective) <= OBJECTIVE_TOL
        assert np.all(result.x >= -1e-9)
        assert np.allclose(A @ result.x, b, atol=1e-7)


small = st.integers(-3, 3)


@st.composite
def lps(draw, max_rows=4, max_cols=8):
    """Integer data (exact feasibility, no near-ties from rounding)."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(m, max_cols))
    A = np.array(draw(st.lists(st.lists(small, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):
        # right-hand side of a known point: feasible, often degenerate
        x0 = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        b = A @ x0
    else:
        b = np.array(draw(st.lists(small, min_size=m, max_size=m)), dtype=float)
    c = np.array(draw(st.lists(small, min_size=n, max_size=n)), dtype=float)
    return A, b, c


@st.composite
def redundant_lps(draw):
    """A feasible LP whose rows are stacked with integer combinations of
    themselves, in shuffled order."""
    A, _, c = draw(lps(max_rows=3))
    m, n = A.shape
    x0 = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    extra = np.array(draw(st.lists(st.lists(small, min_size=m, max_size=m),
                                   min_size=1, max_size=3)), dtype=float)
    A = np.vstack([A, extra @ A])
    order = draw(st.permutations(range(A.shape[0])))
    A = A[list(order)]
    return A, A @ x0, c


@settings(max_examples=300, deadline=None)
@given(lps())
def test_simplex_matches_highs(data):
    A, b, c = data
    assert_matches_oracle(simplex_minimize(A, b, c), A, b, c)


@settings(max_examples=150, deadline=None)
@given(redundant_lps())
def test_simplex_matches_highs_with_redundant_rows(data):
    A, b, c = data
    assert_matches_oracle(simplex_minimize(A, b, c), A, b, c)


@settings(max_examples=150, deadline=None)
@given(lps(max_rows=5, max_cols=10), st.integers(0, 3))
def test_simplex_matches_highs_under_blands_rule(data, zeros):
    # A zero right-hand side on some rows makes the vertices degenerate; a
    # stall limit of one switches to Bland's rule at the first degenerate
    # pivot.
    A, b, c = data
    b = b.copy()
    b[:zeros] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_STALL_LIMIT", 1)
        result = simplex_minimize(A, b, c)
    assert_matches_oracle(result, A, b, c)


def test_degenerate_default_stall_limit_matches_highs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.integers(-3, 4, size=(6, 14)).astype(float)
        c = rng.integers(0, 4, size=14).astype(float) - 1.0
        b = np.zeros(6)
        assert_matches_oracle(simplex_minimize(A, b, c), A, b, c)
