import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitopes.curve import Representation, orbit_points
from orbitopes.toeplitz import (Verdict, det_polynomial, eigenvalues, embed,
                                is_member, membership_report, numerical_rank)


def universal(n):
    return Representation(tuple(range(1, n + 1)))


def test_embed_origin_is_identity():
    m = embed([0.0] * 6)
    assert np.array_equal(m, np.eye(4))


def test_embed_base_point_is_all_ones():
    m = embed([1, 0] * 4)
    assert np.array_equal(m, np.ones((5, 5)))


@pytest.mark.parametrize("n", [1, 4, 64])
def test_embed_orbit_point_is_rank_one_outer_product(n):
    theta = 0.9
    m = embed(orbit_points(universal(n), theta))
    v = np.exp(-1j * theta * np.arange(n + 1))
    assert np.allclose(m, np.outer(v, v.conj()), atol=1e-12)


def test_embed_rejects_odd_length():
    with pytest.raises(ValueError):
        embed([1.0, 2.0, 3.0])


def test_membership_examples():
    n = 3
    assert is_member([0.0] * (2 * n)) is Verdict.INTERIOR
    assert is_member(orbit_points(universal(n), 1.1)) is Verdict.BOUNDARY
    assert is_member([2, 0, 0, 0, 0, 0]) is Verdict.OUTSIDE


def test_face_dimension_examples():
    n = 3
    rep = universal(n)
    assert membership_report(orbit_points(rep, 0.4))["face_dimension"] == 0
    mid = 0.5 * (orbit_points(rep, 0.2) + orbit_points(rep, 2.5))
    assert membership_report(mid)["face_dimension"] == 1
    assert membership_report([0.0] * (2 * n))["face_dimension"] is None
    outside = membership_report([2, 0, 0, 0, 0, 0])
    assert outside["verdict"] == "outside" and outside["face_dimension"] is None


def test_secant_membership_examples():
    # the k-th secant variety of the moment curve is where the Toeplitz rank
    # is at most k + 1
    n = 4
    rep = universal(n)
    p = orbit_points(rep, 0.3)
    assert numerical_rank(eigenvalues(p)) <= 2  # k = 1
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0, 2 * math.pi, size=3)
    weights = rng.dirichlet(np.ones(3))
    combo = weights @ orbit_points(rep, thetas)
    assert numerical_rank(eigenvalues(combo)) <= 3  # k = 2
    assert numerical_rank(eigenvalues([0.0] * (2 * n))) > n  # not on k = n - 1


def test_random_convex_combinations_rank_bound():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        rep = universal(n)
        thetas = rng.uniform(0, 2 * math.pi, size=m)
        weights = rng.dirichlet(np.ones(m))
        combo = weights @ orbit_points(rep, thetas)
        assert is_member(combo) is not Verdict.OUTSIDE
        assert numerical_rank(eigenvalues(combo)) <= m


def test_generic_combinations_achieve_rank():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        rep = universal(n)
        thetas = rng.uniform(0, 2 * math.pi, size=m)
        weights = rng.dirichlet(np.ones(m))
        combo = weights @ orbit_points(rep, thetas)
        assert numerical_rank(eigenvalues(combo)) == m


def test_membership_report_shape():
    rep = universal(3)
    report = membership_report(orbit_points(rep, 0.8))
    assert report["verdict"] == "boundary"
    assert report["rank"] == 1
    assert report["face_dimension"] == 0
    assert abs(report["min_eigenvalue"]) < 1e-9


def test_det_polynomial_n2_explicit():
    det = det_polynomial(2)
    # det = 1 - 2x1^2 - 2y1^2 - x2^2 - y2^2 + 2x1^2 x2 - 2y1^2 x2 + 4 x1 y1 y2
    expected = {
        (0, 0, 0, 0): 1, (2, 0, 0, 0): -2, (0, 2, 0, 0): -2,
        (0, 0, 2, 0): -1, (0, 0, 0, 2): -1, (2, 0, 1, 0): 2,
        (0, 2, 1, 0): -2, (1, 1, 0, 1): 4,
    }
    assert dict(det.terms) == expected


def test_det_polynomial_matches_numeric_determinant():
    rng = random.Random(13)
    for n in (1, 2, 3):
        det = det_polynomial(n).to_float()
        for _ in range(10):
            point = [rng.uniform(-0.6, 0.6) for _ in range(2 * n)]
            numeric = float(np.linalg.det(embed(point)).real)
            assert abs(det.evaluate(point) - numeric) < 1e-10


def test_det_vanishes_on_secants_of_rational_normal_quartic():
    rep = Representation((1, 2))
    det = det_polynomial(2).to_float()
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0, 2 * math.pi, size=2)
        lam = rng.uniform()
        a, b = orbit_points(rep, t)
        combo = lam * a + (1 - lam) * b
        worst = max(worst, abs(det.evaluate(combo)))
    assert worst <= 1e-10


def test_psd_verdict_stable_under_tolerance_scaling():
    # verdicts of well-separated spectra do not depend on the tolerance
    rng = np.random.default_rng(15)
    rep = universal(3)
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        interior = 0.5 * orbit_points(rep, theta)  # strictly inside
        eigs = eigenvalues(interior)
        assert min(abs(eigs)) > 10 * 1e-9
        for tol in (1e-10, 1e-9, 1e-8):
            assert membership_report(interior, tol)["verdict"] == "interior"
            assert numerical_rank(eigs, tol) == 4


def test_rank_tolerance_policy_floors_scale_at_one():
    eigs = np.array([1e-12, 1e-12, 1e-12])
    assert numerical_rank(eigs, 1e-9) == 0


# A convex combination of at most n curve points lies on the boundary of
# the universal body (Toeplitz rank below n+1), and the origin is interior,
# so scaling it by s puts it inside for s < 1 and outside for s > 1.
@st.composite
def scaled_boundary_points(draw):
    """(n, thetas, weights, s) for such a combination, the weights before
    normalization."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, n))
    thetas = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=m,
                           max_size=m))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
    return n, thetas, weights, draw(st.floats(0.6, 0.95) | st.floats(1.05, 1.4))


# where the LP gauge over 4096 curve points stalled (tests/test_lp.py)
STALLED_GAUGE_CASE = (3, [0.7420342946275719, 0.7420342946275719, 0.732421875],
                      [0.7421875, 0.7421875, 0.73046875], 0.75)


@settings(max_examples=120, deadline=None)
@given(scaled_boundary_points())
@example(STALLED_GAUGE_CASE)
def test_membership_agrees_with_the_construction(case):
    n, thetas, weights, scale = case
    weights = np.array(weights)
    boundary = (weights / weights.sum()) @ orbit_points(universal(n),
                                                        np.array(thetas))
    verdict = is_member(scale * boundary)
    assert verdict is not Verdict.BOUNDARY
    assert (verdict is Verdict.INTERIOR) == (scale < 1.0)
