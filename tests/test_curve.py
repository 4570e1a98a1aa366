import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitopes.curve import (DegenerateHyperplaneError, Representation,
                             _cleared_cos_sin, antipodal_point, cleared_point,
                             curve_info, numeric_degree_probe, orbit_points,
                             rational_point)


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(())
    with pytest.raises(ValueError):
        Representation((0, 2))
    with pytest.raises(ValueError):
        Representation((3, 3))
    assert Representation((5, 1)).indices == (1, 5)


def test_representation_parse_and_str():
    rep = Representation.parse("1,3")
    assert rep.indices == (1, 3)
    assert str(rep) == "1,3"
    with pytest.raises(ValueError):
        Representation.parse("1,a")


def test_reduce_examples():
    assert Representation((1, 3)).reduce().indices == (1, 3)
    assert Representation((2, 6)).reduce().indices == (1, 3)
    assert Representation((3, 5)).reduce().indices == (3, 5)


def test_reduce_is_idempotent():
    for idx in ((2, 6), (4, 8, 12), (5, 10)):
        reduced = Representation(idx).reduce()
        assert reduced.reduce() == reduced
        assert reduced.is_reduced()


def test_orbit_point_examples():
    rep = Representation((1, 3))
    assert np.allclose(orbit_points(rep, 0.0), [1, 0, 1, 0])
    assert np.allclose(orbit_points(rep, math.pi), [-1, 0, -1, 0], atol=1e-12)
    assert np.allclose(orbit_points(rep, math.pi / 2), [0, 1, 0, -1], atol=1e-12)


@pytest.mark.parametrize("indices", [(1,), (1, 3), (1, 4), (2, 5), (1, 2, 3),
                                     (1, 3, 5, 7), (5, 64)])
def test_orbit_points_match_the_scalar_definition(indices):
    # column 2i is cos(j_i t), column 2i+1 sin(j_i t), bit for bit
    rep = Representation(indices)
    thetas = np.random.default_rng(sum(indices)).uniform(-20.0, 20.0, 37)
    expected = [[f(j * t) for j in indices for f in (math.cos, math.sin)]
                for t in thetas]
    assert np.array_equal(orbit_points(rep, thetas), expected)
    for t, row in zip(thetas[:3], expected):
        # a 0-d angle gives one point
        point = orbit_points(rep, t)
        assert point.shape == (rep.ambient_dim,)
        assert np.array_equal(point, row)
    assert orbit_points(rep, []).shape == (0, rep.ambient_dim)


def test_rational_point_examples():
    rep = Representation((1, 3))
    assert rational_point(rep, 0) == (1, 0, 1, 0)
    assert rational_point(rep, 1) == (0, 1, 0, -1)
    assert rational_point(Representation((1,)), Fraction(1, 2)) == \
        (Fraction(3, 5), Fraction(4, 5))


def per_coordinate_rational_point(rep, t):
    """Each coordinate its own Fraction over (d^2+n^2)^j, as the exact
    curve point was computed before the cleared integer points."""
    t = Fraction(t)
    n, d = t.numerator, t.denominator
    norm = d * d + n * n
    coords = []
    for j in rep.indices:
        re, im = _cleared_cos_sin(j)
        terms = [n ** k * d ** (2 * j - k) for k in range(2 * j + 1)]
        coords.append(Fraction(sum(c * x for c, x in zip(re, terms)), norm ** j))
        coords.append(Fraction(sum(c * x for c, x in zip(im, terms)), norm ** j))
    return tuple(coords)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(1, 64), min_size=1, max_size=4),
       st.fractions(max_denominator=10 ** 4))
@example({64}, Fraction(0))
@example({1, 3}, Fraction(-7, 2))
@example({1, 2, 63, 64}, Fraction(-120, 1))
def test_rational_point_matches_per_coordinate_formula(indices, t):
    rep = Representation(tuple(indices))
    expected = per_coordinate_rational_point(rep, t)
    # the coordinates and their types; repr would print integers past
    # Python's 4300-digit limit for large t at frequency 63
    assert [(type(c), c) for c in rational_point(rep, t)] == \
        [(type(c), c) for c in expected]
    n, d = t.numerator, t.denominator
    coords, denom = cleared_point(rep, n, d)
    assert denom == (d * d + n * n) ** rep.max_index
    assert tuple(Fraction(c, denom) for c in coords) == expected


def test_rational_point_matches_orbit_point():
    rng = random.Random(3)
    for idx in ((1, 3), (5, 8), (1, 64)):
        rep = Representation(idx)
        for _ in range(50):
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
            exact = rational_point(rep, t)
            approx = orbit_points(rep, 2 * math.atan(t))
            assert np.allclose([float(v) for v in exact], approx, atol=1e-12)


def test_orbit_points_lie_on_sphere_exactly():
    rng = random.Random(4)
    for idx in ((1,), (1, 3), (2, 3), (1, 2, 4), (5, 8)):
        rep = Representation(idx)
        for _ in range(20):
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 11))
            pt = rational_point(rep, t)
            assert sum(v * v for v in pt) == rep.r


def test_antipodal_point():
    assert antipodal_point(Representation((1, 3))) == (-1, 0, -1, 0)
    assert antipodal_point(Representation((1, 2))) == (-1, 0, 1, 0)


def test_curve_info_examples():
    info = curve_info(Representation((1, 3)))
    assert info.degree == 6 and not info.smooth and info.ambient_dim == 4

    for n in (2, 3, 4, 5):
        rep = Representation(tuple(range(1, n + 1)))
        info = curve_info(rep)
        assert info.degree == 2 * n and info.smooth

    info = curve_info(Representation((2, 3)))
    assert info.degree == 6 and info.smooth


def test_curve_info_reduces_first():
    assert curve_info(Representation((2, 6))) == curve_info(Representation((1, 3)))


def test_curve_info_single_frequency_is_smooth_conic():
    info = curve_info(Representation((7,)))
    assert info.degree == 2 and info.smooth and info.singular_points is None


def test_singular_points_are_conjugate_pair_on_last_block():
    info = curve_info(Representation((1, 3)))
    plus, minus = info.singular_points
    assert plus[:-2] == (0,) * 3 and plus[-2:] == (1, 1j)
    assert minus[:-2] == (0,) * 3 and minus[-2:] == (1, -1j)


def test_degree_probe_examples():
    assert numeric_degree_probe(Representation((1, 3)), 0) == 6
    assert numeric_degree_probe(Representation((1, 2)), 0) == 4
    assert numeric_degree_probe(Representation((2, 3)), 0) == 6


def test_degree_probe_requires_reduced():
    with pytest.raises(ValueError):
        numeric_degree_probe(Representation((2, 6)), 0)


def test_degree_probe_matches_formula_sample():
    rng = random.Random(11)
    for idx in ((1,), (1, 4), (3, 4), (2, 5, 9), (1, 2, 3, 4, 5)):
        rep = Representation(idx)
        expected = curve_info(rep).degree
        for seed in rng.sample(range(10_000), 5):
            try:
                assert numeric_degree_probe(rep, seed) == expected
            except DegenerateHyperplaneError:
                assert numeric_degree_probe(rep, seed + 77_000) == expected


def test_reduce_preserves_orbit_point_set():
    # mutual containment of the sampled orbits under the d-fold parameter map
    rep = Representation((2, 6))
    reduced = rep.reduce()
    d = rep.gcd
    rng = random.Random(12)
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi)
        assert np.allclose(orbit_points(rep, theta),
                           orbit_points(reduced, d * theta), atol=1e-12)
        phi = rng.uniform(0, 2 * math.pi)
        assert np.allclose(orbit_points(reduced, phi),
                           orbit_points(rep, phi / d), atol=1e-12)
