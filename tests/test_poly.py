import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitopes.poly import (CoeffMode, SparsePoly, cleared_values,
                            monomials_up_to_degree)


def var(i, nvars=2):
    return SparsePoly.variable(nvars, i)


def test_zero_polynomial_eval_and_degree():
    zero = SparsePoly.zero(4)
    assert zero.evaluate([1, 2, 3, 4]) == 0
    assert zero.degree == -1
    assert zero.is_zero()


def test_eval_f_at_unit_point_surviving_terms(f_stored):
    # at (1,0,1,0) only the x-free, z-free terms survive; their coefficients
    # sum to 4-12+12-4-3+8-6+1 = 0
    survivors = [c for e, c in f_stored.terms.items() if e[1] == 0 and e[3] == 0]
    assert sorted(survivors) == sorted([4, -12, 12, -4, -3, 8, -6, 1])
    assert f_stored.evaluate([1, 0, 1, 0]) == 0


def test_eval_f_at_origin_no_constant_term(f_stored):
    assert all(sum(e) >= 4 for e in f_stored.terms)
    assert f_stored.evaluate([0, 0, 0, 0]) == 0


def test_eval_dimension_mismatch():
    p = var(0)
    with pytest.raises(ValueError):
        p.evaluate([1, 2, 3])


def test_multiply_identity():
    p = var(0) + var(1) ** 2
    one = SparsePoly.constant(2, 1)
    assert p * one == p


def expand_slice_product():
    x, z = var(0), var(1)
    return (x + z) ** 3 * ((x ** 3).scale(4) - x.scale(3) + z)


def test_multiply_slice_factors_hand_expansion():
    # (x+z)^3 (4x^3-3x+z), expanded term by term by hand
    expected = SparsePoly(2, {
        (6, 0): 4, (5, 1): 12, (4, 2): 12, (3, 3): 4,
        (4, 0): -3, (3, 1): -8, (2, 2): -6, (0, 4): 1,
    })
    assert expand_slice_product() == expected


def test_multiply_difference_of_squares():
    z = SparsePoly.variable(1, 0)
    one = SparsePoly.constant(1, 1)
    assert (z + one) * (z - one) == z * z - one


def test_multiply_mode_and_dim_mismatch():
    p = SparsePoly.variable(2, 0)
    q = SparsePoly.variable(3, 0)
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        p * p.to_float()


def test_restrict_circle():
    nvars = 2  # (y, z)
    y, z = var(0), var(1)
    circle = y * y + z * z - SparsePoly.constant(nvars, 1)
    restricted = circle.restrict({0: 0})
    zz = SparsePoly.variable(1, 0)
    assert restricted == zz * zz - SparsePoly.constant(1, 1)


def test_restrict_f_matches_product(f_stored):
    assert f_stored.restrict({0: 0, 2: 0}) == expand_slice_product()


def test_restrict_empty_is_identity(f_stored):
    assert f_stored.restrict({}) is f_stored


def test_restrict_index_bounds():
    with pytest.raises(ValueError):
        var(0).restrict({5: 1})


def test_gradient_cubic_factor_at_origin():
    x, z = var(0), var(1)
    cubic = (x ** 3).scale(4) - x.scale(3) + z
    assert cubic.gradient([0, 0]) == (Fraction(-3), Fraction(1))


def test_gradient_f_vanishes_at_origin(f_stored):
    assert f_stored.gradient([0, 0, 0, 0]) == (0, 0, 0, 0)


def test_gradient_constant_is_zero_vector():
    p = SparsePoly.constant(3, 17)
    assert p.gradient([1, 2, 3]) == (0, 0, 0)


def _random_poly(rng, nvars=3, degree=4, terms=6):
    data = {}
    for _ in range(terms):
        expo = tuple(rng.randint(0, degree // 2) for _ in range(nvars))
        data[expo] = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    return SparsePoly(nvars, data)


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poly(rng)
        q = _random_poly(rng)
        point = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(3)]
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_restrict_then_eval_matches_full_eval():
    rng = random.Random(8)
    for _ in range(25):
        p = _random_poly(rng, nvars=4)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        partial = p.restrict({0: point[0], 2: point[2]})
        assert partial.evaluate([point[1], point[3]]) == p.evaluate(point)


def test_gradient_matches_central_differences():
    rng = random.Random(9)
    h = 1e-6
    for _ in range(10):
        p = _random_poly(rng, nvars=3, degree=8, terms=8).to_float()
        point = [rng.uniform(-1, 1) for _ in range(3)]
        grad = p.gradient(point)
        for i in range(3):
            plus = list(point)
            minus = list(point)
            plus[i] += h
            minus[i] -= h
            fd = (p.evaluate(plus) - p.evaluate(minus)) / (2 * h)
            scale = max(1.0, abs(grad[i]))
            assert abs(fd - grad[i]) / scale < 1e-5


def test_zero_coefficients_are_pruned():
    p = SparsePoly(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = p - p
    assert q.is_zero()


def test_mode_coercion_rejects_floats_in_rational_mode():
    with pytest.raises(TypeError):
        SparsePoly(1, {(1,): 0.5})
    with pytest.raises(TypeError):
        SparsePoly.variable(1, 0).evaluate([0.5])


def test_text_format_round_trip(f_stored):
    text = f_stored.dumps()
    assert SparsePoly.loads(text) == f_stored
    # canonical listing is descending graded-lex: first line is the largest
    first = text.splitlines()[0].split()
    assert sum(int(t) for t in first[1:]) == f_stored.degree


def test_text_format_float_round_trip():
    p = SparsePoly(2, {(2, 0): 1.5, (0, 1): -0.25}, CoeffMode.FLOAT)
    assert SparsePoly.loads(p.dumps()) == p


def test_mode_conversions():
    p = SparsePoly(1, {(3,): Fraction(1, 4)})
    q = p.to_float()
    assert q.mode is CoeffMode.FLOAT
    assert q.terms == {(3,): 0.25}
    assert q.to_float() is q


def test_monomial_enumeration_counts():
    assert len(monomials_up_to_degree(4, 8)) == 495
    assert len(monomials_up_to_degree(4, 15)) == 3876
    assert len(monomials_up_to_degree(4, 3)) == 35
    first = monomials_up_to_degree(2, 2)
    assert first == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 4))


@st.composite
def poly_and_point(draw):
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 5)] * nvars)
    terms = draw(st.dictionaries(exponents, fractions, max_size=8))
    # a nonzero, generally non-integer constant term
    terms[(0,) * nvars] = draw(fractions.filter(bool))
    point = draw(st.lists(fractions | st.integers(-9, 9), min_size=nvars,
                          max_size=nvars))
    return SparsePoly(nvars, terms), point


def test_cleared_values_of_sparse_powers_match_direct_powers():
    # kept powers {0, 1, 5, 128} of x1, {0, 1, 2, 128} of x2 and pads
    # {1, 2, 123, 129, 130} of L: steps of one and jumps between kept powers
    rng = random.Random(7)
    exponents = [(0, 0), (1, 0), (5, 2), (128, 1), (0, 128)]
    top = 130
    points = [(rng.randrange(1, 2 ** 40), *(rng.randrange(-2 ** 60, 2 ** 60)
                                            for _ in range(2)))
              for _ in range(4)]
    vectors = [[rng.randrange(-9, 10) for _ in exponents] for _ in range(2)]
    values = cleared_values(exponents, vectors, top, points)
    for j, (lead, x1, x2) in enumerate(points):
        for k, vec in enumerate(vectors):
            assert values[k, j] == sum(
                c * lead ** (top - a - b) * x1 ** a * x2 ** b
                for c, (a, b) in zip(vec, exponents))


@settings(max_examples=200, deadline=None)
@given(poly_and_point())
def test_rational_eval_matches_fraction_sum(case):
    p, point = case
    expected = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for e, v in zip(expo, point):
            term *= Fraction(v) ** e
        expected += term
    assume(expected != 0)
    value = p.evaluate(point)
    assert isinstance(value, Fraction)
    assert value == expected


@pytest.mark.parametrize("text", [
    "nan 1 0\n", "-inf 1 0\n", "1e400 1 0\n", "1/0 1 0\n", "x 1 0\n",
    "1/2 1 0\n0.5 0 1\n",     # a float coefficient in a rational polynomial
])
def test_loads_rejects_non_finite_and_mixed_coefficients(text):
    with pytest.raises(ValueError):
        SparsePoly.loads(text)


def test_loads_reads_rational_terms_of_a_float_polynomial():
    p = SparsePoly.loads("0.5 1 0\n3 0 1\n")
    assert p == SparsePoly(2, {(1, 0): 0.5, (0, 1): 3.0}, CoeffMode.FLOAT)
