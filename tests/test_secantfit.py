import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from orbitopes import cli, exactla, secantfit
from orbitopes.curve import (Representation, antipodal_point, orbit_points,
                            rational_point)
from orbitopes.poly import CoeffMode, SparsePoly, monomials_up_to_degree
from orbitopes.secantfit import (InsufficientSamplesError,
                                 NoVanishingPolynomialError,
                                 evaluate_on_points, fit_hypersurface,
                                 rationalize, sample_secants, secant_point,
                                 verify_vanishing, weight_blocks)
from orbitopes.toeplitz import det_polynomial

REP13 = Representation((1, 3))
REP12 = Representation((1, 2))


def test_secant_point_midpoint_example():
    point = secant_point(REP13, [0.0, math.pi / 2], [0.5, 0.5])
    assert np.allclose(point, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_secant_point_degenerate_weight_is_curve_point():
    point = secant_point(REP13, [0.9, 2.2], [1.0, 0.0])
    assert np.allclose(point, secant_point(REP13, [0.9], [1.0]), atol=1e-15)


def test_secant_point_antipodal_midpoint_is_origin():
    # the curve is centrally symmetric, so opposite parameters average to 0
    a = rational_point(REP13, 0)
    b = antipodal_point(REP13)
    midpoint = [Fraction(1, 2) * (x + y) for x, y in zip(a, b)]
    assert midpoint == [0, 0, 0, 0]
    point = secant_point(REP13, [0.0, math.pi], [0.5, 0.5])
    assert np.allclose(point, [0, 0, 0, 0], atol=1e-12)


def test_secant_point_weight_validation():
    with pytest.raises(ValueError):
        secant_point(REP13, [0.0, 1.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        secant_point(REP13, [Fraction(0), Fraction(1)],
                     [Fraction(1, 2), Fraction(1, 3)], CoeffMode.RATIONAL)


def test_sample_secants_float_shape_and_weights():
    points = sample_secants(REP13, 2, 50, seed=1)
    assert points.shape == (50, 4) and points.dtype == np.float64
    draws, _ = sequential_float_samples(REP13, 2, 50, 1)
    for point, (params, weights, _) in zip(points, draws):
        assert len(params) == 2 and abs(sum(weights) - 1) < 1e-12
        assert secant_point(REP13, params, weights) == tuple(point)


def test_sample_secants_rational_exactness():
    points = sample_secants(REP13, 2, 20, seed=2, mode=CoeffMode.RATIONAL)
    draws = sequential_exact_samples(REP13, 2, 20, 2)
    for point, (params, weights, _) in zip(rational_points(points), draws):
        assert sum(weights) == 1
        assert secant_point(REP13, params, weights,
                            CoeffMode.RATIONAL) == point


def test_sample_secants_requires_reduced():
    with pytest.raises(ValueError):
        sample_secants(Representation((2, 6)), 2, 5, seed=0)


def test_sample_secants_exact_pool_exhausted():
    with pytest.raises(InsufficientSamplesError):
        sample_secants(REP13, 1, 2503, seed=0, mode=CoeffMode.RATIONAL)


def sequential_exact_samples(rep, r, count, seed):
    """The exact sampler in Fraction arithmetic, the definition that the
    cleared-integer sampler must equal point for point: the same
    generator calls, the same rejections and the same error.

    Returns the draws as (params, weights, point), in Fractions."""
    rng = random.Random(seed)
    seen = set()
    out = []
    draws = secantfit.DRAWS_PER_SAMPLE * count
    for _ in range(draws):
        params = tuple(Fraction(rng.randint(-4 * d, 4 * d), d)
                       for d in (rng.randint(1, 30) for _ in range(r)))
        if len(set(params)) != r or params in seen:
            continue
        pts = [rational_point(rep, t) for t in params]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        if exactla.exact_rank(diffs) < r - 1:
            continue
        seen.add(params)
        raw = [rng.randint(1, 64) for _ in range(r)]
        total = sum(raw)
        weights = tuple(Fraction(w, total) for w in raw)
        out.append((params, weights,
                    secant_point(rep, params, weights, CoeffMode.RATIONAL)))
        if len(out) == count:
            return out
    raise InsufficientSamplesError(
        f"only {len(out)} of {count} secant samples after {draws} draws")


def exact_outcome(sampler, *args):
    """The sampler's points, or the message of its error."""
    try:
        return sampler(*args)
    except InsufficientSamplesError as exc:
        return f"InsufficientSamplesError: {exc}"


def reference_cleared(rep, r, count, seed):
    """The points of :func:`sequential_exact_samples`, cleared."""
    return cleared([point for *_, point in
                    sequential_exact_samples(rep, r, count, seed)])


def rational_points(points):
    """Each cleared point (L, L*x_1, ..., L*x_n) as its Fraction
    coordinates."""
    return [tuple(Fraction(x, lead) for x in nums) for lead, *nums in points]


EXACT_SAMPLER_CASES = [
    ((1, 3), 2, 400, 0),
    ((1, 3), 1, 2503, 0),           # runs out
    ((1, 3), 1, 800, 1),            # r = 1
    ((1, 2), 4, 150, 2),            # r = ambient dimension
    ((1, 2, 3), 6, 100, 3),
    ((1, 64), 2, 100, 4),           # big integers
    ((1, 2, 3, 4), 3, 150, 5),
]


@pytest.mark.parametrize("indices,r,count,seed", EXACT_SAMPLER_CASES)
def test_exact_sampler_matches_fraction_reference(indices, r, count, seed):
    rep = Representation(indices)
    got = exact_outcome(sample_secants, rep, r, count, seed,
                        CoeffMode.RATIONAL)
    assert got == exact_outcome(reference_cleared, rep, r, count, seed)


@pytest.mark.parametrize("indices,r,count,seed", EXACT_SAMPLER_CASES)
def test_exact_samples_carry_their_cleared_points(indices, r, count, seed):
    # the exact fit and the exact verify read the cleared points as Python
    # ints (L, L*x_1, ...) over the least common denominator L; as
    # rationals they are the reference's points
    rep = Representation(indices)
    try:
        reference = sequential_exact_samples(rep, r, count, seed)
    except InsufficientSamplesError:
        with pytest.raises(InsufficientSamplesError):
            sample_secants(rep, r, count, seed, CoeffMode.RATIONAL)
        return
    points = sample_secants(rep, r, count, seed, CoeffMode.RATIONAL)
    assert all(type(v) is int for point in points for v in point)
    assert all(lead > 0 and math.gcd(lead, *nums) == 1
               for lead, *nums in points)
    assert rational_points(points) == [point for *_, point in reference]


def every_third_candidate_rejected(calls):
    """``exact_rank`` that reports a rank of -1, a rejection, on every
    third call, and records the calls."""
    rank = exactla.exact_rank

    def patched(rows):
        calls.append(len(rows))
        return -1 if len(calls) % 3 == 0 else rank(rows)
    return patched


@pytest.mark.parametrize("r,count", [(2, 300), (1, 1600), (1, 2300)])
def test_exact_sampler_matches_reference_with_rejections(monkeypatch, r,
                                                         count):
    # the weights are drawn for kept candidates only, so both samplers must
    # reject the same candidates to draw the same samples afterwards
    new_calls, reference_calls = [], []
    monkeypatch.setattr(secantfit, "exact_rank",
                        every_third_candidate_rejected(new_calls))
    got = exact_outcome(sample_secants, REP13, r, count, 11,
                        CoeffMode.RATIONAL)
    monkeypatch.setattr(exactla, "exact_rank",
                        every_third_candidate_rejected(reference_calls))
    assert got == exact_outcome(reference_cleared, REP13, r, count, 11)
    assert new_calls == reference_calls and len(new_calls) >= count
    # with r = 1 there are about 2225 distinct parameters
    assert isinstance(got, str) == (count > 2225)


@pytest.mark.parametrize("indices,r,count,seed", [((1, 3), 4, 100, 0),
                                                  ((1, 64), 2, 50, 4)])
def test_exact_rank_rows_are_scaled_curve_differences(monkeypatch, indices,
                                                      r, count, seed):
    # the rank test sees row k - 1 as a positive rational multiple of
    # x(t_k) - x(t_0); the draw's parameters are the last 2r integers the
    # generator gave before the call, as (d, n) pairs
    rep = Representation(indices)
    drawn, checked = [], []

    class Recording(random.Random):
        def randint(self, a, b):
            drawn.append(super().randint(a, b))
            return drawn[-1]

    def spy(rows):
        ds, ns = drawn[-2 * r::2], drawn[-2 * r + 1::2]
        x = [rational_point(rep, Fraction(n, d)) for n, d in zip(ns, ds)]
        assert len(rows) == r - 1
        for row, xk in zip(rows, x[1:]):
            diff = [a - b for a, b in zip(xk, x[0])]
            i = next(i for i, v in enumerate(diff) if v)
            scale = Fraction(row[i], diff[i])
            assert scale > 0 and list(row) == [scale * v for v in diff]
        checked.append(rows)
        return exactla.exact_rank(rows)

    monkeypatch.setattr(secantfit, "random", SimpleNamespace(Random=Recording))
    monkeypatch.setattr(secantfit, "exact_rank", spy)
    points = sample_secants(rep, r, count, seed, CoeffMode.RATIONAL)
    monkeypatch.undo()
    assert len(checked) >= count
    assert points == sample_secants(rep, r, count, seed, CoeffMode.RATIONAL)


def cleared(points):
    """Each rational point as the integers (L, L*x_1, ..., L*x_n), L the
    least common denominator of its coordinates."""
    out = []
    for x in points:
        denom = math.lcm(*[v.denominator for v in x])
        out.append((denom, *[v.numerator * (denom // v.denominator)
                             for v in x]))
    return out


def power_table(point, degree):
    """Powers 0..degree of each entry of the cleared point."""
    return [[v ** e for e in range(degree + 1)] for v in cleared([point])[0]]


def test_exact_kernel_test_refuses_the_last_vector_at_the_last_point():
    # x2 and 2*x1*x2 vanish at every point, x1^2 - x1 everywhere but at the
    # last point, which lies in the last chunk; its monomials are outside
    # the support of the other two vectors
    points = [(Fraction(k % 2), Fraction(0))
              for k in range(2 * secantfit._VANISH_CHUNK + 1)]
    points.append((Fraction(1, 3), Fraction(0)))
    polys = [{(0, 1): 1}, {(1, 1): 2}, {(2, 0): 1, (1, 0): -1}]
    assert not secantfit._vanishes(cleared(points), 2, polys)
    assert secantfit._vanishes(cleared(points[:-1]), 2, polys)
    assert secantfit._vanishes(cleared(points), 2, polys[:-1])


def sequential_float_samples(rep, r, count, seed):
    """The float sampler one draw at a time, the definition that the
    chunked sampler must equal bit for bit.

    Returns the draws as (params, weights, point) and the generator in its
    final state."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        params = rng.uniform(0.0, 2 * math.pi, size=r)
        weights = rng.dirichlet(np.ones(r))
        out.append((params, weights, secant_point(rep, params, weights)))
    return out, rng


def assert_matches_reference(monkeypatch, rep, r, count, seed):
    """``sample_secants`` equals the one-at-a-time loop bit for bit and
    leaves its generator in the same state."""
    generators = []
    make = np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng",
                      lambda seed: generators.append(make(seed)) or generators[-1])
        got = sample_secants(rep, r, count, seed)
    expected, reference = sequential_float_samples(rep, r, count, seed)
    assert got.dtype == np.float64 and got.shape == (count, rep.ambient_dim)
    assert got.tobytes() == np.array([point for *_, point in expected]).tobytes()
    # no RNG call more or less than the one-at-a-time loop
    assert generators[0].bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("indices,r,count", [
    ((1, 2), 1, 40),                # r = 1
    ((1, 3), 2, 60),                # r = R
    ((1, 2, 3), 3, 50),
    ((1, 3), 4, 60),                # r = 2R
    (tuple(range(1, 9)), 16, 200),
    ((1, 4), 2, 9000),              # the degree-15 fit's shape, 3 chunks
])
def test_float_sampler_matches_one_draw_at_a_time(monkeypatch, indices, r,
                                                  count):
    assert_matches_reference(monkeypatch, Representation(indices), r, count,
                             17)


def test_float_sampler_keeps_affinely_dependent_draws():
    # the 16th secant variety of the frequency-(1..8) curve fills R^16; a
    # draw of 16 curve points that are numerically affinely dependent
    # still gives a point of it, and a sample
    rep = Representation(tuple(range(1, 9)))
    draws, _ = sequential_float_samples(rep, 16, 200, 17)
    ratios = []
    for params, _, _ in draws:
        pts = orbit_points(rep, params)
        sigma = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        ratios.append(sigma[-1] / sigma[0])
    assert len(sample_secants(rep, 16, 200, 17)) == 200 and min(ratios) < 1e-9


def test_float_sampler_windows_stay_within_the_byte_budget(monkeypatch):
    # 128 points of a 64-frequency curve: one draw is 128 KiB of curve
    # points, so the 300 draws take 150 chunks of 2 draws (and the
    # reference, through secant_point, then one call per draw)
    shapes = []

    def spy(rep, thetas):
        pts = orbit_points(rep, thetas)
        shapes.append(pts.shape)
        assert pts.nbytes <= secantfit._CHUNK_BYTES
        return pts

    monkeypatch.setattr(secantfit, "orbit_points", spy)
    assert_matches_reference(monkeypatch, Representation(tuple(range(1, 65))),
                             128, 300, 0)
    assert shapes == [(2, 128, 128)] * 150 + [(128, 128)] * 300


@pytest.mark.parametrize("indices,degree", [((1, 2), 3), ((1, 4), 6),
                                            ((1, 2, 3), 4), ((1, 3), 8),
                                            ((1, 4), 15)])
def test_weight_blocks_partition_the_monomial_basis(indices, degree):
    # the fit's basis size is the sum of the block sizes: 35, 495 and 3876
    # at degrees 3, 8 and 15 in 4 variables
    rep = Representation(indices)
    blocks = weight_blocks(rep, degree)
    size = math.comb(rep.ambient_dim + degree, degree)
    assert sum(b.size for b in blocks) == size
    assert len(monomials_up_to_degree(rep.ambient_dim, degree)) == size
    pairs = [pair for b in blocks for pair in b.pairs]
    assert len(set(pairs)) == len(pairs)
    assert not {(b, a) for a, b in pairs if a != b} & set(pairs)
    weights = []
    for block in blocks:
        # every pair of a block has the block's weight
        (weight,) = {sum(j * (x - y) for j, x, y in zip(indices, a, b))
                     for a, b in block.pairs}
        assert weight >= 0
        weights.append(weight)
        for a, b in block.pairs:
            assert sum(a) + sum(b) <= degree
    assert weights == sorted(set(weights))  # one block per weight


def test_weight_block_expansion_matches_complex_monomials():
    rep = Representation((1, 3))
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1, 1, size=(10, 4))
    u = pts[:, 0::2] + 1j * pts[:, 1::2]
    for block in weight_blocks(rep, 5):
        n_pairs = len(block.pairs)
        for col in range(block.size):
            vec = np.zeros(block.size)
            vec[col] = 1.0
            poly = SparsePoly(4, secantfit._expand_block_vector(block, vec),
                              CoeffMode.FLOAT)
            a, b = block.pairs[col if col < n_pairs
                               else block.imaginary[col - n_pairs]]
            m = np.prod(u ** np.array(a) * u.conj() ** np.array(b), axis=1)
            expected = m.real if col < n_pairs else m.imag
            assert np.allclose(evaluate_on_points(poly, pts), expected,
                               atol=1e-12)


# Float nullities of the weight-block fit against the certified exact fit
# ({1,3}, r=2, degree 8 is the f_float_fit and f_exact_fit pair).  The modular solver is forced, so that it also solves the fits of
# 35 columns and fewer, which go to Bareiss by default.
@pytest.mark.parametrize("indices,r,degree,nullity", [
    ((1, 2), 1, 2, 6), ((1, 2), 1, 3, 22), ((1, 2), 2, 3, 1),
    ((1, 2), 2, 4, 5), ((1, 2), 2, 5, 15),
    ((1, 3), 2, 3, 0), ((1, 3), 2, 9, 5), ((1, 3), 1, 3, 18),
    ((2, 3), 2, 6, 0),
    ((1, 2, 3), 2, 3, 10), ((1, 2, 3), 3, 4, 1),
])
def test_float_weight_fit_nullity_matches_exact_fit(monkeypatch, indices, r,
                                                    degree, nullity):
    monkeypatch.setattr(exactla, "_BAREISS_MAX_COLS", 0)
    rep = Representation(indices)

    def fitted_nullity(mode):
        try:
            fit = fit_hypersurface(rep, r=r, degree=degree, seed=0, mode=mode)
        except NoVanishingPolynomialError:
            return 0
        if mode is CoeffMode.RATIONAL:
            assert fit.report["certified"]
        return fit.nullity

    assert fitted_nullity(CoeffMode.FLOAT) == nullity
    assert fitted_nullity(CoeffMode.RATIONAL) == nullity


def gaussian_block_row(point, block, degree):
    """The block's columns at one cleared point (L, X_1, Y_1, ...), from
    Gaussian integers: Re and Im of L^pad (X + iY)^a (X - iY)^b."""
    def times(z, w):
        return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])

    values = []
    for a, b in block.pairs:
        m = (point[0] ** (degree - sum(a) - sum(b)), 0)
        for k, (ak, bk) in enumerate(zip(a, b)):
            x, y = point[1 + 2 * k], point[2 + 2 * k]
            for _ in range(ak):
                m = times(m, (x, y))
            for _ in range(bk):
                m = times(m, (x, -y))
        values.append(m)
    return ([re for re, _ in values]
            + [values[i][1] for i in block.imaginary])


@pytest.mark.parametrize("indices,r,degree", [
    ((1, 3), 2, 8), ((1, 2, 3), 3, 4), ((1, 2), 1, 3),
])
def test_exact_fit_residues_match_reduced_integer_rows(indices, r, degree):
    # the block residues the modular solver eliminates, against the exact
    # integer block rows that Bareiss eliminates, reduced entry by entry;
    # those against Gaussian-integer arithmetic
    rep = Representation(indices)
    points = sample_secants(rep, r, 40, seed=0, mode=CoeffMode.RATIONAL)
    tables = {p: secantfit._residue_tables(points, degree, p)
              for p in (exactla.PRIMES[0], exactla.PRIMES[-1], 13)}
    for block in weight_blocks(rep, degree):
        rows = secantfit._block_rows(points, degree, block)
        assert rows == [gaussian_block_row(x, block, degree) for x in points]
        for p, table in tables.items():
            residues = secantfit._block_residues(table, block, p)
            assert residues.dtype == np.int64
            # the residue columns are 2 Re and 2 Im
            assert residues.tolist() == [[2 * x % p for x in row]
                                         for row in rows]


def test_wide_exact_fit_forms_no_integer_rows(monkeypatch):
    calls = []
    block_rows = secantfit._block_rows

    def spy(points, degree, block):
        calls.append(block)
        return block_rows(points, degree, block)

    monkeypatch.setattr(secantfit, "_block_rows", spy)
    fit = fit_hypersurface(REP12, r=2, degree=3, seed=0,
                           mode=CoeffMode.RATIONAL)
    assert fit.report["method"] == "bareiss"
    assert calls == weight_blocks(REP12, 3)
    narrow = fit.polynomials

    calls.clear()
    monkeypatch.setattr(exactla, "_BAREISS_MAX_COLS", 34)  # 35 columns
    fit = fit_hypersurface(REP12, r=2, degree=3, seed=0,
                           mode=CoeffMode.RATIONAL)
    assert fit.report["method"] == "modular" and fit.report["certified"]
    assert calls == []
    assert fit.polynomials == narrow


def reference_integer_row(point, exponents, top):
    """The monomial row of a rational point scaled by L^D, L its common
    denominator: the degree-D homogeneous monomials in (L, L*point)."""
    pow_table = power_table(point, top)
    row = []
    for expo in exponents:
        val = pow_table[0][top - sum(expo)]
        for i, e in enumerate(expo, start=1):
            if e:
                val *= pow_table[i][e]
        row.append(val)
    return row


def reference_residue_rows(points, exponents, top, p):
    """The reference_integer_row rows modulo p, from int64 power tables."""
    base = np.array([[v % p for v in x] for x in cleared(points)],
                    dtype=np.int64).T
    powers = np.empty((base.shape[0], top + 1, base.shape[1]), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, top + 1):
        np.multiply(powers[:, e - 1], base, out=powers[:, e])
        powers[:, e] %= p
    exponents = np.array(exponents)
    matrix = powers[0, top - exponents.sum(axis=1)]
    for i in range(exponents.shape[1]):
        matrix *= powers[i + 1, exponents[:, i]]
        matrix %= p
    return np.ascontiguousarray(matrix.T)


def full_monomial_exact_fit(rep, r, degree, seed):
    """The exact fit on the whole sample-by-monomial matrix, without the
    weight blocks: Bareiss on its integer rows up to _BAREISS_MAX_COLS
    columns, the modular solver on its residues beyond.  Returns the
    kernel's coefficient vectors on the monomials and the report."""
    exponents = monomials_up_to_degree(rep.ambient_dim, degree)
    count = secantfit.default_sample_count(len(exponents))
    points = rational_points(sample_secants(rep, r, count, seed,
                                            CoeffMode.RATIONAL))
    if len(exponents) <= exactla._BAREISS_MAX_COLS:
        kernel = exactla.nullspace_bareiss(
            [reference_integer_row(x, exponents, degree) for x in points])
        info = {"method": "bareiss", "certified": True,
                "nullity_upper_bound": len(kernel)}
    else:
        kernel, info = exactla.nullspace_modular(
            len(exponents),
            lambda p: reference_residue_rows(points, exponents, degree, p),
            lambda vectors: secantfit._vanishes(
                cleared(points), degree,
                [{e: c for e, c in zip(exponents, v) if c}
                 for v in vectors]))
        info["method"] = "modular"
    report = {"mode": "exact", "basis_size": len(exponents),
              "sample_count": count, "seed": seed, "nullity": len(kernel),
              **info}
    return kernel, report


@pytest.mark.parametrize("indices,r,degree,seed,bareiss_max_cols", [
    ((1, 3), 2, 3, 0, None),        # nullity 0, Bareiss
    ((2, 3), 2, 6, 1, None),        # nullity 0, modular
    ((1, 2), 2, 3, 2, None),        # nullity 1, Bareiss
    ((1, 3), 2, 8, 3, None),        # nullity 1, modular (the 47 terms)
    ((1, 3), 2, 9, 0, None),        # nullity 5
    ((1, 2), 2, 4, 4, None),        # nullity 5
    ((1, 2), 2, 5, 5, None),        # nullity 15
    ((1, 2), 1, 3, 6, None),        # nullity 22, Bareiss
    ((1, 2, 3), 3, 4, 7, None),     # 210 columns, 6 variables
    ((1, 2), 1, 3, 8, 0),           # nullity 22, modular forced
    ((1, 2), 2, 3, 9, 0),           # nullity 1, modular forced
])
def test_block_fit_matches_full_monomial_fit(monkeypatch, indices, r, degree,
                                             seed, bareiss_max_cols):
    if bareiss_max_cols is not None:
        monkeypatch.setattr(exactla, "_BAREISS_MAX_COLS", bareiss_max_cols)
    rep = Representation(indices)
    kernel, report = full_monomial_exact_fit(rep, r, degree, seed)
    exponents = monomials_up_to_degree(rep.ambient_dim, degree)

    def fit(count=None):
        return fit_hypersurface(rep, r, degree, count=count, seed=seed,
                                mode=CoeffMode.RATIONAL)

    def spans_the_kernel(polys):
        # the block fit prints each block's kernel in its own echelon form,
        # not the whole matrix's, so the two bases are compared as spans
        vectors = [[p.coefficient(e) for e in exponents] for p in polys]
        return (len(vectors) == len(kernel)
                == exactla.exact_rank(vectors)
                == exactla.exact_rank(kernel + vectors))

    # on the oracle's samples, 2.5 x the basis, the whole report matches
    try:
        full = fit(secantfit.default_sample_count(report["basis_size"]))
    except NoVanishingPolynomialError as exc:
        assert kernel == [] and exc.report == report
    else:
        assert full.report == report and report["certified"]
        assert spans_the_kernel(full.polynomials)
    # the default count, 2.5 x the largest weight block, finds the same kernel
    try:
        default = fit().polynomials
    except NoVanishingPolynomialError:
        default = ()
    assert spans_the_kernel(default)


def test_mid_width_exact_fit_is_modular():
    # 126 columns: Bareiss ran for minutes on this fit, the modular solver
    # takes a fraction of a second
    fit = fit_hypersurface(REP12, r=2, degree=5, seed=0,
                           mode=CoeffMode.RATIONAL)
    assert fit.report["method"] == "modular" and fit.report["certified"]
    assert fit.nullity == 15


def test_fit_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_hypersurface(REP13, r=2, degree=8, count=100, seed=0)


def test_float_fit_needs_a_sample_per_monomial(g_float_fit):
    # the float default stays 2.5 x the basis: 9690 for the 3876
    # monomials of degree 15
    assert g_float_fit.report["sample_count"] == 9690
    with pytest.raises(InsufficientSamplesError,
                       match="need at least 495 samples for 495 monomials, "
                             "got 494"):
        fit_hypersurface(REP13, r=2, degree=8, count=494, seed=0)


def test_exact_fit_needs_a_sample_per_column_of_the_largest_block():
    # the exact blocks are solved one at a time, so the widest one sets
    # the floor
    widest = max(block.size for block in weight_blocks(REP13, 8))
    assert widest == 52
    with pytest.raises(InsufficientSamplesError,
                       match="need at least 52 samples for a weight block of "
                             "52 columns, got 51"):
        fit_hypersurface(REP13, r=2, degree=8, count=51, seed=0,
                         mode=CoeffMode.RATIONAL)


def test_fit_no_vanishing_polynomial_below_true_degree():
    with pytest.raises(NoVanishingPolynomialError):
        fit_hypersurface(REP13, r=2, degree=3, seed=3, mode=CoeffMode.RATIONAL)
    with pytest.raises(NoVanishingPolynomialError):
        fit_hypersurface(REP13, r=2, degree=3, seed=3, mode=CoeffMode.FLOAT)


def test_exact_fit_12_matches_toeplitz_determinant():
    fit = fit_hypersurface(REP12, r=2, degree=3, seed=7, mode=CoeffMode.RATIONAL)
    assert fit.nullity == 1
    assert fit.report["certified"]
    p = fit.polynomials[0]
    det = det_polynomial(2)
    scale = det.coefficient((0, 0, 0, 0)) / p.coefficient((0, 0, 0, 0))
    assert p.scale(scale) == det


def test_float_fit_12_matches_determinant_up_to_scale():
    fit = fit_hypersurface(REP12, r=2, degree=3, seed=8, mode=CoeffMode.FLOAT)
    assert fit.nullity == 1
    assert fit.report["gap_ratio"] >= 1e4
    rounded, dist = rationalize(fit.polynomials[0], (0, 0, 0, 0), 1)
    assert dist < 1e-9
    assert rounded == det_polynomial(2)


def test_float_f_fit_recovers_stored_polynomial(f_float_fit, f_stored):
    assert f_float_fit.nullity == 1
    # coefficients at or below SIGMA_NULL_FACTOR are rounding noise and
    # are not printed
    assert f_float_fit.polynomials[0].num_terms == 47
    assert f_float_fit.report["gap_ratio"] >= 1e4
    rounded, dist = rationalize(f_float_fit.polynomials[0], (0, 0, 4, 0), 1)
    assert rounded == f_stored
    assert dist < 1e-8


def test_fits_keep_the_basis_term_order(f_float_fit, g_float_fit,
                                        f_exact_fit):
    # terms by degree ascending, then exponent descending: the CLI sums a
    # fit's terms in this order for its held-out residuals, so it fixes
    # their bits, and the exact fit's sign is that of its first term
    for fit in (f_float_fit, g_float_fit, f_exact_fit):
        (p,) = fit.polynomials
        assert list(p.terms) == sorted(
            p.terms, key=lambda e: (sum(e), [-x for x in e]))
    assert next(iter(f_exact_fit.polynomials[0].terms.values())) > 0


def test_float_g_fit_rounds_to_known_terms_for_hard_seed(g_printed_terms):
    # With this sampler seed the degree-15 fit once rounded 3 of the 88
    # known terms wrongly (coefficients off by up to 6.1e-7).
    fit = fit_hypersurface(Representation((1, 4)), r=2, degree=15,
                           seed=1384307085)
    assert fit.nullity == 1
    g, dist = rationalize(fit.polynomials[0], (12, 0, 3, 0), 8)
    assert g.num_terms == 281
    assert [e for e, c in g_printed_terms.terms.items()
            if g.coefficient(e) != c] == []
    # beyond 5e-7 an integer can round to the nearest 1/10**6 fraction
    assert dist < 5e-7


def test_float_and_exact_paths_agree_for_f(f_float_fit, f_exact_fit, f_stored):
    assert f_float_fit.nullity == f_exact_fit.nullity == 1
    rounded, _ = rationalize(f_float_fit.polynomials[0], (0, 0, 4, 0), 1)
    exact = f_exact_fit.polynomials[0]
    exact = exact.scale(1 / exact.coefficient((0, 0, 4, 0)))
    assert rounded == exact == f_stored


SAME_BASIS_FITS = [
    ((1, 3), 2, 9),     # nullity 5
    ((1, 2), 2, 4),     # nullity 5
    ((1, 2), 2, 5),     # nullity 15
    ((1, 2), 1, 3),     # nullity 22
]


@pytest.mark.parametrize("indices,r,degree", SAME_BASIS_FITS)
def test_float_and_exact_fits_print_the_same_basis(indices, r, degree):
    # both paths print each weight block's kernel in its reduced echelon
    # form with the columns reversed, block by block in weight order, so
    # the two lists split into the same blocks and the i-th polynomials
    # are partners: the same support, and equal up to scale
    rep = Representation(indices)
    exact = fit_hypersurface(rep, r, degree, mode=CoeffMode.RATIONAL)
    floats = fit_hypersurface(rep, r, degree)
    assert floats.nullity == exact.nullity > 1
    for f, e in zip(floats.polynomials, exact.polynomials):
        assert f.terms.keys() == e.terms.keys()
        top = max(e.terms, key=lambda expo: abs(e.terms[expo]))
        scale = f.terms[top] / float(e.terms[top])
        # the float polynomial has unit max coefficient
        assert max(abs(c - scale * float(e.terms[expo]))
                   for expo, c in f.terms.items()) <= 1e-9


@pytest.mark.parametrize("indices,r,degree", SAME_BASIS_FITS)
def test_exact_fits_print_even_or_odd_polynomials(indices, r, degree):
    # t -> -t maps each curve point to its reflection y_k -> -y_k, so the
    # secant varieties are invariant under it and every printed equation
    # is even or odd in the y_k: the invariance that lets the float fit
    # factor the Re (even) and Im (odd) columns of a weight block apart
    fit = fit_hypersurface(Representation(indices), r, degree,
                           mode=CoeffMode.RATIONAL)
    parities = [{sum(expo[1::2]) % 2 for expo in p.terms}
                for p in fit.polynomials]
    assert all(len(parity) == 1 for parity in parities)
    # these fits have polynomials of both parities
    assert {0} in parities and {1} in parities


def test_reversed_echelon_recovers_a_kernel_basis_up_to_scale():
    # per pivot column 1 and 3, the vector that ends there and is zero on
    # the other pivot: the exact solvers' basis of this span
    basis = np.array([[2.0, -1.0, 0.0, 0.0], [1.0, 0.0, 3.0, 1.0]])
    echelon = secantfit._reversed_echelon(np.array([[1.0, 1.0], [1.0, -2.0]])
                                          @ basis)
    for row, vec in zip(echelon, basis):
        k = np.flatnonzero(vec)[-1]
        assert np.allclose(row / row[k], vec / vec[k], rtol=0, atol=1e-15)
    assert secantfit._reversed_echelon(np.array([[1.0, 2.0], [2.0, 4.0]])) is None


def test_verify_vanishing_float_and_control(f_stored):
    residual = verify_vanishing(f_stored.to_float(), REP13, 2, 2000, seed=23)
    assert residual <= 1e-8
    rng = np.random.default_rng(24)
    exponents = monomials_up_to_degree(4, 8)
    control = SparsePoly(4, {e: float(c) for e, c in
                             zip(exponents,
                                 rng.uniform(-1, 1, size=len(exponents)))},
                         CoeffMode.FLOAT)
    control_residual = verify_vanishing(control, REP13, 2, 2000, seed=23)
    assert control_residual > 1e-2
    assert control_residual > 100 * max(residual, 1e-30)


def test_verify_vanishing_exact_zero(f_stored):
    residual = verify_vanishing(f_stored, REP13, 2, 50, seed=25,
                                mode=CoeffMode.RATIONAL)
    assert residual == 0


def reference_evaluate(p, point):
    """The rational evaluation of one point that ``SparsePoly.evaluate``
    made before it shared ``cleared_values``: the integer coefficients
    M * c times the point's cleared power table up to the degree D, over
    M L^D."""
    top = p.degree
    denom = math.lcm(*[c.denominator for c in p.terms.values()])
    lead, *rows = power_table(point, top)
    total = 0
    for expo, c in p.terms.items():
        term = c.numerator * (denom // c.denominator) * lead[top - sum(expo)]
        for row, e in zip(rows, expo):
            term *= row[e]
        total += term
    return Fraction(total, denom * lead[top])


def random_rational_poly(rng, nvars, degree, terms):
    return SparsePoly(nvars, {
        _random_exponent(rng, nvars, rng.randint(0, degree)):
        Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        for _ in range(terms)})


def exact_verify_cases(f_stored):
    """(polynomial, rep, r, count, seed) whose residual is not zero."""
    rng = random.Random(29)
    x1 = SparsePoly.variable(4, 0)
    perturbed = f_stored + (x1 ** 3).scale(Fraction(1, 10 ** 6))
    # the last sample y is the only point where 16 - |x - y|^2 reaches 16
    # (each |x_i - y_i| <= 2), and it lies in the third chunk
    count = 2 * secantfit._VANISH_CHUNK + 1
    last, = rational_points(
        sample_secants(REP13, 2, count, 31, CoeffMode.RATIONAL)[-1:])
    peak = SparsePoly.constant(4, 16)
    for i, y in enumerate(last):
        dx = SparsePoly.variable(4, i) - SparsePoly.constant(4, y)
        peak = peak - dx * dx
    return [(perturbed, REP13, 2, 300, 30),
            (random_rational_poly(rng, 4, 8, 30), REP13, 2, 300, 31),
            (random_rational_poly(rng, 4, 8, 30), Representation((1, 64)), 2,
             60, 32),
            (peak, REP13, 2, count, 31)]


def test_exact_verify_matches_the_per_point_evaluation(f_stored):
    for p, rep, r, count, seed in exact_verify_cases(f_stored):
        points = rational_points(
            sample_secants(rep, r, count, seed, CoeffMode.RATIONAL))
        values = [abs(reference_evaluate(p, x)) for x in points]
        residual = verify_vanishing(p, rep, r, count, seed,
                                    mode=CoeffMode.RATIONAL)
        assert type(residual) is Fraction and residual > 0
        assert residual == max(values)
        assert [abs(p.evaluate(x)) for x in points[:20]] == values[:20]
    # the peak polynomial is largest at the last sample only
    assert values.index(max(values)) == count - 1 and max(values) == 16


def test_exact_verify_chunks_bound_the_bits_of_their_kept_powers():
    # x1^128 - x4^128 keeps the 128th powers of x1 and x4: 256 bits per
    # bit of a cleared entry; the points run from light to heavy and back
    exponents = [(128, 0, 0, 0), (0, 0, 0, 128)]
    weight = 2 * 128
    cleared = [(1, 2 ** (b - 1), 3, 5, 2 ** (b - 1))
               for b in [1] * 600 + [1024] * 40 + [20000] * 3 + [1] * 10]
    chunks = list(secantfit._verify_chunks(cleared, 128, exponents))
    assert [p for chunk in chunks for p in chunk] == cleared
    bits = [weight * point[1].bit_length() for point in cleared]
    start = 0
    for chunk in chunks:
        stop = start + len(chunk)
        held = sum(bits[start:stop])
        assert 1 <= len(chunk) <= secantfit._VANISH_CHUNK
        assert held <= secantfit._VANISH_CHUNK_BITS or len(chunk) == 1
        # each chunk is as long as the two limits let it be
        if stop < len(cleared) and len(chunk) < secantfit._VANISH_CHUNK:
            assert held + bits[stop] > secantfit._VANISH_CHUNK_BITS
        start = stop
    assert [len(chunk) for chunk in chunks] == [256, 256, 88 + 15, 16, 9,
                                                1, 1, 1, 10]


def test_exact_verify_does_not_depend_on_its_chunks(monkeypatch, f_stored):
    # the worst value is taken in point order, so one point per chunk finds
    # the same residual as the default chunks
    for p, rep, r, count, seed in exact_verify_cases(f_stored)[:3]:
        default = verify_vanishing(p, rep, r, count, seed,
                                   mode=CoeffMode.RATIONAL)
        with monkeypatch.context() as patch:
            patch.setattr(secantfit, "_VANISH_CHUNK_BITS", 0)
            assert verify_vanishing(p, rep, r, count, seed,
                                    mode=CoeffMode.RATIONAL) == default


def test_exact_verify_decides_near_ties_exactly(monkeypatch):
    # The same rational point as (L, L x) and as (2L, 2L x), then a point
    # whose |p| is larger by a relative 1e-40 and whose log2 estimate
    # comes out 1.4e-13 bits lower: only the exact cross-multiplication
    # orders these, the first tie as not larger, the second as larger.
    x1, x4 = SparsePoly.variable(4, 0), SparsePoly.variable(4, 3)
    p = x1 ** 8 - x4 ** 8 + SparsePoly.constant(4, Fraction(1, 7))
    point = (Fraction(2, 3), Fraction(1, 5), Fraction(-3, 7), Fraction(1, 11))
    near = (point[0] + Fraction(1, 10 ** 40 + 2), *point[1:])
    first, = cleared([point])
    points = [first, tuple(2 * v for v in first), *cleared([near])]
    monkeypatch.setattr(secantfit, "sample_secants",
                        lambda *args: list(points))
    outcomes = []
    exceeds = secantfit._exceeds
    monkeypatch.setattr(secantfit, "_exceeds",
                        lambda *args: outcomes.append(exceeds(*args))
                        or outcomes[-1])
    residual = verify_vanishing(p, REP13, 2, 3, 0, mode=CoeffMode.RATIONAL)
    values = [abs(p.evaluate(x)) for x in rational_points(points)]
    assert values[0] == values[1] < values[2]
    assert type(residual) is Fraction and residual == values[2]
    assert outcomes == [False, True]


def test_verify_vanishing_circle_on_polygon_block():
    # every convex combination of q-gon vertices keeps the shared last block
    # on the unit circle; with the rational circle parametrization the
    # evaluation is exact
    nvars = 4
    y = SparsePoly.variable(nvars, 2)
    z = SparsePoly.variable(nvars, 3)
    circle = y * y + z * z - SparsePoly.constant(nvars, 1)
    for u in (Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(9, 2)):
        cy = (1 - u * u) / (1 + u * u)
        cz = 2 * u / (1 + u * u)
        sample = (Fraction(1, 9), Fraction(-2, 7), cy, cz)
        assert circle.evaluate(sample) == 0


def test_evaluate_on_points_matches_scalar_eval(f_stored):
    rng = np.random.default_rng(26)
    pts = rng.uniform(-1, 1, size=(20, 4))
    fast = evaluate_on_points(f_stored.to_float(), pts)
    slow = [f_stored.to_float().evaluate(list(p)) for p in pts]
    assert np.allclose(fast, slow, atol=1e-12)


def _magnitude(p: SparsePoly, pts: np.ndarray) -> np.ndarray:
    """sum_t |c_t| |x^e_t| at each point, the scale of the rounding error of
    any term-by-term evaluation of p."""
    exps = np.array(list(p.terms), dtype=float).reshape(-1, p.nvars)
    coeffs = np.abs([float(c) for c in p.terms.values()])
    return np.prod(np.abs(pts)[:, None, :] ** exps, axis=2) @ coeffs


@pytest.mark.parametrize("indices,degree", [((1, 2), 3), ((1, 3), 8),
                                            ((1, 4), 15)])
def test_block_columns_match_their_monomial_expansion(indices, degree):
    # Two independent evaluations of every weight-block column: from complex
    # powers, and from the column's exact expansion into real monomials.
    rep = Representation(indices)
    pts = sample_secants(rep, 2, 4, seed=degree)
    u = pts[:, 0::2] + 1j * pts[:, 1::2]
    u_pow = u.T[:, None, :] ** np.arange(degree + 1)[None, :, None]
    for block in weight_blocks(rep, degree):
        matrix = secantfit._block_matrix(u_pow, u_pow.conj(), block)
        assert matrix.shape == (block.size, len(pts))
        for col, row in enumerate(matrix):
            unit = np.zeros(block.size)
            unit[col] = 1.0
            poly = SparsePoly(rep.ambient_dim,
                              secantfit._expand_block_vector(block, unit),
                              CoeffMode.FLOAT)
            expected = evaluate_on_points(poly, pts)
            assert np.all(np.abs(row - expected)
                          <= 1e-12 * _magnitude(poly, pts))


def _u_powers(u: np.ndarray, degree: int) -> np.ndarray:
    """u_k^e over the samples as the float fit builds them, an array
    indexed by (k, e, sample)."""
    u_pow = np.ones((u.shape[1], degree + 1, u.shape[0]), dtype=complex)
    for e in range(1, degree + 1):
        u_pow[:, e] = u_pow[:, e - 1] * u.T
    return u_pow


def _gathered_block_matrix(u_pow, conj_pow, block):
    """The block evaluation that whole-block gathers gave before the
    pair-by-pair loop: the reference of its operation order."""
    pairs = np.array(block.pairs)
    a, b = pairs[:, 0], pairs[:, 1]
    values = u_pow[0, a[:, 0]] * conj_pow[0, b[:, 0]]
    for k in range(1, u_pow.shape[0]):
        values *= u_pow[k, a[:, k]] * conj_pow[k, b[:, k]]
    n = len(block.pairs)
    matrix = np.empty((block.size, values.shape[1]))
    matrix[:n] = values.real
    matrix[n:] = values.imag[block.imaginary]
    return matrix


@pytest.mark.parametrize("indices,degree", [((1, 4), 15), ((1, 2, 3), 5)])
def test_block_matrix_is_bit_identical_to_the_gathered_product(indices,
                                                               degree):
    # on the samples of the default float fit, so LAPACK sees the matrices
    # it saw before; {1,2,3} runs the coordinate loop twice
    rep = Representation(indices)
    count = secantfit.default_sample_count(
        math.comb(rep.ambient_dim + degree, degree))
    pts = sample_secants(rep, 2, count, seed=20)
    u_pow = _u_powers(pts[:, 0::2] + 1j * pts[:, 1::2], degree)
    conj_pow = u_pow.conj()
    for block in weight_blocks(rep, degree):
        assert np.array_equal(
            secantfit._block_matrix(u_pow, conj_pow, block),
            _gathered_block_matrix(u_pow, conj_pow, block))


def test_block_matrix_holds_no_block_sized_temporaries():
    # the widest {1,4} degree-15 block at random unit-disk values: the peak
    # is the result and a few sample-long complex rows, not the three
    # result-sized arrays of the whole-block gathers
    rng = np.random.default_rng(33)
    count = 2000
    u = (np.sqrt(rng.uniform(size=(count, 2)))
         * np.exp(2j * np.pi * rng.uniform(size=(count, 2))))
    u_pow = _u_powers(u, 15)
    conj_pow = u_pow.conj()
    block = max(weight_blocks(Representation((1, 4)), 15),
                key=lambda block: block.size)
    assert block.size == 178
    tracemalloc.start()
    try:
        matrix = secantfit._block_matrix(u_pow, conj_pow, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= matrix.nbytes + 4 * count * 16


def all_rows_fit_float(rep, degree, blocks, points, seed):
    """The float fit with every parity half of every block factored on all
    sample rows: the fit before the row prefix, kept as the reference the
    prefix fit must reproduce."""
    u_pow = _u_powers(points[:, 0::2] + 1j * points[:, 1::2], degree)
    conj_pow = u_pow.conj()
    solved = []
    for block in blocks:
        matrix = secantfit._block_matrix(u_pow, conj_pow, block)
        n = len(block.pairs)
        r_factors = [np.linalg.qr(half.T, mode="r")
                     for half in (matrix[:n], matrix[n:])]
        norms = np.concatenate([np.linalg.norm(r, axis=0) for r in r_factors])
        scale = np.where(norms > 1e-12 * norms.max(), norms, 1.0)
        halves = []
        for r_factor, part in zip(r_factors, (scale[:n], scale[n:])):
            _, sigma, vh = np.linalg.svd(r_factor / part)
            halves.append((sigma, vh / part))
        solved.append((block, halves))
    sigma = np.sort(np.concatenate(
        [s for _, halves in solved for s, _ in halves]))[::-1]
    threshold = secantfit.SIGMA_NULL_FACTOR * sigma[0]
    nullity = int(np.sum(sigma < threshold))
    report = {"mode": "float",
              "basis_size": sum(block.size for block in blocks),
              "sample_count": len(points), "seed": seed,
              "sigma_max": float(sigma[0]),
              "sigma_tail": [float(s) for s in sigma[-min(5, len(sigma)):]],
              "null_threshold": float(threshold), "nullity": nullity}
    if nullity == 0:
        raise NoVanishingPolynomialError(
            f"no degree-{degree} equation vanishes on the samples "
            f"(smallest singular value {sigma[-1]:.3e} vs threshold "
            f"{threshold:.3e})", report)
    report["smallest_kept"] = float(sigma[len(sigma) - nullity - 1])
    report["largest_dropped"] = float(sigma[len(sigma) - nullity])
    report["gap_ratio"] = (report["smallest_kept"]
                           / max(report["largest_dropped"], 1e-300))
    assert report["gap_ratio"] >= secantfit.GAP_RATIO_REQUIRED
    polys = []
    for block, ((re_sigma, re_vh), (im_sigma, im_vh)) in solved:
        re, im = re_vh[re_sigma < threshold], im_vh[im_sigma < threshold]
        n = len(block.pairs)
        null = np.zeros((len(re) + len(im), block.size))
        null[:len(re), :n] = re
        null[len(re):, n:] = im
        for row in secantfit._reversed_echelon(null):
            polys.append(secantfit._float_poly(
                rep.ambient_dim, secantfit._expand_block_vector(block, row)))
    return secantfit.FitResult(tuple(polys), report)


def float_fit_cli(monkeypatch, capsys, reference, indices, r, degree, seed,
                  *extra):
    """Exit code and stdout of ``secant-fit --mode float``, with the fit on
    all rows when ``reference`` is set.  The float basis budget of the CLI
    is raised so that degree 16 on {1,4} (4845 monomials) runs too."""
    with monkeypatch.context() as patch:
        patch.setitem(cli.MAX_BASIS_SIZE, "float", 5000)
        if reference:
            patch.setattr(secantfit, "_fit_float", all_rows_fit_float)
        code = cli.main(["secant-fit", "--rep", ",".join(map(str, indices)),
                         "--r", str(r), "--degree", str(degree), "--mode",
                         "float", "--seed", str(seed), *extra])
    return code, capsys.readouterr().out


# The singular values of the blocks without a null candidate come from the
# prefix rows, so only these fields of a fit's report may move.
PREFIX_FIELDS = {"sigma_max", "sigma_tail", "null_threshold", "smallest_kept",
                 "gap_ratio"}


@pytest.mark.parametrize("indices,r,degree,seeds", [
    ((1, 4), 2, 15, (0, 20, 1384307085)),
    ((1, 4), 2, 16, (0,)),          # nullity 5
    ((1, 3), 2, 8, (0,)),
    ((1, 3), 2, 9, (0,)),           # nullity 5
    ((1, 2), 1, 8, (0,)),           # nullity 462
    ((1, 2, 3), 3, 4, (0,)),
    ((1, 2), 2, 5, (0,)),           # nullity 15
])
def test_prefix_float_fit_prints_the_all_rows_fit(monkeypatch, capsys,
                                                  indices, r, degree, seeds):
    for seed in seeds:
        code, out = float_fit_cli(monkeypatch, capsys, False, indices, r,
                                  degree, seed)
        ref_code, ref_out = float_fit_cli(monkeypatch, capsys, True, indices,
                                          r, degree, seed)
        assert code == ref_code == 0
        fit, ref = json.loads(out), json.loads(ref_out)
        assert fit["polynomials"] == ref["polynomials"]
        assert fit["held_out_residuals"] == ref["held_out_residuals"]
        assert fit["fit"]["nullity"] == ref["fit"]["nullity"] > 0
        moved = {key for key in ref["fit"] if fit["fit"][key] != ref["fit"][key]}
        assert fit["fit"].keys() == ref["fit"].keys()
        assert moved <= PREFIX_FIELDS


def spy_on_qr(monkeypatch):
    """Record the shape of every matrix given to ``np.linalg.qr``."""
    shapes = []
    qr = np.linalg.qr

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return shapes


def spy_on_svd(monkeypatch):
    """Record the shape of every matrix given to ``np.linalg.svd`` and
    whether the call computes singular vectors."""
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, compute_uv=True, **kwargs):
        calls.append((a.shape, compute_uv))
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def test_degree_15_fit_factors_only_its_null_block_on_all_rows(monkeypatch):
    # every one of the 118 halves once on the 445 prefix rows, 2.5 x the
    # 178 columns of the largest block, for its singular values only; then
    # only the Re and Im halves of the block that holds the null vector on
    # all 9690, with their vectors
    shapes, svds = spy_on_qr(monkeypatch), spy_on_svd(monkeypatch)
    fit = fit_hypersurface(Representation((1, 4)), r=2, degree=15, seed=20)
    assert fit.nullity == 1
    assert [m for m, _ in shapes] == [445] * 118 + [9690] * 2
    # the k-th SVD takes the square R factor of the k-th QR
    assert svds == [((n, n), m == 9690) for m, n in shapes]
    halves = {(len(block.pairs), len(block.imaginary))
              for block in weight_blocks(Representation((1, 4)), 15)}
    assert (shapes[-2][1], shapes[-1][1]) in halves


def test_float_fit_falls_back_to_all_rows(monkeypatch, capsys):
    # On 3 prefix rows every half has 3 singular values, none near zero, so
    # the mixed pool has no null direction, and every block is factored
    # again on all rows: the fit on all rows, report and all.  The count
    # is given, so the patched default sets only the prefix.
    args = ((1, 3), 2, 8, 11, "--count", "1238")
    _, ref_out = float_fit_cli(monkeypatch, capsys, True, *args)
    shapes, svds = spy_on_qr(monkeypatch), spy_on_svd(monkeypatch)
    monkeypatch.setattr(secantfit, "default_sample_count", lambda size: 3)
    code, out = float_fit_cli(monkeypatch, capsys, False, *args)
    assert code == 0 and json.loads(out)["fit"]["nullity"] == 1
    assert out == ref_out
    assert Counter(m for m, _ in shapes) == {3: 48, 1238: 48}
    # vectors on all rows, and on the prefix rows singular values only
    assert [uv for _, uv in svds] == [m == 1238 for m, _ in shapes]


def test_float_fit_with_a_prefix_of_all_rows_is_one_pass(monkeypatch, capsys):
    # a prefix as long as the samples is all rows: each half is factored
    # once, with its vectors, and the fit is the fit on all rows
    args = ((1, 3), 2, 8, 11, "--count", "1238")
    _, ref_out = float_fit_cli(monkeypatch, capsys, True, *args)
    shapes, svds = spy_on_qr(monkeypatch), spy_on_svd(monkeypatch)
    monkeypatch.setattr(secantfit, "default_sample_count", lambda size: 1238)
    code, out = float_fit_cli(monkeypatch, capsys, False, *args)
    assert code == 0 and out == ref_out
    assert [m for m, _ in shapes] == [1238] * 48
    assert [uv for _, uv in svds] == [True] * 48


def test_prefix_rows_give_no_printed_null_vector():
    # the pool of the degree-8 {1,3} fit with every block factored on the
    # 130 prefix rows only, singular values only, finds its null direction,
    # and refuses to print it: the fit then factors every block on all rows
    blocks = weight_blocks(REP13, 8)
    pts = sample_secants(REP13, 2, 1238, seed=11)
    u_pow = _u_powers(pts[:, 0::2] + 1j * pts[:, 1::2], 8)
    conj_pow = u_pow.conj()
    solved = [(block, secantfit._factor_block(u_pow[:, :, :130],
                                              conj_pow[:, :, :130], block,
                                              False), 130)
              for block in blocks]
    with pytest.raises(secantfit.AmbiguousRankError,
                       match="factored on 130 of the 1238 samples") as info:
        secantfit._float_null_space(REP13, 8, solved, 1238, 11)
    assert info.value.report["nullity"] == 1


@pytest.mark.parametrize("indices,degree", [((1, 3), 3), ((2, 3), 6)])
def test_float_fit_without_an_equation_reports_the_all_rows_error(
        monkeypatch, capsys, indices, degree):
    code, out = float_fit_cli(monkeypatch, capsys, False, indices, 2, degree, 0)
    ref_code, ref_out = float_fit_cli(monkeypatch, capsys, True, indices, 2,
                                      degree, 0)
    assert code == ref_code == 2
    assert out == ref_out
    assert json.loads(out)["error"].startswith(
        f"no degree-{degree} equation vanishes")


def _random_exponent(rng: random.Random, nvars: int, total: int):
    cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def test_evaluate_on_points_matches_exact_evaluation():
    # The float power table against exact rational evaluation at rational
    # secant points, up to the degree budget of a .poly file (128).
    rng = random.Random(27)
    exact_pts = rational_points(sample_secants(REP13, 2, 6, seed=28,
                                               mode=CoeffMode.RATIONAL))
    cases = []
    for degree in (1, 8, 15, 40, 128):
        terms = {_random_exponent(rng, 4, rng.randint(0, degree)):
                 Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                 for _ in range(12)}
        terms[_random_exponent(rng, 4, degree)] = Fraction(1, 3)
        cases.append((SparsePoly(4, terms), exact_pts))
    cases.append((SparsePoly.constant(4, Fraction(-7, 3)), exact_pts))
    cases.append((SparsePoly(4, {(0, 0, e, 0): Fraction(1, e + 1)
                                 for e in range(0, 129, 16)}), exact_pts))
    cases.append((SparsePoly(1, {(e,): Fraction(-1) ** e
                                 for e in range(0, 129, 8)}),
                  [p[:1] for p in exact_pts]))
    for p, points in cases:
        pts = np.array([[float(v) for v in x] for x in points])
        exact = np.array([float(p.evaluate(x)) for x in points])
        fast = evaluate_on_points(p.to_float(), pts)
        assert np.all(np.abs(fast - exact) <= 1e-12 * _magnitude(p, pts))
    assert np.array_equal(evaluate_on_points(SparsePoly.zero(4),
                                             np.ones((3, 4))), np.zeros(3))


def test_rationalize_exact_input_round_trip(f_stored):
    rounded, dist = rationalize(f_stored.to_float(), (0, 0, 4, 0), 1)
    assert rounded == f_stored
    assert dist == 0


def test_rationalize_anchor_validation(f_stored):
    with pytest.raises(ValueError):
        rationalize(f_stored.to_float(), (8, 0, 0, 0), 1)  # absent monomial
    with pytest.raises(ValueError):
        rationalize(SparsePoly.zero(4, CoeffMode.FLOAT), (0, 0, 0, 0), 1)


def test_rationalize_rejects_zero_anchor_value(f_stored):
    # a zero anchor value scales every coefficient to zero
    with pytest.raises(ValueError, match="nonzero"):
        rationalize(f_stored.to_float(), (0, 0, 4, 0), 0)
