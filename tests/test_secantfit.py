import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orbitopes import exactla, secantfit
from orbitopes.curve import (Representation, antipodal_point, orbit_points,
                            rational_point)
from orbitopes.poly import CoeffMode, SparsePoly
from orbitopes.secantfit import (InsufficientSamplesError,
                                 NoVanishingPolynomialError, SecantSample,
                                 evaluate_on_points,
                                 fit_hypersurface, monomial_basis,
                                 rationalize, sample_secants, secant_point,
                                 verify_vanishing, weight_blocks)
from orbitopes.toeplitz import det_polynomial

REP13 = Representation((1, 3))
REP12 = Representation((1, 2))


def test_monomial_basis_sizes():
    assert monomial_basis(4, 8).size == 495
    assert monomial_basis(4, 15).size == 3876
    assert monomial_basis(4, 3).size == 35


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
    samples = sample_secants(REP13, 2, 50, seed=1)
    assert len(samples) == 50
    for s in samples:
        assert len(s.params) == 2 and len(s.point) == 4
        assert abs(sum(s.weights) - 1) < 1e-12
        assert secant_point(REP13, s.params, s.weights) == s.point


def test_sample_secants_rational_exactness():
    samples = sample_secants(REP13, 2, 20, seed=2, mode=CoeffMode.RATIONAL)
    for s in samples:
        assert sum(s.weights) == 1
        assert all(isinstance(v, Fraction) for v in s.point)
        expected = secant_point(REP13, s.params, s.weights, CoeffMode.RATIONAL)
        assert expected == s.point


def test_sample_secants_requires_reduced():
    with pytest.raises(ValueError):
        sample_secants(Representation((2, 6)), 2, 5, seed=0)


def test_sample_secants_exact_pool_exhausted():
    with pytest.raises(InsufficientSamplesError):
        sample_secants(REP13, 1, 2503, seed=0, mode=CoeffMode.RATIONAL)


def sequential_exact_samples(rep, r, count, seed):
    """The exact sampler in Fraction arithmetic, the definition that the
    cleared-integer sampler must equal sample for sample: the same
    generator calls, the same rejections and the same error."""
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
        point = tuple(sum(w * p[i] for w, p in zip(weights, pts))
                      for i in range(rep.ambient_dim))
        out.append(SecantSample(params, weights, point))
        if len(out) == count:
            return out
    raise InsufficientSamplesError(
        f"only {len(out)} of {count} secant samples after {draws} draws")


def exact_outcome(sampler, *args):
    """The repr of each sample, or the message of the sampler's error."""
    try:
        return [repr(s) for s in sampler(*args)]
    except InsufficientSamplesError as exc:
        return f"InsufficientSamplesError: {exc}"


@pytest.mark.parametrize("indices,r,count,seed", [
    ((1, 3), 2, 400, 0),
    ((1, 3), 1, 2503, 0),           # runs out
    ((1, 3), 1, 800, 1),            # r = 1
    ((1, 2), 4, 150, 2),            # r = ambient dimension
    ((1, 2, 3), 6, 100, 3),
    ((1, 64), 2, 100, 4),           # big integers
    ((1, 2, 3, 4), 3, 150, 5),
])
def test_exact_sampler_matches_fraction_reference(indices, r, count, seed):
    rep = Representation(indices)
    got = exact_outcome(sample_secants, rep, r, count, seed,
                        CoeffMode.RATIONAL)
    assert got == exact_outcome(sequential_exact_samples, rep, r, count, seed)


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
    assert got == exact_outcome(sequential_exact_samples, REP13, r, count, 11)
    assert new_calls == reference_calls and len(new_calls) >= count
    # with r = 1 there are about 2225 distinct parameters
    assert isinstance(got, str) == (count > 2225)


def test_exact_kernel_test_refuses_the_last_vector_at_the_last_point():
    # x2 and x1*x2/2 vanish at every point, x1^2 - x1 everywhere but at the
    # last point, which lies in the last chunk; its monomials are outside
    # the support of the other two vectors
    basis = monomial_basis(2, 2)
    points = [(Fraction(k % 2), Fraction(0))
              for k in range(2 * secantfit._VANISH_CHUNK + 1)]
    points.append((Fraction(1, 3), Fraction(0)))

    def vector(terms):
        return tuple(Fraction(terms.get(e, 0)) for e in basis.exponents)

    vectors = [vector({(0, 1): 1}), vector({(1, 1): Fraction(1, 2)}),
               vector({(2, 0): 1, (1, 0): -1})]
    assert not secantfit._vanishes(points, basis, vectors)
    assert secantfit._vanishes(points[:-1], basis, vectors)
    assert secantfit._vanishes(points, basis, vectors[:-1])


def sequential_float_samples(rep, r, count, seed):
    """The float sampler one draw at a time, the definition that the
    chunked sampler must equal bit for bit.

    Returns the samples and the generator in its final state."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        params = tuple(float(t) for t in rng.uniform(0.0, 2 * math.pi, size=r))
        weights = tuple(float(w) for w in rng.dirichlet(np.ones(r)))
        pts = orbit_points(rep, np.array(params))
        point = tuple(float(v) for v in np.asarray(weights) @ pts)
        out.append(SecantSample(params, weights, point))
    return out, rng


def sample_bits(samples) -> bytes:
    return np.array([s.params + s.weights + s.point for s in samples]).tobytes()


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
    assert len(got) == count
    assert sample_bits(got) == sample_bits(expected)
    # no RNG call more or less than the one-at-a-time loop
    assert generators[0].bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("indices,r,count", [
    ((1, 2), 1, 40),                # r = 1
    ((1, 3), 2, 60),                # r = R
    ((1, 2, 3), 3, 50),
    ((1, 3), 4, 60),                # r = 2R
    (tuple(range(1, 9)), 16, 200),
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
    samples = sample_secants(rep, 16, 200, 17)
    ratios = []
    for s in samples:
        pts = orbit_points(rep, np.array(s.params))
        sigma = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        ratios.append(sigma[-1] / sigma[0])
    assert len(samples) == 200 and min(ratios) < 1e-9


def test_float_sampler_windows_stay_within_the_byte_budget(monkeypatch):
    # 128 points of a 64-frequency curve: one draw is 128 KiB of curve
    # points, so the 300 draws take 150 chunks of 2 draws
    shapes = []

    def spy(rep, thetas):
        pts = orbit_points(rep, thetas)
        shapes.append(pts.shape)
        assert pts.nbytes <= secantfit._CHUNK_BYTES
        return pts

    monkeypatch.setattr(secantfit, "orbit_points", spy)
    assert_matches_reference(monkeypatch, Representation(tuple(range(1, 65))),
                             128, 300, 0)
    assert shapes == [(2, 128, 128)] * 150


@pytest.mark.parametrize("indices,degree", [((1, 2), 3), ((1, 4), 6),
                                            ((1, 2, 3), 4)])
def test_weight_blocks_partition_the_monomial_basis(indices, degree):
    rep = Representation(indices)
    blocks = weight_blocks(rep, degree)
    assert sum(b.size for b in blocks) == monomial_basis(rep.ambient_dim,
                                                        degree).size
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
    basis = monomial_basis(4, 5)
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1, 1, size=(10, 4))
    u = pts[:, 0::2] + 1j * pts[:, 1::2]
    for block in weight_blocks(rep, 5):
        n_pairs = len(block.pairs)
        for col in range(block.size):
            vec = np.zeros(block.size)
            vec[col] = 1.0
            coeffs = secantfit._expand_block_vector(basis, block, vec)
            poly = SparsePoly(4, dict(zip(basis.exponents, coeffs)),
                              CoeffMode.FLOAT)
            a, b = block.pairs[col if col < n_pairs
                               else block.imaginary[col - n_pairs]]
            m = np.prod(u ** np.array(a) * u.conj() ** np.array(b), axis=1)
            expected = m.real if col < n_pairs else m.imag
            assert np.allclose(evaluate_on_points(poly, pts), expected,
                               atol=1e-12)


# Float nullities of the weight-block fit against the certified exact
# full-monomial fit ({1,3}, r=2, degree 8 is the f_float_fit and f_exact_fit
# pair).  The modular solver is forced, so that it also solves the fits of
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


@pytest.mark.parametrize("indices,r,degree", [
    ((1, 3), 2, 8), ((1, 2, 3), 3, 4), ((1, 2), 1, 3),
])
def test_exact_fit_residues_match_reduced_integer_rows(indices, r, degree):
    # the residues the modular solver eliminates, against the exact
    # integer rows reduced entry by entry
    rep = Representation(indices)
    basis = monomial_basis(rep.ambient_dim, degree)
    points = [s.point for s in sample_secants(
        rep, r, secantfit.default_sample_count(basis.size), seed=0,
        mode=CoeffMode.RATIONAL)]
    rows = [secantfit._integer_row(x, basis) for x in points]
    for p in (exactla.PRIMES[0], exactla.PRIMES[-1], 7):
        residues = secantfit._residue_rows(points, basis, p)
        assert residues.dtype == np.int64
        assert residues.tolist() == [[x % p for x in row] for row in rows]


def test_wide_exact_fit_forms_no_integer_rows(monkeypatch):
    calls = []
    integer_row = secantfit._integer_row

    def spy(point, basis):
        calls.append(point)
        return integer_row(point, basis)

    monkeypatch.setattr(secantfit, "_integer_row", spy)
    fit = fit_hypersurface(REP12, r=2, degree=3, seed=0,
                           mode=CoeffMode.RATIONAL)
    assert fit.report["method"] == "bareiss"
    assert len(calls) == fit.report["sample_count"]
    narrow = fit.polynomials

    calls.clear()
    monkeypatch.setattr(exactla, "_BAREISS_MAX_COLS", 34)  # 35 columns
    fit = fit_hypersurface(REP12, r=2, degree=3, seed=0,
                           mode=CoeffMode.RATIONAL)
    assert fit.report["method"] == "modular" and fit.report["certified"]
    assert calls == []
    assert fit.polynomials == narrow


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
    assert f_float_fit.report["gap_ratio"] >= 1e4
    rounded, dist = rationalize(f_float_fit.polynomials[0], (0, 0, 4, 0), 1)
    assert rounded == f_stored
    assert dist < 1e-8


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


def test_verify_vanishing_float_and_control(f_stored):
    residual = verify_vanishing(f_stored.to_float(), REP13, 2, 2000, seed=23)
    assert residual <= 1e-8
    rng = np.random.default_rng(24)
    basis = monomial_basis(4, 8)
    control = SparsePoly(4, {e: float(c) for e, c in
                             zip(basis.exponents,
                                 rng.uniform(-1, 1, size=basis.size))},
                         CoeffMode.FLOAT)
    control_residual = verify_vanishing(control, REP13, 2, 2000, seed=23)
    assert control_residual > 1e-2
    assert control_residual > 100 * max(residual, 1e-30)


def test_verify_vanishing_exact_zero(f_stored):
    residual = verify_vanishing(f_stored, REP13, 2, 50, seed=25,
                                mode=CoeffMode.RATIONAL)
    assert residual == 0


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
    basis = monomial_basis(rep.ambient_dim, degree)
    pts = np.array([s.point for s in sample_secants(rep, 2, 4, seed=degree)])
    u = pts[:, 0::2] + 1j * pts[:, 1::2]
    u_pow = u.T[:, None, :] ** np.arange(degree + 1)[None, :, None]
    for block in weight_blocks(rep, degree):
        matrix = secantfit._block_matrix(u_pow, u_pow.conj(), block)
        assert matrix.shape == (block.size, len(pts))
        for col, row in enumerate(matrix):
            unit = np.zeros(block.size)
            unit[col] = 1.0
            coeffs = secantfit._expand_block_vector(basis, block, unit)
            poly = SparsePoly(rep.ambient_dim,
                              {basis.exponents[i]: coeffs[i]
                               for i in np.flatnonzero(coeffs)},
                              CoeffMode.FLOAT)
            expected = evaluate_on_points(poly, pts)
            assert np.all(np.abs(row - expected)
                          <= 1e-12 * _magnitude(poly, pts))


def _random_exponent(rng: random.Random, nvars: int, total: int):
    cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def test_evaluate_on_points_matches_exact_evaluation():
    # The float power table against exact rational evaluation at rational
    # secant points, up to the degree budget of a .poly file (128).
    rng = random.Random(27)
    exact_pts = [s.point for s in sample_secants(REP13, 2, 6, seed=28,
                                                 mode=CoeffMode.RATIONAL)]
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
