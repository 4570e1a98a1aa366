"""Recovering secant-variety equations by interpolation.

Points on the chord variety of a frequency curve are cheap to sample: pick
r curve parameters and convex weights and form the combination.  Every
polynomial of degree at most D vanishing on the variety is then a null
vector of the sample-by-monomial evaluation matrix.  The float path splits
that matrix by rotation weight and finds the null space by singular values
with an explicit rank-gap policy; the exact path samples rational curve
points, clears denominators, and computes a certified integer kernel
(:mod:`orbitopes.exactla`).  A continued-fraction rounding step converts
float fits to exact candidates for comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .curve import (Representation, cleared_point, orbit_points,
                    rational_point)
from .exactla import exact_rank, nullspace_exact
from .poly import (CoeffMode, Exponent, SparsePoly, cleared_power_table,
                   monomials_up_to_degree)

SIGMA_NULL_FACTOR = 1e-9
GAP_RATIO_REQUIRED = 1e4
SAMPLE_FACTOR = 2.5
DRAWS_PER_SAMPLE = 20
MAX_DENOMINATOR = 10 ** 6  # of the rounded coefficients of rationalize


class FitError(RuntimeError):
    """Base class for interpolation failures; ``report`` holds the fit
    diagnostics gathered before the failure (empty if none)."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class InsufficientSamplesError(FitError):
    pass


class NoVanishingPolynomialError(FitError):
    """The sampled variety admits no equation of the requested degree."""


class AmbiguousRankError(FitError):
    """The singular-value gap policy could not separate the null space."""


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent tuples of total degree <= max_degree, graded-lex order."""

    nvars: int
    max_degree: int
    exponents: tuple[Exponent, ...]

    @property
    def size(self) -> int:
        return len(self.exponents)

    @cached_property
    def index(self) -> dict[Exponent, int]:
        """Position of each exponent tuple in ``exponents``."""
        return {e: i for i, e in enumerate(self.exponents)}


def monomial_basis(nvars: int, max_degree: int) -> MonomialBasis:
    exps = tuple(monomials_up_to_degree(nvars, max_degree))
    assert len(exps) == comb(nvars + max_degree, nvars)
    return MonomialBasis(nvars, max_degree, exps)


@dataclass(frozen=True)
class SecantSample:
    """r curve parameters, convex weights, and the resulting ambient point."""

    params: tuple
    weights: tuple
    point: tuple


def secant_point(rep: Representation, params: Sequence, weights: Sequence,
                 mode: CoeffMode = CoeffMode.FLOAT):
    """Convex combination of curve points; exact when mode is RATIONAL.

    Float parameters are angles; rational parameters are tan-half-angle
    values fed to the exact parametrization.  This is the reference
    definition of a secant point: the tests check the points drawn by
    :func:`sample_secants` in both modes against it.
    """
    if len(params) != len(weights):
        raise ValueError("params and weights must have equal length")
    if mode is CoeffMode.RATIONAL:
        weights = [Fraction(w) for w in weights]
        if sum(weights) != 1:
            raise ValueError("weights must sum to 1 exactly in rational mode")
        pts = [rational_point(rep, t) for t in params]
        return tuple(sum(w * p[i] for w, p in zip(weights, pts))
                     for i in range(rep.ambient_dim))
    weights = [float(w) for w in weights]
    if abs(sum(weights) - 1.0) > 1e-15 * max(1.0, len(weights)):
        raise ValueError("weights must sum to 1")
    pts = orbit_points(rep, np.array([float(t) for t in params]))
    return tuple(float(v) for v in np.asarray(weights) @ pts)


# The curve points of one chunk of float draws, a (rows, r, 2R) float
# array, stay under this many bytes.  The budget is small because a chunk's
# samples are built from lists of its rows: turning the 9690 draws of a
# degree-15 {1,4} fit into samples in one chunk raised the peak RSS of the
# fit by about 2 MB.
_CHUNK_BYTES = 2 ** 18


def sample_secants(rep: Representation, r: int, count: int, seed: int,
                   mode: CoeffMode = CoeffMode.FLOAT) -> list[SecantSample]:
    """Draw secant samples, a function of ``(rep, r, count, seed)``.

    A float sample is one draw: r angles from ``rng.uniform(0, 2 pi,
    size=r)``, then weights from ``rng.dirichlet(ones(r))``, and every draw
    is kept.  Affinely dependent curve points need no rejection: their
    combination lies on a lower secant variety, which the r-th one contains.
    The curve points and the combinations are computed in chunks of draws
    whose curve points stay under ``_CHUNK_BYTES``.

    An exact draw is r parameters t = n/d, each d from ``randint(1, 30)``
    and then n from ``randint(-4d, 4d)``.  The sampler works on the cleared
    integer curve points x_k / D_k of :func:`cleared_point`.  It rejects
    repeated parameter tuples, compared as reduced (n, d) pairs, and tuples
    of affinely dependent curve points: the rank of the integer rows
    x_k D_0 - x_0 D_k, the differences scaled by D_0 D_k.  A kept tuple then
    draws r weights from ``randint(1, 64)``, normalized to sum 1, and each
    coordinate of the combination is one ``Fraction`` over the common
    denominator.  It raises :class:`InsufficientSamplesError` when
    ``count`` samples are not found in DRAWS_PER_SAMPLE * count draws.  It
    draws each curve parameter from about 2225 rationals, so with r = 1 it
    runs out."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if r < 1 or r > rep.ambient_dim:
        raise ValueError(f"r={r} out of range for ambient dim {rep.ambient_dim}")
    if not rep.is_reduced():
        raise ValueError("frequency set must be reduced")
    if mode is CoeffMode.FLOAT:
        rng = np.random.default_rng(seed)
        ones = np.ones(r)
        rows = max(1, _CHUNK_BYTES // (8 * r * rep.ambient_dim))
        out: list[SecantSample] = []
        for start in range(0, count, rows):
            n = min(rows, count - start)
            params, weights = np.empty((n, r)), np.empty((n, r))
            for i in range(n):
                params[i] = rng.uniform(0.0, 2 * math.pi, size=r)
                weights[i] = rng.dirichlet(ones)
            points = np.matmul(weights[:, None, :], orbit_points(rep, params))
            out += map(SecantSample, map(tuple, params.tolist()),
                       map(tuple, weights.tolist()),
                       map(tuple, points[:, 0].tolist()))
        return out
    out = []
    rng = random.Random(seed)
    seen: set[tuple] = set()
    draws = DRAWS_PER_SAMPLE * count
    for _ in range(draws):
        key = []  # the reduced (n, d) of each parameter
        for _ in range(r):
            d = rng.randint(1, 30)
            n = rng.randint(-4 * d, 4 * d)
            g = math.gcd(n, d)
            key.append((n // g, d // g))
        key = tuple(key)
        if len(set(key)) != r or key in seen:
            continue
        pts = [cleared_point(rep, n, d) for n, d in key]
        (x0, d0), rest = pts[0], pts[1:]
        if exact_rank([[a * d0 - b * dk for a, b in zip(x, x0)]
                       for x, dk in rest]) < r - 1:
            continue
        seen.add(key)
        raw = [rng.randint(1, 64) for _ in range(r)]
        total = sum(raw)
        denom = math.lcm(*[dk for _, dk in pts])
        factors = [w * (denom // dk) for w, (_, dk) in zip(raw, pts)]
        point = tuple(Fraction(sum(map(operator.mul, factors, column)),
                               total * denom)
                      for column in zip(*[x for x, _ in pts]))
        params = tuple(Fraction(n, d) for n, d in key)
        weights = tuple(Fraction(w, total) for w in raw)
        out.append(SecantSample(params, weights, point))
        if len(out) == count:
            return out
    raise InsufficientSamplesError(
        f"only {len(out)} of {count} secant samples after {draws} draws")


@dataclass(frozen=True)
class FitResult:
    polynomials: tuple[SparsePoly, ...]
    report: dict

    @property
    def nullity(self) -> int:
        return len(self.polynomials)


def default_sample_count(basis_size: int) -> int:
    return math.ceil(SAMPLE_FACTOR * basis_size)


def fit_hypersurface(rep: Representation, r: int, degree: int,
                     count: int | None = None, seed: int = 0,
                     mode: CoeffMode = CoeffMode.FLOAT) -> FitResult:
    """Basis of degree-<=D polynomials vanishing on sampled secant points.

    Float mode: singular-value null spaces of the column-equilibrated
    evaluation matrices of the rotation-weight blocks (:func:`weight_blocks`),
    expanded back to monomials.  Over the singular values of all blocks,
    directions below SIGMA_NULL_FACTOR * sigma_max are null, and the cut
    must be witnessed by a singular-value gap of at least
    GAP_RATIO_REQUIRED, otherwise :class:`AmbiguousRankError` is raised.
    Exact mode: certified integer kernel of the cleared-denominator
    evaluation matrix.  Raises :class:`NoVanishingPolynomialError` when the
    kernel is zero-dimensional.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    basis = monomial_basis(rep.ambient_dim, degree)
    if count is None:
        count = default_sample_count(basis.size)
    if count < basis.size:
        raise InsufficientSamplesError(
            f"need at least {basis.size} samples for {basis.size} monomials, "
            f"got {count}")
    samples = sample_secants(rep, r, count, seed, mode)
    if mode is CoeffMode.FLOAT:
        return _fit_float(rep, basis, samples, count, seed)
    return _fit_exact(rep, basis, samples, count, seed)


@dataclass(frozen=True)
class WeightBlock:
    """The real basis functions of one rotation weight.

    ``pairs`` holds exponent pairs (a, b) of complex monomials u^a ubar^b in
    u_k = x_k + i y_k, one per conjugate pair {(a, b), (b, a)}.  The block's
    columns are Re(u^a ubar^b) for every pair, then Im(u^a ubar^b) for the
    pairs with a != b (the others are real).
    """

    pairs: tuple[tuple[Exponent, Exponent], ...]

    @property
    def imaginary(self) -> list[int]:
        return [i for i, (a, b) in enumerate(self.pairs) if a != b]

    @property
    def size(self) -> int:
        return len(self.pairs) + len(self.imaginary)


def weight_blocks(rep: Representation, max_degree: int) -> list[WeightBlock]:
    """Real basis of the polynomials of degree <= max_degree, by weight.

    Turning the curve parameter by t multiplies u^a ubar^b by exp(i w t),
    w = sum_k j_k (a_k - b_k).  The secant varieties are invariant under
    these rotations, so a polynomial vanishes on one exactly when each of
    its weight components does.  Weights w and -w span the same real
    functions; only w >= 0 is listed.  The block sizes add up to the size
    of :func:`monomial_basis`.
    """
    r = rep.r
    by_weight: dict[int, list[tuple[Exponent, Exponent]]] = {}
    for expo in monomials_up_to_degree(2 * r, max_degree):
        a, b = expo[:r], expo[r:]
        w = sum(j * (x - y) for j, x, y in zip(rep.indices, a, b))
        if w > 0 or (w == 0 and a >= b):
            by_weight.setdefault(w, []).append((a, b))
    return [WeightBlock(tuple(by_weight[w])) for w in sorted(by_weight)]


def _block_matrix(u_pow: np.ndarray, conj_pow: np.ndarray,
                  block: WeightBlock) -> np.ndarray:
    """Evaluate a weight block, pair-major: a ``(block.size, count)`` array
    whose row j is column j of the block (the Re rows of every pair, then
    the Im rows).  ``u_pow[k, e]`` holds u_k^e over the samples and
    ``conj_pow`` its conjugate.

    Each factor u_k^(a_k) ubar_k^(b_k) is a product of two gathered rows,
    so every operand is contiguous along the samples, and the Re and Im
    parts are written straight into the real result.
    """
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


def _pair_terms(a: Exponent, b: Exponent):
    """Yield (exponent, c, q) with u^a ubar^b = sum of c * i^q * x^exponent.

    For each coordinate pair, (x + iy)^a (x - iy)^b = sum_q c_q x^(a+b-q)
    (iy)^q with c_q = sum_s C(a, s) C(b, q-s) (-1)^(q-s); over the pairs the
    c multiply and the q add.  q is returned mod 4.
    """
    factors = []
    for ak, bk in zip(a, b):
        d = ak + bk
        factors.append([
            (d - q, q, sum(comb(ak, s) * comb(bk, q - s) * (-1) ** (q - s)
                           for s in range(max(0, q - bk), min(ak, q) + 1)))
            for q in range(d + 1)])
    for choice in itertools.product(*factors):
        c = math.prod(f[2] for f in choice)
        if c:
            yield (tuple(e for f in choice for e in f[:2]), c,
                   sum(f[1] for f in choice) % 4)


def _expand_block_vector(basis: MonomialBasis, block: WeightBlock,
                         vec: np.ndarray) -> np.ndarray:
    """Coefficients on the real monomials of a block's null vector.

    With alpha on Re(m) and beta on Im(m), the term c * i^q * x^e of m
    contributes c * (alpha, beta, -alpha, -beta)[q] to x^e.
    """
    index = basis.index
    beta = np.zeros(len(block.pairs))
    beta[block.imaginary] = vec[len(block.pairs):]
    coeffs = np.zeros(basis.size)
    for (a, b), re, im in zip(block.pairs, vec, beta):
        if not (re or im):
            continue
        sign = (re, im, -re, -im)
        for expo, c, q in _pair_terms(a, b):
            coeffs[index[expo]] += c * sign[q]
    return coeffs


def _fit_float(rep: Representation, basis: MonomialBasis,
               samples: list[SecantSample], count: int, seed: int) -> FitResult:
    points = np.array([s.point for s in samples])
    u = points[:, 0::2] + 1j * points[:, 1::2]
    u_pow = np.ones((rep.r, basis.max_degree + 1, count), dtype=complex)
    for e in range(1, basis.max_degree + 1):
        u_pow[:, e] = u_pow[:, e - 1] * u.T
    conj_pow = u_pow.conj()

    blocks = weight_blocks(rep, basis.max_degree)
    assert sum(block.size for block in blocks) == basis.size
    solved = []
    for block in blocks:
        matrix = _block_matrix(u_pow, conj_pow, block)
        norms = np.linalg.norm(matrix, axis=1)
        # A basis function can vanish on the variety (Im(u1^2 ubar2) on
        # {1,2}); scaling its rounding-noise column up to unit norm would
        # hide that null direction.
        scale = np.where(norms > 1e-12 * norms.max(), norms, 1.0)
        matrix /= scale[:, None]
        # the SVD of the R factor has the block's singular values and right
        # vectors, without the tall left factor; matrix.T is the block's
        # evaluation matrix in column-major order, as LAPACK takes it
        r_factor = np.linalg.qr(matrix.T, mode="r")
        _, sigma, vh = np.linalg.svd(r_factor)
        solved.append((block, scale, sigma, vh))

    sigma = np.sort(np.concatenate([s for _, _, s, _ in solved]))[::-1]
    threshold = SIGMA_NULL_FACTOR * sigma[0]
    nullity = int(np.sum(sigma < threshold))
    report = {
        "mode": "float",
        "basis_size": basis.size,
        "sample_count": count,
        "seed": seed,
        "sigma_max": float(sigma[0]),
        "sigma_tail": [float(s) for s in sigma[-min(5, len(sigma)):]],
        "null_threshold": float(threshold),
        "nullity": nullity,
    }
    if nullity == 0:
        raise NoVanishingPolynomialError(
            f"no degree-{basis.max_degree} equation vanishes on the samples "
            f"(smallest singular value {sigma[-1]:.3e} vs threshold "
            f"{threshold:.3e})", report)
    smallest_kept = float(sigma[len(sigma) - nullity - 1])
    largest_dropped = float(sigma[len(sigma) - nullity])
    gap_ratio = smallest_kept / max(largest_dropped, 1e-300)
    report["smallest_kept"] = smallest_kept
    report["largest_dropped"] = largest_dropped
    report["gap_ratio"] = gap_ratio
    if gap_ratio < GAP_RATIO_REQUIRED:
        raise AmbiguousRankError(
            f"singular-value gap ratio {gap_ratio:.2e} below required "
            f"{GAP_RATIO_REQUIRED:.0e}", report)
    polys = []
    for block, scale, block_sigma, vh in solved:
        for row in vh[block_sigma < threshold]:
            coeffs = _expand_block_vector(basis, block, row / scale)
            polys.append(_float_poly(basis, coeffs))
    return FitResult(tuple(polys), report)


def _float_poly(basis: MonomialBasis, coeffs: np.ndarray) -> SparsePoly:
    # deterministic normalization: unit max coefficient, positive leading term
    top = float(np.max(np.abs(coeffs)))
    coeffs = coeffs / top
    lead = max(
        (expo for expo, c in zip(basis.exponents, coeffs) if abs(c) > 1e-12),
        key=lambda e: (sum(e), e))
    if coeffs[basis.index[lead]] < 0:
        coeffs = -coeffs
    terms = {expo: float(c) for expo, c in zip(basis.exponents, coeffs)
             if abs(c) > 0.0}
    return SparsePoly(basis.nvars, terms, CoeffMode.FLOAT)


def _integer_row(point: tuple[Fraction, ...], basis: MonomialBasis) -> list[int]:
    """Clear denominators and evaluate monomials as exact integers.

    With L the common denominator, the affine monomial row scaled by L^D
    equals the degree-D homogeneous monomials in (L, L*point), all integers.
    Only Bareiss takes these rows; wider fits use :func:`_residue_rows`.
    """
    top = basis.max_degree
    pow_table = cleared_power_table(point, top)
    row = []
    for expo in basis.exponents:
        val = pow_table[0][top - sum(expo)]
        for i, e in enumerate(expo, start=1):
            if e:
                val *= pow_table[i][e]
        row.append(val)
    return row


def _residue_rows(points: list[tuple[Fraction, ...]], basis: MonomialBasis,
                  p: int) -> np.ndarray:
    """The :func:`_integer_row` rows of the points modulo p, without them.

    Each cleared point (L, L*x_1, ..., L*x_n) is reduced modulo p once, its
    powers are int64 tables modulo p, and each column is a product of
    gathered table rows, reduced after every product (each below p^2).
    """
    top = basis.max_degree
    base = np.array([[row[1] % p for row in cleared_power_table(x, 1)]
                     for x in points], dtype=np.int64).T
    # powers[i, e] = (cleared coordinate i)^e mod p over the samples
    powers = np.empty((base.shape[0], top + 1, base.shape[1]), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, top + 1):
        np.multiply(powers[:, e - 1], base, out=powers[:, e])
        powers[:, e] %= p
    exponents = np.array(basis.exponents)
    # one row per column of the evaluation matrix, as gathered table rows
    matrix = powers[0, top - exponents.sum(axis=1)]
    for i in range(basis.nvars):
        matrix *= powers[i + 1, exponents[:, i]]
        matrix %= p
    return np.ascontiguousarray(matrix.T)


# Points whose cleared powers :func:`_vanishes` holds at a time: enough for
# each numpy call on a monomial to pay off, few enough to bound the memory
# and to stop soon after a failing point.
_VANISH_CHUNK = 256


def _vanishes(points: list[tuple[Fraction, ...]], basis: MonomialBasis,
              vectors) -> bool:
    """Whether every coefficient vector on ``basis`` vanishes, exactly, at
    every point: the exact kernel test of :func:`_fit_exact`.

    Each vector is scaled to integers once.  The points are taken in chunks
    of ``_VANISH_CHUNK``; the powers of their cleared coordinates (L, L*x_1,
    ..., L*x_n) form an object array indexed by (coordinate, exponent,
    point).  Each monomial of the vectors' union support is computed once
    per point, as the integer L^D x^e of :func:`_integer_row`, and
    multiplied into the integer dot product of every vector that has it; a
    chunk whose dot products are not all zero ends the test.
    """
    top = basis.max_degree
    ints = []
    for vec in vectors:
        vec = [Fraction(c) for c in vec]
        denom = math.lcm(*[c.denominator for c in vec])
        ints.append([int(c * denom) for c in vec])
    # per monomial of the union support: L's exponent, the nonzero
    # (coordinate, exponent) pairs and the (vector, coefficient) pairs
    columns = []
    for col in sorted({i for vec in ints for i, c in enumerate(vec) if c}):
        expo = basis.exponents[col]
        columns.append((top - sum(expo),
                        [(i, e) for i, e in enumerate(expo, 1) if e],
                        [(k, vec[col]) for k, vec in enumerate(ints) if vec[col]]))
    for start in range(0, len(points), _VANISH_CHUNK):
        base = np.array([[row[1] for row in cleared_power_table(x, 1)]
                         for x in points[start:start + _VANISH_CHUNK]],
                        dtype=object).T
        # powers[i, e] = (cleared coordinate i)^e over the chunk's points
        powers = np.empty((base.shape[0], top + 1, base.shape[1]), dtype=object)
        powers[:, 0] = 1
        for e in range(1, top + 1):
            powers[:, e] = powers[:, e - 1] * base
        sums = np.zeros((len(ints), base.shape[1]), dtype=object)
        for pad, factors, coeffs in columns:
            value = powers[0, pad]
            for i, e in factors:
                value = value * powers[i, e]
            for k, c in coeffs:
                sums[k] += c * value
        if sums.any():
            return False
    return True


def _fit_exact(rep: Representation, basis: MonomialBasis,
               samples: list[SecantSample], count: int, seed: int) -> FitResult:
    points = [s.point for s in samples]
    kernel, info = nullspace_exact(
        basis.size, lambda: [_integer_row(x, basis) for x in points],
        partial(_residue_rows, points, basis),
        partial(_vanishes, points, basis))
    report = {
        "mode": "exact",
        "basis_size": basis.size,
        "sample_count": count,
        "seed": seed,
        "nullity": len(kernel),
        **info,
    }
    if not kernel:
        raise NoVanishingPolynomialError(
            f"no degree-{basis.max_degree} equation vanishes on the exact "
            f"samples", report)
    polys = []
    for vec in kernel:
        terms = {expo: c for expo, c in zip(basis.exponents, vec) if c != 0}
        polys.append(SparsePoly(basis.nvars, terms, CoeffMode.RATIONAL))
    return FitResult(tuple(polys), report)


def evaluate_on_points(p: SparsePoly, points: np.ndarray) -> np.ndarray:
    """Vectorized float evaluation of a polynomial on rows of points.

    ``values[t]`` holds term t's monomial over the points.  For each
    variable i, a table ``powers[e] = x_i^e`` is built by repeated
    multiplication up to the variable's largest exponent, and every term
    multiplies in the row of its own exponent.  One variable's table at a
    time keeps the memory at one table of at most degree + 1 rows.
    """
    pts = np.asarray(points, dtype=float)
    exps = np.array(list(p.terms.keys()), dtype=int)
    coeffs = np.array([float(c) for c in p.terms.values()])
    if exps.size == 0:
        return np.zeros(pts.shape[0])
    values = np.ones((len(coeffs), pts.shape[0]))
    for i in range(p.nvars):
        top = int(exps[:, i].max())
        if top == 0:
            continue
        powers = np.empty((top + 1, pts.shape[0]))
        powers[0] = 1.0
        for e in range(1, top + 1):
            np.multiply(powers[e - 1], pts[:, i], out=powers[e])
        values *= powers[exps[:, i]]
    return coeffs @ values


def verify_vanishing(p: SparsePoly, rep: Representation, r: int, count: int,
                     seed: int, mode: CoeffMode = CoeffMode.FLOAT):
    """Max absolute value of p over fresh secant samples.

    Float mode returns a float; rational mode evaluates exactly and returns
    a Fraction.
    """
    if p.nvars != rep.ambient_dim:
        raise ValueError(f"polynomial has {p.nvars} variables, "
                         f"curve lives in R^{rep.ambient_dim}")
    samples = sample_secants(rep, r, count, seed, mode)
    if mode is CoeffMode.FLOAT:
        points = np.array([s.point for s in samples])
        values = evaluate_on_points(p, points)
        return float(np.max(np.abs(values)))
    worst = Fraction(0)
    for s in samples:
        worst = max(worst, abs(p.evaluate(s.point)))
    return worst


def rationalize(fit: SparsePoly, anchor: Sequence[int],
                anchor_value) -> tuple[SparsePoly, float]:
    """Rescale a float fit so the anchor monomial takes the anchor value,
    then round every coefficient to the nearest rational with denominator
    at most MAX_DENOMINATOR.

    Returns the rounded polynomial and the largest rounding distance.
    The anchor coefficient must not be tiny relative to the largest one,
    and the anchor value must be nonzero (zero would scale the fit to the
    zero polynomial).
    """
    anchor = tuple(int(e) for e in anchor)
    if len(anchor) != fit.nvars:
        raise ValueError(f"the anchor has {len(anchor)} exponents but the "
                         f"polynomial has {fit.nvars} variables")
    coeffs = {e: float(c) for e, c in fit.terms.items()}
    if not coeffs:
        raise ValueError("cannot rationalize the zero polynomial")
    a = coeffs.get(anchor, 0.0)
    top = max(abs(c) for c in coeffs.values())
    if abs(a) < 1e-6 * top:
        raise ValueError(
            f"anchor coefficient {a:.3e} is below 1e-6 of the maximum {top:.3e}")
    anchor_value = Fraction(anchor_value)
    if anchor_value == 0:
        raise ValueError("anchor value must be nonzero")
    ratio = float(anchor_value) / a
    terms: dict[Exponent, Fraction] = {}
    worst = 0.0
    for expo, c in coeffs.items():
        scaled = c * ratio
        rounded = Fraction(scaled).limit_denominator(MAX_DENOMINATOR)
        worst = max(worst, abs(float(rounded) - scaled))
        if rounded != 0:
            terms[expo] = rounded
    result = SparsePoly(fit.nvars, terms, CoeffMode.RATIONAL)
    return result, worst
