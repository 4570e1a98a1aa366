"""Recovering secant-variety equations by interpolation.

Points on the chord variety of a frequency curve are cheap to sample: pick
r curve parameters and convex weights and form the combination.  Every
polynomial of degree at most D vanishing on the variety is then a null
vector of the sample-by-monomial evaluation matrix.  The float path splits
that matrix by rotation weight, and each weight block by parity under the
reflection t -> -t into its even Re and odd Im columns, and finds the null
space of each half by singular values with an explicit rank-gap policy.
The exact path samples rational curve points, clears their denominators
once, and computes a certified integer kernel of each weight block
(:mod:`orbitopes.exactla`): over GF(p), p = 1 (mod 4), the block columns
2 Re and 2 Im of a complex monomial are int64 residues of
z_k = X_k + i_p Y_k, the cleared u_k = x_k + i y_k with i_p a square root
of -1 modulo p.  Both paths print one basis: each weight
block's kernel in its reduced echelon form with the columns reversed,
blocks in weight order, each block vector expanded straight to a term map
{exponent: coefficient} (:func:`_expand_block_vector`), which the exact
test evaluates and the printing normalizes.  A continued-fraction rounding
step converts float fits to exact candidates for comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .curve import (Representation, cleared_point, orbit_points,
                    rational_point)
from .exactla import exact_rank, nullspace_exact, sqrt_minus_one
from .poly import (CoeffMode, Exponent, SparsePoly, cleared_values,
                   grlex_key, kept_exponents, monomials_up_to_degree)

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
# array, stay under this many bytes.  At the command-line budgets (r up to
# 128 at frequency 64, 10 000 draws) a single chunk would hold about 1.3 GB.
_CHUNK_BYTES = 2 ** 18


def sample_secants(rep: Representation, r: int, count: int, seed: int,
                   mode: CoeffMode = CoeffMode.FLOAT
                   ) -> np.ndarray | list[tuple[int, ...]]:
    """Draw secant points, a function of ``(rep, r, count, seed)``.

    Float mode returns a ``(count, 2R)`` float64 array, one row per draw:
    r angles from ``rng.uniform(0, 2 pi, size=r)``, then weights from
    ``rng.dirichlet(ones(r))``, and every draw is kept.  The angles are
    2 pi * ``rng.random()``, r draws scaled for a chunk at once: ``uniform``
    computes 0.0 + 2 pi * random(), the same float for a random() of at
    least 0.  The weights are drawn in the form numpy's ``dirichlet`` gives
    them for unit ``alpha``: r draws of ``rng.standard_exponential``, times
    the reciprocal of their sum taken left to right, normalized for a chunk
    at once.  So the stream, the points and the generator's final state
    are those of ``uniform`` and ``dirichlet`` bit for bit.  Affinely
    dependent curve points need no rejection: their combination lies on a
    lower secant variety, which the r-th one contains.  The curve points
    and the combinations are computed in chunks of draws whose curve
    points stay under ``_CHUNK_BYTES``.

    Rational mode returns a list of cleared points: each point as the
    integers (L, L*x_1, ..., L*x_n) over the least common denominator L of
    its coordinates.  An exact draw is r parameters t = n/d, each d from
    ``randint(1, 30)`` and then n from ``randint(-4d, 4d)``.  The sampler
    works on the cleared integer curve points x_k / D_k of
    :func:`cleared_point`, computed once per reduced (n, d) and call: a
    parameter comes from about 2225 rationals, so the parameters of a
    large draw repeat often (and with r = 1 the sampler runs out).  It
    rejects repeated parameter tuples, compared as reduced (n, d) pairs,
    and tuples of affinely dependent curve points: the rank of the integer
    rows x_k D_0 - x_0 D_k, the differences scaled by D_0 D_k.  A kept
    tuple then draws r weights w_k from ``randint(1, 64)``, normalized to
    sum W, and the point stays in integers: with D the lcm of the D_k, the
    combination is N_i / (W D), N_i = sum_k w_k (D / D_k) x_k[i], and
    dividing W D and every N_i by their gcd clears it.  It raises
    :class:`InsufficientSamplesError` when ``count`` points are not found
    in DRAWS_PER_SAMPLE * count draws."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if r < 1 or r > rep.ambient_dim:
        raise ValueError(f"r={r} out of range for ambient dim {rep.ambient_dim}")
    if not rep.is_reduced():
        raise ValueError("frequency set must be reduced")
    if mode is CoeffMode.FLOAT:
        rng = np.random.default_rng(seed)
        rows = max(1, _CHUNK_BYTES // (8 * r * rep.ambient_dim))
        points = np.empty((count, rep.ambient_dim))
        for start in range(0, count, rows):
            n = min(rows, count - start)
            params, weights = np.empty((n, r)), np.empty((n, r))
            for i in range(n):
                rng.random(out=params[i])
                rng.standard_exponential(out=weights[i])
            # uniform(0, 2 pi) is 0.0 + 2 pi * random(), the same float
            params *= 2 * math.pi
            # dirichlet's normalization: the running sum, left to right,
            # and a product with its reciprocal
            weights *= 1.0 / np.cumsum(weights, axis=1)[:, -1:]
            points[start:start + n] = np.matmul(
                weights[:, None, :], orbit_points(rep, params))[:, 0]
        return points
    out = []
    rng = random.Random(seed)
    seen: set[tuple] = set()
    curve: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
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
        for n, d in key:
            if (n, d) not in curve:
                curve[n, d] = cleared_point(rep, n, d)
        pts = [curve[k] for k in key]
        (x0, d0), rest = pts[0], pts[1:]
        if exact_rank([[a * d0 - b * dk for a, b in zip(x, x0)]
                       for x, dk in rest]) < r - 1:
            continue
        seen.add(key)
        raw = [rng.randint(1, 64) for _ in range(r)]
        total = sum(raw)
        denom = math.lcm(*[dk for _, dk in pts])
        factors = [w * (denom // dk) for w, (_, dk) in zip(raw, pts)]
        nums = [sum(map(operator.mul, factors, column))
                for column in zip(*[x for x, _ in pts])]
        g = math.gcd(total * denom, *nums)
        out.append(tuple(v // g for v in (total * denom, *nums)))
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
    expanded to term maps.  The reflection t -> -t maps u_k to ubar_k
    and every secant variety to itself, so the Re columns of a block are
    even and its Im columns odd, and the block's kernel is the direct sum
    of the kernels of its Re half and its Im half.  Each half is factored
    on its own: QR of its unscaled columns, whose R factor keeps their
    norms, then the SVD of R with its columns divided by those norms.  The
    norm cut that leaves a rounding-noise column unscaled is taken over
    the whole block.  Over the singular values of all halves, directions
    below SIGMA_NULL_FACTOR * sigma_max are null, and the cut must be
    witnessed by a singular-value gap of at least GAP_RATIO_REQUIRED,
    otherwise :class:`AmbiguousRankError` is raised.  A block prints its
    Re half's null vectors, then its Im half's.
    The rank is found on a prefix of the sample rows: every half is
    factored first on the first m rows, m the :func:`default_sample_count`
    of the largest block's columns (445 of the 9690 rows at degree 15 on
    {1,4}), and that SVD gives singular values only.  Fewer rows can only
    make a half look more singular, so only a block with a prefix singular
    value below SIGMA_NULL_FACTOR times the largest prefix one can hold a
    null direction.  Those blocks are factored again on all rows, with
    vectors, so every null vector comes from all rows.
    The threshold and the gap test then run over this mixed pool, in which
    the other blocks keep their prefix singular values.  If the pool finds
    no null direction, fails the gap, or puts a null direction in a block
    factored on the prefix only, every block is factored on all rows, and
    that fit's report or error stands.  With m rows or fewer, the one pass
    is on all rows.
    Exact mode: certified integer kernels of the cleared-denominator
    evaluation matrices of the weight blocks (:func:`_fit_exact`).  Raises
    :class:`NoVanishingPolynomialError` when the kernel is
    zero-dimensional.

    ``count`` defaults to :func:`default_sample_count` of, and may not be
    below, the columns of the largest weight block in exact mode and of
    the whole basis, the sum of the block sizes, in float mode.  The float
    fit solves block by block too, but its null vectors are rounded to
    rationals afterwards, and the rounding needs the samples of the whole
    basis: at 445 samples, 2.5 times the largest degree-15 {1,4} block,
    the rounded float fit got 3 to 13 of the 88 known terms wrong on 11 of
    22 seeds.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    blocks = weight_blocks(rep, degree)
    if mode is CoeffMode.FLOAT:
        need = sum(block.size for block in blocks)
        columns = f"{need} monomials"
    else:
        need = max(block.size for block in blocks)
        columns = f"a weight block of {need} columns"
    if count is None:
        count = default_sample_count(need)
    if count < need:
        raise InsufficientSamplesError(
            f"need at least {need} samples for {columns}, got {count}")
    points = sample_secants(rep, r, count, seed, mode)
    if mode is CoeffMode.FLOAT:
        return _fit_float(rep, degree, blocks, points, seed)
    return _fit_exact(rep, degree, blocks, points, seed)


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
    functions; only w >= 0 is listed.  The block sizes add up to the
    number of monomials of degree <= max_degree, the fit's basis size.
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

    The block is evaluated pair by pair: u^a ubar^b and each factor
    u_k^(a_k) ubar_k^(b_k) go through two reused sample-long complex rows,
    and the Re and Im parts are copied straight into the real result.  So
    the result is the only block-sized array; gathering the factors of the
    whole block at once holds two more complex arrays of its size, and on
    the degree-15 {1,4} fit they set the peak memory.  The factors are
    multiplied in from k = 0 up, the order of the gathered form, so the
    matrix is the same to the bit.
    """
    n = len(block.pairs)
    matrix = np.empty((block.size, u_pow.shape[2]))
    value = np.empty(u_pow.shape[2], dtype=complex)
    factor = np.empty_like(value)
    im_row = n
    for j, (a, b) in enumerate(block.pairs):
        np.multiply(u_pow[0, a[0]], conj_pow[0, b[0]], out=value)
        for k in range(1, len(a)):
            np.multiply(u_pow[k, a[k]], conj_pow[k, b[k]], out=factor)
            value *= factor
        matrix[j] = value.real
        if a != b:
            matrix[im_row] = value.imag
            im_row += 1
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


def _basis_order(expo: Exponent) -> tuple:
    """Sort key of the order of :func:`monomials_up_to_degree`: degree
    ascending, then exponent descending."""
    return sum(expo), tuple(-e for e in expo)


def _expand_block_vector(block: WeightBlock, vec: Sequence) -> dict:
    """The nonzero coefficients on the real monomials of a block vector, a
    term map in :func:`_basis_order`: floats for the float fit, Python
    ints for the exact one.  The CLI sums a fit's terms in this order for
    its held-out residuals, and the exact fit takes its sign from the first.

    With alpha on Re(m) and beta on Im(m), the term c * i^q * x^e of m
    contributes c * (alpha, beta, -alpha, -beta)[q] to x^e.
    """
    n = len(block.pairs)
    beta = dict(zip(block.imaginary, vec[n:]))
    terms: dict[Exponent, object] = {}
    for j, ((a, b), re) in enumerate(zip(block.pairs, vec)):
        im = beta.get(j, 0)
        if not (re or im):
            continue
        sign = (re, im, -re, -im)
        for expo, c, q in _pair_terms(a, b):
            terms[expo] = terms.get(expo, 0) + c * sign[q]
    return {expo: terms[expo] for expo in sorted(terms, key=_basis_order)
            if terms[expo]}


def _on_support(maps: Sequence[dict]) -> tuple[list[Exponent], list[list]]:
    """The union support of term maps, in basis order, and each map's
    coefficients on it: the input of :func:`cleared_values`."""
    support = sorted({expo for terms in maps for expo in terms},
                     key=_basis_order)
    return support, [[terms.get(expo, 0) for expo in support]
                     for terms in maps]


def _factor_block(u_pow: np.ndarray, conj_pow: np.ndarray, block: WeightBlock,
                  vectors: bool) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The singular values of the block's Re half and Im half, on the
    samples of ``u_pow`` (see :func:`fit_hypersurface`), each with its
    scaled right vectors if ``vectors`` is set and None otherwise."""
    matrix = _block_matrix(u_pow, conj_pow, block)
    # the Re half and the Im half of the block, factored one at a time;
    # half.T is its evaluation matrix in column-major order, as LAPACK
    # takes it
    n = len(block.pairs)
    r_factors = [np.linalg.qr(half.T, mode="r")
                 for half in (matrix[:n], matrix[n:])]
    # R keeps the column norms of the half it factors
    norms = np.concatenate([np.linalg.norm(r, axis=0) for r in r_factors])
    # A basis function can vanish on the variety (Im(u1^2 ubar2) on
    # {1,2}); scaling its rounding-noise column up to unit norm would
    # hide that null direction.  The cut is taken over the whole block.
    scale = np.where(norms > 1e-12 * norms.max(), norms, 1.0)
    halves = []
    for r_factor, part in zip(r_factors, (scale[:n], scale[n:])):
        # the SVD of the scaled R factor has the scaled half's singular
        # values and right vectors, without the tall left factor
        if vectors:
            _, sigma, vh = np.linalg.svd(r_factor / part)
            halves.append((sigma, vh / part))
        else:
            halves.append((np.linalg.svd(r_factor / part, compute_uv=False),
                           None))
    return halves


def _fit_float(rep: Representation, degree: int, blocks: list[WeightBlock],
               points: np.ndarray, seed: int) -> FitResult:
    u = points[:, 0::2] + 1j * points[:, 1::2]
    u_pow = np.ones((rep.r, degree + 1, len(points)), dtype=complex)
    for e in range(1, degree + 1):
        u_pow[:, e] = u_pow[:, e - 1] * u.T
    conj_pow = u_pow.conj()
    count = len(points)

    def on_all_rows(block):
        return block, _factor_block(u_pow, conj_pow, block, True), count

    # every block on the prefix rows, singular values only unless the
    # prefix is all rows, then on all rows the blocks with a prefix
    # singular value that could be null
    prefix = min(count, default_sample_count(max(b.size for b in blocks)))
    solved = [(block, _factor_block(u_pow[:, :, :prefix],
                                    conj_pow[:, :, :prefix], block,
                                    prefix == count), prefix)
              for block in blocks]
    if prefix < count:
        cut = SIGMA_NULL_FACTOR * max(
            s.max(initial=0.0) for _, halves, _ in solved for s, _ in halves)
        solved = [on_all_rows(entry[0])
                  if any((s < cut).any() for s, _ in entry[1]) else entry
                  for entry in solved]
        try:
            return _float_null_space(rep, degree, solved, count, seed)
        except FitError:
            # the mixed pool does not decide: the fit on all rows does
            solved = [entry if entry[2] == count else on_all_rows(entry[0])
                      for entry in solved]
    return _float_null_space(rep, degree, solved, count, seed)


def _float_null_space(rep: Representation, degree: int, solved: list,
                      count: int, seed: int) -> FitResult:
    """The rank decision and the null vectors over the factored halves of
    every block, each entry ``(block, halves, rows)`` with the number of
    sample rows it was factored on.  An entry factored on fewer than
    ``count`` rows gives singular values only, and may hold no null
    direction."""
    sigma = np.sort(np.concatenate(
        [s for _, halves, _ in solved for s, _ in halves]))[::-1]
    threshold = SIGMA_NULL_FACTOR * sigma[0]
    nullity = int(np.sum(sigma < threshold))
    report = {
        "mode": "float",
        "basis_size": sum(block.size for block, _, _ in solved),
        "sample_count": count,
        "seed": seed,
        "sigma_max": float(sigma[0]),
        "sigma_tail": [float(s) for s in sigma[-min(5, len(sigma)):]],
        "null_threshold": float(threshold),
        "nullity": nullity,
    }
    if nullity == 0:
        raise NoVanishingPolynomialError(
            f"no degree-{degree} equation vanishes on the samples "
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
    for block, halves, rows in solved:
        if rows < count:
            if any((s < threshold).any() for s, _ in halves):
                raise AmbiguousRankError(
                    f"a weight block factored on {rows} of the {count} "
                    "samples has a null direction", report)
            continue
        # the block's null vectors: the Re half's, then the Im half's
        re, im = (vh[s < threshold] for s, vh in halves)
        n = len(block.pairs)
        null = np.zeros((len(re) + len(im), block.size))
        null[:len(re), :n] = re
        null[len(re):, n:] = im
        echelon = _reversed_echelon(null)
        if echelon is None:
            raise AmbiguousRankError(
                "the null vectors of a weight block are dependent at "
                f"{SIGMA_NULL_FACTOR:.0e} of their largest entry", report)
        for row in echelon:
            polys.append(_float_poly(rep.ambient_dim,
                                     _expand_block_vector(block, row)))
    return FitResult(tuple(polys), report)


def _reversed_echelon(vectors: np.ndarray) -> np.ndarray | None:
    """The float form of the basis the exact solvers give a block kernel:
    the reduced echelon form of the rows with the columns in reverse
    order, by increasing pivot column, each row zero on the other rows'
    pivots and left unnormalized (the printing scales it).

    Elimination runs from the last column with partial pivoting; a column
    is a pivot only where its largest remaining entry is above
    SIGMA_NULL_FACTOR of the largest entry of ``vectors``.  Returns None if
    some row finds no pivot.
    """
    rows = vectors.copy()
    tol = SIGMA_NULL_FACTOR * np.abs(rows).max(initial=0.0)
    done = 0
    for col in range(rows.shape[1] - 1, -1, -1):
        if done == len(rows):
            break
        i = done + int(np.argmax(np.abs(rows[done:, col])))
        if abs(rows[i, col]) <= tol:
            continue
        rows[[done, i]] = rows[[i, done]]
        others = np.arange(len(rows)) != done
        rows[others] -= np.outer(rows[others, col] / rows[done, col], rows[done])
        rows[others, col] = 0.0
        done += 1
    return rows[::-1] if done == len(rows) else None


def _float_poly(nvars: int, terms: dict) -> SparsePoly:
    """Deterministic normalization of a float term map: unit max
    coefficient, positive leading term; coefficients at or below
    SIGMA_NULL_FACTOR are dropped as noise.  The terms keep their order."""
    top = float(max(abs(c) for c in terms.values()))
    scaled = [(expo, float(c) / top) for expo, c in terms.items()]
    terms = {expo: c for expo, c in scaled if abs(c) > SIGMA_NULL_FACTOR}
    if terms[max(terms, key=grlex_key)] < 0:
        terms = {expo: -c for expo, c in terms.items()}
    return SparsePoly(nvars, terms, CoeffMode.FLOAT)


# Points per call of :func:`cleared_values` in the exact test and the exact
# verify: enough for each numpy call on a monomial to pay off, few enough
# that a failing chunk stops the exact test soon.
_VANISH_CHUNK = 256
# Bits the kept powers of one chunk of the exact verify may hold together.
# At degree 128 a frequency-64 point keeps powers of 10^5 bits and more,
# and 256 of them set the peak memory; the 47-term degree-8 equation keeps
# at most about 5500 bits a point, so its chunks stay at 256 points.
_VANISH_CHUNK_BITS = 1 << 22


def _block_rows(cleared: list[tuple[int, ...]], degree: int,
                block: WeightBlock) -> list[list[int]]:
    """The block's columns at the cleared points as exact integer rows.

    Entry j of a point's row is L^D times row j of :func:`_block_matrix`
    there: the value, by :func:`cleared_values` on the block's monomials,
    of the integer term map :func:`_expand_block_vector` of the j-th unit
    vector.  Only Bareiss takes these rows; wider fits use
    :func:`_block_residues`.
    """
    exponents, ints = _on_support([_expand_block_vector(block, unit) for unit
                                   in np.eye(block.size, dtype=int).tolist()])
    return cleared_values(exponents, ints, degree, cleared).T.tolist()


def _residue_tables(cleared: list[tuple[int, ...]], top: int,
                    p: int) -> np.ndarray:
    """Powers 0..top modulo p over the cleared points, an int64 array
    indexed by (factor, exponent, point).  The factors are L, then
    z_k = X_k + i_p Y_k and then zbar_k = X_k - i_p Y_k for the cleared
    coordinate pairs (X_k, Y_k) = (L x_k, L y_k), with i_p the square root
    of -1 modulo p of :func:`sqrt_minus_one`: the images modulo p of L,
    L u_k and L ubar_k."""
    i_p = sqrt_minus_one(p)
    base = np.array([[x % p for x in point] for point in cleared],
                    dtype=np.int64).T
    iy = base[2::2] * i_p % p
    base = np.concatenate([base[:1], (base[1::2] + iy) % p,
                           (base[1::2] - iy) % p])
    powers = np.empty((base.shape[0], top + 1, base.shape[1]), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, top + 1):
        np.multiply(powers[:, e - 1], base, out=powers[:, e])
        powers[:, e] %= p
    return powers


def _block_residues(powers: np.ndarray, block: WeightBlock,
                    p: int) -> np.ndarray:
    """Twice the :func:`_block_rows` rows modulo p, without them, from the
    :func:`_residue_tables` of the points.

    m = L^(D - |a| - |b|) z^a zbar^b is the image of L^D u^a ubar^b and
    mbar, with a and b swapped, that of its conjugate, so m + mbar is
    2 Re and (m - mbar) / i_p is 2 Im of it, modulo p.  Each is a product
    of gathered table rows, reduced after every product (each below p^2).
    """
    r = (powers.shape[0] - 1) // 2
    top = powers.shape[1] - 1
    pairs = np.array(block.pairs)
    a, b = pairs[:, 0], pairs[:, 1]
    m = mbar = powers[0, top - a.sum(axis=1) - b.sum(axis=1)]
    for k in range(r):
        m = m * powers[1 + k, a[:, k]] % p * powers[1 + r + k, b[:, k]] % p
        mbar = (mbar * powers[1 + k, b[:, k]] % p
                * powers[1 + r + k, a[:, k]] % p)
    n = len(block.pairs)
    matrix = np.empty((m.shape[1], block.size), dtype=np.int64)
    matrix[:, :n] = ((m + mbar) % p).T
    # 1 / i_p = -i_p modulo p
    diff = (m - mbar)[block.imaginary]
    matrix[:, n:] = (diff * (p - sqrt_minus_one(p)) % p).T
    return matrix


def _vanishes(cleared: list[tuple[int, ...]], degree: int,
              polys: Sequence[dict]) -> bool:
    """Whether every integer term map of degree <= ``degree`` vanishes,
    exactly, at every cleared point: the exact kernel test of
    :func:`_fit_exact`.

    :func:`cleared_values` evaluates all of them on their union support
    (:func:`_on_support`), one chunk of ``_VANISH_CHUNK`` points at a time;
    a chunk with a nonzero value ends the test.
    """
    exponents, ints = _on_support(polys)
    return not any(
        cleared_values(exponents, ints, degree,
                       cleared[start:start + _VANISH_CHUNK]).any()
        for start in range(0, len(cleared), _VANISH_CHUNK))


def _verify_chunks(cleared: list[tuple[int, ...]], top: int,
                   exponents: list[Exponent]):
    """Split the cleared points, in order, into runs of at most
    ``_VANISH_CHUNK`` points whose kept powers (:func:`kept_exponents`)
    hold at most ``_VANISH_CHUNK_BITS`` bits together; a point that holds
    more makes a run of its own.  A power e of an entry of b bits holds
    about e * b bits."""
    weights = [sum(kept) for kept in
               kept_exponents(exponents, top, len(cleared[0]))]
    start, bits = 0, 0
    for j, point in enumerate(cleared):
        size = sum(w * x.bit_length() for w, x in zip(weights, point))
        if j > start and (j - start == _VANISH_CHUNK
                          or bits + size > _VANISH_CHUNK_BITS):
            yield cleared[start:j]
            start, bits = j, 0
        bits += size
    yield cleared[start:]


def _fit_exact(rep: Representation, degree: int, blocks: list[WeightBlock],
               cleared: list[tuple[int, ...]], seed: int) -> FitResult:
    """The certified exact fit, one weight block at a time.

    Why the split is sound: the secant varieties are invariant under the
    rotations, so the weight components of a polynomial in their ideal are
    in the ideal too (:func:`weight_blocks`).  Every equation is then a sum
    of block equations, and the fit solves each block on the same samples,
    which need only match the widest block's columns in number.  Per
    block, the prime-field nullity bounds the block's kernel from above
    and the exact test of its expanded vectors bounds it from below, so
    the fit is certified when every block is.  Each solver returns a
    block's kernel in its reduced echelon form with the columns reversed
    (:mod:`orbitopes.exactla`), and that is the printed basis: blocks in
    weight order, each block vector's term map (:func:`_expand_block_vector`)
    divided by the gcd of its coefficients, its first one made positive.

    The fit works on the cleared points (L, L*x_1, ..., L*x_n) as the
    sampler drew them.  The residue tables are built once per prime
    and fit and shared by the blocks; the Bareiss rows and the exact test
    evaluate integer term maps at the cleared points (:func:`cleared_values`).
    """
    tables = cache(partial(_residue_tables, cleared, degree))

    # the exact test and the printing share each block kernel's expansion
    @cache
    def expand(j, vectors):
        return [_expand_block_vector(blocks[j], v) for v in vectors]

    bases, info = nullspace_exact(
        [block.size for block in blocks],
        lambda j: _block_rows(cleared, degree, blocks[j]),
        lambda j, p: _block_residues(tables(p), blocks[j], p),
        lambda j, vectors: _vanishes(cleared, degree,
                                     expand(j, tuple(vectors))))
    polys = []
    for j, block_basis in enumerate(bases):
        for terms in expand(j, tuple(block_basis)):
            lead = next(iter(terms.values()))
            g = math.gcd(*terms.values()) * (1 if lead > 0 else -1)
            polys.append(SparsePoly(rep.ambient_dim, {
                expo: c // g for expo, c in terms.items()}, CoeffMode.RATIONAL))
    report = {
        "mode": "exact",
        "basis_size": sum(block.size for block in blocks),
        "sample_count": len(cleared),
        "seed": seed,
        "nullity": len(polys),
        **info,
    }
    if not polys:
        raise NoVanishingPolynomialError(
            f"no degree-{degree} equation vanishes on the exact "
            f"samples", report)
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

    Float mode evaluates p on the sampler's point array and returns a
    float.  Rational mode evaluates exactly and returns a ``Fraction``, a
    float coefficient taken as the binary fraction it stores: with M and
    the integer coefficients of :meth:`SparsePoly.integer_form`,
    :func:`cleared_values` gives V = M L^D p(x) at each cleared point
    (L, L x) the sampler draws, in the chunks of
    :func:`_verify_chunks`, which bound the bits of the powers a chunk
    keeps.  The largest |V| / L^D is found by its estimate
    log2 |V| - D log2 L, and only it builds its L^D and becomes a
    ``Fraction``, over M L^D.  ``math.log2`` of an integer of b bits is
    within about 2^-52 (b + 4) of the true value, so an estimate is off by
    at most about 2^-51 B, B the bits of |V| and of L^D together.  A
    degree-128 value at frequency 64 has about 2 * 10^5 bits; below
    2^29 bits two estimates more than 1e-6 apart are in the order of
    their ratios, and only closer ones are compared exactly, by
    cross-multiplying (:func:`_exceeds`).
    """
    if p.nvars != rep.ambient_dim:
        raise ValueError(f"polynomial has {p.nvars} variables, "
                         f"curve lives in R^{rep.ambient_dim}")
    points = sample_secants(rep, r, count, seed, mode)
    if mode is CoeffMode.FLOAT:
        return float(np.max(np.abs(evaluate_on_points(p, points))))
    if p.mode is CoeffMode.FLOAT:
        p = SparsePoly(p.nvars, {e: Fraction(c) for e, c in p.terms.items()})
    top, denom, exponents, ints = p.integer_form()
    # the largest |V|, its L and its estimate
    worst, worst_lead, worst_bits = 0, 1, -math.inf
    for cleared in _verify_chunks(points, top, exponents):
        values = cleared_values(exponents, [ints], top, cleared)[0]
        for value, (lead, *_) in zip(values, cleared):
            if not value:
                continue
            value = abs(value)
            bits = math.log2(value) - top * math.log2(lead)
            if bits > worst_bits + 1e-6 or (
                    bits >= worst_bits - 1e-6
                    and _exceeds(value, lead, worst, worst_lead, top)):
                worst, worst_lead, worst_bits = value, lead, bits
    return Fraction(worst, denom * worst_lead ** top)


def _exceeds(value: int, lead: int, worst: int, worst_lead: int,
             top: int) -> bool:
    """Whether value / lead^top > worst / worst_lead^top, exactly."""
    return value * worst_lead ** top > worst * lead ** top


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
