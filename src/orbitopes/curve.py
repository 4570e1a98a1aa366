"""Orbits of planar rotations acting block-diagonally on R^(2r).

A frequency set ``{j1 < ... < jr}`` of positive integers defines the closed
curve

    theta -> (cos(j1*theta), sin(j1*theta), ..., cos(jr*theta), sin(jr*theta))

whose convex hull is the object of study everywhere else in this package.
This module provides the package's one float evaluator of the curve,
:func:`orbit_points`, and the exact rational (tan-half-angle)
parametrization in cleared integers (:func:`cleared_point`), built on one
table of integer angle-multiplication coefficients (those of
``(1+it)^(2j)``); the float affine-independence test for tuples of
points, the projective degree and smoothness data, and an independent
numeric probe that re-derives the degree by intersecting the rational
parametrization with a random affine hyperplane.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

import numpy as np

AFFINE_RANK_TOL = 1e-10


class DegenerateHyperplaneError(RuntimeError):
    """The random hyperplane was non-generic; retry with a new seed."""


@dataclass(frozen=True)
class Representation:
    """A multiplicity-free set of positive rotation frequencies."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(j) for j in self.indices)
        if not idx:
            raise ValueError("at least one frequency is required")
        if any(j < 1 for j in idx):
            raise ValueError(f"frequencies must be positive, got {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate frequencies in {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @classmethod
    def parse(cls, text: str) -> "Representation":
        """Parse a comma-separated frequency list such as ``"1,3"``."""
        try:
            return cls(tuple(int(tok) for tok in text.split(",") if tok.strip()))
        except ValueError as exc:
            raise ValueError(f"bad frequency list {text!r}: {exc}") from None

    def __str__(self) -> str:
        return ",".join(map(str, self.indices))

    @property
    def r(self) -> int:
        return len(self.indices)

    @property
    def ambient_dim(self) -> int:
        return 2 * len(self.indices)

    @property
    def max_index(self) -> int:
        return self.indices[-1]

    @property
    def gcd(self) -> int:
        g = 0
        for j in self.indices:
            g = gcd(g, j)
        return g

    def is_reduced(self) -> bool:
        return self.gcd == 1

    def reduce(self) -> "Representation":
        """Divide all frequencies by their gcd; the orbit is unchanged."""
        g = self.gcd
        if g == 1:
            return self
        return Representation(tuple(j // g for j in self.indices))


@dataclass(frozen=True)
class CurveInfo:
    """Degree and singularity data of the projective closure of the orbit."""

    degree: int
    smooth: bool
    ambient_dim: int
    singular_points: tuple[tuple[complex, ...], tuple[complex, ...]] | None


def orbit_points(rep: Representation, thetas) -> np.ndarray:
    """Curve points, one row per angle; a single angle gives one point.

    The point at theta lies on the sphere of radius sqrt(r).  Column 2i
    holds cos(j_i theta) and column 2i+1 sin(j_i theta).
    """
    angles = np.multiply.outer(np.asarray(thetas, dtype=float), rep.indices)
    out = np.empty(angles.shape[:-1] + (rep.ambient_dim,))
    out[..., 0::2] = np.cos(angles)
    out[..., 1::2] = np.sin(angles)
    return out


def cleared_point(rep: Representation, n: int,
                  d: int) -> tuple[tuple[int, ...], int]:
    """Integer coordinates and their common denominator of the curve point
    at ``t = n/d`` (lowest terms, d > 0).

    With norm = d^2 + n^2, cos(j*theta) = sum_k re_k n^k d^(2j-k) / norm^j,
    and sin(j*theta) is the same sum over im_k, where re_k + i*im_k are
    the coefficients of (1+it)^(2j) (:func:`_cleared_cos_sin`).  Every
    coordinate is returned over the denominator norm^J, J the largest
    frequency.
    """
    top = rep.max_index
    norm = d * d + n * n
    n_pow, d_pow = [1], [1]
    for _ in range(2 * top):
        n_pow.append(n_pow[-1] * n)
        d_pow.append(d_pow[-1] * d)
    coords: list[int] = []
    for j in rep.indices:
        re, im = _cleared_cos_sin(j)
        terms = list(map(operator.mul, n_pow[:2 * j + 1], d_pow[2 * j::-1]))
        pad = norm ** (top - j)
        coords.append(pad * sum(map(operator.mul, re, terms)))
        coords.append(pad * sum(map(operator.mul, im, terms)))
    return tuple(coords), norm ** top


def rational_point(rep: Representation, t) -> tuple[Fraction, ...]:
    """Exact curve point for the parameter ``t = tan(theta/2)``: the
    :func:`cleared_point` of t, one ``Fraction`` per coordinate.  As ``t``
    runs over the rationals this covers the orbit minus the single point at
    theta = pi.
    """
    t = Fraction(t)
    coords, denom = cleared_point(rep, t.numerator, t.denominator)
    return tuple(Fraction(c, denom) for c in coords)


def antipodal_point(rep: Representation) -> tuple[Fraction, ...]:
    """The exact curve point at theta = pi (missed by ``rational_point``)."""
    coords: list[Fraction] = []
    for j in rep.indices:
        coords.append(Fraction((-1) ** j))
        coords.append(Fraction(0))
    return tuple(coords)


def affinely_independent(points: Sequence[np.ndarray]) -> bool:
    """Whether the points are affinely independent (rank of differences)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return True
    sigma = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
    # sorted largest first: full rank needs len(pts) - 1 values, all above
    # the cut, and the last one is the smallest
    return bool(len(sigma) == len(pts) - 1
                and sigma[-1] > AFFINE_RANK_TOL * max(sigma[0], 1.0))


def curve_info(rep: Representation) -> CurveInfo:
    """Degree, smoothness and (if present) the conjugate singular point pair.

    The degree of the projective closure is twice the largest reduced
    frequency.  With at least two frequencies the curve is smooth exactly
    when the second-largest reduced frequency is one less than the largest;
    otherwise the two points at infinity are singular, a complex-conjugate
    pair supported on the last coordinate block.  A single frequency gives a
    smooth conic.
    """
    reduced = rep.reduce()
    degree = 2 * reduced.max_index
    if reduced.r == 1:
        smooth = True
    else:
        smooth = (reduced.max_index - 1) in reduced.indices
    singular = None
    if not smooth:
        n = rep.ambient_dim
        base = [0j] * (n + 1)
        plus = list(base)
        plus[n - 1] = 1 + 0j
        plus[n] = 1j
        minus = list(base)
        minus[n - 1] = 1 + 0j
        minus[n] = -1j
        singular = (tuple(plus), tuple(minus))
    return CurveInfo(degree=degree, smooth=smooth,
                     ambient_dim=rep.ambient_dim, singular_points=singular)


# -- numeric degree probe ----------------------------------------------------
#
# Substituting the rational parametrization into an affine hyperplane and
# clearing the (1+t^2) powers yields an integer polynomial whose degree, for
# a generic hyperplane, is the degree of the projective curve.


@lru_cache(maxsize=None)
def _cleared_cos_sin(j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer coefficients of cos/sin(j*theta(t)) * (1+t^2)^j.

    These are the real and imaginary parts of (1+it)^(2j) as polynomials
    in t: by the binomial theorem the coefficient of t^k is C(2j, k) i^k.
    """
    coeffs = [math.comb(2 * j, k) for k in range(2 * j + 1)]
    return (tuple(c * (1, 0, -1, 0)[k % 4] for k, c in enumerate(coeffs)),
            tuple(c * (0, 1, 0, -1)[k % 4] for k, c in enumerate(coeffs)))


def numeric_degree_probe(rep: Representation, seed: int) -> int:
    """Degree of the curve re-derived from a random hyperplane section.

    Requires a reduced frequency set.  Raises
    :class:`DegenerateHyperplaneError` when the drawn hyperplane kills the
    leading coefficient; callers retry with another seed.
    """
    if not rep.is_reduced():
        raise ValueError(f"frequency set {rep} is not reduced; call reduce() first")
    rng = random.Random(seed)
    big_j = rep.max_index

    def draw() -> int:
        value = 0
        while value == 0:
            value = rng.randint(-999, 999)
        return value

    acc = [0] * (2 * big_j + 1)

    def add_scaled(poly: Sequence[int], factor_pow: int, scalar: int) -> None:
        # (1+t^2)^m has coefficient C(m, i) at t^(2i)
        for i in range(factor_pow + 1):
            weight = scalar * math.comb(factor_pow, i)
            for k, x in enumerate(poly):
                acc[2 * i + k] += weight * x

    add_scaled([1], big_j, draw())
    for j in rep.indices:
        re, im = _cleared_cos_sin(j)
        add_scaled(re, big_j - j, draw())
        add_scaled(im, big_j - j, draw())

    while acc and acc[-1] == 0:
        acc.pop()
    if len(acc) - 1 < 2 * big_j:
        raise DegenerateHyperplaneError(
            f"leading coefficient vanished for seed {seed}")
    return len(acc) - 1
