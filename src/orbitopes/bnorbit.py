"""Odd-frequency moment curves and their orbitopes B_{n+1}.

For odd n the curve

    SM(theta) = (cos t, sin t, cos 3t, sin 3t, ..., cos nt, sin nt)

spans the (n+1)-dimensional centrally symmetric orbitope B_{n+1}.  This
module provides the simpliciality check (through the affine-independence
test of :mod:`orbitopes.curve`), the explicit
top-dimensional exposed faces with their supporting hyperplanes, exactly
checked exposing hyperplanes of other face candidates, an exact barycentric
certificate that the origin is interior, and the full witness pipeline
showing the body is not a basic closed semi-algebraic set: the origin lies
both in the interior and on the secant surface swept out by chords of the
curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import tau
from typing import Sequence

import numpy as np

from . import fixtures
from .curve import (Representation, affinely_independent, antipodal_point,
                    orbit_point, orbit_points, rational_point)
from .faces4d import FaceDescriptor, FaceKind
from .lp import _gauge_lp
from .poly import SparsePoly


def sm_rep(n: int) -> Representation:
    """Frequency set {1, 3, ..., n}; n must be odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd n >= 3, got {n}")
    return Representation(tuple(range(1, n + 1, 2)))


def sm_map(n: int, theta: float) -> np.ndarray:
    """The odd-frequency curve point at angle theta, in R^(n+1)."""
    return orbit_point(sm_rep(n), theta)


def sm_points(n: int, thetas) -> np.ndarray:
    return orbit_points(sm_rep(n), np.asarray(thetas, dtype=float))


# The certificate check of certify_exposed_face: |level - 1| at the active
# parameters <= INTERPOLATION_TOL, least slack >= -SLACK_TOL, margin > MARGIN_FLOOR.
INTERPOLATION_TOL, SLACK_TOL, MARGIN_FLOOR = 1e-10, 1e-10, 1e-13


@dataclass(frozen=True)
class HyperplaneCertificate:
    """A supporting hyperplane {x : x.normal = 1} touching the curve exactly
    at the active parameters, with verified positive slack elsewhere."""

    normal: tuple[float, ...]
    level: float
    active_params: tuple[float, ...]
    margin: float
    exclusion: float

    def to_json(self) -> dict:
        return {
            "normal": list(self.normal),
            "level": self.level,
            "active_params": list(self.active_params),
            "margin": self.margin,
            "exclusion_radius": self.exclusion,
        }


def _off_arcs(thetas: np.ndarray, active: Sequence[float],
              exclusion: float) -> np.ndarray:
    """Mask of the angles farther than ``exclusion`` from every active
    parameter; raises ValueError when the arcs cover the whole circle."""
    centers = np.sort(np.asarray(active, dtype=float) % tau)
    if np.max(np.diff(centers, append=centers[0] + tau)) <= 2 * exclusion:
        raise ValueError("exclusion arcs cover the whole grid")
    keep = np.ones(thetas.shape, dtype=bool)
    for a in active:
        keep &= np.abs((thetas - a + math.pi) % tau - math.pi) > exclusion
    return keep


def _slack_margin(rep: Representation, w: np.ndarray, active: Sequence[float],
                  exclusion: float) -> tuple[float, float]:
    """Least slack 1 - w . point(theta) over the circle and off the
    exclusion arcs, both exact.

    The slack is a trigonometric polynomial of degree J (the largest
    frequency); its critical points are among the arguments of the 2J roots
    of z^J d/dtheta (w . point), a polynomial in z = e^{i theta}.  Off the
    arcs the least value is at an off-arc critical point or an arc endpoint.
    """
    top = max(rep.indices)
    coeffs = np.zeros(2 * top + 1, dtype=complex)
    for i, j in enumerate(rep.indices):
        a, b = w[2 * i], w[2 * i + 1]
        coeffs[top + j] += j * complex(a, -b)
        coeffs[top - j] -= j * complex(a, b)
    critical = np.angle(np.roots(coeffs[::-1]))
    ends = np.concatenate([np.subtract(active, exclusion), np.add(active, exclusion)])
    off = np.concatenate([critical[_off_arcs(critical, active, exclusion)], ends])
    slack = 1.0 - orbit_points(rep, np.concatenate([critical, off])) @ w
    return float(np.min(slack[:critical.size])), float(np.min(slack[critical.size:]))


@dataclass(frozen=True)
class TopFace:
    descriptor: FaceDescriptor
    certificate: HyperplaneCertificate

    def to_json(self) -> dict:
        return {"face": self.descriptor.to_json(),
                "certificate": self.certificate.to_json()}


def top_face(n: int, theta: float, exclusion: float = 1e-3) -> TopFace:
    """The explicit (n-1)-dimensional simplicial exposed face at theta.

    Vertices are the curve points at theta + 2*pi*j/n and the exposing
    hyperplane has normal (0, ..., 0, cos n*theta, sin n*theta): on the
    curve the functional evaluates to cos(n(phi - theta)), which is 1
    exactly at the vertices.
    """
    rep = sm_rep(n)
    params = tuple(theta + tau * j / n for j in range(n))
    normal = np.zeros(n + 1)
    normal[n - 1] = math.cos(n * theta)
    normal[n] = math.sin(n * theta)
    for phi in params:
        level = float(normal @ sm_map(n, phi))
        assert abs(level - 1.0) < 1e-12
    _, margin = _slack_margin(rep, normal, params, exclusion)
    cert = HyperplaneCertificate(
        normal=tuple(normal), level=1.0, active_params=params,
        margin=margin, exclusion=exclusion)
    descriptor = FaceDescriptor(kind=FaceKind.SIMPLEX, parameters=params,
                                exposed=True, dimension=n - 1)
    return TopFace(descriptor, cert)


def _tangent_normal(rep: Representation, angles: Sequence[float]) -> np.ndarray:
    """Hyperplane through the curve points at ``angles``, tangent to the
    curve at each of them (minimum-norm solution when underdetermined).

    For an exposed face this interpolation-plus-tangency system is satisfied
    by the true supporting hyperplane; for a single point it reproduces the
    sphere normal point/||point||^2.
    """
    rows = []
    rhs = []
    for a in angles:
        point = orbit_point(rep, a)
        velocity = np.empty_like(point)
        for i, j in enumerate(rep.indices):
            velocity[2 * i] = -j * math.sin(j * a)
            velocity[2 * i + 1] = j * math.cos(j * a)
        rows.append(point)
        rhs.append(1.0)
        rows.append(velocity)
        rhs.append(0.0)
    w, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return w


def certify_exposed_face(rep: Representation, angles: Sequence[float],
                         grid: int = 2048) -> HyperplaneCertificate | None:
    """Certify the curve points at ``angles`` as an exposed face.

    The one candidate is the hyperplane through the points and tangent to
    the curve at each of them (:func:`_tangent_normal`).  It is a
    certificate when it interpolates the points within
    ``INTERPOLATION_TOL``, its slack is nowhere below ``-SLACK_TOL``, and
    its slack off the exclusion arcs (radius ``4 * 2*pi / grid`` around
    each parameter) exceeds ``MARGIN_FLOOR``; both slack minima are exact
    (:func:`_slack_margin`).  ``None`` means no certificate, never a proof
    of non-faceness.
    """
    angles = [float(a) % tau for a in angles]
    if len({round(a, 12) for a in angles}) != len(angles):
        raise ValueError(f"duplicate parameters in {angles}")
    exclusion = 4 * tau / grid
    w = _tangent_normal(rep, angles)
    # before any verdict, so arcs covering the circle are always a ValueError
    least, margin = _slack_margin(rep, w, angles, exclusion)
    level = orbit_points(rep, np.array(angles)) @ w
    if (float(np.max(np.abs(level - 1.0))) > INTERPOLATION_TOL
            or least < -SLACK_TOL or margin <= MARGIN_FLOOR):
        return None
    return HyperplaneCertificate(
        normal=tuple(float(v) for v in w), level=1.0,
        active_params=tuple(angles), margin=margin, exclusion=exclusion)


def certify_face(n: int, params: Sequence[float],
                 grid: int = 2048) -> HyperplaneCertificate | None:
    """Exposing-hyperplane certificate on the odd-frequency curve.

    Accepts j+1 parameters with j+1 <= (n-1)/2 + 1 (the neighborliness
    range of the body).
    """
    rep = sm_rep(n)
    if len(params) > (n - 1) // 2 + 1:
        raise ValueError(
            f"{len(params)} points exceed the neighborliness range of B_{n + 1}")
    return certify_exposed_face(rep, params, grid=grid)


# -- interior certificate ------------------------------------------------------


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials with a monic divisor; exact arithmetic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        coeff = num[i]
        if coeff == 0:
            continue
        quot[i - dd] = coeff
        for j, d in enumerate(den):
            num[i - dd + j] -= coeff * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _cyclotomic(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial (ascending)."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            quot, rem = _poly_divmod_monic(poly, _cyclotomic(d))
            assert not rem
            poly = quot
    return poly


def _root_of_unity_power_sum_vanishes(j: int, m: int) -> bool:
    """Exact check that sum_k zeta^(j*k) = 0 for zeta a primitive m-th root.

    The sum, as an integer polynomial sum_k x^(j*k mod m), vanishes at zeta
    exactly when the m-th cyclotomic polynomial divides it.
    """
    coeffs = [0] * m
    for k in range(m):
        coeffs[(j * k) % m] += 1
    _, rem = _poly_divmod_monic(coeffs, _cyclotomic(m))
    return not rem


@dataclass(frozen=True)
class InteriorCertificate:
    """Barycentric proof that the target is interior: n+2 affinely
    independent curve points with strictly positive weights averaging to it."""

    n: int
    turns: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    target: tuple[float, ...]
    barycenter_residual: float
    exact_zero_sum: bool
    affinely_independent: bool

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(float(t) * tau for t in self.turns)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertex_turns": [f"{t.numerator}/{t.denominator}" for t in self.turns],
            "weights": [f"{w.numerator}/{w.denominator}" for w in self.weights],
            "target": list(self.target),
            "barycenter_residual": self.barycenter_residual,
            "exact_zero_sum": self.exact_zero_sum,
            "affinely_independent": self.affinely_independent,
        }


def interior_certificate(n: int, target=None) -> InteriorCertificate:
    """Certify the origin as an interior point of B_{n+1}.

    Uses the m = n+2 curve points at m-th roots of unity with equal weights
    1/m: since m divides no frequency, every coordinate sums to zero, a fact
    certified exactly through cyclotomic divisibility.  The m points are
    affinely independent, so the origin is a strictly positive barycentric
    combination of a full-dimensional simplex.
    """
    rep = sm_rep(n)
    if target is not None and any(target):
        raise ValueError("only the origin target is supported")
    m = n + 2
    turns = tuple(Fraction(k, m) for k in range(m))
    weights = tuple(Fraction(1, m) for _ in range(m))
    exact = all(_root_of_unity_power_sum_vanishes(j, m) for j in rep.indices)
    pts = sm_points(n, [float(t) * tau for t in turns])
    residual = float(np.max(np.abs(pts.mean(axis=0))))
    independent = affinely_independent(list(pts))
    if not independent:
        raise RuntimeError("root-of-unity points reported affinely dependent; "
                           "this indicates a rank-test bug")
    return InteriorCertificate(
        n=n, turns=turns, weights=weights, target=(0.0,) * (n + 1),
        barycenter_residual=residual, exact_zero_sum=exact,
        affinely_independent=independent)


# -- the not-basic-closed witness ---------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """Everything needed to conclude B_{n+1} is not basic closed: the origin
    is a secant-surface point (midpoint of two antipodal curve points) that
    is simultaneously interior."""

    n: int
    secant_order: int
    chord_params: tuple[float, float]
    chord_weights: tuple[Fraction, Fraction]
    chord_midpoint_exact_zero: bool
    interior: InteriorCertificate
    slice_value_at_origin: Fraction | None
    slice_gradient_at_origin: tuple[Fraction, Fraction] | None
    accepted: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "secant_order": self.secant_order,
            "chord_params": list(self.chord_params),
            "chord_weights": [f"{w.numerator}/{w.denominator}"
                              for w in self.chord_weights],
            "chord_midpoint_exact_zero": self.chord_midpoint_exact_zero,
            "interior": self.interior.to_json(),
            "slice_value_at_origin": (
                None if self.slice_value_at_origin is None
                else str(self.slice_value_at_origin)),
            "slice_gradient_at_origin": (
                None if self.slice_gradient_at_origin is None
                else [str(g) for g in self.slice_gradient_at_origin]),
            "accepted": self.accepted,
        }


def not_basic_witness(n: int) -> WitnessReport:
    """Assemble the full witness that B_{n+1} is not basic closed.

    The chord from SM(0) to SM(pi) has the origin as its exact midpoint
    (central symmetry), placing the origin on the ((n-1)/2)-th secant
    surface; the interior certificate places it in the interior.  For n = 3
    the report additionally evaluates the planar slice: the restricted
    secant equation vanishes at the origin while its cubic factor has
    nonvanishing gradient there, so the origin is a regular point of that
    hypersurface.
    """
    rep = sm_rep(n)
    half = Fraction(1, 2)
    a = rational_point(rep, 0)
    b = antipodal_point(rep)
    midpoint = tuple(half * (x + y) for x, y in zip(a, b))
    midpoint_zero = all(v == 0 for v in midpoint)
    interior = interior_certificate(n)
    slice_value = None
    slice_gradient = None
    if n == 3:
        f = fixtures.secant_surface_13()
        slice_value = f.evaluate([0, 0, 0, 0])
        cubic = slice_cubic()
        slice_gradient = cubic.gradient([0, 0])
    accepted = (midpoint_zero
                and interior.exact_zero_sum
                and interior.affinely_independent
                and interior.barycenter_residual <= 1e-12
                and (n != 3 or (slice_value == 0
                                and any(g != 0 for g in slice_gradient))))
    return WitnessReport(
        n=n, secant_order=(n - 1) // 2, chord_params=(0.0, math.pi),
        chord_weights=(half, half), chord_midpoint_exact_zero=midpoint_zero,
        interior=interior, slice_value_at_origin=slice_value,
        slice_gradient_at_origin=slice_gradient, accepted=accepted)


# -- the planar slice of B_4 ---------------------------------------------------


def slice_cubic() -> SparsePoly:
    """The cubic factor 4x^3 - 3x + z of the restricted secant equation."""
    x = SparsePoly.variable(2, 0)
    z = SparsePoly.variable(2, 1)
    return (x ** 3).scale(4) - x.scale(3) + z


def slice_line_cubed() -> SparsePoly:
    """The factor (x + z)^3 of the restricted secant equation."""
    x = SparsePoly.variable(2, 0)
    z = SparsePoly.variable(2, 1)
    return (x + z) ** 3


@dataclass(frozen=True)
class PlotSeries:
    name: str
    points: tuple[tuple[float, float, str], ...]  # (x, z, "black" | "gray")


@dataclass(frozen=True)
class SliceReport:
    """The planar slice w = y = 0 of B_4: restricted boundary polynomials,
    exact factorization checks, and tagged plot data for its boundary."""

    restricted_secant: SparsePoly
    cube_factor: SparsePoly
    cubic_factor: SparsePoly
    circle_restriction: SparsePoly
    secant_factorization_exact: bool
    circle_factorization_exact: bool
    series: tuple[PlotSeries, ...]

    def to_json(self) -> dict:
        return {
            "restricted_secant": self.restricted_secant.dumps().splitlines(),
            "cube_factor": self.cube_factor.dumps().splitlines(),
            "cubic_factor": self.cubic_factor.dumps().splitlines(),
            "circle_restriction": self.circle_restriction.dumps().splitlines(),
            "secant_factorization_exact": self.secant_factorization_exact,
            "circle_factorization_exact": self.circle_factorization_exact,
            "series": {s.name: len(s.points) for s in self.series},
        }

    def to_csv(self) -> str:
        lines = ["series,x,z,tag"]
        for s in self.series:
            for x, z, tag in s.points:
                lines.append(f"{s.name},{x!r},{z!r},{tag}")
        return "\n".join(lines) + "\n"


def slice_b4(step: float = 0.0125, hull_grid: int = 4096,
             boundary_band: float = 2e-4) -> SliceReport:
    """Slice B_4 with the plane w = y = 0 and classify its boundary arcs.

    The two boundary hypersurfaces restrict to z^2 - 1 = (z+1)(z-1) and to
    (x+z)^3 (4x^3 - 3x + z); both factorizations are verified by exact
    multiplication.  Each restricted curve is sampled over x in [-1.2, 1.2]
    and every sample is tagged black (bounds the slice) or gray (extends
    beyond it) according to its Minkowski gauge with respect to a dense
    inner approximation of the body.
    """
    f = fixtures.secant_surface_13()
    restricted = f.restrict({0: 0, 2: 0})
    cube = slice_line_cubed()
    cubic = slice_cubic()
    secant_ok = restricted == cube * cubic

    x = SparsePoly.variable(2, 0)
    z = SparsePoly.variable(2, 1)
    circle = z * z - SparsePoly.constant(2, 1)  # y^2+z^2-1 at y := 0
    one = SparsePoly.constant(2, 1)
    circle_ok = circle == (z + one) * (z - one)

    hull_points = sm_points(3, np.arange(hull_grid) * (tau / hull_grid))

    def tagged(name: str, samples) -> PlotSeries:
        # Neighbouring samples share most of the active set, so each gauge LP
        # starts from the previous optimal basis of its series.
        points, basis = [], None
        for px, pz in samples:
            result = _gauge_lp(hull_points, np.array([0.0, px, 0.0, pz]),
                               basis=basis)
            basis = result.basis
            tag = "black" if abs(result.objective - 1.0) <= boundary_band else "gray"
            points.append((float(px), float(pz), tag))
        return PlotSeries(name, tuple(points))

    xs = np.arange(-1.2, 1.2 + step / 2, step)
    series = [
        tagged("segment z=1", ((px, 1.0) for px in xs)),
        tagged("segment z=-1", ((px, -1.0) for px in xs)),
        tagged("line z=-x", ((px, -px) for px in xs)),
        tagged("cubic z=3x-4x^3", ((px, 3 * px - 4 * px ** 3) for px in xs)),
    ]
    return SliceReport(
        restricted_secant=restricted, cube_factor=cube, cubic_factor=cubic,
        circle_restriction=circle, secant_factorization_exact=secant_ok,
        circle_factorization_exact=circle_ok, series=tuple(series))
