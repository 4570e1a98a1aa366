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
                    orbit_points, rational_point)
from .poly import SparsePoly


def sm_rep(n: int) -> Representation:
    """Frequency set {1, 3, ..., n}; n must be odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd n >= 3, got {n}")
    return Representation(tuple(range(1, n + 1, 2)))


def sm_points(n: int, thetas) -> np.ndarray:
    """Odd-frequency curve points in R^(n+1); a single angle gives one point."""
    return orbit_points(sm_rep(n), thetas)


# The certificate check of certify_exposed_face: |level - 1| at the active
# parameters <= INTERPOLATION_TOL, least slack >= -SLACK_TOL, margin > MARGIN_FLOOR.
INTERPOLATION_TOL, SLACK_TOL, MARGIN_FLOOR = 1e-10, 1e-10, 1e-13
# top_face's margin is the least slack farther than this from every vertex.
TOP_FACE_EXCLUSION = 1e-3


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


def top_face(n: int, theta: float) -> dict:
    """The explicit (n-1)-dimensional simplicial exposed face at theta, as
    the report ``{"face": ..., "certificate": ...}``.

    Vertices are the curve points at theta + 2*pi*j/n and the exposing
    hyperplane has normal (0, ..., 0, cos n*theta, sin n*theta): on the
    curve the functional evaluates to cos(n(phi - theta)), which is 1
    exactly at the vertices.  theta is taken modulo 2*pi: far from 0 the
    vertex parameters lose their spacing.
    """
    theta %= tau
    rep = sm_rep(n)
    params = tuple(theta + tau * j / n for j in range(n))
    normal = np.zeros(n + 1)
    normal[n - 1] = math.cos(n * theta)
    normal[n] = math.sin(n * theta)
    assert np.all(np.abs(orbit_points(rep, params) @ normal - 1.0) < 1e-12)
    _, margin = _slack_margin(rep, normal, params, TOP_FACE_EXCLUSION)
    cert = HyperplaneCertificate(
        normal=tuple(normal), level=1.0, active_params=params,
        margin=margin, exclusion=TOP_FACE_EXCLUSION)
    face = {"kind": "simplex", "parameters": list(params), "exposed": True,
            "dimension": n - 1, "edges": []}
    return {"face": face, "certificate": cert.to_json()}


def _tangent_normal(rep: Representation, angles: Sequence[float]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Hyperplane through the curve points at ``angles``, tangent to the
    curve at each of them (minimum-norm solution when underdetermined);
    returns its normal and the points, one row per angle.

    For an exposed face this interpolation-plus-tangency system is satisfied
    by the true supporting hyperplane; for a single point it reproduces the
    sphere normal point/||point||^2.
    """
    # for each angle, the point and then its velocity, which turns the
    # coordinate pair (x, y) of frequency j into j * (-y, x)
    m = len(angles)
    points = orbit_points(rep, angles).reshape(m, rep.r, 2)
    velocity = points[..., ::-1] * [(-j, j) for j in rep.indices]
    rows = np.concatenate((points, velocity), axis=1).reshape(2 * m, -1)
    w, *_ = np.linalg.lstsq(rows, [1.0, 0.0] * m, rcond=None)
    return w, points.reshape(m, -1)


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
    w, points = _tangent_normal(rep, angles)
    # before any verdict, so arcs covering the circle are always a ValueError
    least, margin = _slack_margin(rep, w, angles, exclusion)
    level = points @ w
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


def interior_certificate(n: int) -> dict:
    """Certify the origin as an interior point of B_{n+1}.

    Uses the m = n+2 curve points at m-th roots of unity with equal weights
    1/m: since m divides no frequency, every coordinate sums to zero exactly.
    The m points are affinely independent, so the origin is a strictly
    positive barycentric combination of a full-dimensional simplex.  The
    report lists the vertex turns k/m and the weights as Fractions.
    """
    rep = sm_rep(n)
    m = n + 2
    turns = [Fraction(k, m) for k in range(m)]
    # sum_k zeta^(j k) over the m-th roots of unity zeta^k is a geometric
    # series: it equals m when m | j and 0 otherwise.
    exact = all(j % m for j in rep.indices)
    pts = sm_points(n, [float(t) * tau for t in turns])
    residual = float(np.max(np.abs(pts.mean(axis=0))))
    independent = affinely_independent(list(pts))
    if not independent:
        raise RuntimeError("root-of-unity points reported affinely dependent; "
                           "this indicates a rank-test bug")
    return {
        "n": n,
        "vertex_turns": turns,
        "weights": [Fraction(1, m)] * m,
        "target": [0.0] * (n + 1),
        "barycenter_residual": residual,
        "exact_zero_sum": exact,
        "affinely_independent": independent,
    }


# -- the not-basic-closed witness ---------------------------------------------


def not_basic_witness(n: int) -> dict:
    """Assemble the full witness that B_{n+1} is not basic closed: the
    origin is a secant-surface point (midpoint of two antipodal curve
    points) that is simultaneously interior.

    The chord from SM(0) to SM(pi) has the origin as its exact midpoint
    (central symmetry), placing the origin on the ((n-1)/2)-th secant
    surface; the interior certificate places it in the interior.  For n = 3
    the report additionally evaluates the planar slice: the restricted
    secant equation vanishes at the origin while its cubic factor has
    nonvanishing gradient there, so the origin is a regular point of that
    hypersurface.  ``accepted`` is the verdict.
    """
    rep = sm_rep(n)
    half = Fraction(1, 2)
    a = rational_point(rep, 0)
    b = antipodal_point(rep)
    midpoint_zero = all(half * (x + y) == 0 for x, y in zip(a, b))
    interior = interior_certificate(n)
    slice_value = None
    slice_gradient = None
    if n == 3:
        slice_value = fixtures.secant_surface_13().evaluate([0, 0, 0, 0])
        slice_gradient = slice_cubic().gradient([0, 0])
    accepted = (midpoint_zero
                and interior["exact_zero_sum"]
                and interior["affinely_independent"]
                and interior["barycenter_residual"] <= 1e-12
                and (n != 3 or (slice_value == 0
                                and any(g != 0 for g in slice_gradient))))
    return {
        "n": n,
        "secant_order": (n - 1) // 2,
        "chord_params": [0.0, math.pi],
        "chord_weights": [half] * 2,
        "chord_midpoint_exact_zero": midpoint_zero,
        "interior": interior,
        "slice_value_at_origin": (None if slice_value is None
                                  else str(slice_value)),
        "slice_gradient_at_origin": (None if slice_gradient is None
                                     else [str(g) for g in slice_gradient]),
        "accepted": accepted,
    }


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


# slice_b4: spacing of the x samples, and the band around the slice boundary
# whose samples are tagged black.
SLICE_STEP, SLICE_BOUNDARY_BAND = 0.0125, 2e-4


def _on_slice_boundary(x: float, z: float) -> bool:
    """Whether (x, z) lies within ``SLICE_BOUNDARY_BAND`` of the boundary of
    the slice w = y = 0 of B_4.

    The reflection theta -> pi - theta maps the curve point (cos t, sin t,
    cos 3t, sin 3t) to (-cos t, sin t, -cos 3t, sin 3t), so the midpoint of
    a point of B_4 and its mirror image lies in the plane w = y = 0.  The
    slice is therefore the projection of B_4 to (sin t, sin 3t): the convex
    hull of the planar cubic (s, 3s - 4s^3), s in [-1, 1].  Its upper
    boundary is z = 1 for x in [-1, 1/2] (the projection of the face
    ``top_face(3, pi/6)``), then the cubic; its lower boundary is the cubic
    for x in [-1, -1/2], then z = -1.  The band on |x| keeps the samples at
    x = -1 that ``arange`` lands a rounding error beyond it.
    """
    cubic = 3 * x - 4 * x ** 3
    upper = 1.0 if x <= 0.5 else cubic
    lower = cubic if x <= -0.5 else -1.0
    return (abs(x) <= 1 + SLICE_BOUNDARY_BAND
            and min(abs(z - upper), abs(z - lower)) <= SLICE_BOUNDARY_BAND)


def slice_b4() -> tuple[dict, list[tuple[str, float, float, str]]]:
    """Slice B_4 with the plane w = y = 0 and classify its boundary arcs.

    The two boundary hypersurfaces restrict to z^2 - 1 = (z+1)(z-1) and to
    (x+z)^3 (4x^3 - 3x + z); both factorizations are verified by exact
    multiplication.  Each restricted curve is sampled over x in [-1.2, 1.2]
    and every sample is tagged black (bounds the slice) or gray (extends
    beyond it) against the slice's closed-form boundary
    (:func:`_on_slice_boundary`).  Returns the report (the restricted
    polynomials, the two factorization verdicts and the sample count of
    each series) and the ``(series, x, z, tag)`` rows of the samples.
    """
    f = fixtures.secant_surface_13()
    restricted = f.restrict({0: 0, 2: 0})
    cube = slice_line_cubed()
    cubic = slice_cubic()

    z = SparsePoly.variable(2, 1)
    one = SparsePoly.constant(2, 1)
    circle = z * z - one  # y^2+z^2-1 at y := 0

    xs = np.arange(-1.2, 1.2 + SLICE_STEP / 2, SLICE_STEP).tolist()
    curves = {"segment z=1": [1.0] * len(xs),
              "segment z=-1": [-1.0] * len(xs),
              "line z=-x": [-px for px in xs],
              "cubic z=3x-4x^3": [3 * px - 4 * px ** 3 for px in xs]}
    rows = [(name, px, pz, "black" if _on_slice_boundary(px, pz) else "gray")
            for name, zs in curves.items() for px, pz in zip(xs, zs)]
    report = {
        "restricted_secant": restricted, "cube_factor": cube,
        "cubic_factor": cubic, "circle_restriction": circle,
        "secant_factorization_exact": restricted == cube * cubic,
        "circle_factorization_exact": circle == (z + one) * (z - one),
        "series": {name: len(xs) for name in curves},
    }
    return report, rows
