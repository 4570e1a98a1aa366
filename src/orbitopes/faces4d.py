"""Complete face classification of 4-dimensional orbitopes C_pq.

For coprime p < q the curve z(t) = (cos 2*pi*p*t, sin 2*pi*p*t,
cos 2*pi*q*t, sin 2*pi*q*t), t in [0,1), spans a 4-dimensional convex body
whose proper faces are completely understood: vertices on the curve, edges
z(s)z(t) whose parameter gap t-s lies in a pair of open intervals determined
by the Bezout data of (p, q), and regular p-gons and q-gons (degenerating to
antipodal edges for p or q equal to 2 and to vertices for p = 1).  The
module also derives the algebraic boundary decomposition and the
basic-closedness verdict with an explicit witness segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, tau

import numpy as np

from .curve import Representation, orbit_points

FLOAT_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class PQData:
    """Bezout data of a coprime pair p < q and the exposed-edge gap intervals."""

    p: int
    q: int
    k: int
    ell: int
    intervals: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    @property
    def rep(self) -> Representation:
        return Representation((self.p, self.q))


def pq_data(p: int, q: int) -> PQData:
    """Solve ell*p - k*q = 1 with 0 <= k < p, 1 <= ell < q and build the
    two open gap intervals (k/p, ell/q) and ((q-ell)/q, (p-k)/p)."""
    if not (0 < p < q):
        raise ValueError(f"need 0 < p < q, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) are not coprime")
    ell = pow(p, -1, q)
    k = (ell * p - 1) // q
    assert ell * p - k * q == 1 and 0 <= k < p and 1 <= ell < q
    first = (Fraction(k, p), Fraction(ell, q))
    second = (Fraction(q - ell, q), Fraction(p - k, p))
    return PQData(p=p, q=q, k=k, ell=ell, intervals=(first, second))


def gap_in_intervals(pq: PQData, gap) -> bool:
    """Open-interval membership of a parameter gap; exact for Fractions,
    with a deterministic exclusion band of 1e-12 around endpoints for
    floats."""
    if isinstance(gap, Fraction) or isinstance(gap, int):
        gap = Fraction(gap)
        return any(a < gap < b for a, b in pq.intervals)
    gap = float(gap)
    return any(float(a) + FLOAT_ENDPOINT_TOL < gap < float(b) - FLOAT_ENDPOINT_TOL
               for a, b in pq.intervals)


def _is_antipodal_gap(pq: PQData, gap) -> bool:
    if not (pq.p == 2 or pq.q == 2):
        return False
    if isinstance(gap, Fraction) or isinstance(gap, int):
        return Fraction(gap) == Fraction(1, 2)
    return abs(float(gap) - 0.5) <= FLOAT_ENDPOINT_TOL


def is_edge(pq: PQData, s, t) -> bool:
    """Whether the segment z(s)z(t) is an exposed edge.

    True when the gap t-s lies in the open gap intervals, or when the pair
    is one of the antipodal digon edges that occur for p = 2 or q = 2.
    Polygon edges (gap exactly at an interval endpoint) are faces but not
    exposed ones, and return False here.
    """
    if s == t:
        return False
    if s > t:
        s, t = t, s
    gap = t - s
    return gap_in_intervals(pq, gap) or _is_antipodal_gap(pq, gap)


def z_point(pq: PQData, t) -> np.ndarray:
    """Curve point at fractional turn t."""
    return orbit_points(pq.rep, tau * float(t))


def polygon_vertices(pq: PQData, which: int, t) -> list:
    return [(t + Fraction(j, which)) % 1 if isinstance(t, Fraction)
            else (float(t) + j / which) % 1.0
            for j in range(which)]


def _face(kind: str, parameters, exposed: bool, dimension: int,
          edges=()) -> dict:
    return {"kind": kind, "parameters": list(parameters), "exposed": exposed,
            "dimension": dimension, "edges": list(edges)}


def polygon_faces(pq: PQData, which: int, t) -> dict:
    """The polygon face with vertex parameters t + j/which, j = 0..which-1.

    For which >= 3 the face is a regular polygon of dimension 2 whose own
    edges are listed as non-exposed edge faces; which = 2 gives the
    exposed antipodal edge and which = 1 the vertex z(t).  A face is the
    dict ``{"kind", "parameters", "exposed", "dimension", "edges"}`` with
    kind ``"vertex"``, ``"edge"``, ``"p-gon"`` or ``"q-gon"``.
    """
    if which not in (pq.p, pq.q):
        raise ValueError(f"polygon order {which} is neither p={pq.p} nor q={pq.q}")
    upper = Fraction(1, which)
    if not 0 <= t < upper:
        raise ValueError(f"t={t} outside [0, 1/{which})")
    verts = polygon_vertices(pq, which, t)
    if which == 1:
        return _face("vertex", verts, exposed=True, dimension=0)
    if which == 2:
        return _face("edge", verts, exposed=True, dimension=1)
    kind = "p-gon" if which == pq.p else "q-gon"
    other = pq.q if which == pq.p else pq.p
    # geometric cyclic order of the vertices comes from the other block
    order = sorted(range(which), key=lambda j: (other * j) % which)
    edges = [_face("edge", (verts[a], verts[b]), exposed=False, dimension=1)
             for a, b in zip(order, order[1:] + order[:1])]
    return _face(kind, verts, exposed=True, dimension=2, edges=edges)


SECANT_TAG = "S1(X)"
CIRCLE_WX_TAG = "w^2+x^2-1"
CIRCLE_YZ_TAG = "y^2+z^2-1"


def boundary_components(p: int, q: int) -> list[str]:
    """Irreducible components of the algebraic boundary of C_pq.

    The secant surface is always present; each polygon family of dimension
    two sweeps out one of the cylinder hypersurfaces.
    """
    pq_data(p, q)  # validates the pair
    if (p, q) == (1, 2):
        return [SECANT_TAG]
    if p <= 2:
        return [SECANT_TAG, CIRCLE_YZ_TAG]
    return [SECANT_TAG, CIRCLE_WX_TAG, CIRCLE_YZ_TAG]


def closure_is_unit_interval(pq: PQData) -> bool:
    """Whether the closure of the gap intervals is all of [0, 1]."""
    intervals = sorted(pq.intervals)
    (a1, b1), (a2, b2) = intervals
    return a1 == 0 and b2 == 1 and a2 <= b1


def _in_closure(pq: PQData, g: Fraction) -> bool:
    return any(a <= g <= b for a, b in pq.intervals)


def is_basic_closed_4d(p: int, q: int) -> dict:
    """Basic-closedness of C_pq, with a witness segment when it fails.

    Only the pair (1, 2) is basic closed.  Otherwise the witness is a
    secant segment z(0)z(g) whose gap avoids the closed gap intervals, the
    antipodal digons, and all polygon vertex spacings, so by completeness
    of the face list it passes through the interior.  The report holds
    ``basic_closed``, the ``witness_segment`` parameters as Fractions
    (``None`` when basic closed) and an ``explanation``.
    """
    pq = pq_data(p, q)
    if (p, q) == (1, 2):
        return {"basic_closed": True, "witness_segment": None,
                "explanation": "gap intervals exhaust (0,1); every curve "
                               "secant is a face"}
    witness = _witness_gap(pq)
    return {"basic_closed": False,
            "witness_segment": [Fraction(0), witness],
            "explanation": f"segment with gap {witness} spans no face, so its "
                           f"midpoint is an interior point of the body lying "
                           f"on the secant surface"}


def _witness_gap(pq: PQData) -> Fraction:
    for den in range(2, 64):
        for num in range(1, den):
            if gcd(num, den) != 1:
                continue
            g = Fraction(num, den)
            if _in_closure(pq, g):
                continue
            if (g * pq.p).denominator == 1 or (g * pq.q).denominator == 1:
                continue
            if _is_antipodal_gap(pq, g):
                continue
            return g
    raise RuntimeError(f"no witness gap found for ({pq.p}, {pq.q})")

