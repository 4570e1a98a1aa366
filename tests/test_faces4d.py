import random
from fractions import Fraction
from math import gcd, tau

import numpy as np
import pytest

from orbitopes.bnorbit import certify_exposed_face
from orbitopes.faces4d import (boundary_components,
                               closure_is_unit_interval, is_basic_closed_4d,
                               is_edge, polygon_faces, pq_data, z_point)


def coprime_pairs(limit):
    for q in range(2, limit + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def test_pq_data_examples():
    d = pq_data(1, 2)
    assert (d.k, d.ell) == (0, 1)
    assert d.intervals == ((Fraction(0), Fraction(1, 2)),
                           (Fraction(1, 2), Fraction(1)))

    d = pq_data(1, 3)
    assert (d.k, d.ell) == (0, 1)
    assert d.intervals == ((Fraction(0), Fraction(1, 3)),
                           (Fraction(2, 3), Fraction(1)))

    d = pq_data(2, 3)
    assert (d.k, d.ell) == (1, 2)
    assert set(d.intervals) == {(Fraction(1, 3), Fraction(1, 2)),
                                (Fraction(1, 2), Fraction(2, 3))}


def test_pq_data_validation():
    with pytest.raises(ValueError):
        pq_data(2, 4)
    with pytest.raises(ValueError):
        pq_data(3, 2)


def test_bezout_identity_all_coprime_pairs_up_to_50():
    for p, q in coprime_pairs(50):
        d = pq_data(p, q)
        assert d.ell * p - d.k * q == 1
        assert 0 <= d.k < p and 1 <= d.ell < q


def test_interval_closure_full_only_for_1_2():
    for p, q in coprime_pairs(12):
        full = closure_is_unit_interval(pq_data(p, q))
        assert full == ((p, q) == (1, 2))


def test_interval_symmetry_about_one_half():
    for p, q in ((1, 3), (2, 3), (3, 4), (2, 5)):
        d = pq_data(p, q)
        (a1, b1), (a2, b2) = d.intervals
        assert {(a1, b1), (a2, b2)} == {(1 - b1, 1 - a1), (1 - b2, 1 - a2)}


def test_is_edge_examples():
    d = pq_data(1, 3)
    assert is_edge(d, 0.0, 0.2)
    assert not is_edge(d, 0.0, 0.5)
    assert not is_edge(d, 0.3, 0.3)


def test_is_edge_exact_endpoints_excluded():
    d = pq_data(1, 3)
    assert not is_edge(d, Fraction(0), Fraction(1, 3))
    assert is_edge(d, Fraction(0), Fraction(1, 3) - Fraction(1, 1000))


def test_is_edge_antipodal_digons():
    assert is_edge(pq_data(1, 2), Fraction(0), Fraction(1, 2))
    assert is_edge(pq_data(2, 3), Fraction(1, 8), Fraction(5, 8))
    assert not is_edge(pq_data(1, 3), Fraction(0), Fraction(1, 2))


def test_is_edge_symmetry_under_reversal():
    rng = random.Random(21)
    for p, q in ((1, 3), (2, 3), (3, 4)):
        d = pq_data(p, q)
        for _ in range(1000):
            s, t = sorted((rng.random(), rng.random()))
            assert is_edge(d, s, t) == is_edge(d, 1 - t, 1 - s)


def test_polygon_faces_examples():
    d = pq_data(1, 3)
    face = polygon_faces(d, 3, Fraction(0))
    assert face["kind"] == "q-gon"
    assert face["dimension"] == 2 and face["exposed"]
    assert face["parameters"] == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert len(face["edges"]) == 3
    assert all(e["kind"] == "edge" and not e["exposed"] and e["dimension"] == 1
               and e["edges"] == [] for e in face["edges"])

    digon = polygon_faces(pq_data(2, 3), 2, Fraction(0))
    assert digon["kind"] == "edge" and digon["dimension"] == 1 and digon["exposed"]
    assert digon["edges"] == []

    vertex = polygon_faces(pq_data(1, 2), 1, Fraction(0))
    assert vertex["kind"] == "vertex" and vertex["dimension"] == 0
    assert vertex["parameters"] == [Fraction(0)] and vertex["edges"] == []

    pgon = polygon_faces(pq_data(3, 5), 3, Fraction(1, 7))
    assert pgon["kind"] == "p-gon" and pgon["dimension"] == 2


def test_polygon_faces_validation():
    d = pq_data(2, 5)
    with pytest.raises(ValueError):
        polygon_faces(d, 3, Fraction(0))
    with pytest.raises(ValueError):
        polygon_faces(d, 5, Fraction(1, 2))


def test_polygon_edges_have_endpoint_gaps():
    # polygon edges connect vertices whose parameter gap is an interval endpoint
    d = pq_data(2, 5)
    face = polygon_faces(d, 5, Fraction(1, 20))
    endpoint_gaps = {Fraction(d.ell, d.q), Fraction(d.q - d.ell, d.q)}
    for e in face["edges"]:
        s, t = sorted(e["parameters"])
        assert (t - s) % 1 in endpoint_gaps


def test_qgon_vertices_share_last_block_exactly():
    for p, q in ((1, 3), (2, 3), (2, 5), (3, 4)):
        d = pq_data(p, q)
        t = Fraction(1, 7 * q)
        pts = [z_point(d, v) for v in polygon_faces(d, q, t)["parameters"]]
        for pt in pts[1:]:
            assert np.allclose(pt[2:], pts[0][2:], atol=1e-12)


def test_boundary_components_cases():
    assert boundary_components(1, 2) == ["S1(X)"]
    assert boundary_components(1, 3) == ["S1(X)", "y^2+z^2-1"]
    assert boundary_components(2, 3) == ["S1(X)", "y^2+z^2-1"]
    assert boundary_components(3, 4) == ["S1(X)", "w^2+x^2-1", "y^2+z^2-1"]
    assert boundary_components(2, 5) == ["S1(X)", "y^2+z^2-1"]


def test_basic_closed_verdicts():
    assert is_basic_closed_4d(1, 2)["basic_closed"]
    assert is_basic_closed_4d(1, 2)["witness_segment"] is None
    v13 = is_basic_closed_4d(1, 3)
    assert not v13["basic_closed"]
    assert v13["witness_segment"] == [Fraction(0), Fraction(1, 2)]
    assert not is_basic_closed_4d(2, 5)["basic_closed"]


def test_witness_gap_avoids_faces():
    for p, q in coprime_pairs(9):
        if (p, q) == (1, 2):
            continue
        verdict = is_basic_closed_4d(p, q)
        s, t = verdict["witness_segment"]
        g = t - s
        d = pq_data(p, q)
        assert not any(a <= g <= b for a, b in d.intervals)
        assert (g * p).denominator != 1 and (g * q).denominator != 1
        assert not ((p == 2 or q == 2) and g == Fraction(1, 2))


def test_exposed_edges_form_a_two_parameter_family():
    # each gap interval is open and non-empty, so the exposed edges z(s)z(t)
    # fill a neighbourhood of (0, midpoint) in the (s, t) plane
    for p, q in coprime_pairs(9):
        d = pq_data(p, q)
        for a, b in d.intervals:
            assert a < b
            h = (b - a) / 8
            offsets = (-h, Fraction(0), h)
            assert all(is_edge(d, ds, (a + b) / 2 + dt)
                       for ds in offsets for dt in offsets)


def test_exposed_edges_admit_hyperplane_certificates():
    # cross-module: every exposed edge found by is_edge gets a supporting
    # hyperplane with margin above 1e-10 when the gap is well inside the
    # intervals
    rng = random.Random(22)
    for p, q in ((1, 3), (2, 3)):
        d = pq_data(p, q)
        checked = 0
        while checked < 6:
            s, t = sorted((rng.random(), rng.random()))
            if not is_edge(d, s, t):
                continue
            gap = t - s
            margin_to_ends = min(abs(gap - float(e))
                                 for pair in d.intervals for e in pair)
            if margin_to_ends < 0.02:
                continue
            cert = certify_exposed_face(d.rep, [tau * s, tau * t])
            assert cert is not None and cert.margin > 1e-10
            checked += 1


def _far_from_ends(d, gap, distance=0.02):
    ends = [float(e) for pair in d.intervals for e in pair] + [0.0, 0.5, 1.0]
    return min(abs(gap - e) for e in ends) >= distance


@pytest.mark.parametrize("p,q", list(coprime_pairs(7)))
def test_edge_classification_matches_hyperplane_search(p, q):
    # two independent oracles: the Bezout gap intervals of faces4d and the
    # tangent-hyperplane certificate of bnorbit
    d = pq_data(p, q)
    rng = random.Random(100 * p + q)
    checked = 0
    while checked < 12:
        s, t = sorted((rng.random(), rng.random()))
        if not _far_from_ends(d, t - s):
            continue
        cert = certify_exposed_face(d.rep, [tau * s, tau * t], grid=1024)
        assert (cert is not None) == is_edge(d, s, t), (s, t)
        checked += 1
    for which in (p, q):
        if which < 3:
            continue
        for t in (Fraction(0), Fraction(2, 5 * which)):
            face = polygon_faces(d, which, t)
            angles = [tau * float(v) for v in face["parameters"]]
            assert certify_exposed_face(d.rep, angles, grid=1024) is not None
