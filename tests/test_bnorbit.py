import math
import random
from fractions import Fraction
from math import tau

import numpy as np
import pytest

from orbitopes import bnorbit
from orbitopes.bnorbit import (_slack_margin, affinely_independent,
                               certify_exposed_face, certify_face,
                               interior_certificate, not_basic_witness,
                               slice_b4, slice_cubic, sm_points, sm_rep,
                               top_face)
from orbitopes.curve import Representation, orbit_points
from orbitopes.lp import gauge


def dense_slack(rep, normal, thetas):
    """1 - normal . point(theta), summed block by block on a numpy grid."""
    slack = np.ones_like(thetas)
    for i, j in enumerate(rep.indices):
        slack -= normal[2 * i] * np.cos(j * thetas)
        slack -= normal[2 * i + 1] * np.sin(j * thetas)
    return slack


def off_arcs(thetas, active, exclusion):
    keep = np.ones(thetas.shape, dtype=bool)
    for a in active:
        keep &= np.abs((thetas - a + math.pi) % tau - math.pi) > exclusion
    return keep


def test_sm_points_examples():
    assert np.allclose(sm_points(3, 0.0), [1, 0, 1, 0])
    assert np.allclose(sm_points(3, math.pi), [-1, 0, -1, 0], atol=1e-12)
    assert np.allclose(sm_points(5, math.pi / 2), [0, 1, 0, -1, 0, 1], atol=1e-12)


def test_sm_points_rejects_even_n():
    with pytest.raises(ValueError):
        sm_points(4, 0.0)
    with pytest.raises(ValueError):
        sm_rep(1)


def test_central_symmetry():
    rng = random.Random(41)
    for n in (3, 5, 7):
        for _ in range(100):
            theta = rng.uniform(0, tau)
            assert np.allclose(sm_points(n, theta + math.pi), -sm_points(n, theta),
                               atol=1e-12)


def test_affine_independence_examples():
    pts = [sm_points(3, t) for t in (0.2, 1.1, 2.7, 4.0)]
    assert affinely_independent(pts)
    assert not affinely_independent([pts[0], pts[0], pts[1]])
    assert not affinely_independent([sm_points(3, 0.5 * k) for k in range(6)])
    with pytest.raises(ValueError):
        affinely_independent([])


def test_affine_independence_random_draws():
    for n in (3, 5, 7):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            thetas = rng.uniform(0, tau, size=n + 1)
            if np.min(np.diff(np.sort(thetas))) < 1e-9:
                continue
            assert affinely_independent(list(sm_points(n, thetas)))


def test_top_face_explicit_normals():
    face = top_face(3, 0.0)
    assert face["face"]["kind"] == "simplex"
    assert face["face"]["dimension"] == 2
    assert np.allclose(face["certificate"]["normal"], [0, 0, 1, 0])
    assert face["certificate"]["margin"] > 0

    face = top_face(3, math.pi / 6)
    assert np.allclose(face["certificate"]["normal"], [0, 0, 0, 1], atol=1e-12)


def test_top_face_functional_identity():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.choice((3, 5, 7))
        theta = rng.uniform(0, tau)
        phi = rng.uniform(0, tau)
        normal = np.zeros(n + 1)
        normal[n - 1] = math.cos(n * theta)
        normal[n] = math.sin(n * theta)
        assert abs(normal @ sm_points(n, phi) - math.cos(n * (phi - theta))) < 1e-12


def test_top_face_margin_lower_bound():
    # excluding arcs of radius 1e-3, the slack 1 - cos(3 d) at distance
    # d >= 1e-3 from the vertices is at least (1 - cos(3e-3)) / 2
    assert bnorbit.TOP_FACE_EXCLUSION == 1e-3
    face = top_face(3, 0.3)
    assert face["certificate"]["margin"] >= (1 - math.cos(3e-3)) / 2


@pytest.mark.parametrize("indices,angles", [
    ((1, 3), [0.7]), ((1, 3), [0.2, 2.9]), ((2, 5), [0.1, 1.3]),
    ((1, 3, 5, 7), [0.4, 2.0, 4.4]), ((3, 64), [5.9, 1.0])])
def test_tangent_rows_are_points_and_velocities(monkeypatch, indices, angles):
    # _tangent_normal solves rows @ w = rhs with, for each angle in order,
    # the curve point (rhs 1) and the curve's velocity (rhs 0)
    seen = []
    lstsq = np.linalg.lstsq

    def spy(rows, rhs, rcond):
        seen.append((rows, rhs))
        return lstsq(rows, rhs, rcond=rcond)

    monkeypatch.setattr(bnorbit.np.linalg, "lstsq", spy)
    rep = Representation(indices)
    _, points = bnorbit._tangent_normal(rep, angles)
    monkeypatch.undo()
    (rows, rhs), = seen
    assert np.array_equal(rhs, [1.0, 0.0] * len(angles))
    assert np.array_equal(rows[0::2], orbit_points(rep, angles))
    assert np.array_equal(points, rows[0::2])
    h = 1e-6
    central = (orbit_points(rep, np.add(angles, h))
               - orbit_points(rep, np.subtract(angles, h))) / (2 * h)
    assert np.allclose(rows[1::2], central, rtol=0, atol=1e-6)


def test_certify_face_examples():
    assert certify_face(3, [0.0, 0.1]) is not None
    assert certify_face(3, [0.0, math.pi]) is None
    cert = certify_face(3, [0.7])
    assert cert is not None
    assert np.allclose(cert.normal, sm_points(3, 0.7) / 2, atol=1e-7)


def test_certify_face_validation():
    with pytest.raises(ValueError):
        certify_face(3, [0.5, 0.5])
    with pytest.raises(ValueError):
        certify_face(3, [0.1, 0.2, 0.3])  # exceeds neighborliness range


def test_certify_face_short_arc_triples_on_b6():
    cert = certify_face(5, [0.0, 0.05, 0.11])
    assert cert is not None and cert.margin > 0


def random44_certificates(count=5):
    rng = random.Random(44)
    rep = sm_rep(3)
    certs = []
    for _ in range(100):
        a = rng.uniform(0, tau)
        b = a + rng.uniform(0.2, 1.9)
        cert = certify_exposed_face(rep, [a, b])
        if cert is not None:
            certs.append(cert)
        if len(certs) == count:
            return rep, certs
    raise AssertionError(f"{len(certs)} certificates in 100 draws")


def test_certificates_hold_on_fresh_finer_grid():
    rep, certs = random44_certificates()
    thetas = np.linspace(0.0, tau, 200_001)
    for cert in certs:
        slack = dense_slack(rep, cert.normal, thetas)
        assert slack.min() >= -1e-10
        off = slack[off_arcs(thetas, cert.active_params, cert.exclusion)]
        assert off.min() >= cert.margin - 1e-12


def test_random44_certificate_is_not_crossed_near_its_contacts():
    # A grid-LP hyperplane was once accepted here with true least slack
    # -6.7e-9 about 0.00026 rad from an active parameter.
    rep, certs = random44_certificates(2)
    cert = certs[1]
    for a in cert.active_params:
        thetas = a + np.linspace(-0.01, 0.01, 2_000_001)
        assert dense_slack(rep, cert.normal, thetas).min() >= -1e-10


def test_hyperplane_crossed_inside_an_arc_is_refused(monkeypatch):
    # that grid-LP hyperplane: it interpolates both parameters and has
    # positive slack off the arcs, but dips to -6.7e-9 inside the first arc
    crossed = np.array([0.9266780342060267, -0.6569032527742975,
                        0.03788153640127281, 0.13214202214546358])
    angles = [5.416335802913373, 5.916667398045628]
    least, margin = _slack_margin(sm_rep(3), crossed, angles, 4 * tau / 2048)
    assert least < -6e-9 and margin > 0
    monkeypatch.setattr(bnorbit, "_tangent_normal",
                        lambda rep, angles: (crossed, orbit_points(rep, angles)))
    assert certify_exposed_face(sm_rep(3), angles) is None


@pytest.mark.parametrize("indices", [(1, 3), (2, 5), (6, 7), (1, 3, 5, 7)])
def test_slack_margin_matches_dense_grid(indices):
    # grid spacing 6.3e-6: a unit normal's grid minimum is within 3e-10
    rep = Representation(indices)
    rng = np.random.default_rng(sum(indices))
    thetas = np.linspace(0.0, tau, 1_000_001)
    cases = []
    for _ in range(2):
        normal = rng.normal(size=2 * len(indices))
        normal /= np.linalg.norm(normal)
        slack = dense_slack(rep, normal, thetas)
        # one arc around the global minimizer, so the two minima differ
        active = [thetas[np.argmin(slack)], rng.uniform(0.0, tau)]
        cases.append((normal, active, 0.05, slack))
    if indices == (1, 3, 5, 7):
        cert = top_face(7, 0.3)["certificate"]  # only the frequency-7 block is nonzero
        cases.append((np.array(cert["normal"]), cert["active_params"], 0.01,
                      dense_slack(rep, cert["normal"], thetas)))
    for normal, active, exclusion, slack in cases:
        least, margin = _slack_margin(rep, normal, active, exclusion)
        ends = np.concatenate([np.subtract(active, exclusion),
                               np.add(active, exclusion)])
        off = min(slack[off_arcs(thetas, active, exclusion)].min(),
                  dense_slack(rep, normal, ends).min())
        assert least == pytest.approx(slack.min(), abs=1e-9)
        assert margin == pytest.approx(off, abs=1e-9)


def test_interior_certificate_n3():
    cert = interior_certificate(3)
    weights = cert["weights"]
    assert weights == [Fraction(1, 5)] * 5
    assert cert["vertex_turns"] == [Fraction(k, 5) for k in range(5)]
    assert cert["exact_zero_sum"]
    assert cert["affinely_independent"]
    assert cert["barycenter_residual"] <= 1e-12
    assert all(w > 0 for w in weights)
    assert sum(weights) == 1


def test_interior_certificate_n5_and_n7():
    for n in (5, 7):
        cert = interior_certificate(n)
        assert cert["weights"] == [Fraction(1, n + 2)] * (n + 2)
        assert cert["exact_zero_sum"] and cert["affinely_independent"]
        assert cert["barycenter_residual"] <= 1e-12


def test_interior_certificate_zero_sum_up_to_the_n_budget():
    for n in range(3, 202, 2):
        assert interior_certificate(n)["exact_zero_sum"]


def test_interior_certificate_rejects_other_targets():
    # the origin is the only target; there is no parameter to ask for another
    assert interior_certificate(3)["target"] == [0.0] * 4
    with pytest.raises(TypeError):
        interior_certificate(3, target=[0.1, 0, 0, 0])


def test_witness_n3():
    report = not_basic_witness(3)
    assert report["accepted"]
    assert report["secant_order"] == 1
    assert report["chord_midpoint_exact_zero"]
    assert report["slice_value_at_origin"] == "0"
    assert report["slice_gradient_at_origin"] == ["-3", "1"]


def test_witness_n5():
    report = not_basic_witness(5)
    assert report["accepted"] and report["secant_order"] == 2
    assert report["slice_value_at_origin"] is None


@pytest.mark.parametrize("n", [3, 5, 7])
def test_witness_report_fields(n):
    # the chord endpoints come from rational_point(rep, 0) and
    # antipodal_point(rep)
    report = not_basic_witness(n)
    interior = report.pop("interior")
    assert interior.pop("barycenter_residual") <= 1e-12
    m = n + 2
    assert interior == {
        "n": n,
        "vertex_turns": [Fraction(k, m) for k in range(m)],
        "weights": [Fraction(1, m)] * m,
        "target": [0.0] * (n + 1),
        "exact_zero_sum": True,
        "affinely_independent": True,
    }
    assert report == {
        "n": n,
        "secant_order": (n - 1) // 2,
        "chord_params": [0.0, math.pi],
        "chord_weights": [Fraction(1, 2)] * 2,
        "chord_midpoint_exact_zero": True,
        "slice_value_at_origin": "0" if n == 3 else None,
        "slice_gradient_at_origin": ["-3", "1"] if n == 3 else None,
        "accepted": True,
    }


def test_witness_rejects_even_n():
    with pytest.raises(ValueError):
        not_basic_witness(4)


def test_slice_factorizations(f_stored):
    report, _ = slice_b4()
    assert report["secant_factorization_exact"]
    assert report["circle_factorization_exact"]
    assert report["restricted_secant"] == f_stored.restrict({0: 0, 2: 0})


def test_slice_cubic_geometry():
    cubic = slice_cubic()
    assert cubic.evaluate([0, 0]) == 0
    assert cubic.evaluate([1, -1]) == 0  # meets the segment z = -1 at x = 1
    assert cubic.gradient([0, 0]) == (-3, 1)


def test_slice_series_tags():
    report, rows = slice_b4()

    def tags(name):
        return {round(x, 4): tag for series, x, _, tag in rows if series == name}

    assert report["series"] == {name: len(tags(name)) for name in (
        "segment z=1", "segment z=-1", "line z=-x", "cubic z=3x-4x^3")}
    seg1 = tags("segment z=1")
    # the z = 1 segment bounds the slice exactly for x in [-1, 1/2]
    assert seg1[-1.0] == "black" and seg1[0.0] == "black" and seg1[0.5] == "black"
    assert seg1[-1.2] == "gray" and seg1[0.7] == "gray" and seg1[1.1] == "gray"
    cubic = tags("cubic z=3x-4x^3")
    assert cubic[0.75] == "black" and cubic[-0.75] == "black"
    assert cubic[0.0] == "gray" and cubic[1.2] == "gray"
    line = tags("line z=-x")
    assert line[0.0] == "gray" and line[0.5] == "gray"


def test_slice_tags_match_cold_gauges_and_face_certificates():
    _, rows = slice_b4()
    # oracle 1: the Minkowski gauge over a dense inner hull of B_4
    hull = sm_points(3, np.arange(4096) * (tau / 4096))
    for name, x, z, tag in rows:
        g = gauge(hull, np.array([0.0, x, 0.0, z]))
        black = abs(g - 1.0) <= bnorbit.SLICE_BOUNDARY_BAND
        assert tag == ("black" if black else "gray"), (name, x, z, g)

    # oracle 2: the faces of B_4 that the slice boundary is the projection
    # of.  A cubic point (x, 3x - 4x^3) with sin t = x is the midpoint of the
    # chord {t, pi - t}, an exposed edge exactly when 1/2 < |x| < 1.
    rep = sm_rep(3)
    for x in (0.55, -0.55, 0.75, -0.75, 0.99, -0.99):
        t = math.asin(x)
        assert certify_exposed_face(rep, [t, math.pi - t]) is not None, x
    for x in (0.0, 0.3, 0.45, -0.45):
        t = math.asin(x)
        assert certify_exposed_face(rep, [t, math.pi - t]) is None, x
    # the segment z = 1 is the projection of the triangle at pi/6
    vertices = {(round(math.sin(t), 12), round(math.sin(3 * t), 12))
                for t in top_face(3, math.pi / 6)["face"]["parameters"]}
    assert vertices == {(0.5, 1.0), (-1.0, 1.0)}
    segment = [x for name, x, _, tag in rows
               if name == "segment z=1" and tag == "black"]
    assert (round(min(segment), 12), round(max(segment), 12)) == (-1.0, 0.5)
