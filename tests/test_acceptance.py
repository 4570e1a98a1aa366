"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction
from math import gcd, tau

import numpy as np

from orbitopes.bnorbit import (affinely_independent, certify_face,
                               interior_certificate, not_basic_witness,
                               slice_cubic, slice_line_cubed, sm_points,
                               top_face)
from orbitopes.curve import (DegenerateHyperplaneError, Representation,
                             curve_info, numeric_degree_probe, orbit_points)
from orbitopes.faces4d import (boundary_components, closure_is_unit_interval,
                               is_basic_closed_4d, is_edge, pq_data)
from orbitopes.poly import CoeffMode, SparsePoly, monomials_up_to_degree
from orbitopes.secantfit import fit_hypersurface, verify_vanishing
from orbitopes.toeplitz import (Verdict, det_polynomial, eigenvalues,
                                is_member, membership_report, numerical_rank)

REP13 = Representation((1, 3))


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS  {text}")


def test_criterion_01_slice_factorization(f_stored):
    start = time.time()
    restricted = f_stored.restrict({0: 0, 2: 0})
    product = slice_line_cubed() * slice_cubic()
    difference = restricted - product
    elapsed = time.time() - start
    assert difference.is_zero()
    assert elapsed < 1.0
    report(1, f"slice restriction equals (x+z)^3(4x^3-3x+z) exactly "
              f"({elapsed:.3f}s)")


def test_criterion_02_f_recovery_exact(f_exact_fit, f_stored):
    assert f_exact_fit.nullity == 1
    assert f_exact_fit.report["certified"]
    p = f_exact_fit.polynomials[0]
    anchor = p.coefficient((0, 0, 4, 0))
    assert anchor != 0
    normalized = p.scale(1 / anchor)
    assert normalized.num_terms == 47
    assert normalized.degree == 8
    assert all(c.denominator == 1 for c in normalized.terms.values())
    assert normalized == f_stored
    report(2, "exact interpolation recovers the 47-term degree-8 secant "
              "equation, certified 1-dimensional kernel")


def test_criterion_03_f_vanishing_and_control(f_stored):
    start = time.time()
    residual = verify_vanishing(f_stored.to_float(), REP13, 2, 10_000, seed=303)
    rng = np.random.default_rng(304)
    exponents = monomials_up_to_degree(4, 8)
    control = SparsePoly(4, dict(zip(exponents,
                                     rng.uniform(-1, 1, size=len(exponents)))),
                         CoeffMode.FLOAT)
    control_residual = verify_vanishing(control, REP13, 2, 10_000, seed=303)
    elapsed = time.time() - start
    assert residual <= 1e-8
    assert control_residual > 1e-2
    assert control_residual > 100 * residual
    assert elapsed < 10.0
    report(3, f"max |f| = {residual:.2e} on 1e4 fresh secant samples; random "
              f"degree-8 control reaches {control_residual:.2e} ({elapsed:.1f}s)")


def test_criterion_04_g_recovery_float(g_float_fit, g_recovered,
                                       g_printed_terms):
    assert g_float_fit.nullity == 1
    assert g_float_fit.report["gap_ratio"] >= 1e4
    # coefficients at or below SIGMA_NULL_FACTOR are rounding noise and
    # are not printed
    assert g_float_fit.polynomials[0].num_terms == 281
    g, _ = g_recovered
    assert g.num_terms == 281
    assert g.degree == 15
    mismatches = [e for e, c in g_printed_terms.terms.items()
                  if g.coefficient(e) != c]
    assert mismatches == []
    report(4, f"float fit at degree 15 has 1-dim null space (gap ratio "
              f"{g_float_fit.report['gap_ratio']:.2e}); normalized generator "
              f"has 281 terms and matches all {g_printed_terms.num_terms} "
              f"independently known terms")


def test_criterion_04_g_recovery_exact(g_recovered, g_printed_terms):
    start = time.time()
    fit = fit_hypersurface(Representation((1, 4)), r=2, degree=15, seed=0,
                           mode=CoeffMode.RATIONAL)
    elapsed = time.time() - start
    assert fit.report["sample_count"] == 223
    assert fit.nullity == 1 and fit.report["certified"]
    p = fit.polynomials[0]
    anchor = (12, 0, 3, 0)
    g = p.scale(g_printed_terms.coefficient(anchor) / p.coefficient(anchor))
    assert g.num_terms == 281
    assert all(g.coefficient(e) == c for e, c in g_printed_terms.terms.items())
    # the rounded float fit is a second, independent oracle
    assert g == g_recovered[0]
    report(4, f"exact fit at degree 15 from 223 samples has a certified "
              f"1-dim kernel; its 281-term generator matches all "
              f"{g_printed_terms.num_terms} known terms and the rounded "
              f"float fit ({elapsed:.2f}s)")


def test_criterion_05_universal_secant_determinant():
    det = det_polynomial(2)
    det_float = det.to_float()
    rep = Representation((1, 2))
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0, tau, size=2)
        lam = rng.uniform()
        a, b = orbit_points(rep, t)
        point = lam * a + (1 - lam) * b
        worst = max(worst, abs(det_float.evaluate(point)))
    assert worst <= 1e-10

    from orbitopes.secantfit import fit_hypersurface
    fit = fit_hypersurface(rep, r=2, degree=3, seed=506, mode=CoeffMode.RATIONAL)
    assert fit.nullity == 1
    p = fit.polynomials[0]
    scale = det.coefficient((0, 0, 0, 0)) / p.coefficient((0, 0, 0, 0))
    assert p.scale(scale) == det
    report(5, f"symbolic 3x3 Toeplitz determinant vanishes on 1000 secant "
              f"samples (max {worst:.2e}) and equals the degree-3 fit up to "
              f"scalar")


def reduced_subsets(limit):
    values = list(range(1, limit + 1))
    for mask in range(1, 1 << len(values)):
        subset = tuple(v for i, v in enumerate(values) if mask >> i & 1)
        g = 0
        for v in subset:
            g = gcd(g, v)
        if g == 1:
            yield subset


def test_criterion_06_degree_formula_probe():
    checked = 0
    for subset in reduced_subsets(9):
        rep = Representation(subset)
        expected = curve_info(rep).degree
        assert expected == 2 * max(subset)
        for seed in range(5):
            try:
                got = numeric_degree_probe(rep, seed)
            except DegenerateHyperplaneError:
                got = numeric_degree_probe(rep, seed + 100_000)
            assert got == expected, (subset, seed)
            checked += 1
    assert checked == 488 * 5
    report(6, f"hyperplane-section degree probe equals twice the top reduced "
              f"frequency for all 488 reduced sets with max <= 9, 5 seeds each")


def test_criterion_07_four_dimensional_face_suite():
    for q in range(2, 51):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            d = pq_data(p, q)
            assert d.ell * p - d.k * q == 1

    for q in range(2, 13):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            assert closure_is_unit_interval(pq_data(p, q)) == ((p, q) == (1, 2))
            assert is_basic_closed_4d(p, q)["basic_closed"] == ((p, q) == (1, 2))

    assert boundary_components(1, 2) == ["S1(X)"]
    assert boundary_components(1, 3) == ["S1(X)", "y^2+z^2-1"]
    assert boundary_components(2, 3) == ["S1(X)", "y^2+z^2-1"]
    assert boundary_components(3, 4) == ["S1(X)", "w^2+x^2-1", "y^2+z^2-1"]
    assert boundary_components(2, 5) == ["S1(X)", "y^2+z^2-1"]
    report(7, "Bezout data exact for all coprime pairs below 51; gap closure "
              "fills [0,1] and basic-closedness holds only for (1,2); "
              "boundary components match the three-case split")


def test_criterion_08_toeplitz_rank_face_suite():
    rng = np.random.default_rng(808)
    for n in range(1, 7):
        rep = Representation(tuple(range(1, n + 1)))
        point = orbit_points(rep, float(rng.uniform(0, tau)))
        assert is_member(point) is Verdict.BOUNDARY
        assert numerical_rank(eigenvalues(point)) == 1
        assert membership_report(point)["face_dimension"] == 0

    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        rep = Representation(tuple(range(1, n + 1)))
        thetas = rng.uniform(0, tau, size=m)
        weights = rng.dirichlet(np.ones(m))
        combo = weights @ orbit_points(rep, thetas)
        assert is_member(combo) is not Verdict.OUTSIDE
        assert numerical_rank(eigenvalues(combo)) <= m

    origin = [0.0] * 8
    assert is_member(origin) is Verdict.INTERIOR
    assert membership_report(origin)["face_dimension"] is None
    report(8, "curve points embed to rank-1 PSD Toeplitz matrices; 200 convex "
              "combinations respect the rank bound; origin interior with no "
              "proper face")


def test_criterion_09_odd_frequency_face_suite():
    for n in (3, 5, 7):
        rng = np.random.default_rng(900 + n)
        for _ in range(1000):
            thetas = rng.uniform(0, tau, size=n + 1)
            if np.min(np.diff(np.sort(thetas))) < 1e-9:
                continue
            assert affinely_independent(list(sm_points(n, thetas)))

    rng = random.Random(901)
    for _ in range(100):
        n = rng.choice((3, 5, 7))
        theta, phi = rng.uniform(0, tau), rng.uniform(0, tau)
        normal = np.zeros(n + 1)
        normal[n - 1] = math.cos(n * theta)
        normal[n] = math.sin(n * theta)
        assert abs(normal @ sm_points(n, phi) - math.cos(n * (phi - theta))) < 1e-12
    for n in (3, 5, 7):
        face = top_face(n, 0.37)
        assert face["certificate"]["margin"] > 0

    pq = pq_data(1, 3)
    rng = random.Random(902)
    agreements = 0
    for _ in range(500):
        a, b = rng.uniform(0, tau), rng.uniform(0, tau)
        if abs(a - b) < 1e-6:
            continue
        cert = certify_face(3, [a, b], grid=10_000)
        assert (cert is not None) == is_edge(pq, a / tau, b / tau)
        agreements += 1
    report(9, f"affine independence on 3000 draws; top-face functional "
              f"identity within 1e-12 with strict margins; hyperplane search "
              f"agrees with the edge classification on {agreements} pairs")


def test_criterion_10_not_basic_closed_witnesses():
    start = time.time()
    for n in (3, 5):
        witness = not_basic_witness(n)
        assert witness["accepted"]
        assert witness["chord_midpoint_exact_zero"]
        cert = witness["interior"]
        assert cert["exact_zero_sum"] and cert["affinely_independent"]
        assert [Fraction(w) for w in cert["weights"]] == [Fraction(1, n + 2)] * (n + 2)
        assert interior_certificate(n)["barycenter_residual"] <= 1e-12
    w3 = not_basic_witness(3)
    assert Fraction(w3["slice_value_at_origin"]) == 0
    assert [Fraction(g) for g in w3["slice_gradient_at_origin"]] == [-3, 1]
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(10, f"origin certified interior (roots-of-unity barycenter, exact) "
               f"and on the antipodal chord for n=3,5; slice gradient (-3, 1) "
               f"({elapsed:.1f}s)")
