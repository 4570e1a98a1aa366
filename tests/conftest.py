"""Shared fixtures; the expensive interpolation fits run once per session.

Every property test draws the same examples on every run: the profile
loaded here derandomizes Hypothesis and keeps no example database, so a
Tier-1 run neither draws new inputs nor replays a failure stored by an
earlier one.  Tests set only ``max_examples`` and ``deadline`` of their own.
"""

import pytest
from hypothesis import settings

from orbitopes import fixtures
from orbitopes.curve import Representation
from orbitopes.poly import CoeffMode
from orbitopes.secantfit import fit_hypersurface, rationalize

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def f_stored():
    return fixtures.secant_surface_13()


@pytest.fixture(scope="session")
def g_printed_terms():
    return fixtures.secant_surface_14_known_terms()


@pytest.fixture(scope="session")
def f_exact_fit():
    return fit_hypersurface(Representation((1, 3)), r=2, degree=8, seed=5,
                            mode=CoeffMode.RATIONAL)


@pytest.fixture(scope="session")
def f_float_fit():
    return fit_hypersurface(Representation((1, 3)), r=2, degree=8, seed=11,
                            mode=CoeffMode.FLOAT)


@pytest.fixture(scope="session")
def g_float_fit():
    return fit_hypersurface(Representation((1, 4)), r=2, degree=15, seed=20,
                            mode=CoeffMode.FLOAT)


@pytest.fixture(scope="session")
def g_recovered(g_float_fit):
    poly, distance = rationalize(g_float_fit.polynomials[0], (12, 0, 3, 0), 8)
    return poly, distance
