"""Computations with convex hulls of planar-rotation orbits.

Subpackages cover exact sparse polynomials (:mod:`orbitopes.poly`), the
frequency curves and their invariants (:mod:`orbitopes.curve`), the Toeplitz
spectrahedron model of the universal body (:mod:`orbitopes.toeplitz`), the
complete 4-dimensional face lattice (:mod:`orbitopes.faces4d`), secant
equation recovery by interpolation (:mod:`orbitopes.secantfit`), and the
odd-frequency orbitopes with their basic-closedness witnesses
(:mod:`orbitopes.bnorbit`).  The ``orbitopes`` command line exposes all of
it; see the README.
"""

from .curve import CurveInfo, Representation, curve_info, numeric_degree_probe
from .poly import CoeffMode, SparsePoly

__version__ = "0.1.0"

__all__ = [
    "CoeffMode",
    "CurveInfo",
    "Representation",
    "SparsePoly",
    "curve_info",
    "numeric_degree_probe",
    "__version__",
]
