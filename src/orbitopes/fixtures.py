"""Bundled polynomial fixtures.

* ``secant13_deg8.poly`` — the degree-8, 47-term equation of the secant
  surface of the frequency-(1,3) curve, in variables (w, x, y, z).
* ``secant14_deg15_partial.poly`` — a known subset (88 terms) of the
  degree-15 secant-surface equation of the frequency-(1,4) curve; the full
  281-term polynomial is recovered by interpolation at runtime and validated
  against this subset.
"""

from __future__ import annotations

from importlib import resources

from .poly import SparsePoly


def _load(name: str) -> SparsePoly:
    text = resources.files("orbitopes").joinpath("data", name).read_text()
    return SparsePoly.loads(text)


def secant_surface_13() -> SparsePoly:
    """Exact degree-8 secant-surface equation for frequencies {1, 3}."""
    return _load("secant13_deg8.poly")


def secant_surface_14_known_terms() -> SparsePoly:
    """Known terms of the degree-15 secant-surface equation for {1, 4}."""
    return _load("secant14_deg15_partial.poly")
