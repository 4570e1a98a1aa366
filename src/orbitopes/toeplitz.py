"""The universal orbitope as a spectrahedron of Hermitian Toeplitz matrices.

A point (x_1, y_1, ..., x_n, y_n) of R^(2n) embeds into the (n+1) x (n+1)
Hermitian Toeplitz matrix with unit diagonal and k-th superdiagonal entry
x_k + i y_k.  The convex hull of the frequency-(1..n) curve is exactly the
set of points whose matrix is positive semidefinite, so membership, face
dimension and secant-variety membership (the k-th secant variety of the
moment curve is where the rank is at most k + 1) all reduce to eigenvalue
and rank computations on this matrix.  :func:`embed` builds it with one
index into its list of diagonals, and :func:`eigenvalues` feeds every
verdict.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .poly import SparsePoly

DEFAULT_TOL = 1e-9


class Verdict(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def numerical_rank(eigenvalues: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Count of eigenvalues above the relative threshold.

    The cut is tol * max(largest eigenvalue, 1), so coordinates bounded by 1
    keep the policy meaningful near the origin.
    """
    scale = max(float(np.max(np.abs(eigenvalues))), 1.0)
    return int(np.sum(np.abs(eigenvalues) > tol * scale))


def embed(point: Sequence[float]) -> np.ndarray:
    """The (n+1) x (n+1) Hermitian Toeplitz matrix of a point of R^(2n).

    Entry (a, b) is the diagonal b - a of [conj(u_n), ..., conj(u_1), 1,
    u_1, ..., u_n], with u_k = x_k + i y_k.
    """
    point = np.array(point, dtype=float)
    if len(point) % 2 != 0 or not len(point):
        raise ValueError(f"point must have positive even length, got {len(point)}")
    n = len(point) // 2
    u = point.view(complex)  # each pair (x_k, y_k) read as one complex number
    diagonals = np.concatenate([np.conj(u[::-1]), [1], u])
    index = np.arange(n + 1)
    return diagonals[index[None, :] - index[:, None] + n]


def eigenvalues(point: Sequence[float]) -> np.ndarray:
    """Eigenvalues of the point's Toeplitz matrix, in ascending order."""
    return np.linalg.eigvalsh(embed(point))


def _verdict(eigs: np.ndarray, tol: float) -> Verdict:
    smallest = float(eigs[0])
    if smallest > tol:
        return Verdict.INTERIOR
    if smallest < -tol:
        return Verdict.OUTSIDE
    return Verdict.BOUNDARY


def is_member(point: Sequence[float]) -> Verdict:
    """Membership of the point in the universal orbitope via the PSD test."""
    return _verdict(eigenvalues(point), DEFAULT_TOL)


def membership_report(point: Sequence[float], tol: float = DEFAULT_TOL) -> dict:
    """JSON-ready report: verdict, smallest eigenvalue, rank, face dimension.

    A boundary point in the relative interior of a k-face has Toeplitz rank
    k+1, so its face dimension is rank - 1; interior and outside points give
    None.  Raises ValueError when the eigenvalues overflow to infinity.
    """
    eigs = eigenvalues(point)
    if not np.isfinite(eigs).all():
        raise ValueError("the Toeplitz eigenvalues of the point are not "
                         "finite: its coordinates are too large")
    verdict = _verdict(eigs, tol)
    rank = numerical_rank(eigs, tol)
    return {
        "verdict": verdict.value,
        "min_eigenvalue": float(eigs[0]),
        "rank": rank,
        "face_dimension": rank - 1 if verdict is Verdict.BOUNDARY else None,
    }


# -- symbolic determinant ----------------------------------------------------


def det_polynomial(n: int) -> SparsePoly:
    """Exact determinant of the order-n Toeplitz matrix as a polynomial.

    Variables are ordered (x_1, y_1, ..., x_n, y_n).  Entries are expanded
    as pairs of real polynomials and the determinant computed by cofactor
    expansion; the imaginary part cancels identically, which is asserted.
    Intended for small n (the expansion is factorial).
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > 5:
        raise ValueError("symbolic determinant supported for n <= 5")
    nvars = 2 * n
    one = SparsePoly.constant(nvars, 1)
    zero = SparsePoly.zero(nvars)

    def entry(a: int, b: int) -> tuple[SparsePoly, SparsePoly]:
        if a == b:
            return one, zero
        k = abs(b - a)
        re = SparsePoly.variable(nvars, 2 * (k - 1))
        im = SparsePoly.variable(nvars, 2 * (k - 1) + 1)
        if b < a:
            im = -im
        return re, im

    size = n + 1
    grid = [[entry(a, b) for b in range(size)] for a in range(size)]

    def det(rows: list[int], cols: list[int]) -> tuple[SparsePoly, SparsePoly]:
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        re_acc, im_acc = SparsePoly.zero(nvars), SparsePoly.zero(nvars)
        row = rows[0]
        for pos, col in enumerate(cols):
            minor_re, minor_im = det(rows[1:], cols[:pos] + cols[pos + 1:])
            e_re, e_im = grid[row][col]
            term_re = e_re * minor_re - e_im * minor_im
            term_im = e_re * minor_im + e_im * minor_re
            if pos % 2:
                term_re, term_im = -term_re, -term_im
            re_acc = re_acc + term_re
            im_acc = im_acc + term_im
        return re_acc, im_acc

    re, im = det(list(range(size)), list(range(size)))
    assert im.is_zero(), "Hermitian determinant must be real"
    return re
