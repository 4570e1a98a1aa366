"""Dense two-phase revised simplex for small-basis linear programs.

Everything this package asks of linear programming has a handful of rows and
up to a few tens of thousands of columns (one per curve sample).  The method
keeps the inverse of the m x m basis, updates it by a rank-one (eta) pivot
after each basis change and factorizes it afresh every ``_REFACTOR_EVERY``
pivots and before any final verdict; the optimal basic solution is solved
once more from the final basis.  Dantzig pricing with an automatic switch to
Bland's rule after a run of degenerate pivots keeps the method finite on the
very degenerate, symmetric grids that show up here.  A caller solving a
sequence of neighbouring problems can pass the previous optimal basis; when
it is feasible for the new right-hand side, phase 1 is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STALL_LIMIT = 30
_REFACTOR_EVERY = 32  # eta updates between fresh factorizations of the basis
# A warm-start basis above this (1-norm) condition number starts cold
# instead; the optimal bases along the B_4 slice reach about 1e8.
_WARM_COND_LIMIT = 1e12


@dataclass
class SimplexResult:
    status: str                 # "optimal" | "infeasible" | "unbounded" | "stalled"
    x: np.ndarray | None
    objective: float
    basis: list[int]
    iterations: int             # pivots, phase 1 and phase 2 together

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def simplex_minimize(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                     tol: float = 1e-9, max_iter: int = 20000,
                     basis: list[int] | None = None) -> SimplexResult:
    """Solve min c.x subject to A x = b, x >= 0.

    ``basis`` optionally names m columns to start from, such as the optimal
    basis of a neighbouring problem.  When that basis is nonsingular and
    primal feasible (``B^-1 b >= -tol``) phase 1 is skipped; otherwise the
    solve starts cold from the artificial basis.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    B_inv = None if basis is None else _feasible_inverse(A, b, basis, tol)
    pivots = 0
    if B_inv is None:
        start = _phase_one(A, b, tol, max_iter)
        if isinstance(start, SimplexResult):
            return start
        A, b, basis, B_inv, pivots = start

    basis, x_b, status, more, _ = _iterate(A, b, c, basis, B_inv, tol, max_iter)
    x = None
    objective = np.inf
    if status == "optimal":
        x = np.zeros(n)
        x[basis] = x_b
        objective = float(c @ x)
    return SimplexResult(status, x, objective, basis, pivots + more)


def _feasible_inverse(A: np.ndarray, b: np.ndarray, basis: list[int],
                      tol: float) -> np.ndarray | None:
    """Inverse of the basis matrix when ``basis`` is a usable primal-feasible
    start, else None.  A numerically singular basis is not usable: its
    computed inverse need not raise, but its "feasible" point is garbage."""
    m, n = A.shape
    if len(basis) != m or not all(0 <= j < n for j in basis):
        return None
    B = A[:, basis]
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    # the 1-norm condition number, as np.linalg.cond(B, 1) computes it
    if not np.linalg.norm(B, 1) * np.linalg.norm(B_inv, 1) <= _WARM_COND_LIMIT:
        return None
    if np.min(B_inv @ b) < -tol:
        return None
    return B_inv


def _phase_one(A: np.ndarray, b: np.ndarray, tol: float, max_iter: int):
    """Find a feasible basis from the artificial identity basis.

    Returns ``(A, b, basis, B_inv, pivots)`` with redundant rows removed, or
    the failed ``SimplexResult``.
    """
    m, n = A.shape
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis, x_b, status, pivots, B_inv = _iterate(
        A1, b, c1, list(range(n, n + m)), np.eye(m), tol, max_iter)
    if status != "optimal":
        return SimplexResult(status, None, np.inf, basis, pivots)
    if float(x_b @ c1[basis]) > 1e-7:
        return SimplexResult("infeasible", None, np.inf, basis, pivots)

    # Drive leftover zero-level artificials out of the basis.  Row ``pos`` of
    # the basis inverse, applied to A, is the tableau row of that artificial;
    # when it vanishes, the constraint of the artificial's row is redundant.
    keep_rows = [True] * m
    for pos, col in enumerate(list(basis)):
        if col < n:
            continue
        row = B_inv[pos] @ A
        pivot = [j for j in np.nonzero(np.abs(row) > 1e-7)[0] if j not in basis]
        if pivot:
            entering = int(pivot[0])
            _pivot(B_inv, B_inv @ A[:, entering], pos)
            basis[pos] = entering
            pivots += 1
        else:
            keep_rows[col - n] = False
    if all(keep_rows):
        return A, b, basis, B_inv, pivots
    basis = [col for col in basis if col < n]
    return A[keep_rows], b[keep_rows], basis, None, pivots


def _pivot(B_inv: np.ndarray, direction: np.ndarray, leaving: int) -> None:
    """Eta update, in place, of the basis inverse when the column with
    ``B_inv``-coordinates ``direction`` replaces basis position ``leaving``."""
    row = B_inv[leaving] / direction[leaving]
    B_inv -= direction[:, None] * row
    B_inv[leaving] = row


def _iterate(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
             B_inv: np.ndarray | None, tol: float, max_iter: int):
    """Primal simplex from a feasible ``basis`` (``B_inv`` its inverse, or
    None to factorize).  Returns ``(basis, x_b, status, pivots, B_inv)``.

    Pricing and the ratio test use the eta-updated inverse.  A verdict
    (optimal or unbounded) is only taken on a freshly factorized basis, and
    the optimal ``x_b`` is solved from the final basis matrix.
    """
    m, n = A.shape
    basis = list(basis)
    bland = False
    degenerate_run = 0
    pivots = 0
    age = 0 if B_inv is not None else _REFACTOR_EVERY
    x_b = np.zeros(m)
    status = "stalled"
    while pivots < max_iter:
        if age >= _REFACTOR_EVERY:
            try:
                B_inv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:
                break
            age = 0
        x_b = B_inv @ b
        y = c[basis] @ B_inv
        reduced = c - y @ A
        reduced[basis] = 0.0
        if bland:
            candidates = (reduced < -tol).nonzero()[0]
            entering = int(candidates[0]) if candidates.size else -1
        else:
            entering = int(reduced.argmin())
            if reduced[entering] >= -tol:
                entering = -1
        verdict = "optimal"
        if entering >= 0:
            direction = B_inv @ A[:, entering]
            positive = (direction > tol).nonzero()[0]
            verdict = None if positive.size else "unbounded"
        if verdict:
            if age:
                age = _REFACTOR_EVERY  # verdicts only on a fresh factorization
                continue
            status = verdict
            if verdict == "optimal":
                x_b = np.linalg.solve(A[:, basis], b)
            break
        ratios = x_b[positive] / direction[positive]
        best = float(ratios.min())
        ties = positive[(ratios <= best + tol).nonzero()[0]]
        # leaving rule: among ties pick the smallest basis index (anti-cycling)
        leaving = int(min(ties, key=lambda i: basis[int(i)]))
        if best <= tol:
            degenerate_run += 1
            if degenerate_run >= _STALL_LIMIT:
                bland = True
        else:
            degenerate_run = 0
        _pivot(B_inv, direction, leaving)
        age += 1
        basis[leaving] = entering
        pivots += 1
    return basis, x_b, status, pivots, B_inv


def max_min_slack(equalities: np.ndarray, grid_rows: np.ndarray,
                  tol: float = 1e-9) -> tuple[float, np.ndarray | None, str]:
    """Maximize the minimal slack of ``grid_rows . w <= 1`` subject to
    ``equalities . w = 1``.

    Returns ``(delta, w, status)`` where ``delta`` is the optimum of

        max  delta   s.t.  G w + delta <= 1,  E w = 1.

    Solved through the dual, which has one basis column per ambient
    dimension; ``w`` is recovered from the active set.  Nothing in the
    package calls it: face certificates use the tangent hyperplane with an
    exact slack check.  It is kept because the benchmark's trace targets in
    ``perfbench`` name it.
    """
    E = np.atleast_2d(np.asarray(equalities, dtype=float))
    G = np.asarray(grid_rows, dtype=float)
    n_grid, dim = G.shape
    m0 = E.shape[0]

    # dual: min 1.mu + 1.nu  s.t.  G^T mu + E^T nu = 0,  1.mu = 1,  mu >= 0
    top = np.hstack([G.T, E.T, -E.T])
    last = np.concatenate([np.ones(n_grid), np.zeros(2 * m0)])
    A = np.vstack([top, last])
    b = np.concatenate([np.zeros(dim), [1.0]])
    c = np.concatenate([np.ones(n_grid), np.ones(m0), -np.ones(m0)])
    result = simplex_minimize(A, b, c, tol=tol)
    if not result.ok:
        return -np.inf, None, result.status

    delta = result.objective
    active = [j for j in result.basis if j < n_grid and result.x[j] > tol]
    rows = [E[i] for i in range(m0)]
    rhs = [1.0] * m0
    for j in active:
        rows.append(G[j])
        rhs.append(1.0 - delta)
    w, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    if np.max(np.abs(E @ w - 1.0)) > 1e-7:
        return delta, None, "recovery-failed"
    return delta, w, "optimal"


def gauge(points: np.ndarray, target: np.ndarray,
          tol: float = 1e-9) -> float:
    """Minkowski gauge of ``target`` with respect to conv(points).

    Solves min sum(mu) over mu >= 0 with points^T mu = target; the optimum
    is < 1 strictly inside the hull, 1 on its boundary, > 1 outside (valid
    whenever the origin is interior to the hull).  Returns ``inf`` when the
    target is outside the conic span.
    """
    return _gauge_lp(points, target, tol).objective


def _gauge_lp(points: np.ndarray, target: np.ndarray, tol: float = 1e-9,
              basis: list[int] | None = None) -> SimplexResult:
    """The gauge LP of :func:`gauge`, optionally warm-started from ``basis``.

    Its ``objective`` is the gauge (``inf`` unless optimal); its ``basis``
    can warm-start the next target of a sequence.
    """
    P = np.asarray(points, dtype=float)
    t = np.asarray(target, dtype=float)
    if np.allclose(t, 0.0):
        return SimplexResult("optimal", np.zeros(P.shape[0]), 0.0, [], 0)
    return simplex_minimize(P.T, t, np.ones(P.shape[0]), tol=tol, basis=basis)
