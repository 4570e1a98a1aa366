"""The benchmark workloads, generated from a seed.

Every workload is a list of operations.  An operation calls the package
from the outside (``orbitopes.cli.main`` or a public function), and comes
with a correctness check and the JSON report whose digest must repeat for
the same seed.  The package receives only the inputs generated here.

* ``fit-float``: a degree-15 {1,4} float fit through the blocked-QR
  branch, then the README pipeline for the degree-8 {1,3} equation: a
  float fit through the direct-SVD branch, rationalization and
  verification.  Dense linear algebra in ``secantfit`` does almost all the
  work; ``exactla`` and ``lp`` do none.  The degree-15 fit is not
  rationalized: for some sampler seeds its coefficients are off by more
  than 5e-7, and rounding to denominators up to 10**6 then gives wrong
  fractions.
* ``fit-exact``: the degree-8 {1,3} exact fit (modular solver), a degree-3
  {1,2} exact fit (Bareiss solver) and an exact verification of the
  bundled 47-term equation.  ``exactla``, ``curve.rational_point`` and
  exact polynomial arithmetic do the work.
* ``certify``: hundreds of small grid-LP certificates and membership
  tests plus the 770-LP planar slice.  ``lp``, ``bnorbit`` and
  ``curve.orbit_points`` do the work; ``secantfit`` and ``exactla`` do
  none.  The (frequencies, grid) pairs mix many repeats with one-off grids,
  the property a per-grid cache of curve points depends on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from math import gcd, tau
from pathlib import Path
from typing import Callable

import numpy as np

from orbitopes import bnorbit, cli, curve, faces4d, fixtures, lp, secantfit, toeplitz
from orbitopes.poly import CoeffMode, SparsePoly

RESIDUAL_TOL = 1e-8     # held-out and verify residuals (acceptance criterion 03)
GAP_RATIO_MIN = 1e4     # singular-value gap a float fit must show
VERIFY_EXACT_COUNT = 2000
HULL_GRID = 4096        # inner approximation of the body for the gauge oracle
SLICE_SERIES_POINTS = 193
TOP_FACE_GRID = 10_000  # the CLI default
PAIRS_PER_REP = 30
MEMBER_POINTS_PER_N = 50
COMMON_GRIDS = (512, 1024)
ONE_OFF_SHARE = 0.1
# A grid certificate decides a face only up to the grid resolution, so arc
# pairs keep their gap this many turns away from every endpoint of the
# exposed-edge intervals; at the grids used, the exclusion arcs are below
# 0.008 turns.
EDGE_MARGIN = 0.02


@dataclass(frozen=True)
class Op:
    name: str
    spec: str                               # the inputs, as text
    execute: Callable[[], object]
    check: Callable[[object], list[str]]    # problems found; empty when correct
    report: Callable[[object], str]         # JSON text whose digest must repeat
    limit_s: float
    key: tuple | None = None                # (frequencies, grid) of curve points


@dataclass
class Workload:
    ops: list[Op]
    workdir: Path

    def reset(self) -> None:
        """Empty the directory the operations write to."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def repeat_share(self) -> tuple[float, int]:
        """Share of keyed operations whose (frequencies, grid) pair was
        already used earlier in the pass, and the number of keyed ops."""
        seen: set[tuple] = set()
        repeats = keyed = 0
        for op in self.ops:
            if op.key is None:
                continue
            keyed += 1
            repeats += op.key in seen
            seen.add(op.key)
        return (repeats / keyed if keyed else 0.0), keyed

    def signature(self) -> str:
        return "\n".join(op.spec for op in self.ops)


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str


def _problems(*checks: tuple[bool, str]) -> list[str]:
    return [message for ok, message in checks if not ok]


def _cli_op(name: str, argv: list[str], check: Callable[[dict], list[str]],
            limit_s: float, key: tuple | None = None) -> Op:
    def execute() -> CliRun:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return CliRun(code, out.getvalue())

    def checked(run: CliRun) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}"]
        return check(json.loads(run.stdout))

    return Op(name, " ".join(argv), execute, checked, lambda run: run.stdout,
              limit_s, key)


def _terms_json(p: SparsePoly) -> list:
    return [[list(e), str(c)] for e, c in sorted(p.terms.items())]


def _residual_problems(residuals: list[float]) -> list[str]:
    worst = max(residuals)
    return _problems((worst <= RESIDUAL_TOL,
                      f"held-out residual {worst:.3e} > {RESIDUAL_TOL:g}"))


def _float_fit_problems(report: dict) -> list[str]:
    fit = report["fit"]
    return _problems(
        (fit["nullity"] == 1, f"nullity {fit['nullity']} != 1"),
        (fit["gap_ratio"] >= GAP_RATIO_MIN,
         f"gap ratio {fit['gap_ratio']:.3e} < {GAP_RATIO_MIN:g}"),
    ) + _residual_problems(report["held_out_residuals"])


def fit_float(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    fit_seed, verify_seed, small_seed = (rng.randrange(2 ** 31) for _ in range(3))
    f = fixtures.secant_surface_13()
    fit15_dir, fit8_dir, rat_dir = (workdir / name
                                    for name in ("fit15", "fit8", "rat8"))

    def rationalized(report: dict) -> list[str]:
        g = SparsePoly.load_file(rat_dir / "rationalized.poly")
        return _problems(
            (report["terms"] == 47, f"{report['terms']} terms, not 47"),
            (g == f, f"differs from the 47-term equation (largest rounding "
                     f"distance {report['max_rounding_distance']:.2e})"))

    def verified(report: dict) -> list[str]:
        return _problems((report["passed"] is True, "verify did not pass")) + \
            _residual_problems([report["max_residual"]])

    ops = [
        _cli_op("secant-fit 1,4 degree 15 float",
                ["secant-fit", "--rep", "1,4", "--r", "2", "--degree", "15",
                 "--mode", "float", "--seed", str(fit_seed),
                 "--out", str(fit15_dir)],
                _float_fit_problems, 150.0),
        _cli_op("secant-fit 1,3 degree 8 float",
                ["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "8",
                 "--mode", "float", "--seed", str(small_seed),
                 "--out", str(fit8_dir)],
                _float_fit_problems, 60.0),
        _cli_op("rationalize degree 8",
                ["rationalize", "--poly", str(fit8_dir / "nullspace_0.poly"),
                 "--anchor", "0,0,4,0", "--anchor-value", "1",
                 "--out", str(rat_dir)],
                rationalized, 30.0),
        _cli_op("verify degree 8",
                ["verify", "--rep", "1,3", "--r", "2",
                 "--poly", str(rat_dir / "rationalized.poly"),
                 "--seed", str(verify_seed), "--tol", repr(RESIDUAL_TOL)],
                verified, 60.0),
    ]
    return Workload(ops, workdir)


def fit_exact(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    fit_seed, small_seed, verify_seed = (rng.randrange(2 ** 31) for _ in range(3))
    f = fixtures.secant_surface_13()
    det = toeplitz.det_polynomial(2)
    fit_dir = workdir / "fit8"
    fixture = Path(os.path.relpath(
        Path(fixtures.__file__).parent / "data" / "secant13_deg8.poly"))
    rep12 = curve.Representation((1, 2))

    def exact_fit(report: dict) -> list[str]:
        fit = report["fit"]
        p = SparsePoly.load_file(fit_dir / "nullspace_0.poly")
        anchor = p.coefficient((0, 0, 4, 0))
        return _problems(
            (fit["nullity"] == 1, f"nullity {fit['nullity']} != 1"),
            (fit["certified"] is True, "kernel not certified"),
            (fit["method"] == "modular", f"solver {fit['method']}, not modular"),
            (anchor != 0 and p.scale(1 / anchor) == f,
             "fit differs from the 47-term equation"),
        ) + _residual_problems(report["held_out_residuals"])

    def small_fit():
        return secantfit.fit_hypersurface(rep12, r=2, degree=3, seed=small_seed,
                                          mode=CoeffMode.RATIONAL)

    def small_fit_problems(fit) -> list[str]:
        p = fit.polynomials[0]
        scale = det.coefficient((0, 0, 0, 0)) / p.coefficient((0, 0, 0, 0))
        return _problems(
            (fit.nullity == 1, f"nullity {fit.nullity} != 1"),
            (fit.report["certified"] is True, "kernel not certified"),
            (fit.report["method"] == "bareiss",
             f"solver {fit.report['method']}, not bareiss"),
            (p.scale(scale) == det, "fit differs from det_polynomial(2)"))

    def small_fit_report(fit) -> str:
        return json.dumps({"report": fit.report,
                           "polynomials": [_terms_json(p) for p in fit.polynomials]},
                          sort_keys=True)

    def exact_verified(report: dict) -> list[str]:
        return _problems(
            (report["passed"] is True, "verify did not pass"),
            (report["max_residual"] == 0,
             f"exact residual {report['max_residual']!r} is not 0"))

    ops = [
        _cli_op("secant-fit 1,3 degree 8 exact",
                ["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "8",
                 "--mode", "exact", "--seed", str(fit_seed),
                 "--out", str(fit_dir)],
                exact_fit, 120.0),
        Op("fit_hypersurface 1,2 degree 3 exact",
           f"fit_hypersurface 1,2 r=2 degree=3 seed={small_seed} exact",
           small_fit, small_fit_problems, small_fit_report, 30.0),
        _cli_op("verify 47-term equation exact",
                ["verify", "--rep", "1,3", "--r", "2", "--poly", str(fixture),
                 "--mode", "exact", "--count", str(VERIFY_EXACT_COUNT),
                 "--seed", str(verify_seed), "--tol", "0"],
                exact_verified, 60.0),
    ]
    return Workload(ops, workdir)


def _slice_problems(report: dict) -> list[str]:
    sizes = sorted(report["series"].values())
    return _problems(
        (report["secant_factorization_exact"] is True,
         "secant factorization not exact"),
        (report["circle_factorization_exact"] is True,
         "circle factorization not exact"),
        (sizes == [SLICE_SERIES_POINTS] * 4, f"series sizes {sizes}"))


def _top_face_problems(report: dict) -> list[str]:
    margin = report["certificate"]["margin"]
    return _problems((margin > 0, f"margin {margin!r} is not positive"))


def _witness_problems(report: dict) -> list[str]:
    return _problems((report["accepted"] is True, "witness rejected"))


def _arc_pair(rng: random.Random, endpoints: tuple[float, ...]) -> tuple[float, float]:
    while True:
        s, gap = rng.random(), rng.random()
        if min(abs(gap - e) for e in endpoints) >= EDGE_MARGIN:
            return s, gap


def _face_op(pq: faces4d.PQData, s: float, t: float, grid: int) -> Op:
    rep = curve.Representation((pq.p, pq.q))
    angles = [tau * s, tau * t]

    def execute():
        return bnorbit.certify_exposed_face(rep, angles, grid=grid)

    def check(cert) -> list[str]:
        edge = faces4d.is_edge(pq, s, t)
        return _problems(
            ((cert is not None) == edge,
             f"certified={cert is not None} but is_edge={edge}"),
            (cert is None or cert.margin > 0, "certificate margin not positive"))

    def report(cert) -> str:
        return json.dumps(None if cert is None else cert.to_json(), sort_keys=True)

    return Op(f"certify_exposed_face {pq.p},{pq.q}",
              f"certify_exposed_face {pq.p},{pq.q} {s!r} {t!r} grid={grid}",
              execute, check, report, 10.0, key=((pq.p, pq.q), grid))


def _member_op(n: int, hull: np.ndarray, point: list[float]) -> Op:
    def execute():
        return toeplitz.is_member(point)

    def check(verdict) -> list[str]:
        value = lp.gauge(hull, np.array(point))
        inside = verdict is toeplitz.Verdict.INTERIOR
        return _problems(
            (verdict is not toeplitz.Verdict.BOUNDARY,
             "boundary verdict for a point 5% or more off the boundary"),
            (inside == (value < 1.0), f"verdict {verdict.value} but gauge {value!r}"))

    return Op(f"is_member n={n}", f"is_member n={n} {point!r}", execute, check,
              lambda verdict: json.dumps(verdict.value), 10.0)


def certify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = [_cli_op("bn slice", ["bn", "slice"], _slice_problems, 60.0,
                   key=((1, 3), HULL_GRID))]
    for n in (3, 5, 7):
        theta = rng.uniform(0.0, tau)
        ops.append(_cli_op(f"bn top-face n={n}",
                           ["bn", "top-face", "--n", str(n), "--theta", repr(theta)],
                           _top_face_problems, 30.0,
                           key=(bnorbit.sm_rep(n).indices, TOP_FACE_GRID)))
    for n in (3, 5):
        ops.append(_cli_op(f"bn witness n={n}", ["bn", "witness", "--n", str(n)],
                           _witness_problems, 30.0))

    used_grids = set(COMMON_GRIDS)
    for q in range(2, 8):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            pq = faces4d.pq_data(p, q)
            endpoints = (0.0, 0.5, 1.0) + tuple(
                float(x) for interval in pq.intervals for x in interval)
            for _ in range(PAIRS_PER_REP):
                s, gap = _arc_pair(rng, endpoints)
                if rng.random() < ONE_OFF_SHARE:
                    grid = rng.choice([g for g in range(600, 2048)
                                       if g not in used_grids])
                    used_grids.add(grid)
                else:
                    grid = rng.choice(COMMON_GRIDS)
                ops.append(_face_op(pq, s, (s + gap) % 1.0, grid))

    # Convex combinations of at most n curve points lie on the boundary of
    # the universal body (Toeplitz rank below n+1); scaling by s moves them
    # to gauge s, strictly inside or outside.
    for n in (2, 3):
        rep = curve.Representation(tuple(range(1, n + 1)))
        hull = curve.orbit_points(rep, np.arange(HULL_GRID) * (tau / HULL_GRID))
        for _ in range(MEMBER_POINTS_PER_N):
            m = rng.randint(1, n)
            thetas = np.array([rng.uniform(0.0, tau) for _ in range(m)])
            weights = np.array([rng.uniform(0.1, 1.0) for _ in range(m)])
            boundary = (weights / weights.sum()) @ curve.orbit_points(rep, thetas)
            scale = (rng.uniform(0.6, 0.95) if rng.random() < 0.5
                     else rng.uniform(1.05, 1.4))
            ops.append(_member_op(n, hull, [float(v) for v in scale * boundary]))
    return Workload(ops, workdir)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "fit-float": fit_float,
    "fit-exact": fit_exact,
    "certify": certify,
}
