"""Command line front end.

Every subcommand prints a single JSON report to stdout (and optionally
writes files under ``--out``); the report embeds the full configuration,
the package version and every tolerance used, so identical invocations
produce byte-identical output.  Exit codes: 0 on success, 2 when a
verification fails (residual above tolerance, no certificate found,
witness rejected), 1 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bnorbit, faces4d, secantfit, toeplitz
from .curve import (DegenerateHyperplaneError, Representation, curve_info,
                    numeric_degree_probe)
from .poly import CoeffMode, SparsePoly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _report(args, payload: dict, tolerances: dict | None = None) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and v is not None}
    return {
        "version": __version__,
        "config": config,
        "tolerances": tolerances or {},
        **payload,
    }


def _emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    print(text)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text + "\n")


def _json_default(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _parse_point(text: str) -> list[float]:
    point = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(math.isfinite(v) for v in point):
        raise ValueError(f"non-finite coordinate in point {text!r}")
    return point


def _fraction(text: str) -> Fraction:
    """A rational such as ``3/4``; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# -- subcommand handlers -------------------------------------------------------


def cmd_curve_info(args) -> int:
    rep = Representation.parse(args.rep)
    info = curve_info(rep)
    payload = {
        "degree": info.degree,
        "smooth": info.smooth,
        "ambient_dim": info.ambient_dim,
        "singular_points": (
            None if info.singular_points is None
            else [[repr(c) for c in pt] for pt in info.singular_points]),
    }
    if args.probe:
        seed = args.seed
        for _ in range(8):
            try:
                payload["numeric_degree_probe"] = numeric_degree_probe(
                    rep.reduce(), seed)
                break
            except DegenerateHyperplaneError:
                seed += 1000
    _emit(args, _report(args, payload))
    return EXIT_OK


def cmd_membership(args) -> int:
    point = _parse_point(args.point)
    report = toeplitz.membership_report(point, tol=args.tol)
    _emit(args, _report(args, report, {"psd_tol": args.tol}))
    return EXIT_OK


def cmd_face_dim(args) -> int:
    point = _parse_point(args.point)
    try:
        dim = toeplitz.face_dimension(point, tol=args.tol)
    except ValueError as exc:
        _emit(args, _report(args, {"error": str(exc)}, {"psd_tol": args.tol}))
        return EXIT_VERIFY
    _emit(args, _report(args, {"face_dimension": dim}, {"psd_tol": args.tol}))
    return EXIT_OK


def _pq_from_rep(args) -> faces4d.PQData:
    rep = Representation.parse(args.rep)
    if rep.r != 2:
        raise ValueError(f"need a coprime frequency pair p,q, got {rep}")
    return faces4d.pq_data(*rep.indices)


def cmd_faces(args) -> int:
    pq = _pq_from_rep(args)
    payload: dict = {
        "p": pq.p, "q": pq.q, "k": pq.k, "ell": pq.ell,
        "gap_intervals": [[str(a), str(b)] for a, b in pq.intervals],
        "boundary_components": faces4d.boundary_components(pq.p, pq.q),
    }
    if args.edge:
        s, t = (_fraction(tok) for tok in args.edge.split(","))
        payload["query"] = {"kind": "edge", "s": str(s), "t": str(t),
                            "is_edge": faces4d.is_edge(pq, s, t)}
    if args.polygon:
        which_str, t_str = args.polygon.split(",")
        face = faces4d.polygon_faces(pq, int(which_str), _fraction(t_str))
        payload["query"] = {"kind": "polygon", **face.to_json()}
    if args.vertex is not None:
        payload["query"] = {"kind": "vertex",
                            "parameter": args.vertex,
                            "point": list(faces4d.z_point(pq, _fraction(args.vertex)))}
    _emit(args, _report(args, payload))
    return EXIT_OK


def cmd_boundary(args) -> int:
    pq = _pq_from_rep(args)
    verdict = faces4d.is_basic_closed_4d(pq.p, pq.q)
    payload = {
        "boundary_components": faces4d.boundary_components(pq.p, pq.q),
        "closure_of_gaps_is_unit_interval": faces4d.closure_is_unit_interval(pq),
        **verdict.to_json(),
    }
    _emit(args, _report(args, payload))
    return EXIT_OK


def cmd_secant_fit(args) -> int:
    rep = Representation.parse(args.rep)
    mode = CoeffMode.RATIONAL if args.mode == "exact" else CoeffMode.FLOAT
    tolerances = {"sigma_null_factor": secantfit.SIGMA_NULL_FACTOR,
                  "gap_ratio_required": secantfit.GAP_RATIO_REQUIRED}
    try:
        fit = secantfit.fit_hypersurface(rep, r=args.r, degree=args.degree,
                                         count=args.count, seed=args.seed,
                                         mode=mode)
    except (secantfit.NoVanishingPolynomialError,
            secantfit.AmbiguousRankError) as exc:
        _emit(args, _report(args, {"error": str(exc), "fit": exc.report},
                            tolerances))
        return EXIT_VERIFY
    except secantfit.FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    residuals = []
    for p in fit.polynomials:
        scaled = p.to_float()
        top = max(abs(c) for c in scaled.terms.values())
        scaled = scaled.scale(1.0 / top)
        residuals.append(secantfit.verify_vanishing(
            scaled, rep, r=args.r, count=2000, seed=args.seed + 1))
    payload = {"fit": fit.report,
               "held_out_residuals": residuals,
               "polynomials": [p.dumps().splitlines() for p in fit.polynomials]}
    _emit(args, _report(args, payload, tolerances))
    if args.out:
        out = Path(args.out)
        for i, p in enumerate(fit.polynomials):
            p.dump_file(out / f"nullspace_{i}.poly")
    # an exact kernel whose nullity bound is not met proves nothing
    return EXIT_VERIFY if fit.report.get("certified") is False else EXIT_OK


def cmd_verify(args) -> int:
    rep = Representation.parse(args.rep)
    poly = SparsePoly.load_file(args.poly)
    mode = CoeffMode.RATIONAL if args.mode == "exact" else CoeffMode.FLOAT
    if mode is CoeffMode.FLOAT:
        poly = poly.to_float()
    try:
        residual = secantfit.verify_vanishing(poly, rep, r=args.r,
                                              count=args.count, seed=args.seed,
                                              mode=mode)
    except secantfit.InsufficientSamplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    ok = float(residual) <= args.tol
    _emit(args, _report(args, {"max_residual": float(residual), "passed": ok},
                        {"residual_tol": args.tol}))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_rationalize(args) -> int:
    poly = SparsePoly.load_file(args.poly).to_float()
    anchor = tuple(int(tok) for tok in args.anchor.split(","))
    result, dist = secantfit.rationalize(poly, anchor, _fraction(args.anchor_value))
    payload = {"terms": result.num_terms, "degree": result.degree,
               "max_rounding_distance": dist,
               "polynomial": result.dumps().splitlines()}
    _emit(args, _report(args, payload))
    if args.out:
        result.dump_file(Path(args.out) / "rationalized.poly")
    return EXIT_OK


def cmd_bn_top_face(args) -> int:
    face = bnorbit.top_face(args.n, args.theta, grid=args.grid)
    _emit(args, _report(args, face.to_json(), {"exclusion": 1e-3}))
    return EXIT_OK


def cmd_bn_certify_face(args) -> int:
    params = [float(_fraction(tok)) for tok in args.params.split(",")]
    cert = bnorbit.certify_face(args.n, params, grid=args.grid, tol=args.tol)
    if cert is None:
        _emit(args, _report(args, {"status": "no-certificate",
                                   "note": "no exposing hyperplane found at "
                                           "this grid resolution"},
                            {"tol": args.tol}))
        return EXIT_VERIFY
    _emit(args, _report(args, {"status": "certified", **cert.to_json()},
                        {"tol": args.tol}))
    return EXIT_OK


def cmd_bn_witness(args) -> int:
    report = bnorbit.not_basic_witness(args.n)
    _emit(args, _report(args, report.to_json()))
    return EXIT_OK if report.accepted else EXIT_VERIFY


def cmd_bn_slice(args) -> int:
    report = bnorbit.slice_b4()
    _emit(args, _report(args, report.to_json()))
    ok = report.secant_factorization_exact and report.circle_factorization_exact
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "slice_series.csv").write_text(report.to_csv())
    return EXIT_OK if ok else EXIT_VERIFY


# -- parser wiring --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbitopes", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep=False, seed=True, out=True, tol=None):
        if rep:
            p.add_argument("--rep", required=True,
                           help="comma-separated frequency list, e.g. 1,3")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", help="directory for report/output files")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)

    p = sub.add_parser("curve-info", help="degree/smoothness of the orbit curve")
    common(p, rep=True)
    p.add_argument("--probe", action="store_true",
                   help="also run the numeric degree probe")
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("membership", help="PSD-Toeplitz membership of a point")
    common(p, seed=False, tol=toeplitz.DEFAULT_TOL)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("face-dim", help="face dimension of a boundary point")
    common(p, seed=False, tol=toeplitz.DEFAULT_TOL)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_face_dim)

    p = sub.add_parser("faces", help="classify faces of a 4-dimensional body")
    common(p, rep=True, seed=False)
    p.add_argument("--edge", help="s,t arc parameters of a segment query")
    p.add_argument("--polygon", help="which,t polygon query (which in {p,q})")
    p.add_argument("--vertex", help="t parameter of a vertex query")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("boundary", help="algebraic boundary components and "
                                        "basic-closedness verdict")
    common(p, rep=True, seed=False)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("secant-fit", help="fit vanishing equations of a secant "
                                          "variety by interpolation")
    common(p, rep=True)
    p.add_argument("--r", type=int, required=True,
                   help="number of curve points per secant sample")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--count", type=int, help="sample count (default 2.5x basis)")
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.set_defaults(func=cmd_secant_fit)

    p = sub.add_parser("verify", help="max residual of a polynomial on fresh "
                                      "secant samples")
    common(p, rep=True, tol=1e-8)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--poly", required=True, help="polynomial file to verify")
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rationalize", help="round a float fit to exact "
                                           "rational coefficients")
    common(p, seed=False)
    p.add_argument("--poly", required=True)
    p.add_argument("--anchor", required=True,
                   help="comma-separated exponent tuple of the anchor monomial")
    p.add_argument("--anchor-value", required=True,
                   help="exact value the anchor coefficient is scaled to")
    p.set_defaults(func=cmd_rationalize)

    bn = sub.add_parser("bn", help="odd-frequency orbitopes")
    bn_sub = bn.add_subparsers(dest="bn_command", required=True)

    p = bn_sub.add_parser("top-face", help="explicit top-dimensional face")
    common(p, seed=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.add_argument("--grid", type=_positive_int, default=10000)
    p.set_defaults(func=cmd_bn_top_face)

    p = bn_sub.add_parser("certify-face", help="search for an exposing "
                                               "hyperplane certificate")
    common(p, seed=False, tol=1e-9)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", required=True,
                   help="comma-separated curve angles")
    p.add_argument("--grid", type=_positive_int, default=2048)
    p.set_defaults(func=cmd_bn_certify_face)

    p = bn_sub.add_parser("witness", help="full not-basic-closed witness")
    common(p, seed=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bn_witness)

    p = bn_sub.add_parser("slice", help="planar slice of the 4-dimensional "
                                        "odd-frequency body")
    common(p, seed=False)
    p.set_defaults(func=cmd_bn_slice)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
