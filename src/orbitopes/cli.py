"""Command line front end.

Every subcommand prints a single JSON report to stdout (and optionally
writes it, with any data files, under ``--out``); the report embeds the
full configuration, the package version and every tolerance used, so
identical invocations produce byte-identical output.  Exit codes: 0 on
success; 2 when a verification fails (residual above tolerance, no
certificate found, witness rejected, point outside the body, interpolation
failure), always with a JSON report; 1 on usage errors (bad arguments,
unreadable files, inputs over a budget), with a message on stderr and
nothing on stdout.  A ``verify --mode exact`` whose sampler cannot draw
``--count`` distinct points computes no residual, so that is a usage error
too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bnorbit, faces4d, secantfit, toeplitz
from .curve import (DegenerateHyperplaneError, Representation, curve_info,
                    numeric_degree_probe)
from .poly import CoeffMode, SparsePoly

EXIT_OK, EXIT_USAGE, EXIT_VERIFY = 0, 1, 2

# Input budgets; a larger value is a usage error.  The basis size is the
# number of monomials of degree <= --degree in the ambient variables.  A fit
# writes polynomials of at most its basis size in terms, so the term budget
# of a --poly file refuses none of them.
MAX_FREQUENCY = 64                                    # in --rep
MAX_SAMPLES = 10_000                                  # --count
MAX_BASIS_SIZE = {"float": 4_000, "exact": 1_001}     # by --mode
MAX_N = 201                                           # bn --n
MAX_POINT_COORDS = 128                                # in --point
MAX_POLY_DEGREE = 128                                 # of a --poly file
MAX_POLY_TERMS = 4_000                                # of a --poly file


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class Outcome:
    """What a handler returns: the report payload, the tolerances it used,
    its verdict, and the extra ``--out`` files (name -> text).  Handlers
    never print, write files or pick exit codes; :func:`main` does."""

    payload: dict
    tolerances: dict = field(default_factory=dict)
    passed: bool = True
    files: dict = field(default_factory=dict)


def _json_default(value):
    """The one formatter of report values that JSON lacks: a Fraction
    prints as ``"n/d"`` and a polynomial as the lines of its text format."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, SparsePoly):
        return value.dumps().splitlines()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _parse_point(text: str) -> list[float]:
    point = [float(tok) for tok in text.split(",") if tok.strip()]
    if len(point) > MAX_POINT_COORDS:
        raise ValueError(f"{len(point)} coordinates over the budget {MAX_POINT_COORDS}")
    if not all(math.isfinite(v) for v in point):
        raise ValueError(f"non-finite coordinate in point {text!r}")
    return point


def _fraction(text: str) -> Fraction:
    """A rational such as ``3/4``; a zero denominator or a value too large
    for a float is a usage error."""
    try:
        value = Fraction(text)
        float(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except OverflowError:
        raise ValueError(f"{text!r} is too large for a float") from None
    return value


def _two_fields(text: str, option: str, form: str) -> list[str]:
    """The fields of a two-field option value such as ``3,1/7``; another
    number of fields is a usage error that names the expected form."""
    fields = text.split(",")
    if len(fields) != 2:
        raise ValueError(f"{option} takes two values {form}, got {text!r}")
    return fields


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _psd_tolerance(text: str) -> float:
    """A PSD tolerance below 1: the Toeplitz matrix has unit diagonal, so
    its largest eigenvalue is at least 1 and a tolerance of 1 or more
    would make every rank 0."""
    value = _tolerance(text)
    if value >= 1:
        raise argparse.ArgumentTypeError(f"must be below 1, got {text!r}")
    return value


def _int_in(low: int | None, high: int | None):
    """argparse type: an integer within the bounds that are not None."""
    def parse(text: str) -> int:
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _rep(args) -> Representation:
    rep = Representation.parse(args.rep)
    if rep.max_index > MAX_FREQUENCY:
        raise ValueError(f"frequency {rep.max_index} over the budget {MAX_FREQUENCY}")
    return rep


def _poly(args) -> SparsePoly:
    poly = SparsePoly.load_file(args.poly)
    if poly.degree > MAX_POLY_DEGREE:
        raise ValueError(f"degree {poly.degree} over the budget {MAX_POLY_DEGREE}")
    if poly.num_terms > MAX_POLY_TERMS:
        raise ValueError(f"{poly.num_terms} terms over the budget {MAX_POLY_TERMS}")
    return poly


def _fit_tolerances() -> dict:
    return {"sigma_null_factor": secantfit.SIGMA_NULL_FACTOR,
            "gap_ratio_required": secantfit.GAP_RATIO_REQUIRED}


# -- subcommand handlers -------------------------------------------------------


def cmd_curve_info(args) -> Outcome:
    rep = _rep(args)
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
    return Outcome(payload)


def cmd_membership(args) -> Outcome:
    report = toeplitz.membership_report(_parse_point(args.point), tol=args.tol)
    return Outcome(report, {"psd_tol": args.tol})


def cmd_face_dim(args) -> Outcome:
    report = toeplitz.membership_report(_parse_point(args.point), tol=args.tol)
    outside = report["verdict"] == toeplitz.Verdict.OUTSIDE.value
    payload = ({"error": "point is outside the orbitope"} if outside
               else {"face_dimension": report["face_dimension"]})
    return Outcome(payload, {"psd_tol": args.tol}, not outside)


def _pq_from_rep(args) -> faces4d.PQData:
    rep = _rep(args)
    if rep.r != 2:
        raise ValueError(f"need a coprime frequency pair p,q, got {rep}")
    return faces4d.pq_data(*rep.indices)


def cmd_faces(args) -> Outcome:
    pq = _pq_from_rep(args)
    payload: dict = {
        "p": pq.p, "q": pq.q, "k": pq.k, "ell": pq.ell,
        "gap_intervals": [[str(a), str(b)] for a, b in pq.intervals],
        "boundary_components": faces4d.boundary_components(pq.p, pq.q),
    }
    if args.edge:
        s, t = map(_fraction, _two_fields(args.edge, "--edge", "s,t"))
        payload["query"] = {"kind": "edge", "s": str(s), "t": str(t),
                            "is_edge": faces4d.is_edge(pq, s, t)}
    if args.polygon:
        which, t = _two_fields(args.polygon, "--polygon", "which,t")
        try:
            which = int(which)
        except ValueError:
            raise ValueError(f"--polygon takes which,t with an integer which, "
                             f"got {args.polygon!r}") from None
        payload["query"] = faces4d.polygon_faces(pq, which, _fraction(t))
    if args.vertex is not None:
        payload["query"] = {"kind": "vertex",
                            "parameter": args.vertex,
                            "point": list(faces4d.z_point(pq, _fraction(args.vertex)))}
    return Outcome(payload)


def cmd_boundary(args) -> Outcome:
    pq = _pq_from_rep(args)
    return Outcome({
        "boundary_components": faces4d.boundary_components(pq.p, pq.q),
        "closure_of_gaps_is_unit_interval": faces4d.closure_is_unit_interval(pq),
        **faces4d.is_basic_closed_4d(pq.p, pq.q),
    })


def cmd_secant_fit(args) -> Outcome:
    rep = _rep(args)
    size = math.comb(rep.ambient_dim + max(args.degree, 0), rep.ambient_dim)
    if size > MAX_BASIS_SIZE[args.mode]:
        raise ValueError(f"degree {args.degree} needs {size} monomials, over the "
                         f"{args.mode} budget {MAX_BASIS_SIZE[args.mode]}")
    mode = CoeffMode.RATIONAL if args.mode == "exact" else CoeffMode.FLOAT
    fit = secantfit.fit_hypersurface(rep, r=args.r, degree=args.degree,
                                     count=args.count, seed=args.seed, mode=mode)
    # one held-out draw serves every polynomial of the fit
    points = secantfit.sample_secants(rep, args.r, 2000, args.seed + 1)
    residuals = []
    for p in fit.polynomials:
        scaled = p.to_float()
        top = max(abs(c) for c in scaled.terms.values())
        values = secantfit.evaluate_on_points(scaled.scale(1.0 / top), points)
        residuals.append(float(np.max(np.abs(values))))
    payload = {"fit": fit.report,
               "held_out_residuals": residuals,
               "polynomials": fit.polynomials}
    files = {f"nullspace_{i}.poly": p.dumps() for i, p in enumerate(fit.polynomials)}
    # an exact kernel whose nullity bound is not met proves nothing
    return Outcome(payload, _fit_tolerances(),
                   fit.report.get("certified") is not False, files)


def cmd_verify(args) -> Outcome:
    rep = _rep(args)
    poly = _poly(args)
    # secant coordinates lie in [-1, 1], so no residual exceeds the sum of
    # the absolute coefficients; below this bound it is a finite float
    bound = sys.float_info.max / 2
    if sum(abs(Fraction(c)) for c in poly.terms.values()) > bound:
        raise ValueError(f"the absolute coefficients sum to more than the "
                         f"budget {bound!r}")
    mode = CoeffMode.RATIONAL if args.mode == "exact" else CoeffMode.FLOAT
    if mode is CoeffMode.FLOAT:
        poly = poly.to_float()
    try:
        residual = float(secantfit.verify_vanishing(
            poly, rep, r=args.r, count=args.count, seed=args.seed, mode=mode))
    except secantfit.InsufficientSamplesError as exc:  # no residual
        raise ValueError(f"{exc}; lower --count") from None
    ok = residual <= args.tol
    return Outcome({"max_residual": residual, "passed": ok},
                   {"residual_tol": args.tol}, ok)


def cmd_rationalize(args) -> Outcome:
    poly = _poly(args).to_float()
    try:
        anchor = tuple(int(tok) for tok in args.anchor.split(","))
    except ValueError:
        raise ValueError(f"--anchor takes comma-separated integer exponents, "
                         f"got {args.anchor!r}") from None
    result, dist = secantfit.rationalize(poly, anchor, _fraction(args.anchor_value))
    payload = {"terms": result.num_terms, "degree": result.degree,
               "max_rounding_distance": dist,
               "polynomial": result}
    return Outcome(payload, files={"rationalized.poly": result.dumps()})


def cmd_bn_top_face(args) -> Outcome:
    return Outcome(bnorbit.top_face(args.n, args.theta),
                   {"exclusion": bnorbit.TOP_FACE_EXCLUSION})


def cmd_bn_certify_face(args) -> Outcome:
    params = [float(_fraction(tok)) for tok in args.params.split(",")]
    cert = bnorbit.certify_face(args.n, params, grid=args.grid)
    payload = ({"status": "no-certificate",
                "note": "no exposing hyperplane found"}
               if cert is None else {"status": "certified", **cert.to_json()})
    tolerances = {"interpolation_tol": bnorbit.INTERPOLATION_TOL,
                  "slack_tol": bnorbit.SLACK_TOL,
                  "margin_floor": bnorbit.MARGIN_FLOOR}
    return Outcome(payload, tolerances, cert is not None)


def cmd_bn_witness(args) -> Outcome:
    report = bnorbit.not_basic_witness(args.n)
    return Outcome(report, passed=report["accepted"])


def cmd_bn_slice(args) -> Outcome:
    report, rows = bnorbit.slice_b4()
    ok = (report["secant_factorization_exact"]
          and report["circle_factorization_exact"])
    csv = "".join(f"{name},{x!r},{z!r},{tag}\n" for name, x, z, tag in rows)
    return Outcome(report, passed=ok,
                   files={"slice_series.csv": "series,x,z,tag\n" + csv})


# -- parser wiring --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbitopes", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep=False, seed=True):
        if rep:
            p.add_argument("--rep", required=True,
                           help="comma-separated frequency list, e.g. 1,3")
        if seed:
            p.add_argument("--seed", type=_int_in(0, None), default=0)
        p.add_argument("--out", help="directory for report/output files")

    p = sub.add_parser("curve-info", help="degree/smoothness of the orbit curve")
    common(p, rep=True)
    p.add_argument("--probe", action="store_true",
                   help="also run the numeric degree probe")
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("membership", help="PSD-Toeplitz membership of a point")
    common(p, seed=False)
    p.add_argument("--tol", type=_psd_tolerance, default=toeplitz.DEFAULT_TOL)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("face-dim", help="face dimension of a boundary point")
    common(p, seed=False)
    p.add_argument("--tol", type=_psd_tolerance, default=toeplitz.DEFAULT_TOL)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_face_dim)

    p = sub.add_parser("faces", help="classify faces of a 4-dimensional body")
    common(p, rep=True, seed=False)
    query = p.add_mutually_exclusive_group()
    query.add_argument("--edge", help="s,t arc parameters of a segment query")
    query.add_argument("--polygon", help="which,t polygon query (which in {p,q})")
    query.add_argument("--vertex", help="t parameter of a vertex query")
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
    p.add_argument("--count", type=_int_in(1, MAX_SAMPLES),
                   help="sample count (default: 2.5x basis in float mode, "
                        "2.5x the widest weight-block half in exact mode)")
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.set_defaults(func=cmd_secant_fit)

    p = sub.add_parser("verify", help="max residual of a polynomial on fresh "
                                      "secant samples")
    common(p, rep=True)
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count", type=_int_in(1, MAX_SAMPLES), default=10000)
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
    p.add_argument("--n", type=_int_in(None, MAX_N), required=True)
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_bn_top_face)

    p = bn_sub.add_parser("certify-face", help="search for an exposing "
                                               "hyperplane certificate")
    common(p, seed=False)
    p.add_argument("--n", type=_int_in(None, MAX_N), required=True)
    p.add_argument("--params", required=True,
                   help="comma-separated curve angles")
    p.add_argument("--grid", type=_int_in(1, None), default=2048)
    p.set_defaults(func=cmd_bn_certify_face)

    p = bn_sub.add_parser("witness", help="full not-basic-closed witness")
    common(p, seed=False)
    p.add_argument("--n", type=_int_in(None, MAX_N), required=True)
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
        try:
            outcome = args.func(args)
        except secantfit.FitError as exc:  # a failed verdict, with diagnostics
            print(f"error: {exc}", file=sys.stderr)
            outcome = Outcome({"error": str(exc), "fit": exc.report},
                              _fit_tolerances(), passed=False)
        config = {k: v for k, v in sorted(vars(args).items())
                  if k != "func" and v is not None}
        report = {"version": __version__, "config": config,
                  "tolerances": outcome.tolerances, **outcome.payload}
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=_json_default, allow_nan=False)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, content in {"report.json": text + "\n",
                                  **outcome.files}.items():
                (out / name).write_text(content)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return EXIT_OK if outcome.passed else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
