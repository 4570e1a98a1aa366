"""One benchmark run in one process.

Started by ``run.py`` with the checkout root as working directory and the
checkout's ``src`` first on ``PYTHONPATH``.  The worker imports the
package, generates the workload from the seed, prints ``READY`` (the end of
set-up) and, unless ``--setup-only`` is given, runs passes over the
workload until ``--seconds`` are used up.  Its last line of output is one
JSON object with the op counts, the metrics and run details.

With ``--trace 0`` every pass runs the package unpatched.  With
``--trace 1`` untraced and traced passes alternate; traced passes wrap the
functions in ``TRACE_TARGETS`` and give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import orbitopes
import spans
import workloads

WORK_DIR = Path(".perfbench") / "work"
STATE_DIR = Path(".perfbench") / "state"
LAST_PASS_START_S = 100.0   # no pass starts later than this into the run

TRACE_TARGETS: dict[str, spans.Summarizer | None] = {
    "cli.main": None,
    "secantfit.fit_hypersurface": lambda fit: fit.report,
    "secantfit.sample_secants": len,
    "secantfit.verify_vanishing": None,
    "secantfit.rationalize": None,
    "exactla.nullspace_exact": None,
    "exactla.nullspace_modular": lambda result: len(result[1]["primes"]),
    "exactla.rref_mod_p": None,
    "exactla.nullspace_bareiss": None,
    "exactla.exact_rank": None,
    "curve.orbit_points": None,
    "curve.rational_point": None,
    "lp.simplex_minimize": lambda result: result.ok,
    "lp.gauge": None,
    "lp.max_min_slack": None,
    "bnorbit.slice_b4": None,
    "bnorbit.certify_exposed_face": lambda cert: cert is not None,
    "toeplitz.is_member": None,
    "faces4d.is_edge": None,
    "poly.SparsePoly.evaluate": None,
    "poly.SparsePoly.dumps": None,
    "poly.SparsePoly.loads": None,
}

DERIVED_UNITS = {
    "secantfit.basis_size": "count",
    "secantfit.sample_count": "count",
    "secantfit.nullity": "count",
    "secantfit.gap_ratio": "ratio",
    "secantfit.matrix_bytes_computed": "bytes",
    "secantfit.sample_accept_ratio": "ratio",
    "exactla.prime_yield": "ratio",
    "lp.optimal_ratio": "ratio",
    "bnorbit.certified_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}

# The median op latency is reported in the run details only: on fit-exact
# it is the latency of short pure-Python Fraction ops, which on a shared
# 2-vCPU host swings by a third between runs.
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "op_p95_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric a traced run reports."""
    units = {}
    for name in TRACE_TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class OpTimeout(BaseException):
    """An operation ran past its time limit.

    A BaseException, so that no ``except Exception`` inside the package
    can swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"exceeded its {seconds:g} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failures: list[str]
    layers: dict[str, float] | None


def run_op(op: workloads.Op, digest_key: str, digests: dict[str, str],
           latencies: list[float]) -> str | None:
    """Run, time and check one operation; returns why it failed, or None.

    ``digests`` holds the report digest first seen for each operation; a
    later report that differs fails."""
    began = time.perf_counter()
    try:
        with time_limit(op.limit_s):
            result = op.execute()
    except OpTimeout as exc:
        return str(exc)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        latencies.append(time.perf_counter() - began)
    try:
        problems = op.check(result)
        digest = hashlib.sha256(op.report(result).encode()).hexdigest()
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    if problems:
        return "; ".join(problems)
    if digests.setdefault(digest_key, digest) != digest:
        return "report differs from an earlier run with the same seed"
    return None


def run_pass(workload: workloads.Workload, digests: dict[str, str],
             tracer: spans.Tracer | None = None) -> PassResult:
    workload.reset()
    latencies: list[float] = []
    failures: list[str] = []
    if tracer is not None:
        tracer.install(TRACE_TARGETS)
    start = time.perf_counter()
    try:
        for index, op in enumerate(workload.ops):
            problem = run_op(op, str(index), digests, latencies)
            if problem is not None:
                failures.append(f"{op.name}: {problem}")
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    layers = layer_metrics(tracer.take()) if tracer is not None else None
    return PassResult(tracer is not None, wall, latencies, len(workload.ops),
                      failures, layers)


def layer_metrics(recorded: list[spans.Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = spans.layer_stats(recorded)
    out: dict[str, float] = {}
    for name in TRACE_TARGETS:
        entry = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in ("calls", "total_s", "self_s"):
            out[f"{name}.{field}"] = entry[field]

    def named(name):
        return [s for s in recorded if s.name == name and s.info is not None]

    # Fit counts and decisions come from the largest fit of the pass; the
    # gap ratio is the smallest over float fits, the one nearest to failing.
    fits = [s.info for s in named("secantfit.fit_hypersurface")]
    largest = max(fits, key=lambda report: report["basis_size"], default=None)
    for key in ("basis_size", "sample_count", "nullity"):
        out[f"secantfit.{key}"] = largest[key] if largest else 0
    out["secantfit.matrix_bytes_computed"] = (
        largest["basis_size"] * largest["sample_count"] * 8 if largest else 0)
    gaps = [report["gap_ratio"] for report in fits if "gap_ratio" in report]
    out["secantfit.gap_ratio"] = min(gaps) if gaps else 0.0

    # One attempt of the float sampler evaluates orbit_points once, one of
    # the exact sampler runs exact_rank once (repeated parameters are
    # rejected before either and are not seen from outside).
    samplers = {i for i, s in enumerate(recorded)
                if s.name == "secantfit.sample_secants"}
    attempts = sum(1 for s in recorded if s.parent in samplers
                   and s.name in ("curve.orbit_points", "exactla.exact_rank"))
    kept = sum(s.info for s in named("secantfit.sample_secants"))
    out["secantfit.sample_accept_ratio"] = kept / attempts if attempts else 0.0

    modular = {i for i, s in enumerate(recorded)
               if s.name == "exactla.nullspace_modular"}
    tried = sum(1 for s in recorded
                if s.name == "exactla.rref_mod_p" and s.parent in modular)
    primes_kept = sum(s.info for s in named("exactla.nullspace_modular"))
    out["exactla.prime_yield"] = primes_kept / tried if tried else 0.0

    def share(name):
        outcomes = [s.info for s in named(name)]
        return sum(outcomes) / len(outcomes) if outcomes else 0.0

    out["lp.optimal_ratio"] = share("lp.simplex_minimize")
    out["bnorbit.certified_ratio"] = share("bnorbit.certify_exposed_face")
    return out


def source_digest() -> str:
    """Digest of the package sources, so stored report digests are only
    compared between runs of the same code."""
    package = Path(orbitopes.__file__).parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def state_file(args, workload: workloads.Workload) -> Path:
    h = hashlib.sha256()
    for part in (args.workload, str(args.seed), workload.signature(),
                 source_digest(), np.__version__,
                 os.environ.get("OPENBLAS_NUM_THREADS", "")):
        h.update(part.encode() + b"\0")
    return STATE_DIR / f"{args.workload}-{h.hexdigest()[:24]}.json"


def save_digests(path: Path, digests: dict[str, str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True))
    os.replace(tmp, path)


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def summarize(args, workload: workloads.Workload,
              passes: list[PassResult]) -> dict:
    timed = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    share, keyed = workload.repeat_share()
    latencies_ms = [1000.0 * t for p in timed for t in p.latencies_s]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name(),
        "ops_per_pass": len(workload.ops),
        "keyed_ops_per_pass": keyed,
        "repeat_share": share,
        "untraced_passes": len(timed),
        "traced_passes": len(traced),
        "op_latency_samples": len(latencies_ms),
        "op_p50_ms": float(np.percentile(latencies_ms, 50)),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if args.trace:
        units = per_layer_units()
        metrics = {name: statistics.median(p.layers[name] for p in traced)
                   for name in units if name != "trace_overhead_ratio"}
        metrics["trace_overhead_ratio"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in timed))
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_p95_ms": float(np.percentile(latencies_ms, 95)),
        }
        units = END_TO_END_UNITS
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "detail": detail,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR / args.workload)
    digest_path = state_file(args, workload)
    digests = json.loads(digest_path.read_text()) if digest_path.exists() else {}
    # The first threaded LAPACK call of a process can stall for about a
    # second; one small SVD here keeps that stall out of the first timed op.
    np.linalg.svd(np.random.default_rng(0).random((128, 128)))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    passes: list[PassResult] = []
    clock = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, digests, tracer if traced else None))
        elapsed = time.perf_counter() - clock
        if tracer is not None and len(passes) < 2:
            continue
        # Another pass starts only if it should end within half a pass of
        # the measuring time.
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical / 2 > args.seconds or elapsed > LAST_PASS_START_S:
            break
    shutil.rmtree(workload.workdir, ignore_errors=True)
    save_digests(digest_path, digests)

    result = summarize(args, workload, passes)
    for failure in result["detail"]["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
