"""Benchmark of the orbitopes package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {fit-float,fit-exact,certify} \\
        --seed N --seconds S --trace {0,1}

The workload runs in one worker process (``worker.py``) against the
checkout's own ``src``, with BLAS threads set explicitly.  The load is
closed-loop: one client runs the operations one after another.  Set-up time
is measured from process start to the worker's ``READY`` line; with
``--trace 0`` it is taken over several worker starts, before and after the
timed worker, and the median is reported.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The line before it records the
environment and run details.  Without the package sources the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fit-float", "fit-exact", "certify")
BLAS_THREADS = 2
SETUP_STARTS = 12           # worker starts whose set-up time is measured
SETUP_STARTS_BEFORE = 5     # of these, the starts before the timed worker
DEADLINE_S = 170.0          # the whole run, set-up starts included


def worker_env() -> tuple[dict[str, str], int, int]:
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, nproc, threads


def run_worker(cmd: list[str], env: dict[str, str],
               timeout: float) -> tuple[float | None, str, int]:
    """Start a worker; returns the seconds until it printed READY (None if
    it never did), the rest of its output and its exit code.  The worker
    is killed if it runs past ``timeout``, and always waited for."""
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - begin if first.strip() == "READY" else None
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    return ready, rest, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbitopes" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src' / 'orbitopes'}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    env, nproc, threads = worker_env()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setup_samples = []

    def measure_setups(count: int) -> bool:
        for _ in range(count):
            ready, _, code = run_worker(cmd + ["--setup-only"], env,
                                        DEADLINE_S - (time.perf_counter() - started))
            if ready is None or code != 0:
                print(f"error: set-up failed (exit code {code})", file=sys.stderr)
                return False
            setup_samples.append(ready)
        return True

    if not args.trace and not measure_setups(SETUP_STARTS_BEFORE):
        return 3
    ready, output, code = run_worker(cmd, env,
                                     DEADLINE_S - (time.perf_counter() - started))
    if ready is None or code != 0 or not output.strip():
        print(f"error: the worker failed (exit code {code})", file=sys.stderr)
        return 3
    setup_samples.append(ready)
    if not args.trace and not measure_setups(SETUP_STARTS - len(setup_samples)):
        return 3
    result = json.loads(output.strip().splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    detail = dict(result["detail"], nproc=nproc, blas_threads=threads,
                  setup_samples=len(setup_samples))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
