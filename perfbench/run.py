#!/usr/bin/env python3
"""Benchmark of the hybrid CS ECG codec: end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_fig7 --seed 0 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and built in
``perfbench/workloads.py``.  With ``--trace 0`` the run measures the
end-to-end metrics with no tracing installed.  With ``--trace 1`` it runs
the same timed region twice, each for half the time, first untraced and
then with the span tracer of ``perfbench/spans.py`` installed, and
reports the per-layer metrics; the busy time per window of the two
halves gives the tracing overhead.  A traced run is correct only if every
patch point was found and the layers' self times cover at least 90% of
the traced busy time.

``setup_s`` is the median set-up time of three fresh processes: this one
and two more started with ``--setup-only``.  It counts importing the
package, because a new process pays that too.

Human-readable lines go first (machine fingerprint, failure accounting,
check results, every metric with its unit); the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any exception exits non-zero before that
line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3


def pin_blas_threads() -> int:
    """Cap every BLAS thread pool at the usable core count (before numpy)."""
    cores = len(os.sched_getaffinity(0))
    threads = cores
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def fingerprint(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs (the smoke tests)"
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up, print it as JSON and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


def timed_setup(args):
    """Import the package and set the workload up; the caller is a fresh process.

    Returns the workload, the seconds it took (imports included: a fresh
    process pays them) and the set-up layer times.
    """
    start = time.perf_counter()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, tiny=args.tiny)
    workload.setup()
    return workload, time.perf_counter() - start, dict(workload.setup_layers)


def setup_in_fresh_process(argv) -> tuple:
    """One more ``timed_setup`` in a new interpreter: (seconds, layers)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["layers"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    # Every run really solves: the sweep disk cache stays off.
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    workload, setup_s, layers = timed_setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "layers": layers}))
        return 0
    # Users pay set-up once per process, so every sample is a new one.
    setups = [(setup_s, layers)] + [
        setup_in_fresh_process(argv) for _ in range(0 if args.tiny else SETUP_REPEATS - 1)
    ]
    setup_times = [t for t, _ in setups]
    setup_layers = {k: statistics.median(l[k] for _, l in setups) for k in layers}

    import report
    from spans import Tracer

    checks = {}
    if args.trace:
        base = workload.measure(args.seconds / 2)
        tracer = Tracer()
        meas = workload.measure(args.seconds / 2, tracer)
        metrics = report.per_layer(base, meas, tracer, setup_layers)
        if tracer.missing:
            print("# patch points not found: " + " ".join(tracer.missing))
        checks["trace_patch_points_found"] = not tracer.missing
        coverage = metrics["bench.trace_coverage"]["value"]
        checks["trace_layers_add_up_within_10pct"] = 0.9 <= coverage <= 1.0 + 1e-9
    else:
        meas = workload.measure(args.seconds)
        metrics = report.end_to_end(meas, statistics.median(setup_times), peak_rss_mb())
    checks.update(workload.checks())

    print("# machine " + json.dumps(fingerprint(blas_threads), sort_keys=True))
    print(
        f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}: {meas.windows} windows, {meas.attempted} attempted, "
        f"{meas.failed} failed, {len(meas.latencies_s)} latency samples, "
        f"set-up in fresh processes {', '.join(f'{t:.3f}' for t in setup_times)} s"
    )
    if meas.pass_rates:
        rates = sorted(meas.pass_rates)
        print(
            f"# {len(rates)} passes, windows/s per pass "
            + " ".join(f"{r:.4g}" for r in rates)
        )
    if meas.counters:
        print("# counters " + json.dumps(meas.counters, sort_keys=True))
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "attempted": int(meas.attempted),
                "failed": int(meas.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
