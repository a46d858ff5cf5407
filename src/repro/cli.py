"""Command-line interface to the hybrid CS ECG front-end.

The subcommands cover the everyday workflows:

* ``repro synthesize`` — write synthetic database records as WFDB files;
* ``repro compress``   — run a record through a front-end and report the
  per-window quality/compression table (``--workers N`` fans the window
  solves out over processes);
* ``repro stream``     — the multi-patient streaming telemetry gateway:
  N synthetic patients through a lossy link into a ``StreamGateway``,
  with periodic snapshots (see ``docs/streaming.md``);
* ``repro loadtest``   — the deterministic gateway load test: hundreds
  to thousands of interleaved synthetic patients with scripted
  loss/overload phases against the single-process or sharded gateway,
  writing ``BENCH_gateway.json`` (see ``docs/streaming.md``);
* ``repro tradeoff``   — the low-resolution channel design table
  (Figs. 5-6 / Table I in one view);
* ``repro power``      — the Section VI power comparison for a given pair
  of operating points;
* ``repro lint``       — the ``reprolint`` static-analysis pass over the
  source tree (see ``docs/static_analysis.md``).

Installed as ``repro`` via the console-script entry point, also runnable
as ``python -m repro.cli``.  Throughput is measured by ``perfbench/``
(see ``perfbench/README.md``), not by a subcommand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.recovery.methods import method_names

__all__ = ["build_parser", "main"]


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    """The one shared ``--workers`` knob (resolved by executor_from_workers).

    Every subcommand that fans window solves out over processes adds the
    flag through here, so the semantics stay uniform: ``1`` = serial,
    ``0`` = all CPUs, ``N`` = that many worker processes.
    """
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for window solves "
             "(1 = serial, 0 = all CPUs; default 1)",
    )


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.signals.database import (
        MITBIH_RECORD_NAMES,
        load_record,
        load_record_pair,
    )
    from repro.signals.wfdb_io import write_record, write_record_pair

    names = args.records or list(MITBIH_RECORD_NAMES[: args.count])
    out = Path(args.output)
    for name in names:
        if args.two_lead:
            mlii, v5 = load_record_pair(
                name, duration_s=args.duration, clean=args.clean
            )
            hea, dat = write_record_pair(mlii, v5, out)
            print(f"wrote {hea} (2 leads, {len(mlii)} samples each)")
        else:
            record = load_record(
                name, duration_s=args.duration, clean=args.clean
            )
            hea, dat = write_record(record, out)
            print(
                f"wrote {hea} ({len(record)} samples, "
                f"{record.duration_s:.0f} s)"
            )
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.core.config import FrontEndConfig
    from repro.core.pipeline import run_record
    from repro.recovery.pdhg import PdhgSettings
    from repro.runtime.executors import executor_from_workers
    from repro.signals.database import load_record
    from repro.signals.wfdb_io import read_record

    if args.wfdb:
        record = read_record(Path(args.wfdb))
    else:
        record = load_record(args.record, duration_s=args.duration)

    config = FrontEndConfig(
        window_len=args.window,
        n_measurements=args.measurements,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
    )
    outcome = run_record(
        record,
        config,
        method=args.method,
        max_windows=args.max_windows,
        executor=executor_from_workers(args.workers),
    )
    print(
        f"record {record.name} | method {args.method} | "
        f"m={config.n_measurements} (CS CR {config.cs_cr_percent:.1f}%)"
    )
    print(f"{'win':>4} {'PRD %':>8} {'SNR dB':>8} {'net CR %':>9} {'iters':>6}")
    for w in outcome.windows:
        print(
            f"{w.window_index:>4} {w.prd_percent:>8.2f} {w.snr_db:>8.2f} "
            f"{w.budget.net_cr_percent:>9.2f} {w.solver_iterations:>6}"
        )
    print(
        f"mean: PRD {outcome.mean_prd:.2f}% | SNR {outcome.mean_snr_db:.2f} dB | "
        f"net CR {outcome.net_cr_percent:.2f}% | "
        f"low-res overhead {outcome.lowres_overhead_percent:.2f}%"
    )
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.experiments.fig5_fig6_table1 import run_lowres_tradeoff
    from repro.experiments.runner import ExperimentScale

    scale = ExperimentScale(
        record_names=tuple(args.records or ("100", "101", "103")),
        duration_s=args.duration,
        max_windows=None,
    )
    data = run_lowres_tradeoff(
        resolutions=range(args.min_bits, args.max_bits + 1), scale=scale
    )
    print(f"{'bits':>4} {'entries':>8} {'flash B':>8} "
          f"{'bits/smp':>9} {'overhead %':>11}")
    for row in data.rows:
        print(
            f"{row.resolution_bits:>4} {row.codebook_entries:>8} "
            f"{row.storage_bytes:>8} {row.bits_per_sample:>9.2f} "
            f"{row.overhead_percent:>11.2f}"
        )
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.power.comparison import power_gain
    from repro.power.rmpi_power import HybridArchitecture, RmpiArchitecture

    normal = RmpiArchitecture(m=args.m_normal, n=args.window)
    hybrid = HybridArchitecture(
        cs=RmpiArchitecture(m=args.m_hybrid, n=args.window),
        lowres_bits=args.lowres_bits,
    )
    print(f"fs = {args.fs:g} Hz, n = {args.window}")
    for name, arch in (("normal RMPI", normal), ("hybrid CS", hybrid)):
        b = arch.breakdown(args.fs)
        uw = b.as_microwatts()
        print(
            f"  {name:<12} m={arch.m if hasattr(arch, 'm') else arch.cs.m:>4}  "
            f"adc {uw['P[adc]']:.3g} uW | int {uw['P[Int]']:.3g} uW | "
            f"amp {uw['P[amp]']:.3g} uW | total {uw['P[Total]']:.3g} uW"
        )
    gain = power_gain(
        args.m_normal,
        args.m_hybrid,
        fs_hz=args.fs,
        n=args.window,
        lowres_bits=args.lowres_bits,
    )
    print(f"  power gain (normal/hybrid): {gain:.2f}x")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.config import FrontEndConfig
    from repro.recovery.pdhg import PdhgSettings
    from repro.runtime.executors import executor_from_workers
    from repro.stream.driver import StreamScenario, run_stream_scenario

    config = FrontEndConfig(
        window_len=args.window,
        n_measurements=args.measurements,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
    )
    scenario = StreamScenario(
        patients=args.patients,
        duration_s=args.duration,
        config=config,
        method=args.method,
        chunk_size=args.chunk,
        erasure_rate=args.erasure_rate,
        bit_error_rate=args.bit_error_rate,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        shed_policy=args.policy,
        reorder_depth=args.reorder_depth,
        poll_every=args.poll_every,
    )
    print(
        f"streaming {scenario.patients} patients x {scenario.duration_s:g} s "
        f"(erasure {scenario.erasure_rate:.0%}, BER {scenario.bit_error_rate:g}, "
        f"chunk {scenario.chunk_size})"
    )
    final = run_stream_scenario(
        scenario,
        executor=executor_from_workers(args.workers),
        on_snapshot=lambda snap: print(snap.summary_line()),
    )
    print(final.summary_line())
    per_patient_prd = ", ".join(
        f"{s.patient_id}: "
        + (
            f"{s.rolling_prd_percent:.2f}%"
            if s.rolling_prd_percent is not None
            else "-"
        )
        for s in final.per_session
    )
    print(f"rolling PRD by patient: {per_patient_prd}")
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(final.to_json() + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from repro.core.config import FrontEndConfig
    from repro.recovery.pdhg import PdhgSettings
    from repro.stream.loadgen import (
        PHASE_SCRIPTS,
        LoadScenario,
        run_loadtest,
    )

    config = FrontEndConfig(
        window_len=args.window,
        n_measurements=args.measurements,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
    )
    scenario = LoadScenario(
        patients=args.patients,
        duration_s=args.duration,
        config=config,
        method=args.method,
        chunk_size=args.chunk,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        shed_policy=args.policy,
        reorder_depth=args.reorder_depth,
        phases=PHASE_SCRIPTS[args.phases],
    )
    mode = (
        f"{args.shards} shards ({args.transport})"
        if args.shards > 1
        else "single-process"
    )
    print(
        f"loadtest: {scenario.patients} patients x {scenario.duration_s:g} s "
        f"[{args.phases}] against {mode}, policy {scenario.shed_policy}"
    )
    payload = run_loadtest(
        scenario,
        shards=args.shards,
        transport=args.transport,
        workers=args.workers,
        on_progress=print if args.verbose else None,
    )

    if args.compare_single and args.shards > 1:
        # The acceptance cross-check: the sharded runtime must recover
        # byte-identical output, and (given the cores) not run slower.
        baseline = run_loadtest(scenario, shards=1, workers=args.workers)
        payload["baseline_single"] = {
            "wall_s": baseline["wall_s"],
            "frames_per_sec": baseline["frames_per_sec"],
            "recovered_digest": baseline["recovered_digest"],
        }
        payload["identical_to_single"] = (
            payload["recovered_digest"] == baseline["recovered_digest"]
        )
        print(
            f"identity vs single-process: {payload['identical_to_single']} "
            f"(sharded {payload['frames_per_sec']:.1f} fr/s, "
            f"single {baseline['frames_per_sec']:.1f} fr/s)"
        )

    rate = payload["frames_per_sec"]
    rate_txt = f"{rate:.1f} frames/s" if rate is not None else "n/a"
    p99 = payload["latency_p99_s"]
    p99_txt = f"{1e3 * p99:.0f}ms" if p99 is not None else "-"
    print(
        f"completed {payload['windows_completed']} windows ({rate_txt}) | "
        f"p99 {p99_txt} | lost {payload['frames_lost']} "
        f"(drops {payload['queue_drops']} rejects {payload['queue_rejects']} "
        f"shed {payload['shed_frames']}) | "
        f"concealed {payload['concealed']}"
    )
    if payload["per_shard"]:
        balance = ", ".join(
            f"{name}: {stats['sessions']}s/{stats['windows_completed']}w"
            for name, stats in payload["per_shard"].items()
        )
        print(f"per-shard balance: {balance}")
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.reprolint import (
        get_rules,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    try:
        run = run_lint(
            [Path(p) for p in (args.paths or ["src"])],
            select=args.select or None,
            ignore=args.ignore or None,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            changed_base=args.changed,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    render = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.format]
    report = render(run.findings)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"wrote {out}")
    else:
        print(report)
    print(run.summary_line(), file=sys.stderr)
    if run.findings:
        return 1 if args.strict else 0
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report, write_report

    results_dir = Path(args.results)
    if args.output:
        out = write_report(results_dir, Path(args.output))
    else:
        out = write_report(results_dir)
    _, present, expected = build_report(results_dir)
    print(f"wrote {out} ({present}/{expected} artifacts present)")
    return 0 if present == expected or not args.strict else 1


def build_parser() -> argparse.ArgumentParser:
    """The full CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid compressed-sensing ECG front-end (DATE 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write synthetic records as WFDB files")
    p.add_argument("--output", "-o", default="./records", help="output directory")
    p.add_argument("--records", nargs="*", help="record names (default: first N)")
    p.add_argument("--count", type=int, default=4, help="how many records")
    p.add_argument("--duration", type=float, default=60.0, help="seconds per record")
    p.add_argument("--clean", action="store_true", help="disable the noise model")
    p.add_argument("--two-lead", action="store_true",
                   help="write 2-signal records (MLII + V5), like real MIT-BIH")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("compress", help="compress + reconstruct one record")
    p.add_argument("--record", default="100", help="synthetic record name")
    p.add_argument("--wfdb", help="path to a WFDB .hea file (overrides --record)")
    p.add_argument("--method", choices=method_names(), default="hybrid")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--measurements", "-m", type=int, default=96)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--max-windows", type=int, default=4)
    p.add_argument("--max-iter", type=int, default=3000)
    _add_workers_option(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "stream",
        help="online multi-patient streaming demo over a lossy link",
    )
    p.add_argument("--patients", type=int, default=4,
                   help="concurrent synthetic patient streams")
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds of signal per patient")
    p.add_argument("--method", choices=method_names(), default="hybrid")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--measurements", "-m", type=int, default=96)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--chunk", type=int, default=181,
                   help="samples per playback chunk (window-misaligned by "
                        "default to exercise the incremental framer)")
    p.add_argument("--erasure-rate", type=float, default=0.1,
                   help="per-frame packet erasure probability")
    p.add_argument("--bit-error-rate", type=float, default=0.0,
                   help="per-bit flip probability on surviving frames")
    p.add_argument("--seed", type=int, default=0, help="base channel seed")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-session ingress queue bound")
    p.add_argument("--policy", default="drop-oldest",
                   choices=("drop-oldest", "drop-newest", "shed-patient"),
                   help="ingress queue overflow policy (default: drop-oldest)")
    p.add_argument("--reorder-depth", type=int, default=4,
                   help="windows a frame may run ahead before a gap is "
                        "declared lost and concealed")
    p.add_argument("--poll-every", type=int, default=8,
                   help="gateway poll cadence, in playback chunks")
    _add_workers_option(p)
    p.add_argument("--output", "-o",
                   help="also write the final gateway snapshot as JSON")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "loadtest",
        help="deterministic gateway load test; writes BENCH_gateway.json",
    )
    p.add_argument("--patients", type=int, default=200,
                   help="interleaved synthetic patient streams (records "
                        "repeat beyond 48, each under its own identity)")
    p.add_argument("--duration", type=float, default=1.5,
                   help="seconds of signal per patient")
    p.add_argument("--method", choices=method_names(), default="hybrid")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--measurements", "-m", type=int, default=96)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--chunk", type=int, default=181,
                   help="samples per playback chunk")
    p.add_argument("--seed", type=int, default=0, help="base channel seed")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-session ingress queue bound")
    p.add_argument("--policy", default="drop-oldest",
                   choices=("drop-oldest", "drop-newest", "shed-patient"),
                   help="ingress queue overflow policy (default: drop-oldest)")
    p.add_argument("--reorder-depth", type=int, default=4)
    p.add_argument("--phases", default="nominal",
                   choices=("nominal", "stress"),
                   help="scripted load timeline: steady nominal traffic, or "
                        "nominal -> loss -> poll-starved overload")
    p.add_argument("--shards", type=int, default=1,
                   help="gateway shards (1 = single-process StreamGateway)")
    p.add_argument("--transport", default="inproc",
                   choices=("inproc", "wire"),
                   help="sharded ingress transport (wire = length-prefixed "
                        "byte framing; ignored for --shards 1)")
    p.add_argument("--compare-single", action="store_true",
                   help="with --shards > 1, also run single-process and "
                        "record throughput + bit-identity of the output")
    p.add_argument("--verbose", action="store_true",
                   help="print a snapshot line after every gateway poll")
    _add_workers_option(p)
    p.add_argument("--output", "-o",
                   default="benchmarks/results/BENCH_gateway.json",
                   help="where to write the machine-readable result")
    p.set_defaults(func=_cmd_loadtest)

    p = sub.add_parser("tradeoff", help="low-res channel design table")
    p.add_argument("--records", nargs="*", help="training/eval records")
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--min-bits", type=int, default=3)
    p.add_argument("--max-bits", type=int, default=10)
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("report", help="aggregate benchmark artifacts into REPORT.md")
    p.add_argument("--results", default="benchmarks/results",
                   help="directory holding the benchmark artifacts")
    p.add_argument("--output", "-o", help="report path (default: <results>/REPORT.md)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero unless every expected artifact exists")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lint", help="run the reprolint static-analysis pass")
    p.add_argument("paths", nargs="*", help="files/directories (default: src)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="reporter (default: text)")
    p.add_argument("--output", "-o",
                   help="write the report to a file instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any finding remains")
    p.add_argument("--select", nargs="*", metavar="RULE",
                   help="only run these rule ids (e.g. RL001 RL100)")
    p.add_argument("--ignore", nargs="*", metavar="RULE",
                   help="skip these rule ids")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for the per-file pass "
                        "(1 = in-process, 0 = all CPUs)")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="REF",
                   help="report findings only in files changed vs REF "
                        "(default HEAD) plus untracked files; the "
                        "whole-program analysis still sees every file")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-hash result cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default .repro_cache)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("power", help="Section VI power comparison")
    p.add_argument("--m-normal", type=int, default=240)
    p.add_argument("--m-hybrid", type=int, default=96)
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--fs", type=float, default=360.0)
    p.set_defaults(func=_cmd_power)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
