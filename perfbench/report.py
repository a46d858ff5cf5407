"""Turn a :class:`~workloads.Measurement` and its spans into named metrics.

Names and units come from ``BENCHMARK.json``, and every workload reports
every metric declared there.  A layer a workload never calls reports
zero work for it (for example ``recovery.bsbl-dequant.*`` on
``sweep_fig7``).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict

import numpy as np

from repro.recovery.opcache import PROBLEM_CACHE
from spans import Tracer
from workloads import Measurement

__all__ = ["END_TO_END", "PER_LAYER", "RECOVERY_METHODS", "end_to_end", "per_layer"]

RECOVERY_METHODS = ("hybrid", "normal", "bsbl-dequant")

#: The metric declarations, the benchmark's single source of names and units.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: name -> unit of the end-to-end metrics (tracing off).
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: name -> unit of the per-layer metrics (traced run).
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _named(values: Dict[str, float], units: Dict[str, str]) -> dict:
    """``values`` as metric objects; they must be exactly the declared ones."""
    if set(values) != set(units):
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def end_to_end(meas: Measurement, setup_s: float, peak_rss_mb: float) -> dict:
    """The user-visible metrics of one untraced timed region."""
    lat_ms = 1e3 * np.asarray(meas.latencies_s)
    values = {
        "windows_per_s": meas.windows_per_s,
        "prd_mean_pct": statistics.fmean(meas.prds),
        "net_cr_pct": meas.net_cr_pct,
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p95_ms": float(np.percentile(lat_ms, 95)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return _named(values, END_TO_END)


def per_layer(
    base: Measurement, traced: Measurement, tracer: Tracer, setup_layers: dict
) -> dict:
    """Per-layer metrics of a traced region, against its untraced twin."""
    st = tracer.stat
    windows = max(traced.windows, 1)
    counters = traced.counters
    sent = counters.get("sent", 0)

    def ms_per_window(seconds: float) -> float:
        return 1e3 * seconds / windows

    cache = PROBLEM_CACHE.stats()
    values = {
        "signals.synth_s": setup_layers["signals.synth_s"],
        "core.codebook_build_s": setup_layers["core.codebook_build_s"],
        "recovery.opcache_hit_fraction": _ratio(
            cache["hits"], cache["hits"] + cache["misses"]
        ),
    }
    for method in RECOVERY_METHODS:
        s = st(f"recovery.{method}")
        prefix = f"recovery.{method}."
        values[prefix + "solve_ms_per_window"] = 1e3 * _ratio(s.total_s, s.calls)
        values[prefix + "iterations_per_window"] = _ratio(s.iterations, s.calls)
        values[prefix + "us_per_iteration"] = 1e6 * _ratio(s.total_s, s.iterations)
        values[prefix + "unconverged_fraction"] = _ratio(s.unconverged, s.calls)
    busy = traced.busy_s
    values.update(
        {
            "core.receiver.decode_ms_per_window": ms_per_window(
                st("core.receiver.decode_measurements").total_s
                + st("core.receiver.decode_lowres").total_s
            ),
            "core.receiver.reconstruct_self_ms_per_window": ms_per_window(
                st("core.receiver.reconstruct").self_s
            ),
            "core.encode.measure_ms_per_window": ms_per_window(
                st("core.encode.measure").self_s
            ),
            "coding.huffman_encode_ms_per_window": ms_per_window(
                st("coding.huffman_encode").self_s
            ),
            "core.packet_to_bytes_ms_per_window": ms_per_window(
                st("core.packet_to_bytes").self_s
            ),
            "core.channel.transmit_ms_per_frame": 1e3
            * _ratio(st("core.channel.transmit").self_s, st("core.channel.transmit").calls),
            "stream.wire_encode_ms_per_frame": 1e3
            * _ratio(st("stream.wire_encode").self_s, st("stream.wire_encode").calls),
            "stream.wire_decode_ms_per_frame": 1e3
            * _ratio(st("stream.wire_decode").self_s, st("stream.wire_decode").calls),
            "stream.ingest_push_ms_per_window": ms_per_window(
                st("stream.ingest_push").self_s
            ),
            "runtime.encode_stage_self_ms_per_window": ms_per_window(
                st("runtime.stages.encode").self_s
            ),
            "runtime.overhead_ms_per_window": ms_per_window(st("runtime.engine").self_s),
            "metrics.score_ms_per_window": ms_per_window(
                st("runtime.stages.score").self_s + st("metrics.prd").self_s
            ),
            "stream.submit_us_per_frame": 1e6
            * _ratio(st("stream.submit").total_s, st("stream.submit").calls),
            "stream.poll_self_ms_per_window": ms_per_window(st("stream.poll").self_s),
            "stream.windows_per_poll": _ratio(
                traced.windows, counters.get("productive_polls", 0)
            ),
            "stream.queue_wait_ms_p95": 1e3 * counters.get("queue_wait_p95_s", 0.0),
            "stream.busy_fraction": _ratio(counters.get("poll_s", 0.0), traced.wall_s),
            "stream.concealed_fraction": _ratio(counters.get("concealed", 0), sent),
            "stream.fallback_fraction": _ratio(counters.get("fallbacks", 0), sent),
            "stream.shed_fraction": _ratio(counters.get("shed", 0), sent),
            "bench.generator_lag_ms_p95": 1e3 * counters.get("generator_lag_p95_s", 0.0),
            "bench.untraced_ms_per_window": ms_per_window(busy - tracer.covered_s),
            "bench.trace_coverage": _ratio(tracer.covered_s, busy),
            "bench.trace_overhead_pct": 100.0
            * (
                _ratio(busy, traced.windows)
                / _ratio(base.busy_s, base.windows)
                - 1.0
            ),
        }
    )
    return _named(values, PER_LAYER)
