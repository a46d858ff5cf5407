"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``).

* every workload runs at its tiny size, passes its checks, and prints
  exactly the metric names and units ``BENCHMARK.json`` declares;
* a traced run's layer self times add up to within 10% of the traced
  wall time (the coverage test), every patch point still resolves, and
  coverage falls below 90% when a layer loses its span;
* ``BENCHMARK.json`` keeps to the benchmark contract;
* without the package sources the command fails without a result.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Tiny runs are short, but the gateway's first window is only due after
#: one window period (≈1.42 s), so it gets a few periods.
SECONDS = {"gateway_realtime": 5}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds=None):
    seconds = seconds or SECONDS.get(workload, 1) * (2 if trace else 1)
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    return result


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_metric_names(workload):
    result = result_of(run_bench(workload, trace=0))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up_to_wall_time(workload):
    result = result_of(run_bench(workload, trace=1))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    coverage = metrics["bench.trace_coverage"]["value"]
    assert 0.9 <= coverage <= 1.0 + 1e-9, coverage


def bench_module(name: str):
    """Import one of the benchmark's modules (they run with ``src`` on the path)."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module(name)


def test_every_patch_point_resolves():
    # The package is imported as the benchmark imports it: through workloads.
    bench_module("workloads")
    spans = bench_module("spans")
    tracer = spans.Tracer().install()
    tracer.remove()
    assert tracer.missing == []


def test_coverage_falls_when_a_layer_loses_its_span():
    spans = bench_module("spans")
    workload = bench_module("workloads").WORKLOADS["sweep_fig7"](1, 1.0, tiny=True)
    workload.setup()

    def coverage(tracer):
        meas = workload.measure(1.0, tracer)
        return tracer.covered_s / meas.busy_s

    assert coverage(spans.Tracer()) >= 0.9
    # Unwrapped, solve_hybrid's time lands in the receiver's self time.
    points = [p for p in spans.PATCH_POINTS if p[2] != "recovery.hybrid"]
    assert coverage(spans.Tracer(points)) < 0.9


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"][1] == "perfbench/run.py"
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 12) < 3420
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower")
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path, seconds=1)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
