# Developer entry points (see CONTRIBUTING.md).

PYTHON ?= python

.PHONY: install test test-fast test-cov lint bench bench-full perfbench loadtest-smoke report examples clean-cache

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Everything except the randomized property suites (hypothesis) — the
# quick local loop; CI always runs the full `test` target.
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not property"

# Full suite under coverage with the fail-under gate from pyproject.toml.
# Gated on pytest-cov being importable so the target degrades gracefully
# in environments without it (the gate still runs in CI).
test-cov:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing; \
	else \
		echo "pytest-cov not installed; running without coverage"; \
		PYTHONPATH=src $(PYTHON) -m pytest tests/; \
	fi

lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli lint src benchmarks/baselines.py examples --strict

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The ROADMAP baseline: one traced perfbench run per workload (about a
# minute each).  Compare against a run of the parent commit on the same
# machine; there is no timing gate because shared machines are too noisy.
PERFBENCH_WORKLOADS = sweep_fig7 bsbl_dequant gateway_realtime

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 0 --seconds 20 --trace 1 || exit 1; \
	done

# Deterministic 200-patient load test against the 2-shard wire-framed
# cluster, cross-checked against a single-process baseline for byte
# identity and throughput; writes benchmarks/results/BENCH_gateway.json
# (rendered by `repro report`, gated in CI).
loadtest-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli loadtest --patients 200 \
		--duration 1.0 --window 128 --measurements 48 --max-iter 300 \
		--chunk 181 --seed 7 --shards 2 --workers 2 \
		--compare-single --output benchmarks/results/BENCH_gateway.json

bench-full:
	PYTHONPATH=src REPRO_BENCH_SCALE=full REPRO_CACHE_DIR=.repro_cache \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	PYTHONPATH=src $(PYTHON) -m repro.cli report --strict

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

clean-cache:
	rm -rf .repro_cache benchmarks/results
