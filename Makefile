PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

JOBS ?= 1
BENCH_OUT ?= BENCH_compile.json
APP ?= ocean
REPORT_OUT ?= report.json
COV_MIN ?= 80
SERVE_OUT_DIR ?= out/serve

.PHONY: test lint cov check bench bench-smoke bench-regression quick report \
	report-smoke faults-demo docs-check examples-smoke serve-smoke \
	serve-bench mesh-sweep mesh-sweep-smoke

test:
	$(PYTHON) -m pytest -x -q

# Static checks (requires ruff, part of the [dev] extra; config in pyproject).
lint:
	$(PYTHON) -m ruff check src tests

# Coverage gate (requires pytest-cov): fails under COV_MIN percent.
cov:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-fail-under=$(COV_MIN)

# Correctness oracles (DESIGN.md section 10): the differential/property
# suite in tests/check/ (including the task-graph replay of the simulator,
# section 15), then smoke pipelines (healthy + degraded) with the runtime
# invariant hooks live via REPRO_CHECK=1.
check:
	$(PYTHON) -m pytest tests/check -q
	REPRO_CHECK=1 $(PYTHON) -m repro.cli report tiny --out report_check.json
	$(PYTHON) -m repro.obs.schema report_check.json
	REPRO_CHECK=1 $(PYTHON) -m repro.cli faults --seed 1 --out report_check_faults.json
	$(PYTHON) -m repro.obs.schema report_check_faults.json

# Time compile (partition/window-search) + simulate per app -> BENCH_compile.json
bench:
	$(PYTHON) -m repro.benchmarks.perf --out $(BENCH_OUT)

# Sub-second harness check on the built-in tiny app (what tier 1 exercises).
# Writes to a scratch file so it never clobbers a real $(BENCH_OUT).
bench-smoke:
	$(PYTHON) -m repro.benchmarks.perf --tiny --out BENCH_smoke.json

# 4-app experiment subset; JOBS>1 prewarms caches across processes
quick:
	$(PYTHON) -m repro.experiments.runner --quick --jobs $(JOBS)

# Machine-readable compile report for one app (schema: src/repro/obs/schema.py)
report:
	$(PYTHON) -m repro.cli report $(APP) --out $(REPORT_OUT)
	$(PYTHON) -m repro.obs.schema $(REPORT_OUT)

# Sub-second report on the built-in tiny app, then schema-validate it.
report-smoke:
	$(PYTHON) -m repro.cli report tiny --out report_smoke.json --trace trace_smoke.jsonl
	$(PYTHON) -m repro.obs.schema report_smoke.json

# CI's bench-regression gate: measure the smoke subset, compare vs the
# committed baseline with a generous wall-time tolerance.
bench-regression:
	$(PYTHON) -m repro.benchmarks.perf --smoke --out BENCH_fresh.json
	$(PYTHON) -m repro.benchmarks.regression --baseline $(BENCH_OUT) --fresh BENCH_fresh.json

# Documentation gate: markdown link check over the checked documents +
# docstring-coverage gate for repro.core (tools/check_docs.py, stdlib only).
docs-check:
	$(PYTHON) tools/check_docs.py

# Every example script must run to completion (examples are executable docs).
examples-smoke:
	@set -e; for ex in examples/*.py; do \
		echo "== $$ex"; $(PYTHON) $$ex > /dev/null; \
	done; echo "examples-smoke: ok"

# CI's serve-smoke gate: spawn a daemon, drive 1000 requests (200 unique
# cold + 800 warm repeats) through 50 concurrent clients, then assert a
# >= 90% warm cache hit rate, byte-identity between a cached artifact and
# a fresh in-process compile, and a clean SIGTERM drain.  All outputs
# (BENCH_serve_fresh.json, serve_trace.jsonl, the scratch cache) land
# under $(SERVE_OUT_DIR) — never the repo root — then the fresh numbers
# are compared against the committed BENCH_serve.json baseline.
serve-smoke:
	$(PYTHON) -m repro.serve.loadgen --spawn \
		--requests 1000 --unique 200 --clients 50 --workers 2 \
		--out-dir $(SERVE_OUT_DIR) \
		--trace serve_trace.jsonl --out BENCH_serve_fresh.json \
		--assert-warm-hit-rate 0.9 --verify-identity
	$(PYTHON) -m repro.benchmarks.regression \
		--serve-baseline BENCH_serve.json \
		--serve-fresh $(SERVE_OUT_DIR)/BENCH_serve_fresh.json

# Refresh the committed serve baseline (run on a quiet machine).  The
# baseline itself is committed, so it stays at the repo root; the
# scratch cache still routes under $(SERVE_OUT_DIR).
serve-bench:
	$(PYTHON) -m repro.serve.loadgen --spawn \
		--requests 1000 --unique 200 --clients 50 --workers 2 \
		--out-dir $(SERVE_OUT_DIR) \
		--out $(CURDIR)/BENCH_serve.json \
		--assert-warm-hit-rate 0.9 --verify-identity

# CI's mesh-sweep gate: time the flat vs hierarchical placement searches
# over paper + DAMOV-generated workloads at 6x6/12x12/16x16, write the
# crossover report, and compare against the committed BENCH_mesh.json
# baseline (deterministic fields exactly, timings by ratio).
mesh-sweep-smoke:
	$(PYTHON) -m repro.experiments.mesh_sweep --smoke --out BENCH_mesh_fresh.json
	$(PYTHON) -m repro.benchmarks.regression \
		--mesh-baseline BENCH_mesh.json --mesh-fresh BENCH_mesh_fresh.json

# Refresh the committed mesh-sweep baseline (run on a quiet machine).
mesh-sweep:
	$(PYTHON) -m repro.experiments.mesh_sweep --out BENCH_mesh.json

# Fault-injection demo: seeded random plan -> degraded run -> detour heatmap.
faults-demo:
	$(PYTHON) -m repro.cli faults --plan-out fault_plan_demo.json --out report_faults_demo.json
	$(PYTHON) -m repro.obs.schema report_faults_demo.json
