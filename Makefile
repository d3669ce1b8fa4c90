PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

JOBS ?= 1
APP ?= ocean
REPORT_OUT ?= report.json
COV_MIN ?= 80
SERVE_OUT_DIR ?= out/serve

.PHONY: test lint cov check quick report report-smoke faults-demo docs-check \
	examples-smoke serve-smoke

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
# a fresh in-process compile, and a clean SIGTERM drain.  Its outputs
# (serve_trace.jsonl, the scratch cache) land under $(SERVE_OUT_DIR) —
# never the repo root.  Serve latency and throughput are measured by
# bench/ (the serve-mixed workload), not here.
serve-smoke:
	$(PYTHON) -m repro.serve.loadgen --spawn \
		--requests 1000 --unique 200 --clients 50 --workers 2 \
		--out-dir $(SERVE_OUT_DIR) --trace serve_trace.jsonl \
		--assert-warm-hit-rate 0.9 --verify-identity

# Fault-injection demo: seeded random plan -> degraded run -> detour heatmap.
faults-demo:
	$(PYTHON) -m repro.cli faults --plan-out fault_plan_demo.json --out report_faults_demo.json
	$(PYTHON) -m repro.obs.schema report_faults_demo.json
