"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import ab  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_covered_child_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        tracer.call("leaf", False, leaf, (2.0,), {})
        tracer.call("leaf", False, leaf, (3.0,), {})
        clock.now += 0.5

    with tracer.span("op"):
        clock.now += 0.25
        tracer.call("middle", True, middle, (), {})

    totals = tracer.totals()
    assert totals.self_s == {"leaf": 5.0, "middle": 1.5, "op": 0.25}
    assert totals.calls == {"leaf": 2, "middle": 1, "op": 1}
    # Self times add up to the outermost span's duration.
    assert sum(totals.self_s.values()) == 6.75
    records = {r["name"]: r for r in tracer.records}
    assert records["middle"]["parent"] == records["op"]["id"]
    assert records["middle"]["rid"] == records["op"]["id"]
    assert "leaf" not in records  # unrecorded frames keep totals only


def test_nested_call_of_the_same_layer_is_one_frame():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        tracer.call("routing", False, inner, (), {})

    tracer.call("routing", False, outer, (), {})
    assert tracer.totals().self_s == {"routing": 2.0}
    assert tracer.totals().calls == {"routing": 1}


def test_install_restores_the_original_callables():
    from repro.noc.routing import Router
    from repro.pipeline.passes import PASS_REGISTRY

    original = Router.__dict__["hops"]
    restore = spans.install(spans.Tracer())
    assert Router.__dict__["hops"] is not original
    assert "run" in vars(PASS_REGISTRY["schedule"])
    restore()
    assert Router.__dict__["hops"] is original
    assert "run" not in vars(PASS_REGISTRY["schedule"])


def test_traced_compile_self_times_reconcile():
    from repro.arch.knl import small_machine
    from repro.benchmarks.perf import tiny_app
    from repro.pipeline import compile_program, session_for

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with tracer.span("compile") as frame:
            compile_program(tiny_app(), session_for(small_machine()))
    finally:
        restore()
    (record,) = [r for r in tracer.records if r["id"] == frame.id]
    totals = tracer.totals()
    assert sum(totals.self_s.values()) == pytest.approx(record["end"] - record["start"])
    assert {"pipeline.schedule", "pipeline.split", "gate.sim"} <= set(totals.self_s)


def test_percentiles_come_with_sample_counts():
    values = list(range(1, 201))
    assert metrics.percentile(values, 0.5) == 100
    assert metrics.percentile(values, 0.95) == 190
    assert metrics.beyond(len(values), 0.95) == 10
    assert metrics.beyond(len(values), 0.99) == 2
    result = {
        "seed": 3,
        "setup_s": [0.3, 0.2, 0.4],
        "e2e": {"latency_ms": [44.0, 200], "throughput": [37.0, 200], "peak_rss_mb": [40.0, 1]},
        "extra": {"p95_ms": [120.0, "ms", 200, 10]},
        "attempted": 200,
        "failed": 0,
    }
    lines = run.report_lines("serve-mixed", result, False)
    assert any(re.search(r"setup_s .* 0\.3 .* n=3$", line) for line in lines)
    assert any(re.search(r"latency_ms .* 44 .* n=200$", line) for line in lines)
    assert any(re.search(r"p95_ms .* n=200 \(10 beyond\)$", line) for line in lines)


def test_serve_mix_is_seeded_blocks_of_repeated_fresh_requests():
    def first(seed, blocks=3):
        return list(itertools.islice(workload.serve_stream(seed), blocks * 200))

    size = workload.SERVE_FRESH * workload.SERVE_SENDS
    stream = first(0)
    for block in range(3):
        chunk = stream[block * size:(block + 1) * size]
        counts = {index: chunk.count(index) for index in set(chunk)}
        assert len(counts) == workload.SERVE_FRESH
        assert set(counts.values()) == {workload.SERVE_SENDS}
    assert len(set(stream)) == 3 * workload.SERVE_FRESH
    assert first(0) == stream
    assert first(1) != stream
    assert sorted(first(1, 1)) != sorted(stream[:size])  # fresh fingerprints per seed


def tiny_build(seed):
    from repro.arch.knl import small_machine
    from repro.benchmarks.perf import tiny_app
    from repro.pipeline import compile_program, session_for

    machine = small_machine()
    session = session_for(machine)
    program = tiny_app()
    return machine, lambda: compile_program(program, session)


def tiny_args(**overrides):
    import argparse
    import time

    values = dict(
        workload="tiny", seed=0, seconds=0.0, launched=time.monotonic(),
        setup_only=False, trace=False, out_dir=".",
    )
    values.update(overrides)
    return argparse.Namespace(**values)


def test_planted_digest_mismatch_fails_the_run(monkeypatch):
    from repro.exec.backend import SimBackend

    machine, compile_fn = tiny_build(0)
    partition = compile_fn()
    machine.mcdram.reset()
    digest = workload.digest(SimBackend().run(machine, partition.units()))
    monkeypatch.setitem(workload.COMPILE_WORKLOADS, "tiny", {"tiny": tiny_build})

    clean = workload.run_compile(tiny_args(), {"tiny": {"0": {"tiny": digest}}})
    assert clean["failed"] == 0 and clean["attempted"] == workload.MIN_OPS
    assert run.summarize({"tiny": clean}, trace=False)[1] == 0

    planted = [digest[0] + 1, *digest[1:]]
    result = workload.run_compile(tiny_args(), {"tiny": {"0": {"tiny": planted}}})
    assert result["failed"] == result["attempted"] > 0
    assert "OutputMismatch" in result["failures"][0]
    payload, code = run.summarize({"tiny": result}, trace=False)
    assert code != 0
    assert payload["correct"] is False
    assert payload["failed"] / payload["attempted"] > 0
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}


def test_traced_compile_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setitem(workload.COMPILE_WORKLOADS, "tiny", {"tiny": tiny_build})
    result = workload.run_compile(tiny_args(trace=True, out_dir=str(tmp_path)), {})
    assert set(result["per_layer"]) == set(metrics.PER_LAYER)
    assert result["per_layer"]["compile.unattributed.share"] < 0.05
    ledger = json.loads((tmp_path / "tiny-seed0-layers.json").read_text())
    for op in ledger["traced_ops"]:
        assert op["compile_self_sum_s"] == pytest.approx(op["compile_s"], rel=1e-3)
    payload, code = run.summarize({"tiny": result}, trace=True)
    assert code == 0 and set(payload["metrics"]) == set(metrics.PER_LAYER)


def test_ab_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0]
    faster = [v * 0.8 for v in parent]
    assert ab.compare(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert ab.compare(parent, [v * 1.2 for v in parent], "lower", 0.1)["verdict"] == "regression"
    noisy = [100.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    assert ab.compare(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert ab.compare(parent, list(parent), "higher", 0.1)["verdict"] == "within bound"


def test_ab_failed_runs_count_against_a_gain():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0, 100.4]
    faster = [v * 0.8 for v in parent]
    # A failed B run is a lost pair, counted over every pair run.
    one_lost = faster[:-1] + [None]
    result = ab.compare(parent, one_lost, "lower", 0.1)
    assert result["b_wins"] == 10 / 11 and result["complete"] == 10
    assert result["verdict"] == "within bound"  # B failed more runs than A
    # Both sides failing once leaves 10 complete pairs: still a gain.
    both_lost = ab.compare(parent[:-1] + [None], one_lost, "lower", 0.1)
    assert both_lost["verdict"] == "gain"
    # Two lost pairs out of eleven fall below 9/10 wins.
    two_lost = ab.compare(parent, faster[:-2] + [None, None], "lower", 0.1)
    assert two_lost["b_wins"] < 0.9 and two_lost["verdict"] != "gain"
    # Fewer than ten complete pairs never carry a gain.
    short = ab.compare(parent[:9] + [None], faster[:10], "lower", 0.1)
    assert short["b_wins"] == 0.9 and short["complete"] == 9
    assert short["verdict"] != "gain"


def test_benchmark_json_is_within_its_caps():
    contract = metrics.CONTRACT
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert contract["paths"] == ["bench"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
