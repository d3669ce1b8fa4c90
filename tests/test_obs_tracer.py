"""Tracer behavior: no-op default, determinism, and result-neutrality.

The three contracts DESIGN.md Section 8 promises:

1. tracing is off by default and the disabled tracer is a pure no-op;
2. two same-seed runs emit identical event streams once the wall-time
   fields (``t``/``dur``) are stripped;
3. enabling tracing never changes compilation or simulation results.
"""

from __future__ import annotations

import io
import json
import sys
import threading

from repro.arch.knl import small_machine
from repro.benchmarks.perf import tiny_app
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    strip_wall_times,
    tracing,
)
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


def _run_pipeline():
    """Compile + simulate the tiny app; returns (partition, metrics)."""
    machine = small_machine()
    partition = compile_program(tiny_app(), session_for(machine))
    metrics = Simulator(machine, SimConfig()).run(partition.units())
    return partition, metrics


def _traced_run(debug: bool = False):
    sink = io.StringIO()
    with tracing(sink, debug=debug):
        partition, metrics = _run_pipeline()
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return events, partition, metrics


def test_default_tracer_is_null_and_noop():
    assert get_tracer() is NULL_TRACER
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.debug is False
    with NULL_TRACER.span("phase", detail=1) as span:
        span.add(more=2)
    with NULL_TRACER.debug_span("window", detail=1):
        pass
    NULL_TRACER.point("event", value=3)
    NULL_TRACER.close()  # all no-ops; nothing to assert beyond "no crash"


def test_tracing_installs_and_restores():
    sink = io.StringIO()
    with tracing(sink) as tracer:
        assert get_tracer() is tracer
        assert isinstance(tracer, Tracer) and tracer.enabled
    assert get_tracer() is NULL_TRACER


def test_sinkless_tracer_sums_spans_and_writes_nothing():
    tracer = Tracer()
    assert (tracer.enabled, tracer.debug) == (False, False)
    for _ in range(2):
        with tracer.span("phase.build", detail=1) as span:
            span.add(more=2)
    with tracer.debug_span("pass.sync_minimize"):
        pass
    tracer.point("event", value=3)
    tracer.close()
    assert list(tracer.seconds("phase.")) == ["build"]
    assert list(tracer.seconds()) == ["phase.build", "pass.sync_minimize"]
    assert all(v >= 0.0 for v in tracer.seconds().values())


def test_debug_span_counts_always_but_is_written_only_when_debug():
    for debug in (False, True):
        sink = io.StringIO()
        tracer = Tracer(sink, debug=debug)
        with tracer.debug_span("pass.sync_minimize"):
            pass
        assert list(tracer.seconds("pass.")) == ["sync_minimize"]
        names = [json.loads(line)["name"] for line in sink.getvalue().splitlines()]
        assert names == (["pass.sync_minimize"] * 2 if debug else [])


def test_concurrent_span_totals_lose_no_update():
    """Daemon handler threads share one tracer; every closed span counts."""
    ticks = threading.local()

    class TickTracer(Tracer):
        # Each thread's clock advances one second per read, so every
        # span (one read at open, one at close) lasts exactly 1.0.
        def _now(self):
            ticks.now = getattr(ticks, "now", 0.0) + 1.0
            return ticks.now

    tracer = TickTracer()

    def close_spans():
        for _ in range(2000):
            tracer.span("request").end()

    threads = [threading.Thread(target=close_spans) for _ in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert tracer.seconds() == {"request": 16000.0}


def test_set_tracer_returns_previous():
    tracer = Tracer(io.StringIO())
    previous = set_tracer(tracer)
    try:
        assert previous is NULL_TRACER
        assert get_tracer() is tracer
    finally:
        set_tracer(previous)


def test_stream_shape_and_span_nesting():
    events, _, _ = _traced_run()
    assert events, "pipeline produced no trace events"
    assert all(event["ev"] in ("B", "E", "P") for event in events)

    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    # Spans close LIFO, every B has a matching E, and nothing is left open.
    open_spans = []
    for event in events:
        if event["ev"] == "B":
            open_spans.append(event["name"])
        elif event["ev"] == "E":
            assert open_spans and open_spans[-1] == event["name"]
            open_spans.pop()
    assert open_spans == []

    names = {event["name"] for event in events}
    assert "compile" in names
    assert "sim.run" in names
    assert "compile.nest" in names


def test_same_seed_streams_identical_modulo_wall_times():
    first, _, _ = _traced_run()
    second, _, _ = _traced_run()
    assert strip_wall_times(first) == strip_wall_times(second)
    # Sanity: the raw streams do carry wall times.
    assert all("t" in event for event in first)


def test_tracing_does_not_change_results():
    _, traced_partition, traced_metrics = _traced_run()
    plain_partition, plain_metrics = _run_pipeline()
    assert traced_metrics.to_dict() == plain_metrics.to_dict()
    assert traced_metrics.link_flits == plain_metrics.link_flits
    assert traced_partition.window_sizes == plain_partition.window_sizes
    assert traced_partition.variant_by_nest == plain_partition.variant_by_nest
    assert traced_partition.movement == plain_partition.movement


def test_debug_mode_adds_firehose_events():
    normal, _, _ = _traced_run(debug=False)
    debug, _, _ = _traced_run(debug=True)
    normal_names = {event["name"] for event in normal}
    debug_names = {event["name"] for event in debug}
    assert "split.statement" not in normal_names
    assert "split.statement" in debug_names
    assert len(debug) > len(normal)


def test_span_add_lands_in_end_event():
    sink = io.StringIO()
    tracer = Tracer(sink)
    with tracer.span("work", input=3) as span:
        span.add(output=9)
    begin, end = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert begin["ev"] == "B" and begin["data"] == {"input": 3}
    assert end["ev"] == "E" and end["data"] == {"output": 9}
    assert end["dur"] >= 0.0


def test_payload_field_called_name_is_recorded():
    """The event name is positional-only, so ``name=`` is ordinary data."""
    sink = io.StringIO()
    tracer = Tracer(sink, debug=True)
    with tracer.span("experiment", name="fig13"):
        pass
    with tracer.debug_span("window", name="w0"):
        pass
    tracer.point("run", name="cholesky")
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [(e["ev"], e["name"], e.get("data")) for e in events] == [
        ("B", "experiment", {"name": "fig13"}),
        ("E", "experiment", None),
        ("B", "window", {"name": "w0"}),
        ("E", "window", None),
        ("P", "run", {"name": "cholesky"}),
    ]
    with NULL_TRACER.span("experiment", name="fig13"):
        pass
    NULL_TRACER.point("run", name="cholesky")
