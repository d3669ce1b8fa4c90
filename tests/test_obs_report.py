"""report.json: builder, schema validation, and the CLI front-end.

All tests run the built-in ``tiny`` app (sub-second) — the report's shape
is app-independent, and the ``ocean``-scale path is exercised by
``make report`` / CI rather than tier 1.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import cli
from repro.obs.report import build_report, heatmap_of, summary_lines, write_report
from repro.obs.schema import (
    REPORT_KIND,
    REPORT_SCHEMA_VERSION,
    validate_report,
)
from repro.obs.tracer import read_events, strip_wall_times


@pytest.fixture(scope="module")
def tiny_report():
    return build_report("tiny")


def test_report_is_schema_valid(tiny_report):
    assert validate_report(tiny_report) == []
    assert tiny_report["schema_version"] == REPORT_SCHEMA_VERSION
    assert tiny_report["kind"] == REPORT_KIND
    assert tiny_report["app"] == "tiny"
    assert tiny_report["trace_file"] is None


def test_heatmap_sums_to_total_movement(tiny_report):
    heatmap = tiny_report["link_heatmap"]
    total = sum(link["flits"] for link in heatmap["links"])
    assert total == heatmap["total_flit_hops"]
    assert total == tiny_report["optimized"]["data_movement"]
    assert heatmap_of(tiny_report).total_flit_hops() == total


def test_phase_seconds_cover_the_pipeline(tiny_report):
    assert set(tiny_report["phase_seconds"]) == {
        "build",
        "partition",
        "simulate_default",
        "simulate_optimized",
    }
    assert all(v >= 0.0 for v in tiny_report["phase_seconds"].values())


def test_plan_section_matches_partition_shape(tiny_report):
    plan = tiny_report["plan"]
    assert set(plan["variant_by_nest"]) == set(plan["window_sizes"])
    for entry in plan["split_plan"]:
        assert set(entry) == {"nest", "body_index", "split"}
    assert plan["predicted_movement"] >= 0


def test_validator_catches_corruption(tiny_report):
    bad = copy.deepcopy(tiny_report)
    bad["schema_version"] = 99
    assert any("schema_version" in e for e in validate_report(bad))

    bad = copy.deepcopy(tiny_report)
    bad["link_heatmap"]["links"][0]["flits"] += 1
    assert validate_report(bad)  # sum no longer matches total_flit_hops

    bad = copy.deepcopy(tiny_report)
    del bad["deltas"]
    assert any("deltas" in e for e in validate_report(bad))


def test_write_report_roundtrip(tiny_report, tmp_path):
    out = tmp_path / "report.json"
    write_report(tiny_report, str(out))
    assert json.loads(out.read_text()) == tiny_report


def test_report_is_deterministic():
    first = build_report("tiny")
    second = build_report("tiny")
    for report in (first, second):
        report.pop("phase_seconds")
        # The only other wall-clock field; everything else must be stable.
        report["pipeline"].pop("pass_seconds")
    assert first == second


def test_report_times_are_its_trace_spans(tmp_path):
    """Traced or not, a report reads its wall times from span totals."""
    from repro.pipeline import DEFAULT_PASS_ORDER

    trace = tmp_path / "trace.jsonl"
    report = build_report("tiny", trace_file=str(trace))
    span_seconds = {}
    for event in read_events(str(trace)):
        if event["ev"] == "E":
            name = event["name"]
            span_seconds[name] = span_seconds.get(name, 0.0) + event["dur"]
    for name, seconds in report["phase_seconds"].items():
        assert seconds == pytest.approx(span_seconds[f"phase.{name}"], abs=1e-6)
    pass_seconds = report["pipeline"]["pass_seconds"]
    assert set(pass_seconds) == set(DEFAULT_PASS_ORDER)
    for name in DEFAULT_PASS_ORDER:
        # The per-window sync_minimize spans count, but only a debug
        # trace writes them out.
        if name != "sync_minimize":
            assert pass_seconds[name] == pytest.approx(
                span_seconds[f"pass.{name}"], abs=1e-6
            )
    untraced = build_report("tiny")
    assert set(untraced["phase_seconds"]) == set(report["phase_seconds"])
    assert set(untraced["pipeline"]["pass_seconds"]) == set(pass_seconds)
    # Apart from wall times and the trace path, tracing changes nothing.
    for each in (report, untraced):
        del each["phase_seconds"], each["trace_file"]
        del each["pipeline"]["pass_seconds"]
    assert report == untraced


def test_summary_lines_mention_headline_numbers(tiny_report):
    text = "\n".join(summary_lines(tiny_report))
    assert "movement reduction" in text
    assert "tiny" in text


def test_v5_report_has_no_execution_section(tiny_report):
    assert tiny_report["schema_version"] == REPORT_SCHEMA_VERSION == 5
    assert "execution" not in tiny_report


def as_v4(report, execution=None):
    """A copy of ``report`` as schema v4 wrote it, with ``execution``."""
    old = copy.deepcopy(report)
    old["schema_version"] = 4
    if execution is not None:
        old["execution"] = execution
    return old


class TestSchemaV4Validation:
    def test_v3_report_without_execution_still_validates(self, tiny_report):
        old = copy.deepcopy(tiny_report)
        old["schema_version"] = 3
        assert validate_report(old) == []

    def test_v4_requires_execution(self, tiny_report):
        assert validate_report(as_v4(tiny_report, {"backend": "sim"})) == []
        bad = as_v4(tiny_report)
        assert any("execution" in e for e in validate_report(bad))

    def test_unknown_backend_rejected(self, tiny_report):
        bad = as_v4(tiny_report, {"backend": "verilator"})
        assert any("backend" in e for e in validate_report(bad))

    def test_runtime_execution_requires_scheduler_fields(self, tiny_report):
        bad = as_v4(tiny_report, {"backend": "runtime"})
        errors = validate_report(bad)
        assert any("workers" in e for e in errors)

    def test_inconsistent_agreement_rejected(self, tiny_report):
        execution = {
            "backend": "runtime",
            "workers": 1,
            "seed": None,
            "tasks_executed": 4,
            "observed_movement": 100,
            "forecast_movement": 100,
            "sync_count": 0,
            "sync_violations": 0,
            "agreement": 0.0,
            "wall_seconds": 0.01,
        }
        assert validate_report(as_v4(tiny_report, execution)) == []
        execution["agreement"] = 0.5  # |100-100|/100 is 0.0, not 0.5
        bad = as_v4(tiny_report, execution)
        assert any("agreement" in e for e in validate_report(bad))


def test_cli_report_smoke(tmp_path, capsys):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.jsonl"
    rc = cli.main(
        [
            "report",
            "tiny",
            "--out",
            str(out),
            "--trace",
            str(trace),
            "--no-heatmap",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "movement reduction" in printed

    report = json.loads(out.read_text())
    assert validate_report(report) == []
    assert report["trace_file"] == str(trace)

    events = read_events(str(trace))
    assert events and all(e["ev"] in ("B", "E", "P") for e in events)
    # The deterministic stream survives a re-run byte-for-byte.
    rc = cli.main(
        ["report", "tiny", "--out", str(out), "--trace", str(trace), "--no-heatmap"]
    )
    assert rc == 0
    assert strip_wall_times(read_events(str(trace))) == strip_wall_times(events)
