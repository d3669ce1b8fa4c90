"""The pass pipeline: registry, session, manager, CLI, schema.

Covers the pipeline's contract: the one pass order reproduces the
pre-refactor compile bit-for-bit (golden test), every pass but
``schedule`` can be skipped and a skipped pass does not run, each
executed pass runs in a tracer span, and the session serializes into
report.json's ``pipeline`` section (schema v3).
"""

from __future__ import annotations

import copy
import json
import pathlib
import subprocess
import sys

import pytest

from repro import cli
from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.core.balancer import LoadBalancer
from repro.core.partitioner import PartitionConfig
from repro.errors import ConfigurationError
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.obs.report import build_report
from repro.obs.schema import validate_report
from repro.obs.tracer import read_events, tracing
from repro.pipeline import (
    DEFAULT_PASS_ORDER,
    PASS_REGISTRY,
    compile_program,
    session_for,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "report_tiny.json"

#: report.json fields that legitimately differ across builds: wall times,
#: the trace path, and the pipeline section schema v3 added.  Schema v5
#: dropped v4's execution section, so a stray one fails the diff.
VOLATILE_REPORT_FIELDS = (
    "schema_version", "phase_seconds", "trace_file", "pipeline",
)


def split_program(name: str = "p") -> Program:
    """A two-statement program whose shared operand makes splitting pay."""
    p = Program(name)
    for array in ("A", "B", "C", "D", "E", "X", "Y"):
        p.declare(array, 512)
    p.add_nest(
        LoopNest.of(
            [Loop("i", 0, 32)],
            [
                parse_statement("A(i) = B(i) + C(i) + D(i) + E(i)"),
                parse_statement("X(i) = Y(i) + C(i)"),
            ],
            "main",
        )
    )
    return p


def split_all_session(**kwargs):
    """A session whose plan splits both of ``split_program``'s statements."""
    return session_for(
        small_machine(),
        config=PartitionConfig(
            split_plan_override={("main", 0): True, ("main", 1): True}
        ),
        **kwargs,
    )


class TestRegistryAndOrder:
    def test_default_order_is_the_registry_defaults(self):
        assert DEFAULT_PASS_ORDER == tuple(PASS_REGISTRY) == (
            "profile", "predict", "inspect", "split", "schedule", "balance",
            "sync_minimize",
        )

    def test_session_for_rejects_unknown_skip_names(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            session_for(small_machine(), skip_passes=("bogus",))

    def test_schedule_cannot_be_skipped(self):
        with pytest.raises(ConfigurationError, match="'schedule' cannot be skipped"):
            session_for(small_machine(), skip_passes=("schedule",))

    def test_config_rejects_unknown_predictor(self):
        with pytest.raises(ConfigurationError, match="unknown predictor"):
            PartitionConfig(predictor="oracle")


class TestPipelineRuns:
    def test_seeded_predictor_is_used_and_trained(self):
        """A predictor passed in ``initial`` replaces the config's choice."""
        seeded = HitMissPredictor()
        partition = compile_program(
            split_program(),
            session_for(small_machine(), PartitionConfig(predictor=None)),
            initial={"predictor": seeded},
        )
        assert seeded.stats.total > 0
        assert partition.predictor_accuracy == seeded.accuracy()

    def test_pass_timings_cover_the_executed_passes(self):
        with tracing() as tracer:
            compile_program(split_program(), split_all_session())
        seconds = tracer.seconds("pass.")
        assert set(seconds) == set(DEFAULT_PASS_ORDER)
        assert all(v >= 0.0 for v in seconds.values())

    def test_skip_sync_minimize_leaves_windows_unminimized(self):
        skipped = compile_program(
            split_program(), split_all_session(skip_passes=("sync_minimize",))
        )
        for schedule in skipped.nest_schedules.values():
            assert schedule.sync_count == schedule.sync_count_unminimized
        minimized = compile_program(split_program(), split_all_session())
        for schedule in minimized.nest_schedules.values():
            assert schedule.sync_count <= schedule.sync_count_unminimized

    def test_skip_balance_disables_the_veto(self):
        session = split_all_session(skip_passes=("balance",))
        partition = compile_program(split_program(), session)
        assert partition.movement >= 0  # compiles end to end
        balancer = LoadBalancer(4, enabled=False)
        balancer.record(0, 1_000_000)
        assert not balancer.would_unbalance(0, 1.0)

    @pytest.mark.parametrize("skip, placed", [((), True), (("profile",), False)])
    def test_skip_profile_leaves_mcdram_unplaced(self, skip, placed):
        """Only the profile pass records the profile that fills flat MCDRAM."""
        session = split_all_session(skip_passes=skip)
        compile_program(split_program(), session)
        mcdram = session.machine.mcdram
        in_flat = [
            spec.name
            for spec in session.layout.arrays()
            if mcdram.in_flat_mcdram(spec.name)
        ]
        assert bool(in_flat) is placed

    def test_skipped_pass_does_not_accrue_time(self):
        session = split_all_session(skip_passes=("sync_minimize",))
        with tracing() as tracer:
            compile_program(split_program(), session)
        assert set(tracer.seconds("pass.")) == set(DEFAULT_PASS_ORDER) - {
            "sync_minimize"
        }


class TestSessionLifecycle:
    def test_to_json_shape(self):
        session = split_all_session(skip_passes=("balance",))
        blob = session.to_json()
        assert blob["pass_order"] == list(DEFAULT_PASS_ORDER)
        assert blob["skipped_passes"] == ["balance"]
        assert blob["faults_fingerprint"] is None
        assert blob["machine"]["mesh_cols"] == session.machine.config.mesh_cols
        json.dumps(blob)  # fully serializable


class TestReportIntegration:
    def test_pipeline_section_serializes_the_session(self):
        report = build_report("tiny", skip_passes=("sync_minimize",))
        assert validate_report(report) == []
        pipeline = report["pipeline"]
        assert pipeline["pass_order"] == list(DEFAULT_PASS_ORDER)
        assert pipeline["skipped_passes"] == ["sync_minimize"]
        assert "sync_minimize" not in pipeline["pass_seconds"]
        assert "schedule" in pipeline["pass_seconds"]

    def test_schema_v2_reports_still_validate(self):
        report = build_report("tiny")
        v2 = copy.deepcopy(report)
        v2["schema_version"] = 2
        del v2["pipeline"]
        assert validate_report(v2) == []

    def test_schema_v3_requires_the_pipeline_section(self):
        report = build_report("tiny")
        bad = copy.deepcopy(report)
        del bad["pipeline"]
        assert any("pipeline" in e for e in validate_report(bad))
        bad = copy.deepcopy(report)
        bad["pipeline"]["pass_order"] = ["profile", "profile"]
        assert validate_report(bad)

    def test_report_matches_pre_refactor_golden(self):
        """The pass pipeline reproduces the monolithic compile bit-for-bit.

        The golden was captured before the refactor (schema v2); every
        field except wall times and the schema additions must match.
        """
        golden = json.loads(GOLDEN.read_text())
        fresh = build_report("tiny")
        for report in (golden, fresh):
            for key in VOLATILE_REPORT_FIELDS:
                report.pop(key, None)
        assert fresh == golden


class TestCli:
    def test_list_passes(self, capsys):
        assert cli.main(["report", "--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in PASS_REGISTRY:
            assert name in out
        assert f"\norder: {' -> '.join(PASS_REGISTRY)}\n" in out

    def test_report_without_app_exits_2(self, capsys):
        assert cli.main(["report"]) == 2
        assert "APP" in capsys.readouterr().err

    def test_unknown_skip_pass_exits_2(self, capsys):
        assert cli.main(["report", "tiny", "--skip-pass", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_skip_schedule_exits_2_before_any_work(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        argv = ["report", "tiny", "--skip-pass", "schedule", "--trace", str(trace)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'schedule' cannot be skipped" in err[0]
        assert not trace.exists()

    def test_analytic_predictor_runs_inside_the_predict_pass(self, tmp_path):
        out, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
        argv = ["report", "tiny", "--predictor", "analytic", "--no-heatmap"]
        assert cli.main(argv + ["--out", str(out), "--trace", str(trace)]) == 0
        report = json.loads(out.read_text())
        assert report["pipeline"]["config"]["predictor"] == "analytic"
        assert report["pipeline"]["pass_order"] == list(DEFAULT_PASS_ORDER)
        assert report["plan"]["predictor_accuracy"] is None
        names = [(e["ev"], e["name"]) for e in read_events(str(trace))]
        start = names.index(("B", "pass.predict"))
        end = names.index(("E", "pass.predict"))
        assert ("B", "compile.analytic_predict") in names[start:end]

    def test_skipped_predict_pass_builds_no_analytic_model(self, tmp_path):
        out, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
        argv = ["report", "tiny", "--predictor", "analytic", "--no-heatmap"]
        argv += ["--skip-pass", "predict", "--out", str(out), "--trace", str(trace)]
        assert cli.main(argv) == 0
        report = json.loads(out.read_text())
        assert set(report["pipeline"]["pass_seconds"]) == set(DEFAULT_PASS_ORDER) - {
            "predict"
        }
        assert report["plan"]["predictor_accuracy"] is None
        names = {e["name"] for e in read_events(str(trace))}
        assert "compile.analytic_predict" not in names

    def test_skip_pass_lands_in_the_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "report",
                "tiny",
                "--out",
                str(out),
                "--skip-pass",
                "sync_minimize",
                "--no-heatmap",
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pipeline"]["skipped_passes"] == ["sync_minimize"]

    def test_python_dash_m_repro_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=str(pathlib.Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        proc = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            cwd=str(pathlib.Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
