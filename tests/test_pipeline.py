"""The pass pipeline: registry, session, manager, CLI, schema.

Covers the refactor's contract: the default order reproduces the
pre-refactor compile bit-for-bit (golden test), passes can be reordered
and skipped, each executed pass runs in a tracer span, and the session
serializes into report.json's ``pipeline`` section (schema v3).
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
from repro.core.balancer import LoadBalancer
from repro.core.partitioner import PartitionConfig
from repro.core.window import WindowConfig
from repro.errors import ConfigurationError
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.obs.report import build_report
from repro.obs.schema import validate_report
from repro.obs.tracer import tracing
from repro.pipeline import (
    DEFAULT_PASS_ORDER,
    PASS_REGISTRY,
    Artifacts,
    PassManager,
    compile_program,
    session_for,
)
from repro.pipeline.passes import resolve_order

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


def always_split_session(**kwargs):
    return session_for(
        small_machine(),
        config=PartitionConfig(window=WindowConfig(always_split=True)),
        **kwargs,
    )


class TestRegistryAndOrder:
    def test_default_order_is_the_registry_defaults(self):
        defaults = tuple(
            p.info.name for p in PASS_REGISTRY.values() if p.info.default
        )
        assert DEFAULT_PASS_ORDER == defaults
        assert "codegen" in PASS_REGISTRY
        assert "codegen" not in DEFAULT_PASS_ORDER
        assert resolve_order(None) == DEFAULT_PASS_ORDER

    def test_resolve_order_round_trips_custom_orders(self):
        order = ("profile", "split", "schedule")
        assert resolve_order(order) == order

    def test_resolve_order_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown pass name"):
            resolve_order(("profile", "bogus"))

    def test_resolve_order_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="twice"):
            resolve_order(("profile", "profile"))

    def test_session_for_rejects_unknown_skip_names(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            session_for(small_machine(), skip_passes=("bogus",))

    def test_artifacts_require_names_the_producer(self):
        with pytest.raises(ConfigurationError, match="schedule"):
            Artifacts().require("partition", "codegen")


class TestPipelineRuns:
    def test_explicit_default_order_matches_implicit(self):
        implicit = compile_program(split_program(), always_split_session())
        explicit = compile_program(
            split_program(), always_split_session(pass_order=DEFAULT_PASS_ORDER)
        )
        assert implicit.movement == explicit.movement
        assert implicit.window_sizes == explicit.window_sizes

    def test_inline_passes_are_order_insensitive(self):
        # The inline passes' run() methods are no-ops, so dropping them
        # from the order (without skipping them) changes nothing.
        order = tuple(
            name for name in DEFAULT_PASS_ORDER
            if not PASS_REGISTRY[name].info.inline
        )
        baseline = compile_program(split_program(), always_split_session())
        trimmed = compile_program(
            split_program(), always_split_session(pass_order=order)
        )
        assert trimmed.movement == baseline.movement

    def test_codegen_pass_runs_when_ordered(self):
        session = always_split_session(
            pass_order=DEFAULT_PASS_ORDER + ("codegen",)
        )
        artifacts = PassManager(session).run(split_program())
        assert "generated_code" in artifacts
        assert "partition" in artifacts

    def test_codegen_before_schedule_raises_wrong_order_error(self):
        session = always_split_session(pass_order=("profile", "codegen"))
        with pytest.raises(ConfigurationError, match="schedule"):
            PassManager(session).run(split_program())

    def test_pass_timings_cover_the_executed_passes(self):
        with tracing() as tracer:
            compile_program(split_program(), always_split_session())
        seconds = tracer.seconds("pass.")
        assert set(seconds) == set(DEFAULT_PASS_ORDER)
        assert all(v >= 0.0 for v in seconds.values())

    def test_skip_sync_minimize_leaves_windows_unminimized(self):
        skipped = compile_program(
            split_program(), always_split_session(skip_passes=("sync_minimize",))
        )
        for schedule in skipped.nest_schedules.values():
            assert schedule.sync_count == schedule.sync_count_unminimized
        minimized = compile_program(split_program(), always_split_session())
        for schedule in minimized.nest_schedules.values():
            assert schedule.sync_count <= schedule.sync_count_unminimized

    def test_skip_balance_disables_the_veto(self):
        session = always_split_session(skip_passes=("balance",))
        partition = compile_program(split_program(), session)
        assert partition.movement >= 0  # compiles end to end
        balancer = LoadBalancer(4, 0.10, enabled=False)
        balancer.record(0, 1_000_000)
        assert not balancer.would_unbalance(0, 1.0)

    @pytest.mark.parametrize("skip, placed", [((), True), (("profile",), False)])
    def test_skip_profile_leaves_mcdram_unplaced(self, skip, placed):
        """Only the profile pass records the profile that fills flat MCDRAM."""
        session = always_split_session(skip_passes=skip)
        compile_program(split_program(), session)
        mcdram = session.machine.mcdram
        in_flat = [
            spec.name
            for spec in session.layout.arrays()
            if mcdram.in_flat_mcdram(spec.name)
        ]
        assert bool(in_flat) is placed

    def test_skipped_pass_does_not_accrue_time(self):
        session = always_split_session(skip_passes=("sync_minimize",))
        with tracing() as tracer:
            compile_program(split_program(), session)
        assert set(tracer.seconds("pass.")) == set(DEFAULT_PASS_ORDER) - {
            "sync_minimize"
        }


class TestSessionLifecycle:
    def test_to_json_shape(self):
        session = always_split_session(skip_passes=("balance",))
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
        assert "default order:" in out

    def test_report_without_app_exits_2(self, capsys):
        assert cli.main(["report"]) == 2
        assert "APP" in capsys.readouterr().err

    def test_unknown_skip_pass_exits_2(self, capsys):
        assert cli.main(["report", "tiny", "--skip-pass", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

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
