"""CLI flag composition: --check/--faults/--trace compose, conflicts exit 2."""

import json

import pytest

from repro import check
from repro.cli import main
from repro.faults.plan import FaultPlan, LinkFault


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    FaultPlan(links=(LinkFault(5, 6),), description="one dead link").dump(
        str(path)
    )
    return str(path)


class TestComposition:
    def test_report_check_composes(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["report", "tiny", "--check", "--out", out]) == 0
        assert json.loads(open(out).read())["app"] == "tiny"

    def test_report_check_and_trace_compose(self, tmp_path):
        out = str(tmp_path / "report.json")
        trace = str(tmp_path / "trace.jsonl")
        argv = ["report", "tiny", "--check", "--trace", trace, "--out", out]
        assert main(argv) == 0
        assert open(trace).readline()  # trace stream actually written

    def test_report_check_trace_and_faults_all_compose(
        self, tmp_path, plan_file
    ):
        out = str(tmp_path / "report.json")
        trace = str(tmp_path / "trace.jsonl")
        argv = [
            "report", "tiny",
            "--check", "--trace", trace, "--faults", plan_file, "--out", out,
        ]
        assert main(argv) == 0
        report = json.loads(open(out).read())
        assert report["faults"]["fingerprint"]

    def test_faults_check_with_generation_knobs(self, capsys):
        assert main(["faults", "--check", "--seed", "1"]) == 0
        assert "fault plan:" in capsys.readouterr().out

    def test_faults_with_ready_made_plan(self, plan_file, capsys):
        assert main(["faults", "--plan", plan_file]) == 0
        assert "one dead link" in capsys.readouterr().out

    def test_check_mode_does_not_leak_between_invocations(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert not check.enabled()
        assert main(["report", "tiny", "--check", "--out", out]) == 0
        assert not check.enabled()


class TestConflicts:
    def test_trace_debug_without_trace_exits_two(self, capsys):
        assert main(["report", "tiny", "--trace-debug"]) == 2
        err = capsys.readouterr().err
        assert "--trace-debug requires --trace" in err

    @pytest.mark.parametrize(
        "knob", [["--seed", "9"], ["--links", "3"], ["--nodes", "2"]]
    )
    def test_faults_plan_with_generation_knob_exits_two(
        self, plan_file, knob, capsys
    ):
        assert main(["faults", "--plan", plan_file, *knob]) == 2
        err = capsys.readouterr().err
        assert knob[0] in err and "--plan" in err

    def test_faults_plan_conflict_names_every_offending_knob(
        self, plan_file, capsys
    ):
        argv = ["faults", "--plan", plan_file, "--seed", "1", "--nodes", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "--nodes" in err

    def test_missing_plan_file_exits_two(self, capsys):
        assert main(["faults", "--plan", "does-not-exist.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBadValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--links", "-1"],
            ["faults", "--nodes", "-1"],
            ["report", "cholesky", "--scale", "-1"],
            ["report", "barnes", "--scale", "0"],
            ["compare", "fft", "--scale", "-2"],
        ],
    )
    def test_negative_count_or_scale_exits_two(self, argv, tmp_path, capsys):
        if argv[0] != "compare":
            argv = argv + ["--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert "must be >= " in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
