"""Tests for the empirical gate and plan selection in the partitioner."""

import io
import json

import pytest

from repro import check
from repro.arch.knl import small_machine
from repro.benchmarks.perf import tiny_app
from repro.cache.predictor import HitMissPredictor
from repro.core.partitioner import PartitionConfig
from repro.core.window import WindowScheduler
from repro.errors import CheckError
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.obs.tracer import tracing
from repro.pipeline import compile_program, passes, session_for
from repro.sim.engine import SimConfig, Simulator


def gate_program():
    """A program whose statements are cheap to schedule either way."""
    p = Program("gated")
    n = 128
    for phase, name in ((2, "B"), (5, "C"), (8, "D")):
        p.declare(name, 8 * n + 16, bank_phase=phase)
    p.declare("A", 4 * n + 16, bank_phase=11)
    p.add_nest(
        LoopNest.of(
            [Loop("t", 0, 2), Loop("i", 0, n)],
            [parse_statement("A(4*i) = B(8*i) + C(8*i) + D(8*i)")],
            "main",
        )
    )
    return p


class TestGate:
    def test_gate_records_variant(self, machine):
        result = compile_program(gate_program(), session_for(machine))
        assert result.variant_by_nest["main"] in ("star", "profile", "split")

    def test_star_plan_units_match_instance_count(self, machine):
        config = PartitionConfig(
            split_plan_override={("main", 0): False}, predictor=None
        )
        program = gate_program()
        result = compile_program(program, session_for(machine, config))
        assert len(result.units()) == program.total_instances()

    def test_plan_exposed_for_reuse(self, machine):
        result = compile_program(gate_program(), session_for(machine))
        assert set(result.split_plan) == {("main", 0)}
        # Feeding the plan back reproduces the same variant choice.
        machine2 = small_machine()
        config = PartitionConfig(
            split_plan_override=result.split_plan, predictor=None
        )
        result2 = compile_program(gate_program(), session_for(machine2, config))
        assert result2.variant_by_nest["main"] == "override"
        plan_units = {u.node for u in result.units()}
        override_units = {u.node for u in result2.units()}
        if result.variant_by_nest["main"] == "star":
            assert plan_units == override_units


class TestOneSchedulingPath:
    """Every candidate plan is scheduled by one helper, and the gate ships
    the schedule it simulated."""

    def _compile(self, monkeypatch, predictor, config=PartitionConfig()):
        """(window sizes passed to schedule_nest, measured schedules,
        streamed schedules, result).

        The gate measures a schedule either whole (``_simulate``) or by
        streaming its windows into a simulator as they are built (an
        ``on_window`` callback); ``measured`` holds both kinds.
        """
        from repro.pipeline.passes import SchedulePass

        sizes, measured, streamed = [], [], []
        schedule_nest = WindowScheduler.schedule_nest
        simulate = SchedulePass._simulate

        def counting_schedule_nest(self, program, nest, window_size, on_window=None):
            sizes.append(window_size)
            schedule = schedule_nest(
                self, program, nest, window_size, on_window=on_window
            )
            if on_window is not None:
                measured.append(schedule)
                streamed.append(schedule)
            return schedule

        def counting_simulate(machine, schedule):
            measured.append(schedule)
            return simulate(machine, schedule)

        monkeypatch.setattr(WindowScheduler, "schedule_nest", counting_schedule_nest)
        monkeypatch.setattr(SchedulePass, "_simulate", staticmethod(counting_simulate))
        result = compile_program(
            gate_program(),
            session_for(small_machine(), config),
            initial={"predictor": predictor},
        )
        return sizes, measured, streamed, result

    def test_pure_predictor_schedules_each_candidate_once(self, monkeypatch):
        sizes, measured, streamed, result = self._compile(
            monkeypatch, HitMissPredictor()
        )
        assert len(measured) == 2  # all-star plus one splitting plan
        assert len(streamed) == 1  # the splitting plan streams
        assert len(sizes) == len(measured)
        assert any(result.nest_schedules["main"] is s for s in measured)

    def test_stateful_predictor_schedules_the_winner_again(self, monkeypatch):
        class _Stateful(HitMissPredictor):
            pure_predict = False

        sizes, measured, streamed, result = self._compile(monkeypatch, _Stateful())
        assert len(measured) == 2
        assert streamed == []  # no templates: whole-nest simulation only
        assert len(sizes) == len(measured) + 1
        assert not any(result.nest_schedules["main"] is s for s in measured)

    def test_fixed_window_measures_every_candidate_at_the_fixed_size(
        self, monkeypatch
    ):
        config = PartitionConfig(adaptive_window=False, fixed_window_size=3)
        sizes, measured, streamed, result = self._compile(
            monkeypatch, HitMissPredictor(), config
        )
        assert len(measured) == 2
        assert len(streamed) == 1
        assert sizes == [3, 3]
        assert [s.window_size for s in measured] == [3, 3]
        assert result.window_sizes == {"main": 3}


def _gate_points(events):
    """The ``gate.candidate`` payloads of a JSONL trace."""
    return [e["data"] for e in events if e["name"] == "gate.candidate"]


def _traced_compile(program, machine, predictor=None):
    """(result, gate.candidate payloads) of one traced compile."""
    sink = io.StringIO()
    initial = {} if predictor is None else {"predictor": predictor}
    with tracing(sink):
        result = compile_program(program, session_for(machine), initial=initial)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return result, _gate_points(events)


def _digest(machine, result):
    """(movement, cycles, units, syncs) of the compiled program's simulation."""
    metrics = Simulator(machine, SimConfig()).run(result.units())
    return (
        metrics.data_movement,
        metrics.total_cycles,
        metrics.unit_count,
        metrics.sync_count,
    )


def _always_stop(monkeypatch):
    """Plant a stop rule that stops every candidate at its first window."""
    monkeypatch.setattr(passes, "gate_bound", lambda *args: "movement")


class TestStreamingGate:
    """The gate stops a losing candidate once a prefix proves it loses."""

    def test_tiny_split_candidate_stops_at_the_cycle_bound(self):
        machine = small_machine()
        result, points = _traced_compile(tiny_app(), machine)
        stopped = [p for p in points if "stopped_after_units" in p]
        assert [p["variant"] for p in stopped] == ["split"]
        (stop,) = stopped
        assert stop["bound"] == "cycles" and stop["accepted"] is False
        star = next(p for p in points if p["variant"] == "star")
        assert stop["cycles"] >= star["cycles"]

        checked_machine = small_machine()
        with check.checking():
            checked, checked_points = _traced_compile(tiny_app(), checked_machine)
        # Check mode runs the candidate to the end but records the same stop.
        assert checked_points == points
        assert checked.variant_by_nest == result.variant_by_nest
        assert checked.window_sizes == result.window_sizes
        assert _digest(checked_machine, checked) == _digest(machine, result)

    def test_stopped_candidate_is_partial(self, monkeypatch):
        from repro.pipeline.passes import _GateStream

        fed = []
        feed = _GateStream.__call__

        def counting_call(self, window):
            stop = feed(self, window)
            fed.append((self.units, stop))
            return stop

        monkeypatch.setattr(_GateStream, "__call__", counting_call)
        _, points = _traced_compile(tiny_app(), small_machine())
        (stop,) = [p for p in points if "stopped_after_units" in p]
        # The schedule ended at the window that crossed the bound ...
        assert fed[-1] == (stop["stopped_after_units"], True)
        assert not any(stopped for _, stopped in fed[:-1])
        # ... well before the end, where check mode's unstopped run goes.
        fed.clear()
        with check.checking():
            _traced_compile(tiny_app(), small_machine())
        assert not any(stopped for _, stopped in fed)
        assert fed[-1][0] > 2 * stop["stopped_after_units"]

    def test_stateful_predictor_never_streams(self, monkeypatch):
        class _Stateful(HitMissPredictor):
            pure_predict = False

        _always_stop(monkeypatch)
        _, points = _traced_compile(gate_program(), small_machine(), _Stateful())
        assert len(points) == 2
        assert not any("stopped_after_units" in p for p in points)

    def test_planted_stop_rule_fails_check_mode(self, monkeypatch):
        machine = small_machine()
        result = compile_program(gate_program(), session_for(machine))
        assert result.variant_by_nest["main"] == "profile"  # a splitting win
        _always_stop(monkeypatch)
        # Without checks the planted rule silently throws the win away ...
        planted = compile_program(gate_program(), session_for(small_machine()))
        assert planted.variant_by_nest["main"] == "star"
        # ... and check mode, which runs the candidate to the end, refuses it.
        with check.checking(), pytest.raises(CheckError, match="but it wins"):
            compile_program(gate_program(), session_for(small_machine()))
