"""Tests for the empirical gate and plan selection in the partitioner."""

from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.core.partitioner import PartitionConfig
from repro.core.window import WindowConfig, WindowScheduler
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for


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

    def test_always_split_bypasses_gate(self, machine):
        config = PartitionConfig(window=WindowConfig(always_split=True))
        result = compile_program(gate_program(), session_for(machine, config))
        assert result.variant_by_nest["main"] == "split"
        # Splitting produced multi-unit statements somewhere.
        multi = [
            s
            for s in result.nest_schedules["main"].statement_schedules()
            if len(s.subcomputations) > 1
        ]
        assert multi

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
        """(window sizes passed to schedule_nest, simulated schedules, result)."""
        from repro.pipeline.passes import SchedulePass

        sizes, measured = [], []
        schedule_nest = WindowScheduler.schedule_nest
        simulate = SchedulePass._simulate

        def counting_schedule_nest(self, program, nest, window_size):
            sizes.append(window_size)
            return schedule_nest(self, program, nest, window_size)

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
        return sizes, measured, result

    def test_pure_predictor_schedules_each_candidate_once(self, monkeypatch):
        sizes, measured, result = self._compile(monkeypatch, HitMissPredictor())
        assert len(measured) == 2  # all-star plus one splitting plan
        assert len(sizes) == len(measured)
        assert any(result.nest_schedules["main"] is s for s in measured)

    def test_stateful_predictor_schedules_the_winner_again(self, monkeypatch):
        class _Stateful(HitMissPredictor):
            pure_predict = False

        sizes, measured, result = self._compile(monkeypatch, _Stateful())
        assert len(measured) == 2
        assert len(sizes) == len(measured) + 1
        assert not any(result.nest_schedules["main"] is s for s in measured)

    def test_fixed_window_measures_every_candidate_at_the_fixed_size(
        self, monkeypatch
    ):
        config = PartitionConfig(adaptive_window=False, fixed_window_size=3)
        sizes, measured, result = self._compile(
            monkeypatch, HitMissPredictor(), config
        )
        assert len(measured) == 2
        assert sizes == [3, 3]
        assert [s.window_size for s in measured] == [3, 3]
        assert result.window_sizes == {"main": 3}
