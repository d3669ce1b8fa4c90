"""Tests for the window scheduler, size search, profiling, and partitioner."""

import pytest

from repro.core.locator import DataLocator
from repro.core.partitioner import (
    PartitionConfig,
    profile_access_counts,
    train_predictor,
)
from repro.core.profiling import build_split_plan, profile_statements
from repro.core.splitter import split_statement
from repro.core.window import (
    MAX_WINDOW_SIZE,
    WindowConfig,
    WindowScheduler,
    WindowSizeSearch,
)
from repro.cache.predictor import HitMissPredictor
from repro.errors import SchedulingError
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for


#: Split both statements of the ``declared`` program's nest.
SPLIT_ALL = {("main", 0): True, ("main", 1): True}


class TestWindowScheduler:
    def test_window_boundaries(self, declared):
        machine, program = declared
        scheduler = WindowScheduler(machine, DataLocator(machine), split_plan=SPLIT_ALL)
        schedule = scheduler.schedule_nest(program, program.nests[0], 4)
        assert schedule.window_size == 4
        assert all(w.statement_count <= 4 for w in schedule.windows)
        assert schedule.statement_count == program.nests[0].instance_count

    def test_bad_window_size(self, declared):
        machine, program = declared
        scheduler = WindowScheduler(machine, DataLocator(machine), split_plan=SPLIT_ALL)
        with pytest.raises(SchedulingError):
            scheduler.schedule_nest(program, program.nests[0], 0)

    def test_reuse_lowers_movement(self, declared):
        machine, program = declared
        nest = program.nests[0]
        aware = WindowScheduler(
            machine,
            DataLocator(machine),
            WindowConfig(reuse_aware=True),
            split_plan=SPLIT_ALL,
        ).schedule_nest(program, nest, 8)
        agnostic = WindowScheduler(
            machine,
            DataLocator(machine),
            WindowConfig(reuse_aware=False),
            split_plan=SPLIT_ALL,
        ).schedule_nest(program, nest, 8)
        assert aware.movement <= agnostic.movement

    def test_sync_counts_non_negative_and_minimized(self, declared):
        machine, program = declared
        scheduler = WindowScheduler(machine, DataLocator(machine), split_plan=SPLIT_ALL)
        schedule = scheduler.schedule_nest(program, program.nests[0], 4)
        assert 0 <= schedule.sync_count <= schedule.sync_count_unminimized

    def test_fallback_nodes_place_stars(self, declared):
        machine, program = declared
        fallback = {inst.seq: 9 for inst in program.instances()}
        scheduler = WindowScheduler(
            machine,
            DataLocator(machine),
            WindowConfig(),
            fallback_nodes=fallback,
            split_plan={("main", 0): False, ("main", 1): False},
        )
        schedule = scheduler.schedule_nest(program, program.nests[0], 1)
        nodes = {s.node for w in schedule.windows for st in w.schedules
                 for s in st.subcomputations}
        assert nodes == {9}

    def test_split_plan_respected(self, declared):
        machine, program = declared
        scheduler = WindowScheduler(
            machine,
            DataLocator(machine),
            WindowConfig(),
            split_plan={("main", 0): True, ("main", 1): False},
        )
        schedule = scheduler.schedule_nest(program, program.nests[0], 2)
        for window in schedule.windows:
            for statement_schedule in window.schedules:
                body_index = statement_schedule.instance.body_index
                if body_index == 1:
                    assert len(statement_schedule.subcomputations) == 1


class TestWindowSizeSearch:
    def test_tries_all_sizes(self, declared):
        machine, program = declared
        search = WindowSizeSearch(machine, DataLocator(machine), split_plan=SPLIT_ALL)
        outcome = search.search(program, program.nests[0])
        assert set(outcome.movement_by_size) == set(range(1, MAX_WINDOW_SIZE + 1))
        assert 1 <= outcome.best_size <= MAX_WINDOW_SIZE

    def test_best_size_minimizes_sampled_movement(self, declared):
        machine, program = declared
        search = WindowSizeSearch(machine, DataLocator(machine), split_plan=SPLIT_ALL)
        outcome = search.search(program, program.nests[0])
        best = min(outcome.movement_by_size.values())
        assert outcome.movement_by_size[outcome.best_size] == best


class TestProfiling:
    def test_profiles_cover_statements(self, declared):
        machine, program = declared
        profiles = profile_statements(machine, program, DataLocator(machine))
        assert set(profiles) == {("main", 0), ("main", 1)}
        for profile in profiles.values():
            assert profile.instances > 0
            assert profile.star_movement >= 0
            assert profile.mst_weight >= 0

    def test_serial_chain_detection(self, machine):
        p = Program()
        p.declare("S", 64)
        p.declare("A", 64, 8)
        p.add_nest(
            LoopNest.of(
                [Loop("i", 0, 4), Loop("k", 0, 4)],
                [parse_statement("S(i) = S(i) + A(i,k)")],
                "reduction",
            )
        )
        p.declare_on(machine)
        profiles = profile_statements(machine, p, DataLocator(machine))
        assert profiles[("reduction", 0)].serial_chain
        plan = build_split_plan(profiles, bias=0.0)
        assert plan[("reduction", 0)] is False

    @pytest.mark.parametrize("pure", [True, False])
    def test_profile_splits_with_the_session_operand_tree(self, machine, pure):
        """Under ``flatten_products`` the profile averages flattened MSTs,
        through the split kernel (pure) and the scalar splitter alike."""

        class StatefulPredictor:
            pure_predict = False

            def predict(self, address):
                return True

        program = Program("flat")
        # B beside D and C beside E: the structured tree must join B to C
        # and D to E, the flattened one pairs the neighbours.
        for phase, name in ((0, "B"), (8, "C"), (0, "D"), (8, "E"), (4, "A")):
            program.declare(name, 512, bank_phase=phase)
        program.add_nest(
            LoopNest.of(
                [Loop("i", 0, 32)],
                [parse_statement("A(i) = B(i) * C(i) + D(i) * E(i)")],
                "main",
            )
        )
        config = PartitionConfig(window=WindowConfig(flatten_products=True))
        session = session_for(machine, config)
        locator = DataLocator(machine, None if pure else StatefulPredictor())
        profiles = profile_statements(machine, program, locator, session=session)
        instances = list(program.instances())

        def mean_weight(flatten):
            weights = [
                split_statement(i, locator, flatten_products=flatten).mst_weight
                for i in instances
            ]
            return sum(weights) / len(weights)

        assert mean_weight(True) != mean_weight(False)  # the trees differ here
        assert profiles[("main", 0)].mst_weight == mean_weight(True)

    def test_profile_access_counts(self, tiny_program):
        counts = profile_access_counts(tiny_program)
        assert counts["C"] == pytest.approx(2 * 32)  # read by both statements

    def test_train_predictor_returns_accuracy(self, declared):
        machine, program = declared
        accuracy = train_predictor(machine, program, HitMissPredictor(), 200)
        assert 0.0 <= accuracy <= 1.0


class TestNdpPartitioner:
    def test_partition_end_to_end(self, machine, tiny_program):
        result = compile_program(tiny_program, session_for(machine))
        assert result.statement_count == tiny_program.total_instances()
        assert set(result.window_sizes) == {"main"}
        assert result.variant_by_nest["main"] in ("star", "profile", "split")
        units = result.units()
        assert len(units) >= result.statement_count
        assert len({u.uid for u in units}) == len(units)

    def test_every_instance_has_final_store(self, machine, tiny_program):
        result = compile_program(tiny_program, session_for(machine))
        stores = [u for u in result.units() if u.store is not None]
        assert len(stores) == tiny_program.total_instances()

    def test_split_plan_override_skips_gate(self, machine, tiny_program):
        config = PartitionConfig(
            split_plan_override={("main", 0): True, ("main", 1): True},
            predictor=None,
        )
        result = compile_program(tiny_program, session_for(machine, config))
        assert result.variant_by_nest["main"] == "override"

    def test_fixed_window_size(self, machine, tiny_program):
        config = PartitionConfig(
            adaptive_window=False,
            fixed_window_size=3,
            split_plan_override={("main", 0): True, ("main", 1): True},
            predictor=None,
        )
        result = compile_program(tiny_program, session_for(machine, config))
        assert result.window_sizes["main"] == 3

    def test_predictor_accuracy_reported(self, machine, tiny_program):
        result = compile_program(tiny_program, session_for(machine))
        assert result.predictor_accuracy is not None
        assert 0.0 <= result.predictor_accuracy <= 1.0

    def test_op_fraction_partition(self, machine, tiny_program):
        config = PartitionConfig(
            split_plan_override={("main", 0): True, ("main", 1): True},
            predictor=None,
        )
        result = compile_program(tiny_program, session_for(machine, config))
        fractions = result.remapped_op_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
