"""Unit tests for statement splitting and subcomputation scheduling."""

import itertools

import pytest

from repro.check.oracles import star_cost
from repro.core.balancer import LoadBalancer
from repro.core.locator import DataLocator, VariableToNodeMap
from repro.core.scheduler import schedule_star, schedule_statement
from repro.core.splitter import split_statement
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program


def first_instance(program):
    return next(program.instances())


def split_and_schedule(machine, program, instance=None, var2node=None):
    locator = DataLocator(machine)
    inst = instance or first_instance(program)
    split = split_statement(inst, locator, var2node)
    balancer = LoadBalancer(machine.node_count)
    schedule = schedule_statement(
        split, locator, balancer, itertools.count(), var2node
    )
    return split, schedule


class TestSplitter:
    def test_mst_weight_not_above_star(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        for instance in itertools.islice(program.instances(), 16):
            split = split_statement(instance, locator)
            star = star_cost(instance, locator)
            assert split.mst_weight <= star

    def test_leaves_match_reads(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        split = split_statement(instance, locator)
        assert split.leaf_count == len(instance.reads)

    def test_store_node_is_output_home(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        split = split_statement(instance, locator)
        assert split.store_node == machine.home_node(
            instance.write.array, instance.write.index
        )

    def test_merges_span_all_components(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        split = split_statement(instance, locator)
        # A spanning tree over distinct leaf nodes + store needs
        # (#distinct vertices - 1) merges.
        vertices = {leaf.vertex for leaf in split.leaves.values()}
        vertices.add(split.store_node)
        assert len(split.merges) == len(vertices) - 1

    def test_l1_copy_changes_vertex(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        v2n = VariableToNodeMap()
        # Model C(0) resident in the store node's L1: the vertex choice
        # should prefer it (distance 0 to the store anchor).
        target = locator.store_node(instance.write)
        c_access = instance.reads[1]
        v2n.record(locator.block_of(c_access), target)
        split = split_statement(instance, locator, v2n)
        c_leaf = next(
            leaf for leaf in split.leaves.values() if leaf.access == c_access
        )
        assert c_leaf.vertex == target


class TestScheduler:
    def test_final_subcomputation_at_store_node(self, declared):
        machine, program = declared
        _, schedule = split_and_schedule(machine, program)
        final = next(s for s in schedule.subcomputations if s.is_final)
        assert final.node == schedule.store_node
        assert final.uid == schedule.final_uid

    def test_exactly_one_store(self, declared):
        machine, program = declared
        _, schedule = split_and_schedule(machine, program)
        assert sum(1 for s in schedule.subcomputations if s.is_final) == 1

    def test_all_reads_gathered_once(self, declared):
        machine, program = declared
        instance = first_instance(program)
        _, schedule = split_and_schedule(machine, program, instance)
        gathered = [g.access for s in schedule.subcomputations for g in s.gathered]
        assert sorted(map(str, gathered)) == sorted(map(str, instance.reads))

    def test_op_count_matches_statement(self, declared):
        machine, program = declared
        instance = first_instance(program)
        _, schedule = split_and_schedule(machine, program, instance)
        total_ops = sum(s.op_count for s in schedule.subcomputations)
        assert total_ops == instance.statement.operation_count()

    def test_movement_close_to_mst_weight(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        for instance in itertools.islice(program.instances(), 8):
            split = split_statement(instance, locator)
            balancer = LoadBalancer(machine.node_count)
            schedule = schedule_statement(
                split, locator, balancer, itertools.count()
            )
            # Value tracking may deviate from the MST bound slightly when
            # equal-weight merges interleave, but never above the star.
            assert schedule.movement <= star_cost(instance, locator) + split.mst_weight

    def test_dag_is_acyclic_and_closed(self, declared):
        machine, program = declared
        _, schedule = split_and_schedule(machine, program)
        uids = {s.uid for s in schedule.subcomputations}
        for sub in schedule.subcomputations:
            for result in sub.sub_results:
                assert result.producer_uid in uids
                assert result.producer_uid != sub.uid

    def test_sync_arcs_only_cross_node(self, declared):
        machine, program = declared
        _, schedule = split_and_schedule(machine, program)
        by_uid = {s.uid: s for s in schedule.subcomputations}
        for producer, consumer in schedule.sync_arcs():
            assert by_uid[producer].node != by_uid[consumer].node

    def test_parallel_degree_at_least_one(self, declared):
        machine, program = declared
        _, schedule = split_and_schedule(machine, program)
        assert schedule.parallel_degree() >= 1

    def test_division_cost_weighted(self, machine):
        program = Program()
        for name in ("A", "B", "C"):
            program.declare(name, 64)
        program.add_nest(
            LoopNest.of([Loop("i", 0, 2)], [parse_statement("A(i) = B(i) / C(i)")])
        )
        program.declare_on(machine)
        _, schedule = split_and_schedule(machine, program)
        assert sum(s.cost for s in schedule.subcomputations) == pytest.approx(10.0)

    def test_var2node_records_gathers(self, declared):
        machine, program = declared
        v2n = VariableToNodeMap()
        split_and_schedule(machine, program, var2node=v2n)
        assert len(v2n) > 0


class TestStarSchedule:
    def test_single_unit(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        schedule = schedule_star(
            instance, locator, LoadBalancer(machine.node_count), itertools.count()
        )
        assert len(schedule.subcomputations) == 1
        unit = schedule.subcomputations[0]
        assert unit.is_final
        assert len(unit.gathered) == len(instance.reads)

    def test_runs_at_exec_node(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        schedule = schedule_star(
            instance, locator, LoadBalancer(machine.node_count),
            itertools.count(), exec_node=7,
        )
        assert schedule.subcomputations[0].node == 7

    def test_star_cost_counts_unique_blocks(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        p = Program()
        p.declare("A", 64)
        p.declare("B", 64)
        p.add_nest(
            LoopNest.of(
                [Loop("i", 0, 2)], [parse_statement("A(i) = B(i) + B(i+1)")]
            )
        )
        p.declare_on(machine)
        inst = first_instance(p)
        # B(0), B(1) share a block: one fetch, plus the store leg (0: local).
        cost = star_cost(inst, locator)
        home_b = machine.home_node("B", 0)
        home_a = machine.home_node("A", 0)
        assert cost == machine.distance(home_b, home_a)

    def test_star_cost_zero_when_resident(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        instance = first_instance(program)
        v2n = VariableToNodeMap()
        node = locator.store_node(instance.write)
        for access in instance.reads:
            v2n.record(locator.block_of(access), node)
        assert star_cost(instance, locator, v2n, node) == 0
