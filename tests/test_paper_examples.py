"""The paper's worked examples (Sections 3 and 5), on constructed geometry.

The paper's figures place data at specific mesh positions we cannot read
off, so these tests pin their own positions and assert exactly
hand-computed movement values, verifying the same effects: MST beats the
default star (Fig 9), level-based splitting respects parentheses (Fig 10),
and a multi-statement window exploits the L1 copy left by an earlier
subcomputation (Fig 11).
"""

import itertools
from typing import Dict

import pytest

from repro.arch.knl import small_machine
from repro.core.balancer import LoadBalancer
from repro.core.locator import DataLocator, Location
from repro.check.oracles import star_cost
from repro.core.scheduler import schedule_statement
from repro.core.splitter import split_statement
from repro.core.window import WindowScheduler
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.ir.statement import Access
from repro.noc.topology import Coord, Mesh2D


class ManualLocator(DataLocator):
    """A locator with hand-pinned array -> node placements (one per array)."""

    def __init__(self, machine, placement: Dict[str, Coord]):
        super().__init__(machine)
        self._nodes = {
            name: machine.mesh.id_of(coord) for name, coord in placement.items()
        }

    def locate(self, access: Access, var2node=None) -> Location:
        l1_copies = ()
        if var2node is not None:
            l1_copies = var2node.nodes_with(self.block_of(access))
        return Location(access, self._nodes[access.array], True, l1_copies)

    def store_node(self, access: Access) -> int:
        return self._nodes[access.array]

    def block_of(self, access: Access) -> int:
        # One block per array: enough for the worked examples.
        return hash(access.array) % (1 << 20)


def build_program(statements, arrays, trip=1):
    program = Program("example")
    for name in arrays:
        program.declare(name, 64)
    program.add_nest(
        LoopNest.of(
            [Loop("i", 0, trip)],
            [parse_statement(s) for s in statements],
            "example",
        )
    )
    return program


@pytest.fixture
def mesh6():
    machine = small_machine()
    machine.mesh = Mesh2D(6, 6)  # wider mesh for the figures' geometry
    return machine


class TestFigure9SingleStatement:
    """A(i) = B(i)+C(i)+D(i)+E(i) with B/E and C/D pairwise close."""

    PLACEMENT = {
        "A": Coord(0, 0),
        "B": Coord(2, 0),   # 2 links from A
        "E": Coord(4, 0),   # 4 links from A, 2 from B
        "C": Coord(0, 4),   # 4 links from A
        "D": Coord(0, 2),   # 2 links from A, 2 from C
    }

    def setup_case(self, mesh6):
        program = build_program(
            ["A(i) = B(i) + C(i) + D(i) + E(i)"], list("ABCDE")
        )
        program.declare_on(mesh6)
        locator = ManualLocator(mesh6, self.PLACEMENT)
        instance = next(program.instances())
        return mesh6, locator, instance

    def test_default_movement_is_star(self, mesh6):
        machine, locator, instance = self.setup_case(mesh6)
        # All inputs travel to n_A: 2 + 4 + 2 + 4 = 12 links.
        assert star_cost(instance, locator) == 12

    def test_mst_movement(self, mesh6):
        machine, locator, instance = self.setup_case(mesh6)
        split = split_statement(instance, locator)
        # MST: A-B (2), B-E (2), A-D (2), D-C (2) = 8 links.
        assert split.mst_weight == 8

    def test_subcomputations_execute_near_data(self, mesh6):
        machine, locator, instance = self.setup_case(mesh6)
        split = split_statement(instance, locator)
        schedule = schedule_statement(
            split, locator, LoadBalancer(machine.node_count), itertools.count()
        )
        assert schedule.movement == 8
        final = next(s for s in schedule.subcomputations if s.is_final)
        assert final.node == machine.mesh.id_of(self.PLACEMENT["A"])
        # B+E combine away from A: at least one intermediate subcomputation.
        assert len(schedule.subcomputations) >= 2


class TestFigure10Parentheses:
    """A(i) = B(i) * (C(i) + D(i) + E(i)): the inner sum reduces first."""

    PLACEMENT = {
        "A": Coord(0, 0),
        "B": Coord(1, 0),
        "C": Coord(4, 0),
        "D": Coord(4, 1),
        "E": Coord(5, 1),
    }

    def setup_case(self, mesh6):
        program = build_program(["A(i) = B(i) * (C(i) + D(i) + E(i))"], list("ABCDE"))
        program.declare_on(mesh6)
        locator = ManualLocator(mesh6, self.PLACEMENT)
        instance = next(program.instances())
        return mesh6, locator, instance

    def test_default_movement(self, mesh6):
        machine, locator, instance = self.setup_case(mesh6)
        # B:1 + C:4 + D:5 + E:6 = 16.
        assert star_cost(instance, locator) == 16

    def test_level_based_mst(self, mesh6):
        machine, locator, instance = self.setup_case(mesh6)
        split = split_statement(instance, locator)
        # Inner set {C,D,E}: C-D (1) + D-E (1).  Outer: B attaches to the
        # component at its nearest member (C, distance 3), A-B (1) => 6.
        assert split.mst_weight == 6

    def test_inner_sum_before_multiply(self, mesh6):
        machine, locator, instance = self.setup_case(mesh6)
        split = split_statement(instance, locator)
        schedule = schedule_statement(
            split, locator, LoadBalancer(machine.node_count), itertools.count()
        )
        add_subs = [s for s in schedule.subcomputations if s.op == "+" and s.op_count]
        mul_subs = [s for s in schedule.subcomputations if s.op == "*" and s.op_count]
        assert add_subs and mul_subs
        # The multiply consumes the additive component's result.
        add_uids = {s.uid for s in add_subs}
        consumed = {
            r.producer_uid for s in mul_subs for r in s.sub_results
        }
        assert add_uids & consumed or any(
            r.producer_uid in add_uids
            for s in schedule.subcomputations
            for r in s.sub_results
        )


class TestFigure11MultiStatementReuse:
    """S1: A=B+C+D+E, S2: X=Y+C.  C's fetch into n_D is reused by S2."""

    PLACEMENT = {
        "A": Coord(0, 0),
        "B": Coord(2, 0),
        "E": Coord(4, 0),
        "C": Coord(0, 4),
        "D": Coord(0, 2),
        "X": Coord(1, 2),
        "Y": Coord(1, 3),
    }

    def make_scheduler(self, machine, locator):
        """A scheduler that splits both statements."""
        return WindowScheduler(
            machine,
            locator,
            split_plan={("example", 0): True, ("example", 1): True},
            balancer=LoadBalancer(machine.node_count),
        )

    def test_window_reuses_l1_copy(self, mesh6):
        program = build_program(
            ["A(i) = B(i) + C(i) + D(i) + E(i)", "X(i) = Y(i) + C(i)"],
            list("ABCDE") + ["X", "Y"],
        )
        program.declare_on(mesh6)
        locator = ManualLocator(mesh6, self.PLACEMENT)
        instances = list(program.instances())

        scheduler = self.make_scheduler(mesh6, locator)
        window = scheduler.schedule_window(instances)
        together = window.movement

        # Scheduling each statement in its own window loses the reuse.
        scheduler_isolated = self.make_scheduler(mesh6, locator)
        isolated = sum(
            scheduler_isolated.schedule_window([inst]).movement
            for inst in instances
        )
        assert together < isolated

    def test_s2_gather_hits_l1(self, mesh6):
        program = build_program(
            ["A(i) = B(i) + C(i) + D(i) + E(i)", "X(i) = Y(i) + C(i)"],
            list("ABCDE") + ["X", "Y"],
        )
        program.declare_on(mesh6)
        locator = ManualLocator(mesh6, self.PLACEMENT)
        instances = list(program.instances())
        scheduler = self.make_scheduler(mesh6, locator)
        window = scheduler.schedule_window(instances)
        s2 = window.schedules[1]
        c_gathers = [
            g
            for s in s2.subcomputations
            for g in s.gathered
            if g.access.array == "C"
        ]
        assert c_gathers and c_gathers[0].l1_hit
