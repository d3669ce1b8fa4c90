"""Unit tests for core building blocks: MST, balancer, locator, sync graph."""

import pytest

from repro.core.balancer import BALANCE_THRESHOLD, OP_COSTS, LoadBalancer, op_cost
from repro.core.locator import DataLocator, VariableToNodeMap
from repro.core.mst import kruskal
from repro.core.syncgraph import SyncGraph
from repro.errors import SchedulingError
from repro.ir.statement import Access
from repro.noc.topology import Mesh2D
from repro.utils.rng import make_rng


def kruskal_weight(vertices, distance):
    """Weight of Kruskal's tree over one-node components at ``vertices``."""
    edges = kruskal(vertices, {v: (v,) for v in vertices}, distance)
    return sum(edge.weight for _, _, edge in edges)


class TestKruskal:
    def line_distance(self, a, b):
        return abs(a - b)

    def test_connects_all_vertices(self):
        vertices = [1, 5, 9, 14]
        edges = kruskal(vertices, {v: (v,) for v in vertices}, self.line_distance)
        assert len(edges) == 3

    def test_minimum_weight_on_line(self):
        assert kruskal_weight([0, 2, 5], self.line_distance) == 5  # 0-2 (2) + 2-5 (3)

    def test_mesh_distances(self):
        mesh = Mesh2D(4, 4)
        assert kruskal_weight([0, 3, 12, 15], mesh.distance) == 9  # three sides

    def test_single_vertex(self):
        assert kruskal([3], {3: (3,)}, self.line_distance) == []

    def test_mst_never_exceeds_star(self):
        mesh = Mesh2D(6, 6)
        rng = make_rng(7)
        for _ in range(25):
            vertices = sorted(set(rng.integers(0, 36, size=6).tolist()))
            if len(vertices) < 2:
                continue
            center = vertices[0]
            star = sum(mesh.distance(center, v) for v in vertices[1:])
            assert kruskal_weight(vertices, mesh.distance) <= star


class TestLoadBalancer:
    def test_op_costs_division_10x(self):
        assert OP_COSTS["/"] == 10 * OP_COSTS["+"]
        assert op_cost("/", 2) == 20.0

    def test_first_assignment_never_vetoed(self):
        balancer = LoadBalancer(4)
        assert not balancer.would_unbalance(0, 100.0)

    def test_veto_over_threshold(self):
        assert BALANCE_THRESHOLD == 0.10  # the paper's 10% rule
        balancer = LoadBalancer(4)
        balancer.record(1, 10.0)
        assert balancer.would_unbalance(0, 12.0)   # 12 > 1.1 * 10
        assert not balancer.would_unbalance(0, 10.5)

    def test_choose_prefers_first_ok(self):
        balancer = LoadBalancer(4)
        balancer.record(0, 10.0)
        balancer.record(1, 1.0)
        assert balancer.choose([0, 1], 5.0) == 0 or balancer.choose([0, 1], 5.0) == 1

    def test_choose_skips_overloaded(self):
        balancer = LoadBalancer(4)
        balancer.record(0, 20.0)
        balancer.record(1, 10.0)
        assert balancer.choose([0, 1], 5.0) == 1
        assert balancer.skips >= 1

    def test_choose_falls_back_to_least_loaded(self):
        balancer = LoadBalancer(2)
        balancer.record(0, 10.0)
        balancer.record(1, 5.0)
        assert balancer.choose([0, 1], 100.0) == 1

    def test_imbalance_metric(self):
        balancer = LoadBalancer(2)
        assert balancer.imbalance() == 0.0
        balancer.record(0, 10.0)
        balancer.record(1, 10.0)
        assert balancer.imbalance() == pytest.approx(1.0)

    def test_reset(self):
        balancer = LoadBalancer(2)
        balancer.record(0, 5.0)
        balancer.reset()
        assert balancer.load == [0.0, 0.0]


class TestVariableToNodeMap:
    def test_record_and_lookup(self):
        v2n = VariableToNodeMap()
        v2n.record(block=7, node=3)
        assert v2n.nodes_with(7) == (3,)

    def test_multiple_holders(self):
        v2n = VariableToNodeMap()
        v2n.record(7, 3)
        v2n.record(7, 5)
        assert set(v2n.nodes_with(7)) == {3, 5}

    def test_capacity_eviction(self):
        v2n = VariableToNodeMap(per_node_capacity=2)
        for block in (1, 2, 3):
            v2n.record(block, 0)
        assert v2n.nodes_with(1) == ()  # FIFO-evicted
        assert v2n.nodes_with(3) == (0,)

    def test_touch_refreshes(self):
        v2n = VariableToNodeMap(per_node_capacity=2)
        v2n.record(1, 0)
        v2n.record(2, 0)
        v2n.record(1, 0)  # refresh 1
        v2n.record(3, 0)  # evicts 2
        assert v2n.nodes_with(1) == (0,)
        assert v2n.nodes_with(2) == ()

    def test_clear(self):
        v2n = VariableToNodeMap()
        v2n.record(1, 0)
        v2n.clear()
        assert len(v2n) == 0


class TestDataLocator:
    def test_primary_is_home_without_predictor(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        access = Access("B", 5)
        location = locator.locate(access)
        assert location.primary == machine.home_node("B", 5)
        assert location.on_chip

    def test_l1_copies_from_map(self, declared):
        machine, program = declared
        locator = DataLocator(machine)
        v2n = VariableToNodeMap()
        access = Access("B", 5)
        v2n.record(locator.block_of(access), 9)
        location = locator.locate(access, v2n)
        assert 9 in location.l1_copies
        assert location.candidates()[0] == 9  # copies first

    def test_store_node(self, declared):
        machine, _ = declared
        locator = DataLocator(machine)
        assert locator.store_node(Access("A", 3)) == machine.home_node("A", 3)

    def test_predictor_miss_locates_at_mc(self, declared):
        machine, _ = declared

        class AlwaysMiss:
            def predict(self, address):
                return False

        locator = DataLocator(machine, AlwaysMiss())
        location = locator.locate(Access("B", 5))
        assert not location.on_chip
        assert location.primary == machine.mc_node("B", 5)


class TestSyncGraph:
    def test_add_and_count(self):
        graph = SyncGraph()
        graph.add_arc(1, 2)
        graph.add_arc(2, 3)
        assert graph.arc_count() == 2

    def test_duplicate_arc_ignored(self):
        graph = SyncGraph()
        graph.add_arc(1, 2)
        graph.add_arc(1, 2)
        assert graph.arc_count() == 1

    def test_self_arc_rejected(self):
        with pytest.raises(SchedulingError):
            SyncGraph().add_arc(1, 1)

    def test_transitive_reduction_chain(self):
        # Paper's example: a chain 1->2->...->r makes a direct 1->r redundant.
        graph = SyncGraph()
        for i in range(1, 5):
            graph.add_arc(i, i + 1)
        graph.add_arc(1, 5)
        removed = graph.minimize()
        assert removed == 1
        assert (1, 5) not in graph.arcs()

    def test_reduction_keeps_needed_arcs(self):
        graph = SyncGraph()
        graph.add_arc(1, 2)
        graph.add_arc(1, 3)
        assert graph.minimize() == 0
        assert graph.arc_count() == 2

    def test_diamond(self):
        graph = SyncGraph()
        graph.add_arc(1, 2)
        graph.add_arc(1, 3)
        graph.add_arc(2, 4)
        graph.add_arc(3, 4)
        graph.add_arc(1, 4)  # redundant through both branches
        assert graph.minimize() == 1
        assert len(graph.arcs()) == 4

    def test_non_monotonic_uids(self):
        # Folding can produce arcs from higher to lower uids; still a DAG.
        graph = SyncGraph()
        graph.add_arc(9, 2)
        graph.add_arc(2, 5)
        graph.add_arc(9, 5)
        assert graph.minimize() == 1

    def test_merge(self):
        a, b = SyncGraph(), SyncGraph()
        a.add_arc(1, 2)
        b.add_arc(2, 3)
        a.merge(b)
        assert a.arc_count() == 2
