"""Property tests for the sparse mesh geometry and hierarchical placement.

Three claims the mesh-size tentpole rests on, each checked against an
independent oracle:

* the sparse/on-demand distance interface (``distance_fn``,
  ``distance_row``) equals the Floyd-Warshall all-pairs oracle on every
  mesh shape, including non-square and beyond-eager-threshold meshes;
* fault-aware routing on large (closed-form-distance) meshes still
  produces valid shortest walks over the surviving graph;
* the hierarchical placement search ranks exactly the alive nodes — no
  offline tile is ever a candidate, no live tile is dropped.

Plus one planted-bug test per new checker, proving the checker actually
fires (a checker that cannot fail verifies nothing).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.knl import mesh_machine
from repro.baselines.default_placement import (
    HIERARCHICAL_NODE_THRESHOLD,
    DefaultPlacement,
)
from repro.check.invariants import (
    check_mesh_distance_fn,
    check_preferences_cover_alive,
)
from repro.check.oracles import INF, floyd_warshall, walk_is_valid_route
from repro.errors import CheckError, ConfigurationError, FaultError
from repro.faults.plan import FaultPlan, NodeFault
from repro.noc.routing import Router, mesh_links
from repro.noc.topology import Mesh2D

# Small meshes take the eager table path; large ones exercise the
# closed-form callable (node_count > 64) while staying under the
# Floyd-Warshall oracle cap.
small_meshes = st.builds(
    Mesh2D, st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7)
)
large_meshes = st.builds(
    Mesh2D,
    st.integers(min_value=9, max_value=12),
    st.integers(min_value=8, max_value=12),
)


class TestSparseDistances:
    @given(small_meshes)
    @settings(max_examples=20, deadline=None)
    def test_small_mesh_distance_fn_equals_floyd_warshall(self, mesh):
        fn = mesh.distance_fn()
        reference = floyd_warshall(mesh)
        for src in range(mesh.node_count):
            for dst in range(mesh.node_count):
                assert fn(src, dst) == int(reference[src][dst])

    @given(large_meshes)
    @settings(max_examples=6, deadline=None)
    def test_large_mesh_distance_fn_equals_floyd_warshall(self, mesh):
        # Above the eager threshold there is no table behind the callable.
        assert mesh.distance_rows() is None
        fn = mesh.distance_fn()
        reference = floyd_warshall(mesh)
        for src in range(mesh.node_count):
            row = reference[src]
            for dst in range(mesh.node_count):
                assert fn(src, dst) == int(row[dst])

    @given(large_meshes, st.data())
    @settings(max_examples=15, deadline=None)
    def test_distance_row_matches_distance_fn(self, mesh, data):
        src = data.draw(st.integers(0, mesh.node_count - 1))
        fn = mesh.distance_fn()
        row = mesh.distance_row(src)
        assert [int(v) for v in row] == [
            fn(src, dst) for dst in range(mesh.node_count)
        ]

    def test_checker_accepts_healthy_meshes(self):
        check_mesh_distance_fn(Mesh2D(6, 6))
        check_mesh_distance_fn(Mesh2D(9, 9))
        check_mesh_distance_fn(Mesh2D(5, 3))

    def test_dense_table_refused_above_cap(self):
        mesh = Mesh2D(70, 70)  # 4900 nodes > the 4096 dense cap
        with pytest.raises(ConfigurationError, match="refused"):
            mesh.distance_table
        # The sparse interface still answers.
        assert mesh.distance_fn()(0, 70 * 70 - 1) == 69 + 69
        assert int(mesh.distance_row(0)[70]) == 1


class TestRoutingOnLargeMeshes:
    """Fault-aware routing where distances come from the closed form."""

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_degraded_routes_are_valid_shortest_walks(self, data):
        mesh = Mesh2D(9, 9)  # beyond the eager-table threshold
        links = mesh_links(mesh)
        sampled = data.draw(
            st.lists(st.sampled_from(links), max_size=3, unique=True)
        )
        dead_links = [link for (a, b) in sampled for link in ((a, b), (b, a))]
        dead_nodes = data.draw(
            st.lists(st.integers(0, mesh.node_count - 1), max_size=2, unique=True)
        )
        router = Router(mesh, dead_links, dead_nodes)
        try:
            router.check_connected()
        except FaultError:
            assume(False)
        reference = floyd_warshall(mesh, dead_links, dead_nodes)
        alive = [n for n in range(mesh.node_count) if router.alive(n)]
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(alive), st.sampled_from(alive)),
                min_size=1,
                max_size=8,
            )
        )
        for src, dst in pairs:
            expected = reference[src][dst]
            assert expected != INF
            walk = router.route_links(src, dst)
            assert walk_is_valid_route(walk, src, dst, mesh)
            assert len(walk) == int(expected)
            assert not set(walk) & set(dead_links)


def _machine_with_dead_nodes(cols, rows, dead):
    machine = mesh_machine(cols, rows)
    machine.apply_faults(
        FaultPlan(nodes=tuple(NodeFault(node) for node in dead))
    )
    return machine


class TestHierarchicalPlacementFaults:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_preferences_exclude_offline_nodes(self, data):
        machine = mesh_machine(9, 9)
        protected = set(machine.mc_nodes) | set(machine.edc_nodes)
        candidates = sorted(
            set(range(machine.node_count)) - protected
        )
        dead = data.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=4,
                     unique=True)
        )
        try:
            machine = _machine_with_dead_nodes(9, 9, dead)
        except FaultError:
            assume(False)  # disconnecting plans are validation's problem
        placement = DefaultPlacement(machine)
        alive = machine.alive_nodes()
        # At most 4 dead tiles leave at least 77 of 81 alive: hierarchical.
        assert placement.uses_hierarchical(len(alive))
        # Residency profiles may even name dead banks (defensive): the
        # ranking must still cover exactly the alive set.
        homes = st.integers(0, machine.node_count - 1)
        counts = data.draw(
            st.lists(
                st.dictionaries(homes, st.integers(1, 50), max_size=12),
                min_size=1,
                max_size=6,
            )
        )
        preferences = placement.rank_preferences(counts, alive)
        dead_set = set(dead)
        for ranked in preferences:
            assert sorted(ranked) == sorted(alive)
            assert not set(ranked) & dead_set

    def test_auto_switches_at_threshold(self):
        # 8x8 has exactly HIERARCHICAL_NODE_THRESHOLD alive nodes: flat.
        for cols, rows, hierarchical in (
            (6, 6, False), (8, 8, False), (12, 12, True), (16, 16, True),
        ):
            placement = DefaultPlacement(mesh_machine(cols, rows))
            alive = placement.machine.alive_nodes()
            assert len(alive) == cols * rows, (cols, rows)
            assert placement.uses_hierarchical() is hierarchical, (cols, rows)
        assert HIERARCHICAL_NODE_THRESHOLD == 8 * 8

    def test_flat_and_hierarchical_agree_on_top_choice_hot_region(self):
        # A chunk whose residency is concentrated on one node must rank
        # that node first under both searches.
        machine = mesh_machine(9, 9)
        placement = DefaultPlacement(machine)
        alive = machine.alive_nodes()
        counts = [{40: 100, 3: 1}, {7: 9, 80: 2}]
        flat = placement._rank_flat(counts, alive)
        hier = placement._rank_hierarchical(counts)
        assert [r[0] for r in flat] == [r[0] for r in hier] == [40, 7]


class TestPlantedBugs:
    """Each new checker must actually fire on a planted violation."""

    def test_distance_checker_catches_skewed_metric(self):
        class SkewedMesh(Mesh2D):
            def distance_fn(self):
                fn = super().distance_fn()
                return lambda a, b: fn(a, b) + (1 if (a, b) == (0, 5) else 0)

        with pytest.raises(CheckError, match="Floyd-Warshall"):
            check_mesh_distance_fn(SkewedMesh(4, 4))

    def test_preferences_checker_catches_dropped_node(self):
        alive = [0, 1, 2, 3]
        with pytest.raises(CheckError, match="missing \\[3\\]"):
            check_preferences_cover_alive([[0, 1, 2]], alive)

    def test_preferences_checker_catches_duplicate(self):
        with pytest.raises(CheckError, match="duplicates=True"):
            check_preferences_cover_alive([[0, 1, 1, 3]], [0, 1, 2, 3])

    def test_preferences_checker_catches_resurrected_node(self):
        with pytest.raises(CheckError, match="extra \\[9\\]"):
            check_preferences_cover_alive([[0, 1, 2, 9]], [0, 1, 2, 3])

    def test_preferences_checker_accepts_permutations(self):
        check_preferences_cover_alive([[3, 0, 2, 1], [1, 2, 3, 0]], [0, 1, 2, 3])
