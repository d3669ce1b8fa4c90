"""Differential tests: Kruskal / the MST splitter vs exhaustive search.

:func:`repro.core.mst.kruskal` is the one Kruskal: every split, scalar or
table-built, runs it once per operand set, whose members are components
(a leaf's node, the store node, or an inner set's node union).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.knl import small_machine
from repro.check.invariants import check_split_weight
from repro.check.oracles import (
    component_distance,
    exhaustive_mst_weight,
    oracle_split_weight,
)
from repro.core.locator import DataLocator
from repro.core.mst import kruskal
from repro.core.splitter import split_statement
from repro.errors import CheckError
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.noc.topology import Mesh2D

meshes = st.builds(
    Mesh2D, st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6)
)

# Right-hand sides spanning flat sums, products, and nested groupings —
# each exercises a different operand-set hierarchy in the splitter.
RHS_SHAPES = [
    "B(i) + C(i)",
    "B(i) + C(i) + D(i)",
    "B(i) + C(i) + D(i) + E(i)",
    "B(i) * C(i) + D(i)",
    "B(i) + C(i) * D(i) * E(i)",
    "B(i) * C(i) + D(i) * E(i)",
    "B(i) / C(i) + D(i)",
]


def _split_of_shape(shape: str, length: int = 96, count: int = 16):
    """Split the first instance of ``A(i) = <shape>`` on a small machine."""
    machine = small_machine()
    program = Program("oracle")
    for name in ("A", "B", "C", "D", "E"):
        program.declare(name, length)
    program.add_nest(
        LoopNest.of([Loop("i", 0, count)], [parse_statement(f"A(i) = {shape}")], "n")
    )
    program.declare_on(machine)
    locator = DataLocator(machine, None)
    instance = next(iter(program.instances()))
    split = split_statement(instance, locator, None)
    return machine, split


class TestKruskalVsExhaustive:
    @given(meshes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_kruskal_weight_is_the_true_minimum(self, mesh, data):
        count = data.draw(st.integers(2, min(6, mesh.node_count)))
        vertices = data.draw(
            st.lists(
                st.integers(0, mesh.node_count - 1),
                min_size=count, max_size=count, unique=True,
            )
        )
        edges = kruskal(vertices, {v: (v,) for v in vertices}, mesh.distance)
        expected = exhaustive_mst_weight(
            len(vertices),
            lambda i, j: mesh.distance(vertices[i], vertices[j]),
        )
        assert sum(edge.weight for _, _, edge in edges) == expected

    @given(meshes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_component_kruskal_weight_is_the_true_minimum(self, mesh, data):
        """Multi-node components: an inner operand set at the next level."""
        node = st.integers(0, mesh.node_count - 1)
        components = data.draw(
            st.lists(
                st.lists(node, min_size=1, max_size=3, unique=True).map(tuple),
                min_size=2, max_size=6,
            )
        )
        nodes_of = dict(enumerate(components))
        edges = kruskal(list(nodes_of), nodes_of, mesh.distance)
        assert len(edges) == len(components) - 1
        for a, b, edge in edges:
            assert edge.a in nodes_of[a] and edge.b in nodes_of[b]
            assert edge.weight == component_distance(
                nodes_of[a], nodes_of[b], mesh.distance
            )
        expected = exhaustive_mst_weight(
            len(components),
            lambda i, j: component_distance(
                components[i], components[j], mesh.distance
            ),
        )
        assert sum(edge.weight for _, _, edge in edges) == expected

    def test_exhaustive_rejects_oversized_inputs(self):
        with pytest.raises(CheckError):
            exhaustive_mst_weight(8, lambda i, j: 1.0)

    def test_exhaustive_trivial_sizes(self):
        assert exhaustive_mst_weight(0, lambda i, j: 1.0) == 0.0
        assert exhaustive_mst_weight(1, lambda i, j: 1.0) == 0.0

    def test_exhaustive_detects_a_non_minimal_tree(self):
        """Planted bug: a star tree over spread-out vertices weighs more."""
        mesh = Mesh2D(4, 4)
        vertices = [0, 3, 12, 15]  # the four corners
        star_weight = sum(mesh.distance(vertices[0], v) for v in vertices[1:])
        optimal = exhaustive_mst_weight(
            len(vertices),
            lambda i, j: mesh.distance(vertices[i], vertices[j]),
        )
        assert optimal < star_weight  # the oracle can tell them apart


class TestSplitterVsExhaustive:
    @pytest.mark.parametrize("shape", RHS_SHAPES)
    def test_split_weight_matches_oracle(self, shape):
        machine, split = _split_of_shape(shape)
        check_split_weight(split, machine.mesh.distance)

    @given(st.sampled_from(RHS_SHAPES), st.integers(32, 256), st.integers(4, 24))
    @settings(max_examples=25, deadline=None)
    def test_split_weight_matches_oracle_across_geometries(
        self, shape, length, count
    ):
        machine, split = _split_of_shape(shape, length, count)
        assert oracle_split_weight(split, machine.mesh.distance) == split.mst_weight

    def test_checker_fires_on_planted_weight_bug(self):
        """Seeded counterexample: inflate one recorded MST edge weight."""
        machine, split = _split_of_shape("B(i) + C(i) + D(i) + E(i)")
        assert split.mst_edges, "shape must produce at least one MST edge"
        edge = split.mst_edges[0]
        corrupted_edges = (
            dataclasses.replace(edge, weight=edge.weight + 1),
        ) + tuple(split.mst_edges[1:])
        corrupted = dataclasses.replace(split, mst_edges=corrupted_edges)
        with pytest.raises(CheckError, match="exhaustive minimum"):
            check_split_weight(corrupted, machine.mesh.distance)
