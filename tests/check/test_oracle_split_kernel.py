"""Differential tests: the table-backed split kernel vs the scalar splitter.

``SplitTemplates.split(instance, var2node)`` must answer exactly what
``split_statement(instance, locator, var2node, flatten_products=...)``
answers: the same leaves (in the same order), sets, merges, MST edges,
store node, store member and root member.  That holds for every split,
each built from the tables and the Kruskal memo, against no map, an empty
map, or a random window map.  Outside check mode a table-backed compile
never runs the scalar splitter.
"""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check
from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.core import profiling, window
from repro.core.locator import DataLocator, VariableToNodeMap
from repro.core.splitter import split_statement
from repro.core.vectorized import SplitTemplates, split_kernel, templates_for
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for
from repro.pipeline.session import CompilationSession
from tests.check.test_oracle_mst import RHS_SHAPES

KERNEL_SHAPES = RHS_SHAPES + [
    "B(i)",                    # copy: the lone leaf joins the store
    "3",                       # constant: no leaves at all
    "B(i) + B(i)",             # one operand twice
    "B(i+1) + B(i-1)",         # halo subscripts (clamped at the edges)
    "(B(i) + C(i)) * D(i)",    # parentheses
]

SPLIT_FIELDS = (
    "sets", "merges", "mst_edges", "store_node", "store_member", "root_member",
)


class _StripedPredictor(HitMissPredictor):
    """A pure predictor that calls two of every three cache blocks on-chip,
    so primaries mix home banks and memory controllers."""

    def predict(self, address: int) -> bool:
        return (address >> 6) % 3 != 0

    def predict_many(self, addresses):
        return (np.asarray(addresses, dtype=np.int64) >> 6) % 3 != 0


@functools.lru_cache(maxsize=None)
def _nest(shape: str):
    """A two-statement nest over ``shape`` with its tables fully covered."""
    machine = small_machine()
    program = Program("kernel")
    for name in ("A", "B", "C", "D", "E"):
        program.declare(name, 96)
    body = [parse_statement(f"A(i) = {shape}"), parse_statement("E(i) = A(i) * B(i+1)")]
    nest = LoopNest.of([Loop("i", 0, 40)], body, "n")
    program.add_nest(nest)
    program.declare_on(machine)
    locator = DataLocator(machine, _StripedPredictor())
    templates = templates_for(
        CompilationSession(machine=machine), program, nest, locator, False
    )
    templates.tables.ensure(nest.instance_count)
    instances = list(program.instances())
    blocks = sorted({locator.block_of(a) for i in instances for a in i.reads})
    return machine, locator, templates.tables, instances, blocks


@st.composite
def window_maps(draw, machine, blocks):
    """None, or a map holding some of the nest's read blocks (maybe none)."""
    if draw(st.booleans()):
        return None
    var2node = VariableToNodeMap(per_node_capacity=draw(st.integers(1, 6)))
    records = st.tuples(
        st.sampled_from(blocks), st.integers(0, machine.node_count - 1)
    )
    # A small capacity evicts, which leaves emptied holder lists behind.
    for block, node in draw(st.lists(records, max_size=12)):
        var2node.record(block, node)
    return var2node


def assert_same_split(kernel, scalar):
    """Every field of two splits of one instance agrees."""
    assert kernel.instance is scalar.instance
    assert list(kernel.leaves.items()) == list(scalar.leaves.items())
    for name in SPLIT_FIELDS:
        assert getattr(kernel, name) == getattr(scalar, name), name


class TestKernelVsScalar:
    @given(st.sampled_from(KERNEL_SHAPES), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_split_equals_the_scalar_splitter(self, shape, flatten, data):
        machine, locator, tables, instances, blocks = _nest(shape)
        kernel = SplitTemplates(tables, locator, flatten)
        for _ in range(data.draw(st.integers(3, 8))):
            instance = data.draw(st.sampled_from(instances))
            var2node = data.draw(window_maps(machine, blocks))
            assert_same_split(
                kernel.split(instance, var2node),
                split_statement(
                    instance, locator, var2node, flatten_products=flatten
                ),
            )

    def test_planted_map_blind_kernel_is_caught(self):
        """Planted bug: a kernel that ignores the window map."""

        class MapBlind(SplitTemplates):
            def split(self, instance, var2node=None):
                return super().split(instance, None)

        _, locator, tables, instances, _ = _nest("B(i) + C(i)")
        instance = instances[2]
        var2node = VariableToNodeMap()
        var2node.record(locator.block_of(instance.reads[0]), 0)
        with pytest.raises(AssertionError):
            assert_same_split(
                MapBlind(tables, locator).split(instance, var2node),
                split_statement(instance, locator, var2node),
            )


class TestScalarSplitsOnlyInCheckMode:
    """A table-backed compile builds every split from its tables."""

    @staticmethod
    def _scalar_splits(monkeypatch, checking: bool) -> int:
        """Scalar ``split_statement`` calls of one default compile."""
        calls = []
        for module in (split_kernel, window, profiling):

            def counting(*args, _split=module.split_statement, **kwargs):
                calls.append(args[0].seq)
                return _split(*args, **kwargs)

            monkeypatch.setattr(module, "split_statement", counting)
        program = Program("kernel")
        for name in ("A", "B", "C", "D", "E"):
            program.declare(name, 96)
        body = [
            parse_statement("A(i) = B(i) + C(i) * D(i)"),
            parse_statement("E(i) = A(i) + B(i+1)"),
        ]
        program.add_nest(LoopNest.of([Loop("i", 0, 40)], body, "n"))
        session = session_for(small_machine())
        with check.checking() if checking else contextlib.nullcontext():
            compile_program(program, session)
        assert any(session.caches.split_templates.values())  # table-backed
        return len(calls)

    def test_default_compile_runs_no_scalar_split(self, monkeypatch):
        assert self._scalar_splits(monkeypatch, checking=False) == 0

    def test_check_mode_compares_against_scalar_splits(self, monkeypatch):
        assert self._scalar_splits(monkeypatch, checking=True) > 0
