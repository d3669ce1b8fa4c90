"""Table-backed statement splitting (the MST fast path).

A statement's split has a static part and a per-instance part.  The
static :class:`~repro.core.splitter.SplitSkeleton` — member ids,
operand-set structure, leaf signs — depends only on the statement's
right-hand side, so :class:`SplitTemplates` builds it once per statement
from the operand tree.  Per instance, each leaf's :class:`Location` comes
from the nest's tables (its primary and predictor verdict, plus the L1
copies the window's ``variable2node_map`` holds of its block), and
:func:`~repro.core.splitter.build_split` — the step the scalar
:func:`~repro.core.splitter.split_statement` runs too — chooses the
vertices and runs Kruskal.

Kruskal's result (merges and MST edges) is a pure function of those
vertices and the store node over the static set structure.  Distinct
instances of a statement land on only a handful of distinct vertex tuples
on a mesh, so one memo per statement, keyed by (vertex..., store node),
shares each result read-only — the scheduler never mutates a split — and
Kruskal runs only on a miss.  Check mode verifies every table-built split
equal to a fresh ``split_statement`` (locator-sourced locations, Kruskal
run anew) via ``check_split_cache_hit``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import check
from repro.core.locator import Location
from repro.core.splitter import (
    StatementSplit,
    build_split,
    skeleton_of,
    split_statement,
)


class SplitTemplates:
    """Per-nest statement splits: skeletons over one Kruskal memo."""

    def __init__(self, tables, locator, flatten_products: bool = False):
        """Skeletons of the nest's statements, and an empty memo per statement."""
        self.tables = tables
        self.locator = locator
        self.flatten = bool(flatten_products)
        self._distance = locator.machine.mesh.distance_fn()
        self._skeletons = [
            skeleton_of(statement, self.flatten) for statement in tables.nest.body
        ]
        # (vertex..., store_node) -> (merges, mst_edges) per statement.
        self._memo: List[Dict[Tuple[int, ...], tuple]] = [
            {} for _ in self._skeletons
        ]

    def split(self, instance, var2node=None) -> StatementSplit:
        """The split of ``instance`` against ``var2node`` (None: no map).

        Same answers as ``split_statement(instance, locator, var2node)``:
        each leaf's location is the tables' primary and verdict for its
        read, with the L1 copies the map holds of its block (by table
        block id).
        """
        tables = self.tables
        it, s = divmod(instance.seq - tables.seq_base, tables.body_size)
        blocks = tables.read_block[s]
        on_chip = tables.read_on_chip[s]
        primaries = tables.read_primary[s]
        # An empty map holds no copies: every vertex is its primary.
        nodes_with = var2node.nodes_with if var2node else None
        reads = instance.reads
        skeleton = self._skeletons[s]
        locations = [
            Location(
                reads[position],
                primaries[position][it],
                on_chip[position][it],
                nodes_with(blocks[position][it]) if nodes_with else (),
            )
            for position in skeleton.positions
        ]
        split = build_split(
            instance,
            skeleton,
            locations,
            tables.store_node[s][it],
            self._distance,
            self._memo[s],
        )
        if check.enabled():
            from repro.check import invariants

            invariants.check_split_cache_hit(
                split,
                split_statement(
                    instance, self.locator, var2node, flatten_products=self.flatten
                ),
            )
        return split

    def split_with_map(self, instance, var2node) -> StatementSplit:
        """:meth:`split` under its former name (``bench/spans.py`` wraps it)."""
        return self.split(instance, var2node)
