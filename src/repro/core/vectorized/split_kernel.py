"""Table-backed statement splitting (the MST fast path).

A statement's split has a static part and a per-instance part.  The
*skeleton* — member ids, operand-set structure, leaf signs — depends only
on the statement's right-hand side, so :class:`SplitTemplates` learns it
from the statement's first scalar :func:`split_statement` and builds every
later split of that statement from the nest's tables.  Each leaf's vertex
is its primary location; when the window's ``variable2node_map`` holds the
leaf's block, it is the L1 copy that ``_choose_leaf_vertex`` would pick
instead.

Kruskal's result (merges and MST edges) is a pure function of those
vertices and the store node over the static set structure.  Distinct
instances of a statement land on only a handful of distinct vertex tuples
on a mesh, so one memo per statement, keyed by (vertex..., store node),
shares each result read-only — the scheduler never mutates a split — and
Kruskal runs only on a miss.  Check mode verifies every table-built split
equal to a fresh ``split_statement`` via ``check_split_cache_hit``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import check
from repro.core.locator import Location
from repro.core.mst import MstEdge
from repro.core.splitter import LeafInfo, MergeStep, StatementSplit, split_statement
from repro.utils.union_find import UnionFind


class SplitTemplates:
    """Per-nest statement splits: learned skeletons over one Kruskal memo."""

    def __init__(self, tables, locator, flatten_products: bool = False):
        """Empty store over ``tables``; each statement's first split fills it."""
        self.tables = tables
        self.locator = locator
        self.flatten = bool(flatten_products)
        self._distance = locator.machine.mesh.distance_fn()
        body = tables.body_size
        # Static split skeleton per statement: the operand-set structure and
        # member-id assignment never change across instances, only vertices
        # and the MST do.  ``(leaf_specs, sets, store_member, root_member)``
        # with leaf_specs = ((member_id, position, negated, inverted), ...).
        self._skeletons: List[Optional[tuple]] = [None] * body
        # (vertex..., store_node) -> (merges, mst_edges) per statement.
        self._memo: List[Dict[Tuple[int, ...], tuple]] = [{} for _ in range(body)]

    def split(self, instance, var2node=None) -> StatementSplit:
        """The split of ``instance`` against ``var2node`` (None: no map).

        Same answers as ``split_statement(instance, locator, var2node)``.
        Past a statement's first (scalar) split, per leaf the L1 copies
        come from the map (by table block id) and the vertex choice
        replays ``_choose_leaf_vertex`` exactly — candidates are the L1
        copies plus the primary, ranked by total distance to the other
        leaves' primaries and the store.
        """
        tables = self.tables
        it, s = divmod(instance.seq - tables.seq_base, tables.body_size)
        skeleton = self._skeletons[s]
        if skeleton is None:
            split = split_statement(
                instance, self.locator, var2node, flatten_products=self.flatten
            )
            self._skeletons[s] = (
                tuple(
                    (leaf.member_id, leaf.position, leaf.negated, leaf.inverted)
                    for leaf in split.leaves.values()
                ),
                split.sets,
                split.store_member,
                split.root_member,
            )
            return split
        leaf_specs, sets, store_member, root_member = skeleton
        blocks = tables.read_block[s]
        on_chip = tables.read_on_chip[s]
        primaries = tables.read_primary[s]
        store_node = tables.store_node[s][it]
        # An empty map holds no copies: every vertex is its primary.
        nodes_with = var2node.nodes_with if var2node else None
        distance = self._distance
        reads = instance.reads

        leaf_primaries = [primaries[position][it] for _, position, _, _ in leaf_specs]
        leaves: Dict[int, LeafInfo] = {}
        vertices: List[int] = []
        for k, (member, position, negated, inverted) in enumerate(leaf_specs):
            access = reads[position]
            primary = leaf_primaries[k]
            copies = nodes_with(blocks[position][it]) if nodes_with else ()
            vertex = primary
            if copies:
                anchors = [
                    p
                    for j, p in enumerate(leaf_primaries)
                    if leaf_specs[j][1] != position
                ]
                anchors.append(store_node)
                vertex = min(
                    copies + (primary,),
                    key=lambda node: (
                        sum(distance(node, a) for a in anchors),
                        node,
                    ),
                )
            leaves[member] = LeafInfo(
                member_id=member,
                position=position,
                access=access,
                location=Location(
                    access=access,
                    primary=primary,
                    on_chip=on_chip[position][it],
                    l1_copies=copies,
                ),
                vertex=vertex,
                negated=negated,
                inverted=inverted,
            )
            vertices.append(vertex)
        vertices.append(store_node)
        key = tuple(vertices)
        memo = self._memo[s]
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = self._run_kruskal(skeleton, key)
        merges, mst_edges = cached
        split = StatementSplit(
            instance=instance,
            leaves=leaves,
            sets=sets,
            merges=merges,
            mst_edges=mst_edges,
            store_member=store_member,
            store_node=store_node,
            root_member=root_member,
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

    def _run_kruskal(self, skeleton, key: Tuple[int, ...]) -> Tuple[list, list]:
        """Replay ``split_statement``'s per-set Kruskal over the skeleton.

        ``key`` holds each leaf's vertex, in leaf order, then the store
        node; sets are visited innermost first, exactly the order
        ``split_statement`` emits its ``sets`` records.
        """
        leaf_specs, sets, store_member, _ = skeleton
        distance = self._distance
        component_nodes: Dict[int, Tuple[int, ...]] = {
            spec[0]: (vertex,) for spec, vertex in zip(leaf_specs, key)
        }
        component_nodes[store_member] = (key[-1],)
        merges: List[MergeStep] = []
        mst_edges: List[MstEdge] = []
        for record in sets:
            member_ids = record.member_ids
            if len(member_ids) >= 2:
                candidate_edges = []
                for i, ma in enumerate(member_ids):
                    nodes_a = component_nodes[ma]
                    for mb in member_ids[i + 1:]:
                        best_w = -1
                        best_na = best_nb = 0
                        for na in nodes_a:
                            for nb in component_nodes[mb]:
                                w = distance(na, nb)
                                if best_w < 0 or w < best_w:
                                    best_w = w
                                    best_na = na
                                    best_nb = nb
                        candidate_edges.append(
                            (best_w, ma, mb, MstEdge(best_na, best_nb, best_w))
                        )
                candidate_edges.sort()
                uf = UnionFind(member_ids)
                op_kind = record.op_kind
                set_id = record.set_id
                for weight, ma, mb, edge in candidate_edges:
                    if uf.union(ma, mb):
                        merges.append(MergeStep(set_id, op_kind, ma, mb, edge))
                        mst_edges.append(edge)
            component_nodes[record.set_id] = tuple(
                sorted({n for m in member_ids for n in component_nodes[m]})
            )
        return merges, mst_edges
