"""Single statement splitting (paper Section 4.2, Algorithm 1 lines 1-32).

For one statement instance:

1. parse the RHS into nested operand sets (``variable_parsing``);
2. resolve every leaf operand to mesh-node candidates via ``GetNode``
   (L1 copies from the ``variable2node_map`` first, then home bank or MC);
3. innermost set first, run Kruskal's algorithm over the set's members,
   treating already-processed inner sets as single components whose
   attachment points are *all* their member nodes (an edge to a component
   costs the minimum distance to any member, paper Figure 10's edge ③);
4. the store target joins the outermost set — the result is never migrated,
   so the spanning tree is anchored at the output's home node.

The output is a :class:`StatementSplit`: the leaf locations, the accepted
MST edges (whose total weight is the paper's data-movement metric), and the
ordered :class:`MergeStep` log that the scheduler turns into
subcomputations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.locator import DataLocator, Location, VariableToNodeMap
from repro.core.mst import MstEdge
from repro.errors import SchedulingError
from repro.ir.nested_sets import LeafOperand, OperandSet, build_operand_tree
from repro.ir.statement import Access, StatementInstance
from repro.obs.tracer import get_tracer
from repro.utils.union_find import UnionFind


class LeafInfo(NamedTuple):
    """A resolved leaf operand: which member it is and where its data lives.

    A NamedTuple, not a frozen dataclass: leaves are rebuilt per instance
    on the vectorized split fast paths, so construction cost matters.
    """

    member_id: int
    position: int          # index into instance.reads
    access: Access
    location: Location
    vertex: int            # the node chosen to represent the leaf in the MST
    negated: bool = False
    inverted: bool = False


@dataclass(frozen=True, slots=True)
class SetRecord:
    """One operand set: its operator class and its member ids."""

    set_id: int
    op_kind: str
    member_ids: Tuple[int, ...]
    extra_ops: int = 0
    depth: int = 0


@dataclass(frozen=True, slots=True)
class MergeStep:
    """One Kruskal union: combine members ``left``/``right`` of ``set_id``.

    ``edge`` records the attachment nodes and the Manhattan weight that
    Kruskal accepted.
    """

    set_id: int
    op_kind: str
    left: int
    right: int
    edge: MstEdge


@dataclass(slots=True)
class StatementSplit:
    """The splitter's result for one statement instance."""

    instance: StatementInstance
    leaves: Dict[int, LeafInfo]
    sets: List[SetRecord]
    merges: List[MergeStep]
    mst_edges: List[MstEdge]
    store_member: int
    store_node: int
    root_member: int

    @property
    def mst_weight(self) -> int:
        """Total MST weight — the statement's minimized data movement."""
        return sum(edge.weight for edge in self.mst_edges)

    @property
    def leaf_count(self) -> int:
        """Number of leaf operands resolved for this statement."""
        return len(self.leaves)


def _choose_leaf_vertex(
    location: Location,
    other_primaries: Sequence[int],
    store_node: int,
    distance: Callable[[int, int], int],
) -> int:
    """Pick the candidate node that represents a leaf in the MST.

    A datum modeled as L1-resident somewhere may be cheaper to use from that
    node than from its home bank (paper Figure 11 uses n_D(i) for C(i)); we
    pick the candidate minimizing total distance to the other operands and
    the store target.
    """
    candidates = location.candidates()
    if len(candidates) == 1:
        return candidates[0]
    anchors = list(other_primaries) + [store_node]

    def spread(node: int) -> Tuple[int, int]:
        return (sum(distance(node, a) for a in anchors), node)

    return min(candidates, key=spread)


def split_statement(
    instance: StatementInstance,
    locator: DataLocator,
    var2node: Optional[VariableToNodeMap] = None,
    flatten_products: bool = False,
) -> StatementSplit:
    """Split one statement instance into an MST of subcomputation sites."""
    distance = locator.machine.mesh.distance_fn()
    tree = build_operand_tree(instance.statement.rhs, flatten_products)
    store_node = locator.store_node(instance.write)

    leaves: Dict[int, LeafInfo] = {}
    sets: List[SetRecord] = []
    merges: List[MergeStep] = []
    mst_edges: List[MstEdge] = []
    component_nodes: Dict[int, Tuple[int, ...]] = {}
    next_id = [0]

    def fresh_id() -> int:
        next_id[0] += 1
        return next_id[0] - 1

    if tree is None:
        # Pure-constant RHS: a single store subcomputation, no movement.
        store_member = fresh_id()
        component_nodes[store_member] = (store_node,)
        return StatementSplit(
            instance=instance,
            leaves={},
            sets=[],
            merges=[],
            mst_edges=[],
            store_member=store_member,
            store_node=store_node,
            root_member=store_member,
        )

    # Resolve all leaf locations first so vertex choice can see the others.
    flat_leaves = tree.leaves()
    locations = [
        locator.locate(instance.read_for_position(leaf.position), var2node)
        for leaf in flat_leaves
    ]
    primaries = [loc.primary for loc in locations]
    vertex_by_position: Dict[int, int] = {}
    location_by_position: Dict[int, Location] = {}
    for leaf, location in zip(flat_leaves, locations):
        others = [p for j, p in enumerate(primaries) if flat_leaves[j].position != leaf.position]
        vertex = _choose_leaf_vertex(location, others, store_node, distance)
        vertex_by_position[leaf.position] = vertex
        location_by_position[leaf.position] = location

    # The store target joins the outermost operand set as one more component
    # (the paper's nested-set example lists the output among the members, and
    # Figure 9's MST anchors at the store node).
    store_member = fresh_id()
    component_nodes[store_member] = (store_node,)

    def build_member(node, depth: int, is_root: bool = False) -> int:
        """Register a leaf or run a set's Kruskal; returns the member id."""
        if isinstance(node, LeafOperand):
            member = fresh_id()
            location = location_by_position[node.position]
            leaves[member] = LeafInfo(
                member_id=member,
                position=node.position,
                access=location.access,
                location=location,
                vertex=vertex_by_position[node.position],
                negated=node.negated,
                inverted=node.inverted,
            )
            component_nodes[member] = (leaves[member].vertex,)
            if is_root:
                # Copy/scale statement: connect the lone operand to the store.
                set_id = fresh_id()
                sets.append(SetRecord(set_id, "+", (member, store_member), 0, depth))
                _kruskal_over_members(set_id, "+", [member, store_member])
                component_nodes[set_id] = tuple(
                    sorted(set(component_nodes[member] + component_nodes[store_member]))
                )
                return set_id
            return member
        if not isinstance(node, OperandSet):
            raise SchedulingError(f"unexpected operand node {type(node).__name__}")
        member_ids = [build_member(child, depth + 1) for child in node.members]
        if is_root:
            member_ids.append(store_member)
        set_id = fresh_id()
        sets.append(
            SetRecord(set_id, node.op_kind, tuple(member_ids), node.extra_ops, depth)
        )
        _kruskal_over_members(set_id, node.op_kind, member_ids)
        component_nodes[set_id] = tuple(
            sorted({n for m in member_ids for n in component_nodes[m]})
        )
        return set_id

    def _kruskal_over_members(set_id: int, op_kind: str, member_ids: List[int]) -> None:
        """Kruskal treating each member as a single component (paper 4.2)."""
        if len(member_ids) < 2:
            return
        candidate_edges: List[Tuple[int, int, int, MstEdge]] = []
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
                assert best_w >= 0
                candidate_edges.append(
                    (best_w, ma, mb, MstEdge(best_na, best_nb, best_w))
                )
        # (weight, ma, mb) is unique per pair, so the MstEdge in position 3
        # is never compared: plain tuple sort == the old explicit key.
        candidate_edges.sort()
        uf = UnionFind(member_ids)
        for weight, ma, mb, edge in candidate_edges:
            if uf.union(ma, mb):
                merges.append(MergeStep(set_id, op_kind, ma, mb, edge))
                mst_edges.append(edge)

    root_member = build_member(tree, 0, is_root=True)

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
    tracer = get_tracer()
    if tracer.debug:
        # Firehose (one event per freshly split instance): debug only.
        tracer.point(
            "split.statement",
            seq=instance.seq,
            leaves=split.leaf_count,
            mst_weight=split.mst_weight,
            store_node=store_node,
        )
    return split

