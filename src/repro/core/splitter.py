"""Single statement splitting (paper Section 4.2, Algorithm 1 lines 1-32).

A split has a static part and a per-instance part:

1. parse the RHS into nested operand sets (``variable_parsing``): the
   statement's :class:`SplitSkeleton`, which never changes between
   instances;
2. resolve every leaf operand to mesh-node candidates via ``GetNode``
   (L1 copies from the ``variable2node_map`` first, then home bank or MC);
3. innermost set first, run Kruskal's algorithm over the set's members,
   treating already-processed inner sets as single components whose
   attachment points are *all* their member nodes (an edge to a component
   costs the minimum distance to any member, paper Figure 10's edge ③);
4. the store target joins the outermost set — the result is never migrated,
   so the spanning tree is anchored at the output's home node.

Given the leaves' locations, choosing each leaf's vertex and steps 3-4
are one function, :func:`build_split`.  The locations have two sources:
the :class:`~repro.core.locator.DataLocator` (:func:`split_statement`,
the scalar path) and a nest's vectorized tables
(:class:`~repro.core.vectorized.split_kernel.SplitTemplates`).

The output is a :class:`StatementSplit`: the leaf locations, the accepted
MST edges (whose total weight is the paper's data-movement metric), and the
ordered :class:`MergeStep` log that the scheduler turns into
subcomputations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.locator import DataLocator, Location, VariableToNodeMap
from repro.core.mst import MstEdge, kruskal
from repro.ir.nested_sets import LeafOperand, build_operand_tree
from repro.ir.statement import Access, Statement, StatementInstance
from repro.obs.tracer import get_tracer


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
    sets: Sequence[SetRecord]
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


@dataclass(frozen=True, slots=True)
class SplitSkeleton:
    """The static part of a statement's split, from its operand tree alone.

    Member ids are allocated store member first (id 0), then leaves and
    operand sets in post-order, so ``sets`` lists every set after its
    inner sets — Kruskal's innermost-first order — and the root set,
    which also holds the store member, last.  ``leaves`` holds
    ``(member_id, position, negated, inverted)`` per leaf, in leaf order,
    and ``positions`` the leaves' read positions.  A pure-constant RHS has
    no leaves and no sets: its root is the store member.
    """

    leaves: Tuple[Tuple[int, int, bool, bool], ...]
    positions: Tuple[int, ...]
    sets: Tuple[SetRecord, ...]
    store_member: int
    root_member: int


def skeleton_of(statement: Statement, flatten_products: bool = False) -> SplitSkeleton:
    """The :class:`SplitSkeleton` of ``statement``'s right-hand side."""
    tree = build_operand_tree(statement.rhs, flatten_products)
    store_member = 0
    if tree is None:
        return SplitSkeleton((), (), (), store_member, store_member)
    leaves: List[Tuple[int, int, bool, bool]] = []
    sets: List[SetRecord] = []
    next_id = store_member + 1

    def build(node, depth: int) -> int:
        nonlocal next_id
        if isinstance(node, LeafOperand):
            member = next_id
            next_id += 1
            leaves.append((member, node.position, node.negated, node.inverted))
            return member
        member_ids = [build(child, depth + 1) for child in node.members]
        if depth == 0:
            # The store target joins the outermost operand set as one more
            # component (the paper's nested-set example lists the output
            # among the members, and Figure 9's MST anchors at the store).
            member_ids.append(store_member)
        set_id = next_id
        next_id += 1
        sets.append(
            SetRecord(set_id, node.op_kind, tuple(member_ids), node.extra_ops, depth)
        )
        return set_id

    root_member = build(tree, 0)
    return SplitSkeleton(
        tuple(leaves),
        tuple(leaf[1] for leaf in leaves),
        tuple(sets),
        store_member,
        root_member,
    )


def leaf_vertex(
    locations: Sequence[Location],
    k: int,
    store_node: int,
    distance: Callable[[int, int], int],
) -> int:
    """The node that represents leaf ``k`` in the MST.

    A datum modeled as L1-resident somewhere may be cheaper to use from that
    node than from its home bank (paper Figure 11 uses n_D(i) for C(i)): of
    the leaf's candidates (L1 copies, then the primary), the one minimizing
    total distance to the other leaves' primaries and the store target
    wins, the lower node on a tie.
    """
    location = locations[k]
    anchors = [other.primary for j, other in enumerate(locations) if j != k]
    anchors.append(store_node)
    return min(
        location.candidates(),
        key=lambda node: (sum(distance(node, a) for a in anchors), node),
    )


def build_split(
    instance: StatementInstance,
    skeleton: SplitSkeleton,
    locations: Sequence[Location],
    store_node: int,
    distance: Callable[[int, int], int],
    memo: Optional[Dict[Tuple[int, ...], tuple]] = None,
) -> StatementSplit:
    """Split ``instance`` given one :class:`Location` per skeleton leaf.

    Chooses each leaf's vertex (:func:`leaf_vertex`), then runs Kruskal
    per operand set, innermost first.  Kruskal's result (merges and MST
    edges) is a pure function of the vertices and the store node, so
    ``memo``, when given, maps ``(vertex..., store_node)`` to a shared
    result and Kruskal runs only on a miss; without one it runs fresh.
    """
    leaves: Dict[int, LeafInfo] = {}
    vertices = [store_node] * (len(locations) + 1)
    for k, (member, position, negated, inverted) in enumerate(skeleton.leaves):
        location = locations[k]
        vertex = location.primary
        if location.l1_copies:  # else the rule's answer is the primary
            vertex = leaf_vertex(locations, k, store_node, distance)
        vertices[k] = vertex
        leaves[member] = LeafInfo(
            member, position, location.access, location, vertex, negated, inverted
        )
    key = tuple(vertices)
    if memo is None:
        merges, mst_edges = _kruskal_sets(skeleton, key, distance)
    else:
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = _kruskal_sets(skeleton, key, distance)
        merges, mst_edges = cached
    split = StatementSplit(
        instance=instance,
        leaves=leaves,
        sets=skeleton.sets,
        merges=merges,
        mst_edges=mst_edges,
        store_member=skeleton.store_member,
        store_node=store_node,
        root_member=skeleton.root_member,
    )
    tracer = get_tracer()
    if tracer.debug:
        # Firehose (one event per split instance): debug only.
        tracer.point(
            "split.statement",
            seq=instance.seq,
            leaves=split.leaf_count,
            mst_weight=split.mst_weight,
            store_node=store_node,
        )
    return split


def _kruskal_sets(
    skeleton: SplitSkeleton,
    key: Tuple[int, ...],
    distance: Callable[[int, int], int],
) -> Tuple[List[MergeStep], List[MstEdge]]:
    """Kruskal over each operand set, innermost first.

    ``key`` holds each leaf's vertex, in leaf order, then the store node;
    a finished set enters its parent as one component over all its nodes.
    """
    nodes_of: Dict[int, Tuple[int, ...]] = {
        leaf[0]: (vertex,) for leaf, vertex in zip(skeleton.leaves, key)
    }
    nodes_of[skeleton.store_member] = (key[-1],)
    merges: List[MergeStep] = []
    mst_edges: List[MstEdge] = []
    for record in skeleton.sets:
        member_ids = record.member_ids
        for a, b, edge in kruskal(member_ids, nodes_of, distance):
            merges.append(MergeStep(record.set_id, record.op_kind, a, b, edge))
            mst_edges.append(edge)
        nodes_of[record.set_id] = tuple(
            sorted({n for m in member_ids for n in nodes_of[m]})
        )
    return merges, mst_edges


def split_statement(
    instance: StatementInstance,
    locator: DataLocator,
    var2node: Optional[VariableToNodeMap] = None,
    flatten_products: bool = False,
) -> StatementSplit:
    """Split one statement instance into an MST of subcomputation sites.

    The scalar path: the store node, then every leaf in leaf order, is
    located through ``locator``, and Kruskal runs fresh.  A stateful
    predictor (the ideal-analysis oracle) answers from its query history,
    so that query sequence is part of the result.
    """
    distance = locator.machine.mesh.distance_fn()
    skeleton = skeleton_of(instance.statement, flatten_products)
    store_node = locator.store_node(instance.write)
    reads = instance.reads
    locations = [
        locator.locate(reads[position], var2node) for position in skeleton.positions
    ]
    return build_split(instance, skeleton, locations, store_node, distance)
