"""Subcomputation scheduling (paper Section 4.3, Algorithm 1 lines 40-58).

The splitter's MST tells us *which* node pairs exchange values; scheduling
decides *where each combine executes* and materializes the subcomputation
DAG.  We process the Kruskal merge log in acceptance order, tracking for
every connected component the node currently holding its accumulated value:

* merging two components combines their values at one of the two value
  nodes — the load balancer arbitrates between them (Section 4.5's 10%
  rule), and consecutive merges landing on the same node with the same
  operator fold into a single subcomputation;
* any merge involving the component that contains the *store target* is
  pinned to the store node: the final result is never migrated
  (Section 4.5), so values flow toward the output's home;
* raw leaf data is gathered when first consumed: zero hops when the
  ``variable2node_map`` modeled it L1-resident at the combine node
  (the data-reuse win of Figure 11), otherwise fetched from its primary
  location (home bank, or memory controller on a predicted L2 miss).

A node with two or more child results needs a synchronization before it can
combine (Figure 6); those arcs come out as ``sync_arcs`` and are later
minimized by :mod:`repro.core.syncgraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.balancer import LoadBalancer, op_cost
from repro.core.locator import DataLocator, VariableToNodeMap
from repro.core.splitter import LeafInfo, StatementSplit
from repro.core.subcomputation import GatheredInput, SubResult, Subcomputation
from repro.errors import SchedulingError
from repro.ir.statement import StatementInstance
from repro.utils.union_find import DenseUnionFind

#: Memoized static per-statement operator info, keyed by statement
#: identity: (statement, counts, total op count, weighted cost, sorted
#: breakdown).  The statement object is held in the value so a live cache
#: entry can never alias a recycled ``id``.
_OP_INFO_CACHE: Dict[int, tuple] = {}
_OP_INFO_LIMIT = 1 << 13


def _op_info(statement):
    """(statement, counts, op_count, cost, breakdown) — static per statement."""
    cached = _OP_INFO_CACHE.get(id(statement))
    if cached is not None and cached[0] is statement:
        return cached
    counts = statement.operator_counts()
    info = (
        statement,
        counts,
        sum(counts.values()),
        sum(op_cost(op, n) for op, n in counts.items()),
        tuple(sorted(counts.items())),
    )
    if len(_OP_INFO_CACHE) < _OP_INFO_LIMIT or cached is not None:
        _OP_INFO_CACHE[id(statement)] = info
    return info


class _Builder:
    """A subcomputation under construction (open until consumed)."""

    __slots__ = ("uid", "seq", "node", "op", "gathered", "sub_results", "ops", "open")

    def __init__(self, uid: int, seq: int, node: int, op: str):
        self.uid = uid
        self.seq = seq
        self.node = node
        self.op = op
        self.gathered: List[GatheredInput] = []
        self.sub_results: List[SubResult] = []
        self.ops: List[str] = []  # concrete operator per input beyond the first
        self.open = True

    @property
    def input_count(self) -> int:
        """Number of value inputs (sub-results + gathered operands)."""
        return len(self.gathered) + len(self.sub_results)

    def finalize(self, store=None) -> Subcomputation:
        """Freeze the builder into an immutable :class:`Subcomputation`."""
        breakdown: Dict[str, int] = {}
        for op in self.ops:
            breakdown[op] = breakdown.get(op, 0) + 1
        cost = sum(op_cost(op) for op in self.ops)
        return Subcomputation(
            uid=self.uid,
            seq=self.seq,
            node=self.node,
            op=self.op,
            op_count=len(self.ops),
            cost=cost,
            gathered=tuple(self.gathered),
            sub_results=tuple(self.sub_results),
            store=store,
            op_breakdown=tuple(sorted(breakdown.items())),
        )


@dataclass
class StatementSchedule:
    """The scheduled subcomputations of one statement instance."""

    instance: StatementInstance
    subcomputations: Tuple[Subcomputation, ...]
    final_uid: int
    store_node: int
    mst_weight: int

    @cached_property
    def movement(self) -> int:
        """Achieved data movement: links traversed by all inputs."""
        return sum(s.movement for s in self.subcomputations)

    @property
    def gathers(self) -> int:
        """Total operand-gather messages across subcomputations."""
        return sum(len(s.gathered) for s in self.subcomputations)

    def sync_arcs(self) -> List[Tuple[int, int]]:
        """(producer_uid, consumer_uid) pairs needing point-to-point syncs.

        Only cross-node results require a synchronization; a value produced
        and consumed on the same node is ordinary sequential dataflow.
        """
        arcs = []
        for sub in self.subcomputations:
            for result in sub.sub_results:
                if result.from_node != sub.node:
                    arcs.append((result.producer_uid, sub.uid))
        return arcs

    def parallel_degree(self) -> int:
        """Max number of this statement's subcomputations runnable at once.

        Width of the widest level of the subcomputation DAG (children must
        finish before parents, independent siblings run in parallel on their
        different nodes).
        """
        level: Dict[int, int] = {}
        width: Dict[int, int] = {}
        for sub in self.subcomputations:  # creation order is topological
            child_levels = [
                level[r.producer_uid]
                for r in sub.sub_results
                if r.producer_uid in level
            ]
            lvl = 1 + max(child_levels, default=-1 + 1)
            if not child_levels:
                lvl = 0
            level[sub.uid] = lvl
            width[lvl] = width.get(lvl, 0) + 1
        return max(width.values(), default=1)

    def remapped_op_breakdown(self) -> Dict[str, int]:
        """Operator counts of subcomputations executing off the store node.

        These are the computations our scheme re-maps relative to the
        default execution (everything at the store node) — Table 3's metric.
        """
        counts: Dict[str, int] = {}
        for sub in self.subcomputations:
            if sub.node != self.store_node:
                for op, count in sub.op_breakdown:
                    counts[op] = counts.get(op, 0) + count
        return counts


def schedule_star(
    instance: StatementInstance,
    locator: DataLocator,
    balancer: LoadBalancer,
    uid_counter: Iterator[int],
    var2node: Optional[VariableToNodeMap] = None,
    exec_node: Optional[int] = None,
    hit_model: Optional[VariableToNodeMap] = None,
    tables=None,
) -> StatementSchedule:
    """Schedule the whole statement unsplit, as the default execution would.

    One subcomputation at ``exec_node`` (default placement's node, or the
    output's home node) gathers every input, computes, and stores.
    ``hit_model`` (the persistent default-execution L1 model) marks which
    gathers are expected L1 hits; fetched blocks are still recorded into the
    window's ``var2node`` so later statements can reuse them.
    """
    distance = locator.machine.mesh.distance_fn()
    gathered = []
    if tables is not None:
        # Table-backed path: blocks/primaries/verdicts from the per-nest
        # tables instead of per-access locate() chains (same answers).
        it, s = divmod(instance.seq - tables.seq_base, tables.body_size)
        node = (
            exec_node if exec_node is not None else tables.store_node[s][it]
        )
        read_blocks = tables.read_block[s]
        read_primary = tables.read_primary[s]
        read_on_chip = tables.read_on_chip[s]
        copies_map = hit_model if hit_model is not None else var2node
        for position, access in enumerate(instance.reads):
            block = read_blocks[position][it]
            if copies_map is not None and node in copies_map.nodes_with(block):
                gathered.append(GatheredInput(access, node, 0, l1_hit=True))
            else:
                primary = read_primary[position][it]
                gathered.append(
                    GatheredInput(
                        access,
                        primary,
                        distance(primary, node),
                        off_chip=not read_on_chip[position][it],
                    )
                )
            if var2node is not None:
                var2node.record(block, node)
            if hit_model is not None:
                hit_model.record(block, node)
        write_block = tables.write_block[s][it]
    else:
        node = (
            exec_node
            if exec_node is not None
            else locator.store_node(instance.write)
        )
        for access in instance.reads:
            location = locator.locate(access, hit_model or var2node)
            if node in location.l1_copies:
                gathered.append(GatheredInput(access, node, 0, l1_hit=True))
            else:
                hops = distance(location.primary, node)
                gathered.append(
                    GatheredInput(
                        access, location.primary, hops, off_chip=not location.on_chip
                    )
                )
            if var2node is not None:
                var2node.record(locator.block_of(access), node)
            if hit_model is not None:
                hit_model.record(locator.block_of(access), node)
        write_block = None
    _, _, op_count, cost, breakdown = _op_info(instance.statement)
    sub = Subcomputation(
        uid=next(uid_counter),
        seq=instance.seq,
        node=node,
        op="+",
        op_count=op_count,
        cost=cost,
        gathered=tuple(gathered),
        sub_results=(),
        store=instance.write,
        op_breakdown=breakdown,
        source=str(instance),
    )
    balancer.record(node, cost)
    if var2node is not None or hit_model is not None:
        if write_block is None:
            write_block = locator.block_of(instance.write)
        if var2node is not None:
            var2node.record(write_block, node)
        if hit_model is not None:
            hit_model.record(write_block, node)
    return StatementSchedule(
        instance=instance,
        subcomputations=(sub,),
        final_uid=sub.uid,
        store_node=node,
        mst_weight=sub.movement,
    )


def schedule_statement(
    split: StatementSplit,
    locator: DataLocator,
    balancer: LoadBalancer,
    uid_counter: Iterator[int],
    var2node: Optional[VariableToNodeMap] = None,
    hit_model: Optional[VariableToNodeMap] = None,
    tables=None,
) -> StatementSchedule:
    """Turn a :class:`StatementSplit` into scheduled subcomputations.

    ``var2node`` is the window-scoped reuse map (Algorithm 1's
    ``variable2node_map``); ``hit_model`` is the persistent model of the
    real caches' contents used to mark expected L1 hits and predict
    movement (real L1s do not forget at window boundaries).
    """
    machine = locator.machine
    distance = machine.mesh.distance_fn()
    instance = split.instance
    store_node = split.store_node

    if tables is not None:
        it, s = divmod(instance.seq - tables.seq_base, tables.body_size)
        read_blocks = tables.read_block[s]

        def block_of_leaf(leaf: LeafInfo) -> int:
            return read_blocks[leaf.position][it]

        write_block = tables.write_block[s][it]
    else:

        def block_of_leaf(leaf: LeafInfo) -> int:
            return locator.block_of(leaf.access)

        write_block = None

    # Member/set ids are allocated from one counter starting at the store
    # member, and the root member is handed out last — so every id this
    # split references fits in [0, root_member].
    components = DenseUnionFind(max(split.store_member, split.root_member) + 1)
    carriers: Dict[int, object] = {}  # root id -> LeafInfo | _Builder | "store"
    builders: List[_Builder] = []

    def carrier_of(member: int):
        """The value carrier currently representing ``member``'s component."""
        return carriers[components.find(member)]

    def set_carrier(member: int, carrier) -> None:
        """Re-point ``member``'s component at a new value carrier."""
        carriers[components.find(member)] = carrier

    # Initialize leaf and store carriers.
    for member, leaf in split.leaves.items():
        carriers[member] = leaf
    carriers[split.store_member] = "store"
    # Every set id aliases its first member: once the set's own merges have
    # connected its members (merges are ordered innermost-first), a parent
    # merge that references the set id resolves to the right component.
    for record in split.sets:
        anchor = record.member_ids[0] if record.member_ids else split.store_member
        anchor_root = components.find(anchor)
        anchor_carrier = carriers[anchor_root]
        components.union(record.set_id, anchor)
        carriers[components.find(record.set_id)] = anchor_carrier

    def effective_op(set_op: str, leaf: Optional[LeafInfo]) -> str:
        """The operator a merged leaf contributes (sign/inverse folded)."""
        if leaf is not None:
            if leaf.inverted:
                return "/"
            if leaf.negated:
                return "-"
        return set_op

    def gather(leaf: LeafInfo, at_node: int) -> GatheredInput:
        """Record pulling ``leaf``'s value to ``at_node``, charging hops."""
        location = leaf.location
        block = block_of_leaf(leaf)
        resident = at_node in location.l1_copies or (
            hit_model is not None and at_node in hit_model.nodes_with(block)
        )
        if resident:
            gathered = GatheredInput(leaf.access, at_node, 0, l1_hit=True)
        else:
            hops = distance(location.primary, at_node)
            gathered = GatheredInput(
                leaf.access,
                location.primary,
                hops,
                l1_hit=False,
                off_chip=not location.on_chip,
            )
        if var2node is not None:
            var2node.record(block, at_node)
        if hit_model is not None:
            hit_model.record(block, at_node)
        return gathered

    def materialize(carrier, at_node: int, into: _Builder, set_op: str) -> None:
        """Feed a component's value into ``into`` (which runs at at_node)."""
        if carrier == "store":
            return  # the store anchor carries no value
        if isinstance(carrier, LeafInfo):
            # The MST placed this leaf at its vertex; if that vertex holds
            # an L1 copy and the combine runs elsewhere, read the copy there
            # and forward it (a pure-move subcomputation) rather than
            # refetching from the home bank — the Figure 11 reuse.
            if (
                at_node != carrier.vertex
                and carrier.vertex in carrier.location.l1_copies
            ):
                forward = new_builder(carrier.vertex, "move")
                forward.gathered.append(
                    GatheredInput(carrier.access, carrier.vertex, 0, l1_hit=True)
                )
                if var2node is not None or hit_model is not None:
                    block = block_of_leaf(carrier)
                    if var2node is not None:
                        var2node.record(block, carrier.vertex)
                    if hit_model is not None:
                        hit_model.record(block, carrier.vertex)
                forward.open = False
                into.sub_results.append(
                    SubResult(
                        forward.uid, carrier.vertex, distance(carrier.vertex, at_node)
                    )
                )
                if into.input_count > 1:
                    into.ops.append(effective_op(set_op, carrier))
                return
            into.gathered.append(gather(carrier, at_node))
            if into.input_count > 1:
                into.ops.append(effective_op(set_op, carrier))
            return
        if isinstance(carrier, _Builder):
            carrier.open = False
            hops = distance(carrier.node, at_node)
            into.sub_results.append(SubResult(carrier.uid, carrier.node, hops))
            if into.input_count > 1:
                into.ops.append(set_op)
            return
        raise SchedulingError(f"unknown carrier {carrier!r}")

    def value_node(carrier) -> int:
        if carrier == "store":
            return store_node
        if isinstance(carrier, LeafInfo):
            return carrier.vertex
        return carrier.node

    def new_builder(node: int, op: str) -> _Builder:
        builder = _Builder(next(uid_counter), instance.seq, node, op)
        builders.append(builder)
        return builder

    store_root = lambda: components.find(split.store_member)

    final_merge = split.merges[-1] if split.merges else None
    for merge in split.merges:
        root_a = components.find(merge.left)
        root_b = components.find(merge.right)
        if root_a == root_b:
            raise SchedulingError("merge joins an already-connected component")
        carrier_a, carrier_b = carriers[root_a], carriers[root_b]
        touches_store = store_root() in (root_a, root_b)

        # A merge with the *bare* store anchor moves nothing yet: the value
        # stays where it is and flows to the store only at the final merge
        # (the paper's MST walk ends at the store node; pulling operands to
        # the store early would retrace tree edges).
        if touches_store and merge is not final_merge:
            store_side = carrier_a if carriers[root_a] == "store" else None
            if store_side is None and carrier_b == "store":
                store_side = carrier_b
            if store_side is not None:
                other = carrier_b if carrier_a == "store" else carrier_a
                components.union(merge.left, merge.right)
                set_carrier(merge.left, other)
                continue

        # Decide the combine node.
        merge_cost = op_cost(merge.op_kind)
        if touches_store and merge is final_merge:
            combine_node = store_node
        else:
            node_a, node_b = value_node(carrier_a), value_node(carrier_b)
            # Values flow toward the store: prefer the endpoint closer to
            # it (the paper computes C+D in n_D, the member nearer n_A);
            # among equals, prefer folding into an open builder.
            def rank(item):
                carrier, node = item
                foldable = (
                    isinstance(carrier, _Builder)
                    and carrier.open
                    and carrier.op == merge.op_kind
                )
                return (distance(node, store_node), 0 if foldable else 1, node)

            ordered = sorted(
                ((carrier_a, node_a), (carrier_b, node_b)), key=rank
            )
            preferred = []
            for _, node in ordered:
                if node not in preferred:
                    preferred.append(node)
            combine_node = balancer.choose(preferred, merge_cost)

        # Reuse an open builder at the combine node when ops match.
        target: Optional[_Builder] = None
        for carrier in (carrier_a, carrier_b):
            if (
                isinstance(carrier, _Builder)
                and carrier.open
                and carrier.node == combine_node
                and carrier.op == merge.op_kind
            ):
                target = carrier
                break
        if target is None:
            target = new_builder(combine_node, merge.op_kind)
            materialize(carrier_a, combine_node, target, merge.op_kind)
            materialize(carrier_b, combine_node, target, merge.op_kind)
        else:
            other = carrier_b if target is carrier_a else carrier_a
            materialize(other, combine_node, target, merge.op_kind)
        balancer.record(combine_node, merge_cost)

        components.union(merge.left, merge.right)
        # The set ids themselves become members of parent sets; keep them
        # joined to their components so later merges resolve carriers.
        set_carrier(merge.left, target)

    # Materialize the final subcomputation at the store node.
    root_carrier = carrier_of(split.store_member)
    if isinstance(root_carrier, _Builder):
        final_builder = root_carrier
        if final_builder.node != store_node:
            mover = new_builder(store_node, "move")
            materialize(final_builder, store_node, mover, "move")
            mover.ops = []
            final_builder = mover
    elif isinstance(root_carrier, LeafInfo):
        # Copy statement: one gather into the store node.
        final_builder = new_builder(store_node, "move")
        final_builder.gathered.append(gather(root_carrier, store_node))
    else:  # pure-constant statement
        final_builder = new_builder(store_node, "move")
    final_builder.open = False

    # Constants folded out of the operand sets still cost ops at the root.
    extra_ops = sum(record.extra_ops for record in split.sets)
    for _ in range(extra_ops):
        final_builder.ops.append(final_builder.op if final_builder.op != "move" else "+")
    if extra_ops:
        balancer.record(final_builder.node, sum(op_cost(o) for o in final_builder.ops[-extra_ops:]))

    # The result now lives in the store node's L1; later statements in the
    # window can reuse it from there (flow-dependence reuse).
    if var2node is not None or hit_model is not None:
        if write_block is None:
            write_block = locator.block_of(instance.write)
        if var2node is not None:
            var2node.record(write_block, store_node)
        if hit_model is not None:
            hit_model.record(write_block, store_node)

    subs = []
    for builder in builders:
        store = instance.write if builder is final_builder else None
        subs.append(builder.finalize(store))

    return StatementSchedule(
        instance=instance,
        subcomputations=tuple(subs),
        final_uid=final_builder.uid,
        store_node=store_node,
        mst_weight=split.mst_weight,
    )
