"""The paper's default computation placement (Section 6.1).

Iteration-granularity, *locality-optimized*: the iteration space of each
nest is divided into contiguous chunks; a profile pass records which L2
banks / memory controllers each chunk references; each chunk is then
assigned to the node that hosts most of its referenced data ("the most
beneficial core from an LLC/MC locality viewpoint").  A soft load cap keeps
pathological profiles from piling every chunk onto one node.

Each statement instance becomes a single subcomputation on its chunk's
node: the node gathers all inputs, computes, and stores the result — the
execution model our partitioner is compared against everywhere.

Two preference searches rank the candidate nodes of each chunk
(DESIGN.md section 14):

* **flat** — sort *every* alive node by referenced-data residency, the
  historical algorithm.  Exact, and cheap at the paper's 36 tiles.
* **hierarchical** — recursively quadrant-decompose the mesh, order
  regions by their aggregated residency counts, and only sort the
  (typically few) nodes that actually hold referenced data inside each
  leaf region; the cold remainder keeps a precomputed region order.

The alive-node count picks the search: flat at or below
:data:`HIERARCHICAL_NODE_THRESHOLD` nodes — so the 6x6 evaluation mesh,
the 4x4 test machine and a healthy 8x8 mesh stay bit-identical to the
historical flat search — and hierarchical above it.  Placement is a
small layer of a 16x16 compile either way: in the benchmark's traced
seed-0 ``mesh16-degraded`` pass, ranking (``placement.rank``) is 0.0014
and all of placement (``placement.place``) 0.023 of the pass (DESIGN.md
section 14.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import check
from repro.arch.machine import Machine
from repro.core.subcomputation import GatheredInput, Subcomputation
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.statement import StatementInstance

#: Above this many alive nodes, the chunk preference ranking switches
#: from the flat sort to the hierarchical quadrant-decomposed search.
#: 64 keeps every historical mesh (4x4, 6x6, up to 8x8) on the flat
#: path, bit-identical to the seed.
HIERARCHICAL_NODE_THRESHOLD = 64

#: Soft per-node load cap of the chunk assignment, as a multiple of the
#: even share ``chunks / alive nodes``.
LOAD_CAP_FACTOR = 2.0

#: Region size at which the hierarchical decomposition stops splitting;
#: within a leaf the (few) data-holding nodes are sorted exactly.
_LEAF_REGION_NODES = 16


@dataclass
class PlacementResult:
    """An iteration-granularity placement rendered as simulator units."""

    units: List[Subcomputation]
    node_of_seq: Dict[int, int]

    @property
    def unit_count(self) -> int:
        return len(self.units)

    def nodes_used(self) -> int:
        return len(set(self.node_of_seq.values()))


def instance_to_unit(
    machine: Machine,
    instance: StatementInstance,
    node: int,
    uid: int,
) -> Subcomputation:
    """Render one statement instance as a single-node subcomputation."""
    from repro.core.scheduler import _op_info

    gathered = []
    for access in instance.reads:
        home = machine.home_node(access.array, access.index)
        gathered.append(
            GatheredInput(access, home, machine.distance(home, node))
        )
    _, _, op_total, cost, breakdown = _op_info(instance.statement)
    return Subcomputation(
        uid=uid,
        seq=instance.seq,
        node=node,
        op="+",
        op_count=op_total,
        cost=cost,
        gathered=tuple(gathered),
        sub_results=(),
        store=instance.write,
        op_breakdown=breakdown,
    )


def placement_from_assignment(
    machine: Machine,
    program: Program,
    assign: Callable[[StatementInstance], int],
) -> PlacementResult:
    """Build a :class:`PlacementResult` from any instance->node function."""
    program.declare_on(machine)
    units: List[Subcomputation] = []
    node_of_seq: Dict[int, int] = {}
    uid = itertools.count()
    for instance in program.instances():
        node = assign(instance)
        node_of_seq[instance.seq] = node
        units.append(instance_to_unit(machine, instance, node, next(uid)))
    return PlacementResult(units, node_of_seq)


class DefaultPlacement:
    """Profile-guided chunk placement (the paper's default strategy)."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._tree = None

    def uses_hierarchical(self, alive_count: Optional[int] = None) -> bool:
        """Whether ranking ``alive_count`` nodes takes the hierarchical search.

        ``alive_count`` defaults to the machine's alive-node count.
        """
        if alive_count is None:
            alive_count = len(self.machine.alive_nodes())
        return alive_count > HIERARCHICAL_NODE_THRESHOLD

    def chunk_home_counts(
        self, program: Program, nest: LoopNest
    ) -> Tuple[List[Dict[int, int]], List[int]]:
        """Per-chunk ``{home node: reference count}`` profile + alive nodes."""
        machine = self.machine
        # Offline tiles (fault plan) execute nothing: rank only live nodes.
        alive = machine.alive_nodes()
        chunk_count = min(len(alive), max(nest.trip_count, 1))
        counts = [dict() for _ in range(chunk_count)]  # type: List[Dict[int, int]]
        trip = nest.trip_count
        for i, instance in enumerate(program.nest_instances(nest)):
            iteration_index = i // nest.body_size
            chunk = min(iteration_index * chunk_count // max(trip, 1), chunk_count - 1)
            for access in instance.accesses():
                home = machine.home_node(access.array, access.index)
                counts[chunk][home] = counts[chunk].get(home, 0) + 1
        return counts, alive

    def rank_preferences(
        self, counts: List[Dict[int, int]], alive: List[int]
    ) -> List[List[int]]:
        """Per chunk, every alive node ranked by residency preference."""
        if self.uses_hierarchical(len(alive)):
            preferences = self._rank_hierarchical(counts)
            if check.enabled():
                from repro.check.invariants import check_preferences_cover_alive

                check_preferences_cover_alive(preferences, alive)
            return preferences
        return self._rank_flat(counts, alive)

    def _chunk_preferences(
        self, program: Program, nest: LoopNest
    ) -> List[List[int]]:
        """Per chunk, nodes ranked by referenced-data residency (profile)."""
        counts, alive = self.chunk_home_counts(program, nest)
        return self.rank_preferences(counts, alive)

    @staticmethod
    def _rank_flat(
        counts: List[Dict[int, int]], alive: List[int]
    ) -> List[List[int]]:
        """The historical full sort of every alive node, per chunk."""
        preferences = []
        for chunk_counts in counts:
            ranked = sorted(
                alive,
                key=lambda n: (-chunk_counts.get(n, 0), n),
            )
            preferences.append(ranked)
        return preferences

    # -- hierarchical quadrant-decomposed search ---------------------------

    def _region_tree(self):
        """The quadrant decomposition of the alive mesh (built once).

        Returns ``(leaves, leaf_of, root)``: ``leaves`` is the leaf
        regions' alive-node lists in depth-first order; ``leaf_of`` maps
        each alive node to its leaf index; region nodes are tuples
        ``(kind, payload, lo, hi)`` where ``[lo, hi)`` is the contiguous
        leaf range the region covers (so per-chunk region sums are prefix
        -sum lookups, not recursive walks).
        """
        if self._tree is not None:
            return self._tree
        mesh = self.machine.mesh
        alive = set(self.machine.alive_nodes())
        leaves: List[List[int]] = []

        def build(x0: int, y0: int, w: int, h: int):
            if w * h <= _LEAF_REGION_NODES or (w <= 1 and h <= 1):
                nodes = sorted(
                    y * mesh.cols + x
                    for y in range(y0, y0 + h)
                    for x in range(x0, x0 + w)
                    if (y * mesh.cols + x) in alive
                )
                index = len(leaves)
                leaves.append(nodes)
                return ("leaf", index, index, index + 1)
            # Split at the column/row midpoints, the same convention as
            # Mesh2D.quadrant_of; a dimension of 1 stays unsplit.
            half_w = w // 2
            half_h = h // 2
            spans_x = [(x0, half_w), (x0 + half_w, w - half_w)] if w > 1 else [(x0, w)]
            spans_y = [(y0, half_h), (y0 + half_h, h - half_h)] if h > 1 else [(y0, h)]
            children = []
            lo = len(leaves)
            for sy, sh in spans_y:
                for sx, sw in spans_x:
                    children.append(build(sx, sy, sw, sh))
            return ("inner", children, lo, len(leaves))

        root = build(0, 0, mesh.cols, mesh.rows)
        leaf_of = np.zeros(mesh.node_count, dtype=np.intp)
        for index, nodes in enumerate(leaves):
            for node in nodes:
                leaf_of[node] = index
        # Flatten the descent into per-leaf ancestor chains — the
        # (leaf-range, sibling position) of each enclosing region, root
        # child first.  Ranking then needs no tree walk at all: order
        # leaves by (-ancestor subtree sum, position) level by level,
        # which vectorizes into one np.lexsort over all chunks at once.
        chains: List[List[Tuple[int, int, int]]] = [[] for _ in leaves]

        def walk(region, chain):
            kind, payload, lo, hi = region
            if kind == "leaf":
                chains[payload] = list(chain)
                return
            for position, child in enumerate(payload):
                walk(child, chain + [(child[2], child[3], position)])

        walk(root, [])
        depth = max((len(chain) for chain in chains), default=0)
        for index, chain in enumerate(chains):
            while len(chain) < depth:  # ragged corners repeat their leaf
                chain.append((index, index + 1, 0))
        lo = np.array(
            [[chain[d][0] for chain in chains] for d in range(depth)],
            dtype=np.intp,
        ).reshape(depth, len(leaves))
        hi = np.array(
            [[chain[d][1] for chain in chains] for d in range(depth)],
            dtype=np.intp,
        ).reshape(depth, len(leaves))
        pos = np.array(
            [[chain[d][2] for chain in chains] for d in range(depth)],
            dtype=np.intp,
        ).reshape(depth, len(leaves))
        self._tree = (leaves, leaf_of, (lo, hi, pos))
        return self._tree

    def _rank_hierarchical(
        self, counts: List[Dict[int, int]]
    ) -> List[List[int]]:
        """Quadrant-descent ranking: exact where it matters, cheap elsewhere.

        Per chunk: aggregate the home counts per leaf region in one
        vectorized pass, order sibling regions by aggregated count (ties
        by canonical position), sort nodes *exactly* inside the winning
        leaf — the one that supplies the chunk's assignment in all but
        cap-overflow cases — and emit every other leaf's precomputed node
        list wholesale.  Residency counts are dense (cache-line
        interleaving spreads every array over all banks), so the flat
        search's per-chunk keyed sort of all N nodes is the scaling cost
        this replaces with O(homes) aggregation + O(leaves log leaves)
        ordering + one small exact sort.
        """
        leaves, leaf_of, (lo, hi, pos) = self._region_tree()
        leaf_count = len(leaves)
        chunk_count = len(counts)
        # Above HIERARCHICAL_NODE_THRESHOLD nodes the mesh splits into
        # several leaves, so there is at least one tree level.
        depth = lo.shape[0]
        total = sum(map(len, counts))
        homes = np.empty(total, dtype=np.intp)
        weights = np.empty(total, dtype=np.float64)
        chunk_ids = np.empty(total, dtype=np.intp)
        base = 0
        for index, chunk_counts in enumerate(counts):
            k = len(chunk_counts)
            if k == 0:
                continue
            homes[base : base + k] = np.fromiter(
                chunk_counts.keys(), dtype=np.intp, count=k
            )
            weights[base : base + k] = np.fromiter(
                chunk_counts.values(), dtype=np.float64, count=k
            )
            chunk_ids[base : base + k] = index
            base += k
        sums = np.bincount(
            chunk_ids * leaf_count + leaf_of[homes],
            weights=weights,
            minlength=chunk_count * leaf_count,
        ).reshape(chunk_count, leaf_count)
        prefix = np.zeros((chunk_count, leaf_count + 1))
        np.cumsum(sums, axis=1, out=prefix[:, 1:])
        # One lexsort ranks every chunk's leaves at once.  Keys run
        # least- to most-significant: at each tree level the ancestor
        # subtree sum (descending) then its canonical sibling position,
        # with the root children last (= primary).
        keys = []
        for d in range(depth - 1, -1, -1):
            keys.append(np.broadcast_to(pos[d], (chunk_count, leaf_count)))
            keys.append(prefix[:, lo[d]] - prefix[:, hi[d]])
        order_rows = np.lexsort(tuple(keys), axis=-1).tolist()
        preferences = []
        for index, row in enumerate(order_rows):
            chunk_counts = counts[index]
            if chunk_counts:
                # The first leaf in descent order always holds data (its
                # ancestors win every sum comparison), and it supplies the
                # chunk's assignment in all but cap-overflow cases: rank
                # it exactly, emit the rest wholesale.
                nodes = leaves[row[0]]
                hot = sorted(
                    (n for n in nodes if n in chunk_counts),
                    key=lambda n: (-chunk_counts[n], n),
                )
                hot_set = set(hot)
                ranked = hot + [n for n in nodes if n not in hot_set]
                ranked.extend(
                    itertools.chain.from_iterable(
                        [leaves[leaf] for leaf in row[1:]]
                    )
                )
            else:
                ranked = list(
                    itertools.chain.from_iterable([leaves[leaf] for leaf in row])
                )
            preferences.append(ranked)
        return preferences

    def _assign_chunks(self, preferences: List[List[int]]) -> List[int]:
        """Greedy profile assignment with a soft per-node load cap."""
        chunk_count = len(preferences)
        alive_count = len(self.machine.alive_nodes())
        cap = max(1, int(LOAD_CAP_FACTOR * chunk_count / alive_count))
        load = [0] * self.machine.node_count
        assignment = []
        for ranked in preferences:
            chosen = next((n for n in ranked if load[n] < cap), ranked[0])
            load[chosen] += 1
            assignment.append(chosen)
        return assignment

    def assignment(self, program: Program) -> Dict[int, int]:
        """Instance seq -> node under the default placement.

        The partitioner's fallback node for statements it does not split.
        Declares the arrays and ranks and assigns each nest's chunks; it
        records no profile and builds no units, so a compile that skips
        its ``profile`` pass leaves MCDRAM unplaced.
        """
        program.declare_on(self.machine)
        node_of_seq: Dict[int, int] = {}
        seq_base = 0
        for nest in program.nests:
            assignment = self._assign_chunks(self._chunk_preferences(program, nest))
            chunk_count = len(assignment)
            trip = max(nest.trip_count, 1)
            for position in range(nest.instance_count):
                chunk = min(
                    position // nest.body_size * chunk_count // trip,
                    chunk_count - 1,
                )
                node_of_seq[seq_base + position] = assignment[chunk]
            seq_base += nest.instance_count
        return node_of_seq

    def place(self, program: Program) -> PlacementResult:
        """Place every nest of ``program``; returns simulator-ready units."""
        program.declare_on(self.machine)
        # The paper's default toolchain also performs the VTune-guided
        # MCDRAM placement (Section 6.1); apply it so comparisons against
        # the optimized version isolate computation mapping only.
        from repro.core.partitioner import profile_access_counts

        self.machine.record_profile(profile_access_counts(program))
        node_of_seq = self.assignment(program)
        return placement_from_assignment(
            self.machine, program, lambda instance: node_of_seq[instance.seq]
        )
