"""Brute-force reference implementations (obviously correct, slow).

Each oracle recomputes, from first principles, a quantity an optimized
path produces through cleverness — exhaustive search where the optimized
code runs Kruskal, Floyd–Warshall where it consults a route cache,
per-address bit arithmetic where it vectorizes, a quadratic closure where
it sweeps bitmasks.  The property harness in ``tests/check/`` runs the
two against each other over randomized inputs; the runtime hooks in
:mod:`repro.check.invariants` call the cheap ones directly.
:func:`star_cost` is a reference bound rather than a recomputation: no
split's MST moves more than gathering every operand at the store node.

Oracles never mutate their arguments and never consult the caches they
are checking.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import CheckError
from repro.noc.topology import Mesh2D
from repro.utils.union_find import UnionFind

#: Exhaustive spanning-tree search enumerates C(n*(n-1)/2, n-1) edge
#: subsets; beyond this many vertices the oracle refuses rather than hang.
MAX_EXHAUSTIVE_VERTICES = 7

INF = float("inf")

LinkId = Tuple[int, int]


# -- exhaustive spanning trees (oracle for Kruskal / the MST splitter) -----

def exhaustive_mst_weight(
    count: int, weight: Callable[[int, int], float]
) -> float:
    """Minimum spanning-tree weight over ``count`` items by brute force.

    Items are identified by index ``0..count-1``; ``weight(i, j)`` gives
    the edge weight.  Every (n-1)-subset of the complete edge set is
    tested for spanning-ness, so the result is the true minimum — the
    reference for :func:`repro.core.mst.kruskal`, the component Kruskal
    every split runs per operand set.
    """
    if count < 2:
        return 0.0
    if count > MAX_EXHAUSTIVE_VERTICES:
        raise CheckError(
            f"exhaustive MST limited to {MAX_EXHAUSTIVE_VERTICES} vertices, "
            f"got {count}"
        )
    edges = [
        (weight(i, j), i, j)
        for i in range(count)
        for j in range(i + 1, count)
    ]
    best: Optional[float] = None
    for combo in itertools.combinations(edges, count - 1):
        uf = UnionFind(range(count))
        total = 0.0
        for w, i, j in combo:
            if not uf.union(i, j):
                break  # cycle: not a spanning tree
            total += w
        else:
            if uf.set_count == 1 and (best is None or total < best):
                best = total
    assert best is not None  # the complete graph always has a spanning tree
    return best


def component_distance(
    nodes_a: Sequence[int],
    nodes_b: Sequence[int],
    distance: Callable[[int, int], int],
) -> int:
    """Minimum pairwise distance between two node sets (splitter edge rule)."""
    return min(distance(a, b) for a in nodes_a for b in nodes_b)


def oracle_split_weight(split, distance: Callable[[int, int], int]) -> float:
    """Recompute a :class:`~repro.core.splitter.StatementSplit`'s MST weight.

    Replays the splitter's hierarchy from its recorded structure alone:
    every operand set's members are components (a leaf's vertex, the store
    node, or an already-merged inner set's node union), edge weight between
    components is the minimum pairwise distance (paper Figure 10's edge ③),
    and the set's contribution is the *exhaustive* minimum spanning-tree
    weight over its components.  The sum over all sets must equal
    ``split.mst_weight`` — the spanning-tree minimum is unique even when
    the tree itself is not.
    """
    component_nodes: Dict[int, Tuple[int, ...]] = {
        member: (leaf.vertex,) for member, leaf in split.leaves.items()
    }
    component_nodes[split.store_member] = (split.store_node,)
    total = 0.0
    # ``sets`` is appended children-first, so members always resolve.
    for record in split.sets:
        members = [component_nodes[m] for m in record.member_ids]
        if len(members) >= 2:
            total += exhaustive_mst_weight(
                len(members),
                lambda i, j: component_distance(members[i], members[j], distance),
            )
        component_nodes[record.set_id] = tuple(
            sorted({n for nodes in members for n in nodes})
        )
    return total


# -- the unsplit schedule (reference bound for the MST splitter) ----------

def star_cost(instance, locator, var2node=None, exec_node=None) -> int:
    """Predicted movement of the unsplit schedule (default execution).

    All inputs gathered at ``exec_node`` (the output's home when not
    given), one block fetch per distinct block, zero for blocks modeled
    L1-resident there in ``var2node``, and the result carried to its home
    bank.  Paper Figures 9 and 10 count their default movement this way.
    Reads are located through ``locator``, so a stateful predictor
    advances.
    """
    distance = locator.machine.mesh.distance_fn()
    node = exec_node if exec_node is not None else locator.store_node(instance.write)
    cost = 0
    seen_blocks = set()
    for access in instance.reads:
        block = locator.block_of(access)
        if block in seen_blocks:
            continue
        seen_blocks.add(block)
        location = locator.locate(access, var2node)
        if node in location.l1_copies:
            continue
        cost += distance(location.primary, node)
    return cost + distance(node, locator.store_node(instance.write))


# -- Floyd–Warshall (oracle for the XY / fault-aware route cache) ----------

def floyd_warshall(
    mesh: Mesh2D,
    dead_links: Iterable[LinkId] = (),
    dead_nodes: Iterable[int] = (),
) -> List[List[float]]:
    """All-pairs shortest distances over the surviving mesh graph.

    The textbook O(n^3) recurrence over the directed live-link adjacency;
    ``inf`` marks unreachable pairs (and any pair touching a dead node).
    Reference for healthy Manhattan distances, ``Mesh2D.distance_table``,
    and :meth:`repro.noc.routing.Router.hops` under faults.
    """
    n = mesh.node_count
    dead_nodes = frozenset(dead_nodes)
    dead = set(dead_links)
    for node in dead_nodes:
        for neighbor in mesh.neighbors(node):
            dead.add((node, neighbor))
            dead.add((neighbor, node))
    dist = [[INF] * n for _ in range(n)]
    for node in range(n):
        if node not in dead_nodes:
            dist[node][node] = 0.0
        for neighbor in mesh.neighbors(node):
            if (node, neighbor) not in dead:
                dist[node][neighbor] = 1.0
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            ik = dist[i][k]
            if ik == INF:
                continue
            row_i = dist[i]
            for j in range(n):
                through = ik + row_k[j]
                if through < row_i[j]:
                    row_i[j] = through
    return dist


def walk_is_valid_route(
    links: Sequence[LinkId],
    src: int,
    dst: int,
    mesh: Mesh2D,
    dead_links: FrozenSet[LinkId] = frozenset(),
) -> bool:
    """True when ``links`` is a contiguous walk src->dst over live mesh links."""
    at = src
    for a, b in links:
        if a != at or (a, b) in dead_links or mesh.distance(a, b) != 1:
            return False
        at = b
    return at == dst


# -- naive per-address layout mapper (oracle for vectorized DataLayout) ----

def naive_bank_of_va(layout, name: str, index: int) -> int:
    """Home L2 bank of ``name[index]`` by scalar per-address bit arithmetic.

    Walks the virtual address through the bit-field mapping one element at
    a time — the obviously-correct path the vectorized
    :meth:`~repro.mem.layout.DataLayout.bank_map` replaces.
    """
    return layout.mapping.l2.bank_of(layout.va_of(name, index))


def naive_channel_of_va(layout, name: str, index: int) -> int:
    """Memory channel of ``name[index]`` by scalar per-address bit arithmetic."""
    return layout.mapping.memory.channel_of(layout.va_of(name, index))


def naive_bank_of_pa(layout, name: str, index: int) -> int:
    """Home L2 bank through the *physical* address path.

    Translates through the page allocator (allocating frames on demand)
    and extracts the bank from the PA — must agree with the VA-derived
    maps because the allocator is color-preserving.  Test-harness only:
    it can allocate frames, so runtime hooks use the VA variants.
    """
    return layout.mapping.l2.bank_of(layout.pa_of(name, index))


def naive_channel_of_pa(layout, name: str, index: int) -> int:
    """Memory channel through the physical address path (see above)."""
    return layout.mapping.memory.channel_of(layout.pa_of(name, index))


def naive_home_node(machine, name: str, index: int) -> int:
    """Home mesh node of ``name[index]`` from the naive VA bank mapper."""
    bank = naive_bank_of_va(machine.layout, name, index)
    return machine.node_of_bank(bank)


# -- reference transitive closure / reduction (oracle for SyncGraph) -------

def reference_transitive_closure(
    arcs: Iterable[Tuple[int, int]]
) -> Set[Tuple[int, int]]:
    """Every ordered pair (u, v) with a directed path u -> v, by plain DFS."""
    successors: Dict[int, Set[int]] = {}
    nodes: Set[int] = set()
    for a, b in arcs:
        successors.setdefault(a, set()).add(b)
        nodes.update((a, b))
    closure: Set[Tuple[int, int]] = set()
    for start in nodes:
        stack = list(successors.get(start, ()))
        seen: Set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        closure.update((start, reached) for reached in seen)
    return closure


def reference_transitive_reduction(
    arcs: Iterable[Tuple[int, int]]
) -> Set[Tuple[int, int]]:
    """The unique minimal arc set with the same reachability (DAG input).

    An arc (u, v) is redundant exactly when some other successor w of u
    already reaches v; for a DAG the reduction is unique, so the optimized
    :meth:`repro.core.syncgraph.SyncGraph.minimize` must reproduce it
    *exactly*, not merely equivalently.
    """
    arc_set = set(arcs)
    closure = reference_transitive_closure(arc_set)
    kept: Set[Tuple[int, int]] = set()
    for u, v in arc_set:
        redundant = any(
            w != v and (w, v) in closure
            for (a, w) in arc_set
            if a == u and w != v
        )
        if not redundant:
            kept.add((u, v))
    return kept
