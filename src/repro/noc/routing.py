"""Dimension-ordered (XY) routing over the 2D mesh, plus fault detours.

KNL's mesh routes packets first along rows then along columns; we use the
same deterministic XY routing so two messages between the same endpoints
always use the same links, which is what makes the paper's "overlapping
network paths" observation (Figure 3) well defined.

:class:`Router` layers graceful degradation on top (DESIGN.md section 9):
when a :class:`~repro.faults.plan.FaultPlan` marks links or tiles dead,
routes detour — first trying the orthogonal YX dimension order (the
O1TURN trick: between any pair the XY and YX paths are link-disjoint
except at the endpoints, so a single dead link never kills both), then
falling back to a deterministic BFS shortest path over the surviving
graph.  Every route, detoured or not, is a walk over live mesh links, so
per-link accounting still decomposes data movement exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import check
from repro.errors import FaultError
from repro.noc.topology import Coord, Mesh2D

# A link is a directed pair of adjacent node ids.
LinkId = Tuple[int, int]


def mesh_links(mesh: Mesh2D) -> List[LinkId]:
    """Every directed link of ``mesh``, sorted by (src, dst).

    A ``cols x rows`` mesh has ``2 * (cols*(rows-1) + rows*(cols-1))``
    directed links; any link a route can traverse is in this list, so it
    is the canonical domain for per-link accounting (heatmaps, schema
    validation of ``report.json``).
    """
    links: List[LinkId] = []
    for src in range(mesh.node_count):
        for dst in mesh.neighbors(src):
            links.append((src, dst))
    links.sort()
    return links


def xy_route_nodes(mesh: Mesh2D, src: int, dst: int) -> List[int]:
    """The node ids visited routing from ``src`` to ``dst`` (inclusive).

    X dimension is corrected first, then Y, matching hardware XY routing.
    """
    path = [src]
    cur = mesh.coord_of(src)
    target = mesh.coord_of(dst)
    while cur.x != target.x:
        step = 1 if target.x > cur.x else -1
        cur = Coord(cur.x + step, cur.y)
        path.append(mesh.id_of(cur))
    while cur.y != target.y:
        step = 1 if target.y > cur.y else -1
        cur = Coord(cur.x, cur.y + step)
        path.append(mesh.id_of(cur))
    return path


def xy_route_links(mesh: Mesh2D, src: int, dst: int) -> List[LinkId]:
    """The directed links traversed routing from ``src`` to ``dst``.

    The length of the returned list equals the Manhattan distance, so link
    accounting and the paper's data-movement metric agree by construction.
    """
    return list(xy_route_links_cached(mesh, src, dst))


#: Per-mesh route caches stop growing past this many (src, dst) pairs — a
#: memory bound for very large meshes; real mesh sizes (n^2 pairs) fit.
_ROUTE_CACHE_LIMIT = 65536


def xy_route_links_cached(mesh: Mesh2D, src: int, dst: int) -> Tuple[LinkId, ...]:
    """Immutable memoized link route — the hot-path variant.

    XY routes are pure functions of the endpoints and a mesh has at most
    ``node_count**2`` of them, so each is walked once per mesh and the
    resulting tuple shared by every later message between the same pair
    (the simulator routes the same endpoints millions of times).
    """
    cache = getattr(mesh, "_xy_link_cache", None)
    if cache is None:
        cache = {}
        mesh._xy_link_cache = cache
    route = cache.get((src, dst))
    if route is None:
        nodes = xy_route_nodes(mesh, src, dst)
        route = tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
        if len(cache) < _ROUTE_CACHE_LIMIT:
            cache[(src, dst)] = route
    return route


def yx_route_nodes(mesh: Mesh2D, src: int, dst: int) -> List[int]:
    """The YX (column-first) route — O1TURN's second dimension order."""
    path = [src]
    cur = mesh.coord_of(src)
    target = mesh.coord_of(dst)
    while cur.y != target.y:
        step = 1 if target.y > cur.y else -1
        cur = Coord(cur.x, cur.y + step)
        path.append(mesh.id_of(cur))
    while cur.x != target.x:
        step = 1 if target.x > cur.x else -1
        cur = Coord(cur.x + step, cur.y)
        path.append(mesh.id_of(cur))
    return path


def _links_of(nodes: List[int]) -> Tuple[LinkId, ...]:
    return tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))


class Router:
    """Fault-aware route oracle over one mesh.

    With no faults installed the router is transparent: it answers from
    the shared per-mesh XY cache and :meth:`hops` is the Manhattan
    distance, so healthy runs are bit-identical to the pre-fault code.

    With faults, :meth:`route_links` returns the detour route (XY if
    clean, else YX, else BFS over the surviving graph) and :meth:`hops`
    its true link count — which is what both the congestion model and the
    data-movement accounting must use for the heatmap invariant
    (per-link flits summing exactly to ``DataMovement``) to keep holding.

    The detour cache is invalidated whenever the fault set changes; the
    ``epoch`` counter names the current fault configuration, so consumers
    that key anything on routes can compare epochs.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        dead_links: Iterable[LinkId] = (),
        dead_nodes: Iterable[int] = (),
    ):
        self.mesh = mesh
        self.epoch = 0
        self._cache: Dict[Tuple[int, int], Tuple[LinkId, ...]] = {}
        self.dead_links: FrozenSet[LinkId] = frozenset()
        self.dead_nodes: FrozenSet[int] = frozenset()
        self._distance = mesh.distance
        if dead_links or dead_nodes:
            self.set_faults(dead_links, dead_nodes)

    @property
    def healthy(self) -> bool:
        """True when no link or node faults are installed."""
        return not self.dead_links and not self.dead_nodes

    def set_faults(
        self, dead_links: Iterable[LinkId], dead_nodes: Iterable[int]
    ) -> int:
        """Install a new fault configuration; returns the new epoch.

        Dead links are directed ids (a failed physical link contributes
        both directions).  Links touching a dead node are implied dead.
        The route cache is dropped — detours computed under the previous
        epoch are no longer valid.
        """
        self.dead_nodes = frozenset(dead_nodes)
        self.dead_links = self._implied_links(dead_links, self.dead_nodes)
        self._cache.clear()
        self.epoch += 1
        if check.enabled():
            # Check mode: audit the new configuration's detours against
            # Floyd-Warshall before any consumer routes through them.
            from repro.check.invariants import check_router_distances

            check_router_distances(self)
        return self.epoch

    def holds(self, dead_links: Iterable[LinkId], dead_nodes: Iterable[int]) -> bool:
        """True when ``set_faults(dead_links, dead_nodes)`` would change nothing."""
        nodes = frozenset(dead_nodes)
        return nodes == self.dead_nodes and (
            self._implied_links(dead_links, nodes) == self.dead_links
        )

    def _implied_links(
        self, dead_links: Iterable[LinkId], dead_nodes: FrozenSet[int]
    ) -> FrozenSet[LinkId]:
        """``dead_links`` plus every link touching a dead node."""
        dead = set(dead_links)
        for node in dead_nodes:
            for neighbor in self.mesh.neighbors(node):
                dead.add((node, neighbor))
                dead.add((neighbor, node))
        return frozenset(dead)

    def alive(self, node: int) -> bool:
        return node not in self.dead_nodes

    def route_links(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        """The directed links a message traverses from ``src`` to ``dst``."""
        if self.healthy:
            return xy_route_links_cached(self.mesh, src, dst)
        if src == dst:
            return ()
        route = self._cache.get((src, dst))
        if route is None:
            route = self._compute(src, dst)
            if len(self._cache) < _ROUTE_CACHE_LIMIT:
                self._cache[(src, dst)] = route
        return route

    def route_nodes(self, src: int, dst: int) -> List[int]:
        """Node ids visited from ``src`` to ``dst`` (inclusive)."""
        nodes = [src]
        nodes.extend(link[1] for link in self.route_links(src, dst))
        return nodes

    def hops(self, src: int, dst: int) -> int:
        """True link count of the (possibly detoured) route."""
        if self.healthy:
            return self._distance(src, dst)
        if src == dst:
            return 0
        return len(self.route_links(src, dst))

    def _clean(self, links: Tuple[LinkId, ...]) -> bool:
        dead = self.dead_links
        return not any(link in dead for link in links)

    def _compute(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        if src in self.dead_nodes or dst in self.dead_nodes:
            raise FaultError(
                f"route endpoint on offline tile: {src} -> {dst} "
                f"(dead: {sorted(self.dead_nodes)})"
            )
        xy = xy_route_links_cached(self.mesh, src, dst)
        if self._clean(xy):
            return xy
        yx = _links_of(yx_route_nodes(self.mesh, src, dst))
        if self._clean(yx):
            return yx
        return self._bfs(src, dst)

    def _bfs(self, src: int, dst: int) -> Tuple[LinkId, ...]:
        """Deterministic shortest path over the surviving graph.

        Breadth-first with neighbors expanded in the mesh's fixed
        (+x, -x, +y, -y) order, so identical fault sets always yield
        identical detours.
        """
        mesh = self.mesh
        dead_links = self.dead_links
        parent: Dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            if node == dst:
                break
            for neighbor in mesh.neighbors(node):
                if neighbor in parent or (node, neighbor) in dead_links:
                    continue
                parent[neighbor] = node
                queue.append(neighbor)
        if dst not in parent:
            raise FaultError(
                f"no surviving route {src} -> {dst}: the fault plan "
                "disconnects the mesh"
            )
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        return _links_of(nodes)

    def check_connected(self, alive_nodes: Optional[Iterable[int]] = None) -> None:
        """Raise :class:`FaultError` unless all live tiles stay connected."""
        nodes = (
            sorted(alive_nodes)
            if alive_nodes is not None
            else [n for n in range(self.mesh.node_count) if self.alive(n)]
        )
        if not nodes:
            raise FaultError("fault plan kills every tile")
        seen = {nodes[0]}
        queue = deque([nodes[0]])
        targets = set(nodes)
        dead_links = self.dead_links
        while queue:
            node = queue.popleft()
            for neighbor in self.mesh.neighbors(node):
                if (
                    neighbor in seen
                    or neighbor in self.dead_nodes
                    or (node, neighbor) in dead_links
                ):
                    continue
                seen.add(neighbor)
                queue.append(neighbor)
        missing = targets - seen
        if missing:
            raise FaultError(
                f"fault plan disconnects the mesh: tiles {sorted(missing)} "
                "are unreachable from the surviving network"
            )
