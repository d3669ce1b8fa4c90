"""Synchronization graph and transitive-closure minimization (Section 4.5).

Each subcomputation instance is a node; a synchronization arc runs from a
producer to the consumer that must wait for its result (cross-node child
results, plus inter-statement dependences inside a window).  Following the
paper's Midkiff/Padua-style strategy, an arc is *redundant* when a chain of
other arcs already orders the pair — e.g. with sub1 -> sub2 -> ... -> subr
in place, a direct sub1 -> subr arc adds nothing and is dropped.

Arcs must respect creation order (producer uid < consumer uid), which makes
the graph a DAG topologically sorted by uid; reachability is computed with
per-node bitmasks in one reverse sweep.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import SchedulingError
from repro.obs.tracer import get_tracer


class SyncGraph:
    """A DAG of synchronization arcs with transitive reduction."""

    def __init__(self):
        self._succ: Dict[int, Set[int]] = {}
        self.arcs_added = 0

    def add_arc(self, producer: int, consumer: int) -> None:
        """Record that ``consumer`` must wait for ``producer``."""
        if producer == consumer:
            raise SchedulingError(f"self-synchronization on subcomputation {producer}")
        successors = self._succ.setdefault(producer, set())
        if consumer not in successors:
            successors.add(consumer)
            self.arcs_added += 1

    def arc_count(self) -> int:
        """Number of synchronization arcs currently in the graph."""
        return sum(len(s) for s in self._succ.values())

    def arcs(self) -> List[Tuple[int, int]]:
        """All arcs as (producer uid, consumer uid) pairs."""
        out = []
        for producer in sorted(self._succ):
            for consumer in sorted(self._succ[producer]):
                out.append((producer, consumer))
        return out

    def minimize(self) -> int:
        """Drop redundant arcs (transitive reduction); returns #removed.

        An arc (u, v) is removed when v is reachable from u through another
        successor of u.  Reachability bitmasks are computed in reverse
        topological order (the graph is a DAG by construction: a consumed
        subcomputation is closed and can never gain new inputs).
        """
        nodes: Set[int] = set(self._succ)
        for successors in self._succ.values():
            nodes.update(successors)
        # Uids can be large and sparse; bitmasks index dense positions.
        position = {node: i for i, node in enumerate(sorted(nodes))}
        reach: Dict[int, int] = {}
        for node in self._reverse_topological(nodes):
            mask = 1 << position[node]
            for successor in self._succ.get(node, ()):
                mask |= reach.get(successor, 1 << position[successor])
            reach[node] = mask

        removed = 0
        for node in sorted(self._succ):
            successors = sorted(self._succ[node])
            keep: Set[int] = set(successors)
            for candidate in successors:
                others = 0
                for other in keep:
                    if other != candidate:
                        others |= reach.get(other, 1 << position[other])
                if (others >> position[candidate]) & 1:
                    keep.discard(candidate)
                    removed += 1
            self._succ[node] = keep
        return removed

    def minimize_in(self, session) -> int:
        """Minimize under a session's pipeline shape; returns the arc count.

        This is the inline ``sync_minimize`` pass: a session that skips it
        (``--skip-pass sync_minimize``) leaves every arc in place, and
        check mode audits the result against the reference transitive
        reduction.  ``None`` (bare API use, no pipeline) minimizes
        unconditionally.  The minimize runs in a ``pass.sync_minimize``
        span: its time counts toward that pass, and only a debug trace
        writes the (per-window) span out.
        """
        from repro import check

        if session is not None and not session.pass_enabled("sync_minimize"):
            return self.arc_count()
        arcs_before = self.arcs() if check.enabled() else None
        with get_tracer().debug_span("pass.sync_minimize"):
            self.minimize()
        if arcs_before is not None:
            # Check mode: the bitmask sweep must produce exactly the
            # unique transitive reduction of the arcs it was handed.
            from repro.check import invariants

            invariants.check_syncgraph_minimized(arcs_before, self.arcs())
        return self.arc_count()

    def _reverse_topological(self, nodes: Set[int]) -> List[int]:
        """Nodes in reverse topological order (iterative DFS post-order)."""
        visited: Set[int] = set()
        order: List[int] = []
        for start in sorted(nodes):
            if start in visited:
                continue
            stack: List[Tuple[int, bool]] = [(start, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node)
                    continue
                if node in visited:
                    continue
                visited.add(node)
                stack.append((node, True))
                for successor in sorted(self._succ.get(node, ()), reverse=True):
                    if successor not in visited:
                        stack.append((successor, False))
        return order

    def merge(self, other: "SyncGraph") -> None:
        """Absorb ``other``'s arcs into this graph."""
        for producer, successors in other._succ.items():
            for consumer in successors:
                self.add_arc(producer, consumer)
