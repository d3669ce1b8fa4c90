"""Kruskal's minimum-spanning-tree over components (paper Section 3.2).

A component is a set of mesh nodes: a leaf operand's node, the store
target's node, or an already-processed inner operand set, which enters the
next level as one component attachable at *any* of its nodes (Algorithm 1
keeps ``MSTedges`` across ``Vset`` levels).  The edge between two
components costs the minimum Manhattan distance between their nodes
(paper Figure 10's edge ③), and the accepted edges' total weight is the
minimum data movement.  A point-vertex MST is the special case of
one-node components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Sequence, Tuple

from repro.utils.union_find import UnionFind


@dataclass(frozen=True, slots=True)
class MstEdge:
    """An accepted MST edge between two mesh nodes."""

    a: int
    b: int
    weight: int


def kruskal(
    members: Sequence[int],
    nodes_of: Mapping[int, Sequence[int]],
    distance: Callable[[int, int], int],
) -> List[Tuple[int, int, MstEdge]]:
    """Connect the distinct components ``members`` with minimum weight.

    ``nodes_of[m]`` lists component ``m``'s mesh nodes.  Returns the
    accepted ``(a, b, edge)`` triples in acceptance order, where ``a``
    precedes ``b`` in ``members`` and ``edge`` joins the closest pair of
    their nodes (the first such pair in node order).  Equal weights are
    taken in (a, b) order, so the tree is deterministic.
    """
    if len(members) < 2:
        return []
    candidates: List[Tuple[int, int, int, MstEdge]] = []
    for i, a in enumerate(members):
        nodes_a = nodes_of[a]
        for b in members[i + 1:]:
            best_w = -1
            best_na = best_nb = 0
            for na in nodes_a:
                for nb in nodes_of[b]:
                    w = distance(na, nb)
                    if best_w < 0 or w < best_w:
                        best_w = w
                        best_na = na
                        best_nb = nb
            candidates.append((best_w, a, b, MstEdge(best_na, best_nb, best_w)))
    # (weight, a, b) is unique per pair, so the MstEdge is never compared.
    candidates.sort()
    uf = UnionFind(members)
    accepted: List[Tuple[int, int, MstEdge]] = []
    for _, a, b, edge in candidates:
        if uf.union(a, b):
            accepted.append((a, b, edge))
    return accepted
