"""2D mesh topology and Manhattan-distance geometry (paper Section 2).

Nodes are labelled ``(x, y)`` exactly as in the paper's Figure 1, with ``x``
the column and ``y`` the row.  The data movement distance between nodes is

    MD(n_ij, n_xy) = |i - x| + |j - y|

which is the minimum number of mesh links a message must traverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Meshes up to this many nodes eagerly precompute the all-pairs distance
#: table at construction (covers the paper's 6x6 and every test mesh, where
#: the nested-list lookup wins on the scalar hot path).  Larger meshes
#: answer queries on demand: closed-form arithmetic per pair plus memoized
#: per-source rows, so a 16x16 (or 100x100) mesh never materializes an
#: O(nodes^2) table just to be constructed.
_EAGER_DISTANCE_NODES = 64

#: Hard cap for *explicitly requested* dense tables (:attr:`distance_table`
#: / :meth:`distance_rows` force one).  Above this the dense form is
#: refused — callers hold the sparse interface (:meth:`distance_fn`,
#: :meth:`distance_row`) instead, keeping memory bounded by design.
_DISTANCE_TABLE_MAX_NODES = 4096


@dataclass(frozen=True, order=True, slots=True)
class Coord:
    """A node location ``(x, y)`` on the mesh."""

    x: int
    y: int

    def manhattan(self, other: "Coord") -> int:
        """Minimum number of links between this node and ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


class Mesh2D:
    """An ``cols x rows`` mesh of nodes with row-major integer node ids.

    Node id 0 is ``(0, 0)`` (bottom-left by convention), and ids increase
    along x first:  ``node_id = y * cols + x``.
    """

    def __init__(self, cols: int, rows: int):
        if cols < 1 or rows < 1:
            raise ConfigurationError(f"mesh dimensions must be >= 1, got {cols}x{rows}")
        self.cols = cols
        self.rows = rows
        self.node_count = cols * rows
        self._distance_np: Optional[np.ndarray] = None
        self._distance_rows: Optional[List[List[int]]] = None
        self._row_cache: dict = {}
        if self.node_count <= _EAGER_DISTANCE_NODES:
            self._build_distance_table()

    def _build_distance_table(self) -> None:
        ids = np.arange(self.node_count)
        xs = ids % self.cols
        ys = ids // self.cols
        table = np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
        self._distance_np = table
        # Plain nested lists: scalar indexing beats NumPy item access on the
        # per-call hot path, and the values are genuine ints.
        self._distance_rows = table.tolist()

    @property
    def distance_table(self) -> np.ndarray:
        """All-pairs Manhattan distances, ``table[a, b]`` (node-id indexed).

        Dense and O(nodes^2): available on demand up to
        :data:`_DISTANCE_TABLE_MAX_NODES` nodes (differential oracles and
        tests want the whole matrix); beyond that it refuses — large-mesh
        callers use the sparse interface (:meth:`distance_fn`,
        :meth:`distance_row`) instead.
        """
        if self._distance_np is None:
            if self.node_count > _DISTANCE_TABLE_MAX_NODES:
                raise ConfigurationError(
                    f"dense distance table refused for {self.cols}x{self.rows} "
                    f"({self.node_count} nodes > cap {_DISTANCE_TABLE_MAX_NODES}); "
                    "use distance_fn()/distance_row() instead"
                )
            self._build_distance_table()
        return self._distance_np

    def distance_rows(self) -> Optional[List[List[int]]]:
        """Nested-list all-pairs distances (``rows[a][b]``), or ``None``.

        Hot compiler/simulator loops index this directly — a plain list
        lookup beats a bounds-checked method call.  ``None`` for meshes
        above the eager threshold (they never materialized the table);
        callers keep :meth:`distance` / :meth:`distance_fn` there.
        """
        return self._distance_rows

    def distance_fn(self) -> Callable[[int, int], int]:
        """Fastest available ``(a, b) -> hops`` callable for valid node ids.

        Small meshes return a nested-list table lookup (bit-identical to
        the historical eager-table behaviour); large meshes return a
        closed-form callable — O(1) arithmetic per query, no O(nodes^2)
        state.  Both compute the same pure Manhattan values.
        """
        rows = self._distance_rows
        if rows is not None:
            return lambda a, b: rows[a][b]
        cols = self.cols

        def manhattan(a: int, b: int) -> int:
            ay, ax = divmod(a, cols)
            by, bx = divmod(b, cols)
            return abs(ax - bx) + abs(ay - by)

        return manhattan

    def distance_row(self, node_id: int) -> np.ndarray:
        """Distances from ``node_id`` to every node (memoized per source).

        The sparse/on-demand complement of :attr:`distance_table` for
        vectorized consumers on large meshes: each requested source costs
        O(nodes) once and is cached, so touching ``k`` sources stores
        ``k * nodes`` entries instead of ``nodes^2``.
        """
        cached = self._row_cache.get(node_id)
        if cached is not None:
            return cached
        self._check_id(node_id)
        ids = np.arange(self.node_count)
        row = np.abs(ids % self.cols - node_id % self.cols) + np.abs(
            ids // self.cols - node_id // self.cols
        )
        self._row_cache[node_id] = row
        return row

    def coord_of(self, node_id: int) -> Coord:
        """Coordinate of ``node_id`` (row-major)."""
        self._check_id(node_id)
        return Coord(node_id % self.cols, node_id // self.cols)

    def id_of(self, coord: Coord) -> int:
        """Node id of ``coord``."""
        if not self.contains(coord):
            raise ConfigurationError(f"coordinate {coord} outside {self.cols}x{self.rows} mesh")
        return coord.y * self.cols + coord.x

    def contains(self, coord: Coord) -> bool:
        return 0 <= coord.x < self.cols and 0 <= coord.y < self.rows

    def distance(self, a: int, b: int) -> int:
        """Manhattan distance (hop count) between node ids ``a`` and ``b``."""
        rows = self._distance_rows
        if rows is not None and 0 <= a < self.node_count and 0 <= b < self.node_count:
            return rows[a][b]
        return self.coord_of(a).manhattan(self.coord_of(b))

    def coords(self) -> Iterator[Coord]:
        """All node coordinates in id order."""
        for node_id in range(self.node_count):
            yield self.coord_of(node_id)

    def neighbors(self, node_id: int) -> List[int]:
        """Node ids adjacent (one link away) to ``node_id``."""
        c = self.coord_of(node_id)
        result = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            n = Coord(c.x + dx, c.y + dy)
            if self.contains(n):
                result.append(self.id_of(n))
        return result

    def corner_ids(self) -> Tuple[int, int, int, int]:
        """The four corner node ids (paper attaches MCs to the corners)."""
        return (
            self.id_of(Coord(0, 0)),
            self.id_of(Coord(self.cols - 1, 0)),
            self.id_of(Coord(0, self.rows - 1)),
            self.id_of(Coord(self.cols - 1, self.rows - 1)),
        )

    def quadrant_of(self, node_id: int) -> int:
        """Quadrant index 0..3 of a node (used by KNL quadrant/SNC-4 modes).

        Quadrants split the mesh at the column/row midpoints; for odd
        dimensions the extra column/row joins the higher quadrant, which
        keeps every node in exactly one quadrant.
        """
        c = self.coord_of(node_id)
        half_x = self.cols // 2
        half_y = self.rows // 2
        qx = 0 if c.x < half_x else 1
        qy = 0 if c.y < half_y else 1
        return qy * 2 + qx

    def nodes_in_quadrant(self, quadrant: int) -> List[int]:
        """All node ids whose :meth:`quadrant_of` equals ``quadrant``."""
        if not 0 <= quadrant <= 3:
            raise ConfigurationError(f"quadrant must be 0..3, got {quadrant}")
        return [n for n in range(self.node_count) if self.quadrant_of(n) == quadrant]

    def diameter(self) -> int:
        """Longest shortest-path distance on the mesh."""
        return (self.cols - 1) + (self.rows - 1)

    def __repr__(self) -> str:
        return f"Mesh2D({self.cols}x{self.rows})"

    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < self.node_count:
            raise ConfigurationError(
                f"node id {node_id} outside mesh with {self.node_count} nodes"
            )
