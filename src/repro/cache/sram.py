"""Generic set-associative cache with true-LRU replacement.

Operates on cache-block numbers (not raw addresses); the address mapping in
:mod:`repro.mem.address` is responsible for turning addresses into block
numbers, so one cache model serves both L1s and L2 banks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a cache: capacity, associativity, line size (bytes)."""

    capacity_bytes: int
    associativity: int
    line_size: int = 64

    def __post_init__(self):
        if self.capacity_bytes <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ConfigurationError(f"invalid cache geometry: {self}")
        lines = self.capacity_bytes // self.line_size
        if lines == 0 or lines % self.associativity:
            raise ConfigurationError(
                f"capacity {self.capacity_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.line_size}B lines"
            )

    @property
    def line_count(self) -> int:
        return self.capacity_bytes // self.line_size

    @property
    def set_count(self) -> int:
        return self.line_count // self.associativity


class SetAssocCache:
    """A set-associative, true-LRU cache over block numbers."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # Geometry cached as plain ints: ``set_count``/``associativity`` sit
        # on the per-access hot path and the dataclass properties re-divide
        # on every call.
        self._set_count = config.set_count
        self._assoc = config.associativity
        # One OrderedDict per set, created on the set's first fill (None
        # until then): keys are block numbers, order is recency (last item =
        # most recently used).  A 16x16 mesh has 266k sets per cache system
        # and a compile touches few of them.
        self._sets: List[Optional["OrderedDict[int, None]"]] = [None] * self._set_count
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_of(self, block: int) -> "OrderedDict[int, None]":
        """The set ``block`` maps to, created if this is its first fill."""
        index = block % self._set_count
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set

    def contains(self, block: int) -> bool:
        """Non-mutating lookup (does not touch LRU state or counters)."""
        cache_set = self._sets[block % self._set_count]
        return cache_set is not None and block in cache_set

    def access(self, block: int) -> bool:
        """Access ``block``: returns True on hit.  Misses fill the block.

        Fills evict the LRU way when the set is full.
        """
        index = block % self._set_count
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        elif block in cache_set:
            cache_set.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self._assoc:
            cache_set.popitem(last=False)
            self.evictions += 1
        cache_set[block] = None
        return False

    def fill(self, block: int) -> None:
        """Install ``block`` without counting an access (e.g. a push/forward)."""
        cache_set = self._set_of(block)
        if block in cache_set:
            cache_set.move_to_end(block)
            return
        self._fill(cache_set, block)

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns True when something was dropped."""
        cache_set = self._sets[block % self._set_count]
        if cache_set is not None and block in cache_set:
            del cache_set[block]
            return True
        return False

    def _fill(self, cache_set: "OrderedDict[int, None]", block: int) -> None:
        if len(cache_set) >= self._assoc:
            cache_set.popitem(last=False)
            self.evictions += 1
        cache_set[block] = None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when untouched)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def resident_blocks(self) -> List[int]:
        """All blocks currently cached (unspecified order across sets)."""
        blocks: List[int] = []
        for cache_set in self._sets:
            if cache_set is not None:
                blocks.extend(cache_set.keys())
        return blocks

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        self._sets = [None] * self._set_count
        self.reset_stats()
