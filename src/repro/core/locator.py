"""Data location detection (paper Section 4.1, Algorithm 1 line 11).

``GetNode`` answers: *on which mesh node does this datum currently live?*
Three sources, in the order the compiler trusts them:

1. the ``variable2node_map`` — nodes whose L1 should hold the datum because
   an already-scheduled subcomputation fetched it there (multi-statement
   windows only);
2. the SNUCA home L2 bank, derived from the address bits the modified OS
   allocator preserves — used when the L2 hit/miss predictor says on-chip;
3. the memory controller that would service the miss — used when the
   predictor says off-chip.

``GetNode`` may therefore return *a set of nodes* (the Algorithm 1 comment);
:class:`Location` carries all candidates plus the primary one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.arch.machine import Machine
from repro.cache.predictor import HitMissPredictor
from repro.ir.statement import Access


class Location(NamedTuple):
    """Where a datum can be found right now.

    ``primary`` is the authoritative location (home bank or MC);
    ``l1_copies`` are nodes believed to hold the datum in L1.  ``on_chip``
    is the predictor's verdict (False means primary is a controller node).
    A NamedTuple: one is built per ``locate`` call, which is the hottest
    allocation site in the scalar partitioning path.
    """

    access: Access
    primary: int
    on_chip: bool
    l1_copies: Tuple[int, ...] = ()

    def candidates(self) -> Tuple[int, ...]:
        """All candidate nodes, L1 copies first (they are the cheapest)."""
        return self.l1_copies + (self.primary,)


class VariableToNodeMap:
    """The compiler's model of which L1s hold which data blocks.

    Keys are cache blocks, not elements: a fetch brings the whole line, so a
    subcomputation touching ``D(i)`` also makes ``D(i+1)`` L1-resident when
    they share a block (the spatial-locality case of paper Figure 12).

    The model is capacity-limited per node (``per_node_capacity`` blocks,
    FIFO): with very large windows, early fetches are modeled as evicted,
    which is exactly the L1-pollution effect that makes oversized windows
    lose (Section 4.4).
    """

    def __init__(self, per_node_capacity: int = 64):
        """Empty map modeling ``per_node_capacity`` L1 blocks per node."""
        self.per_node_capacity = per_node_capacity
        self._blocks_at_node: Dict[int, "OrderedDict[int, None]"] = {}
        self._nodes_of_block: Dict[int, List[int]] = {}
        self._resident_count = 0

    def record(self, block: int, node: int) -> None:
        """Model ``block`` being fetched into ``node``'s L1."""
        resident = self._blocks_at_node.get(node)
        if resident is None:
            resident = self._blocks_at_node[node] = OrderedDict()
        if block in resident:
            resident.move_to_end(block)
            return
        if len(resident) >= self.per_node_capacity:
            evicted, _ = resident.popitem(last=False)
            self._resident_count -= 1
            holders = self._nodes_of_block.get(evicted)
            if holders and node in holders:
                holders.remove(node)
        resident[block] = None
        self._resident_count += 1
        holders = self._nodes_of_block.get(block)
        if holders is None:
            self._nodes_of_block[block] = [node]
        else:
            holders.append(node)

    def nodes_with(self, block: int) -> Tuple[int, ...]:
        """Nodes modeled as holding ``block`` in L1 (insertion order)."""
        return tuple(self._nodes_of_block.get(block, ()))

    def clear(self) -> None:
        """Forget every recorded L1 copy (used at window boundaries)."""
        self._blocks_at_node.clear()
        self._nodes_of_block.clear()
        self._resident_count = 0

    def __len__(self) -> int:
        return self._resident_count


class DataLocator:
    """Resolves accesses to :class:`Location` objects for the partitioner."""

    def __init__(
        self,
        machine: Machine,
        predictor: Optional[HitMissPredictor] = None,
    ):
        self.machine = machine
        self.predictor = predictor

    def locate(
        self,
        access: Access,
        var2node: Optional[VariableToNodeMap] = None,
    ) -> Location:
        """``GetNode``: the candidate nodes for ``access``."""
        machine = self.machine
        if self.predictor is not None:
            address = machine.layout.pa_of(access.array, access.index)
            on_chip = self.predictor.predict(address)
        else:
            on_chip = True
        if on_chip:
            primary = machine.home_node(access.array, access.index)
        else:
            primary = machine.mc_node(access.array, access.index)
        l1_copies: Tuple[int, ...] = ()
        if var2node is not None:
            block = machine.layout.block_of(access.array, access.index)
            l1_copies = var2node.nodes_with(block)
        return Location(access, primary, on_chip, l1_copies)

    def store_node(self, access: Access) -> int:
        """The node where a statement's result is stored.

        The output's SNUCA home bank: the paper never migrates the final
        result ("the final output data is stored on the same node where it
        was supposed to be", Section 4.5).
        """
        return self.machine.home_node(access.array, access.index)

    def block_of(self, access: Access) -> int:
        """The L2 block id holding ``access``'s element."""
        return self.machine.layout.block_of(access.array, access.index)
