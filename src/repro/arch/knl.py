"""Machine presets.

:func:`knl_machine` mirrors the paper's evaluation platform: Intel Knights
Landing — 36 tiles on a 6x6 mesh, 1MB L2 bank per tile, 32KB L1 per core,
MCDRAM + DDR4 (Section 6.1).  We model one core per tile (the partitioner
reasons about tiles/nodes; the second core per tile does not change any
distance).  :func:`small_machine` is a 4x4 mesh used by tests and examples
where exhaustive checking should stay cheap.

:func:`mesh_machine` generalizes the template to an arbitrary rectangular
``cols x rows`` mesh (6x6 through 16x16 and beyond): the L2 bank count
snaps to the largest power of two that fits the node count (the
cache-line interleaving hashes bank bits, so the count must be a power of
two), which leaves the remaining tiles bankless — the same
heterogeneous-tile shape KNL itself has (compute tiles without active
banks).  Memory controllers stay at the four corners and MCDRAM EDCs at
the edge midpoints, both derived from the mesh, never from a constant.
"""

from __future__ import annotations

from repro.arch.cluster_modes import ClusterMode
from repro.arch.machine import Machine, MachineConfig
from repro.arch.memory_modes import MemoryMode
from repro.errors import ConfigurationError


def knl_machine(
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
) -> Machine:
    """A KNL-like 6x6-tile machine (the paper's default is quadrant+flat)."""
    return Machine(
        MachineConfig(
            mesh_cols=6,
            mesh_rows=6,
            l2_bank_count=32,
            l1_capacity=32 * 1024,
            l2_bank_capacity=1 << 20,
            cluster_mode=cluster_mode,
            memory_mode=memory_mode,
        )
    )


def largest_pow2_at_most(n: int) -> int:
    """The largest power of two ``<= n`` (``n >= 1``)."""
    return 1 << (n.bit_length() - 1)


def mesh_machine(
    cols: int,
    rows: int,
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
    l1_capacity: int = 8 * 1024,
    l2_bank_count: int = 0,
) -> Machine:
    """The KNL template scaled to an arbitrary ``cols x rows`` mesh.

    ``l2_bank_count`` defaults to the largest power of two that fits the
    node count (0 = auto); passing an explicit count lets callers model
    more (or fewer) bankless tiles.  The 8KB L1 matches
    :func:`repro.experiments.common.paper_machine`'s scaling argument so
    larger-mesh results stay comparable with the 6x6 evaluation numbers.
    """
    if cols < 2 or rows < 2:
        raise ConfigurationError(
            f"mesh_machine needs at least a 2x2 mesh (4 distinct MC "
            f"corners), got {cols}x{rows}"
        )
    banks = l2_bank_count or largest_pow2_at_most(cols * rows)
    return Machine(
        MachineConfig(
            mesh_cols=cols,
            mesh_rows=rows,
            l2_bank_count=banks,
            l1_capacity=l1_capacity,
            l1_associativity=8,
            l2_bank_capacity=1 << 20,
            cluster_mode=cluster_mode,
            memory_mode=memory_mode,
        )
    )


def small_machine(
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
    l1_capacity: int = 4 * 1024,
) -> Machine:
    """A 4x4-mesh machine with 16 banks for tests and quick examples."""
    return Machine(
        MachineConfig(
            mesh_cols=4,
            mesh_rows=4,
            l2_bank_count=16,
            l1_capacity=l1_capacity,
            l1_associativity=4,
            l2_bank_capacity=64 * 1024,
            l2_associativity=8,
            cluster_mode=cluster_mode,
            memory_mode=memory_mode,
            mcdram_capacity_bytes=1 << 26,
        )
    )
