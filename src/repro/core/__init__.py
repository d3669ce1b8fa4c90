"""The paper's contribution: NDP-aware subcomputation partitioning.

Pipeline (Algorithm 1):

1. :mod:`repro.core.locator` — data location detection (``GetNode``): SNUCA
   home bank from the address bits, memory controller when the L2 miss
   predictor says the data is off chip, L1 copies from the
   ``variable2node_map`` built by previously scheduled subcomputations.
2. :mod:`repro.core.splitter` — single statement splitting: hierarchical
   Kruskal MST over the statement's nested operand sets.
3. :mod:`repro.core.scheduler` — subcomputation scheduling: leaf-to-root
   combines with load balancing and value-location tracking.
4. :mod:`repro.core.window` — multi-statement windows with L1-reuse modeling
   and the adaptive per-nest window-size search.
5. :mod:`repro.core.syncgraph` — synchronization arcs + transitive-closure
   minimization.
6. :mod:`repro.core.codegen` — per-node generated code (paper Figure 8).
7. :mod:`repro.core.partitioner` — the run's :class:`PartitionConfig` and
   its :class:`PartitionResult`.

:mod:`repro.pipeline` runs these stages as one fixed pass sequence;
``compile_program(program, session_for(machine))`` is the entry point.
"""

from repro.core.locator import DataLocator, Location, VariableToNodeMap
from repro.core.mst import MstEdge, kruskal
from repro.core.balancer import LoadBalancer, OP_COSTS
from repro.core.subcomputation import GatheredInput, SubResult, Subcomputation
from repro.core.splitter import split_statement, StatementSplit
from repro.core.scheduler import StatementSchedule, schedule_statement
from repro.core.window import (
    NestSchedule,
    WindowConfig,
    WindowScheduler,
    WindowSizeSearch,
)
from repro.core.syncgraph import SyncGraph
from repro.core.codegen import GeneratedCode, generate_code
from repro.core.partitioner import PartitionResult, PartitionConfig

__all__ = [
    "DataLocator",
    "Location",
    "VariableToNodeMap",
    "MstEdge",
    "kruskal",
    "LoadBalancer",
    "OP_COSTS",
    "GatheredInput",
    "SubResult",
    "Subcomputation",
    "split_statement",
    "StatementSplit",
    "StatementSchedule",
    "schedule_statement",
    "NestSchedule",
    "WindowConfig",
    "WindowScheduler",
    "WindowSizeSearch",
    "SyncGraph",
    "GeneratedCode",
    "generate_code",
    "PartitionResult",
    "PartitionConfig",
]
