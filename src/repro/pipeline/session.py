"""The :class:`CompilationSession`: one object owning a compile's context.

Before this layer existed, every cross-cutting concern — the machine and
its data layout, the window configuration, an optional fault plan, the
tracer, and the per-nest split templates — was threaded through the
partitioner, window search, scheduler, and balancer as loose keyword
arguments.  The session bundles all of it:

* **construction state** — machine (and through it the layout), the
  :class:`~repro.core.partitioner.PartitionConfig` (which also names the
  predictor), and an optional :class:`~repro.faults.FaultPlan`;
* **skipped passes** — the passes of the fixed order
  (:mod:`repro.pipeline.passes`) this compile leaves out;
* **run state** — the cross-pass caches (the per-nest location tables
  and statement-split templates shared by every candidate plan's
  scheduling and window-size search).

One session corresponds to one compile context.  It keeps no wall times:
the :class:`~repro.pipeline.manager.PassManager` runs each pass in a
tracer span, and the tracer sums them (:mod:`repro.obs.tracer`).  Check
mode is process-wide (:mod:`repro.check`), not a session setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro import check
from repro.arch.machine import Machine
from repro.core.partitioner import PartitionConfig
from repro.faults import FaultPlan
from repro.obs.tracer import get_tracer
from repro.pipeline.passes import PASS_REGISTRY, skip_set


class SessionCaches:
    """Mutable caches owned by one session, scoped to one compile run.

    ``split_templates`` is the one split memo: one store per nest is shared
    by every candidate plan's scheduling and window-size search (a
    window-opening statement's split depends only on its operands, so the
    MST work is done once per signature instead of once per plan).
    """

    def __init__(self) -> None:
        #: nest name -> NestTables (or None when the nest/predictor is
        #: unsupported and the scalar path must be used).
        self.nest_tables: Dict[str, object] = {}
        #: (nest name, flatten_products) -> SplitTemplates.
        self.split_templates: Dict[tuple, object] = {}

    def clear(self) -> None:
        """Drop all cached state (called at the start of each compile)."""
        self.nest_tables.clear()
        self.split_templates.clear()


@dataclass
class CompilationSession:
    """Everything one compile needs, in one place.

    The pass pipeline (:mod:`repro.pipeline.passes`) reads its inputs from
    here; core modules receive the session instead of loose
    ``machine=``/``config=``/``faults=`` keyword plumbing.
    """

    machine: Machine
    config: PartitionConfig = field(default_factory=PartitionConfig)
    faults: Optional[FaultPlan] = None
    #: Pass names to skip (:func:`session_for` validates them).
    skip_passes: FrozenSet[str] = frozenset()
    caches: SessionCaches = field(default_factory=SessionCaches)
    _faults_applied: bool = field(default=False, repr=False)

    # -- derived context ---------------------------------------------------

    @property
    def layout(self):
        """The machine's data layout (arrays -> banks/channels/homes)."""
        return self.machine.layout

    @property
    def tracer(self):
        """The active tracer (the session never outlives a tracing scope)."""
        return get_tracer()

    @property
    def window(self):
        """The window configuration (shorthand for ``config.window``)."""
        return self.config.window

    def pass_enabled(self, name: str) -> bool:
        """False when ``name`` is skipped for this session."""
        return name not in self.skip_passes

    # -- lifecycle ---------------------------------------------------------

    def apply_faults(self) -> None:
        """Degrade the machine per the fault plan (once per session)."""
        if self.faults is None or self.faults.is_empty or self._faults_applied:
            return
        self.machine.apply_faults(self.faults)
        self._faults_applied = True

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict:
        """The session's identity for ``report.json`` (schema v3).

        Captures what shaped the compile — machine geometry, the headline
        partitioning knobs, fault fingerprint, whether check mode is on
        now, and the pipeline shape — without the bulky runtime state
        (caches, schedules).
        """
        config = self.machine.config
        return {
            "machine": {
                "mesh_cols": config.mesh_cols,
                "mesh_rows": config.mesh_rows,
                "l1_capacity": config.l1_capacity,
                "l2_bank_count": config.l2_bank_count,
                "cluster_mode": config.cluster_mode.name.lower(),
                "memory_mode": config.memory_mode.name.lower(),
            },
            "config": {
                "adaptive_window": self.config.adaptive_window,
                "fixed_window_size": self.config.fixed_window_size,
                "predictor": self.config.predictor,
                "reuse_aware": self.config.window.reuse_aware,
            },
            "faults_fingerprint": (
                None
                if self.faults is None or self.faults.is_empty
                else self.faults.fingerprint()
            ),
            "check": check.enabled(),
            "pass_order": list(PASS_REGISTRY),
            "skipped_passes": sorted(self.skip_passes),
        }


def session_for(
    machine: Machine,
    config: Optional[PartitionConfig] = None,
    faults: Optional[FaultPlan] = None,
    skip_passes=(),
) -> CompilationSession:
    """Build a session, validating the skip set eagerly.

    An unknown pass name or ``schedule`` in ``skip_passes`` raises
    :class:`~repro.errors.ConfigurationError` here, at construction, so
    front-ends can exit 2 with a clear message before any work happens.
    """
    session = CompilationSession(
        machine=machine,
        config=config or PartitionConfig(),
        faults=None if faults is not None and faults.is_empty else faults,
        skip_passes=skip_set(skip_passes),
    )
    session.apply_faults()
    return session
