"""The :class:`CompilationSession`: one object owning a compile's context.

Before this layer existed, every cross-cutting concern — the machine and
its data layout, the window configuration, an optional fault plan, the
tracer, check mode, and the per-nest split templates — was threaded through
the partitioner, window search, scheduler, balancer, and codegen as loose
keyword arguments.  The session bundles all of it:

* **construction state** — machine (and through it the layout), the
  :class:`~repro.core.partitioner.PartitionConfig`, an optional
  :class:`~repro.faults.FaultPlan`, and the check-mode flag;
* **pipeline shape** — the pass order and the set of skipped passes
  (see :mod:`repro.pipeline.passes` for the registry);
* **run state** — the cross-pass caches (the per-nest location tables
  and statement-split templates shared by every candidate plan's
  scheduling and window-size search).

One session corresponds to one compile context.  It keeps no wall times:
the :class:`~repro.pipeline.manager.PassManager` runs each pass in a
tracer span, and the tracer sums them (:mod:`repro.obs.tracer`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.arch.machine import Machine
from repro.core.partitioner import PartitionConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.obs.tracer import get_tracer


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
    check: bool = False
    #: Pass names to execute, in order.  ``None`` means the registry's
    #: default order (:data:`repro.pipeline.passes.DEFAULT_PASS_ORDER`).
    pass_order: Optional[Tuple[str, ...]] = None
    #: Pass names to skip (validated against the order at run time).
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

    @contextmanager
    def checking(self):
        """Scoped check mode: active when the session (or env) asks for it."""
        from repro import check

        with check.checking(self.check or check.enabled()):
            yield

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict:
        """The session's identity for ``report.json`` (schema v3).

        Captures what shaped the compile — machine geometry, the headline
        partitioning knobs, fault fingerprint, check mode, and the pipeline
        shape — without the bulky runtime state (caches, schedules).
        """
        from repro.pipeline.passes import resolve_order

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
                "use_predictor": self.config.use_predictor,
                "reuse_aware": self.config.window.reuse_aware,
            },
            "faults_fingerprint": (
                None
                if self.faults is None or self.faults.is_empty
                else self.faults.fingerprint()
            ),
            "check": bool(self.check),
            "pass_order": list(resolve_order(self.pass_order)),
            "skipped_passes": sorted(self.skip_passes),
        }


def session_for(
    machine: Machine,
    config: Optional[PartitionConfig] = None,
    faults: Optional[FaultPlan] = None,
    check: bool = False,
    skip_passes=(),
    pass_order: Optional[Tuple[str, ...]] = None,
) -> CompilationSession:
    """Build a session, validating the pipeline shape eagerly.

    Unknown pass names (in ``skip_passes`` or ``pass_order``) raise
    :class:`~repro.errors.ConfigurationError` here, at construction, so CLI
    front-ends can exit 2 with a clear message before any work happens.
    """
    from repro.pipeline.passes import PASS_REGISTRY, resolve_order

    skip = frozenset(skip_passes)
    unknown = sorted(name for name in skip if name not in PASS_REGISTRY)
    if unknown:
        known = ", ".join(sorted(PASS_REGISTRY))
        raise ConfigurationError(
            f"unknown pass name(s): {', '.join(unknown)}; registered passes: {known}"
        )
    resolve_order(pass_order)  # raises ConfigurationError on unknown names
    session = CompilationSession(
        machine=machine,
        config=config or PartitionConfig(),
        faults=None if faults is not None and faults.is_empty else faults,
        check=check,
        pass_order=pass_order,
        skip_passes=skip,
    )
    session.apply_faults()
    return session
