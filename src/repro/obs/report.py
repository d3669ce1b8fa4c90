"""Build the machine-readable ``report.json`` for one application run.

:func:`build_report` runs the full default-vs-optimized pipeline for one
app on the evaluation machine and assembles a single JSON document — the
chosen plan per nest, window sizes, movement/time/L1/energy deltas versus
the default placement, the optimized run's per-link NoC heatmap, and
per-phase and per-pass wall times read from tracer spans — validated
against :mod:`repro.obs.schema` before being returned.  This is the
introspection companion to the figure suite: every headline number in
EXPERIMENTS.md can be decomposed by reading the report of the app that
produced it.

Typical entry points::

    python -m repro.cli report ocean --trace /tmp/t.jsonl   # CLI
    make report APP=ocean                                   # Makefile

    from repro.obs.report import build_report               # API
    report = build_report("ocean")

The special app name ``"tiny"`` runs the sub-second built-in synthetic
app (:func:`repro.benchmarks.perf.tiny_app`) on the 4x4 test machine,
so schema checks and smoke tests do not pay for a full workload.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.machine import Machine
from repro.baselines.default_placement import DefaultPlacement
from repro.core.partitioner import NdpPartitioner, PartitionConfig, PartitionResult
from repro.faults import FaultPlan
from repro.ir.program import Program
from repro.noc.network import LinkStats
from repro.obs.schema import REPORT_KIND, REPORT_SCHEMA_VERSION, assert_valid
from repro.obs.tracer import Tracer, tracing
from repro.sim.engine import SimConfig, Simulator
from repro.sim.metrics import SimMetrics

#: Name accepted by :func:`build_report` for the built-in synthetic app.
TINY_APP = "tiny"


def _factories(
    app: str, scale: int, seed: int
) -> Tuple[Callable[[], Machine], Callable[[], Program]]:
    """(machine_factory, program_factory) for ``app``.

    Real workloads run on the scaled evaluation machine
    (:func:`repro.experiments.common.paper_machine`); ``"tiny"`` runs the
    built-in two-statement app on the small test machine.
    """
    if app == TINY_APP:
        from repro.arch.knl import small_machine
        from repro.benchmarks.perf import tiny_app

        return small_machine, tiny_app
    from repro.experiments.common import paper_machine
    from repro.workloads import build_workload

    return paper_machine, lambda: build_workload(app, scale, seed)


def _machine_info(machine: Machine) -> Dict:
    """The report's ``machine`` object."""
    config = machine.config
    return {
        "mesh_cols": config.mesh_cols,
        "mesh_rows": config.mesh_rows,
        "node_count": machine.mesh.node_count,
        "l1_capacity": config.l1_capacity,
        "l2_bank_count": config.l2_bank_count,
        "cluster_mode": config.cluster_mode.name.lower(),
        "memory_mode": config.memory_mode.name.lower(),
    }


def _plan_info(partition: PartitionResult) -> Dict:
    """The report's ``plan`` object (what the compiler chose and why)."""
    split_plan = [
        {"nest": nest, "body_index": body_index, "split": bool(split)}
        for (nest, body_index), split in sorted(partition.split_plan.items())
    ]
    movement_by_size = {
        nest: {str(size): movement for size, movement in sorted(sizes.items())}
        for nest, sizes in sorted(partition.movement_by_size.items())
    }
    accuracy = partition.predictor_accuracy
    return {
        "variant_by_nest": dict(sorted(partition.variant_by_nest.items())),
        "window_sizes": dict(sorted(partition.window_sizes.items())),
        "split_plan": split_plan,
        "movement_by_size": movement_by_size,
        "predicted_movement": partition.movement,
        "predictor_accuracy": (
            None if accuracy is None else round(accuracy, 6)
        ),
    }


def _deltas(default: SimMetrics, optimized: SimMetrics) -> Dict:
    """Headline default-vs-optimized deltas (the figures' quantities)."""
    def reduction(base: float, new: float) -> float:
        return 0.0 if base <= 0 else (base - new) / base

    return {
        "movement_reduction": reduction(
            default.data_movement, optimized.data_movement
        ),
        "time_reduction": reduction(default.total_cycles, optimized.total_cycles),
        "l1_improvement": optimized.l1_hit_rate() - default.l1_hit_rate(),
        "energy_reduction": reduction(default.energy_pj, optimized.energy_pj),
        "sync_delta": optimized.sync_count - default.sync_count,
    }


def _micros(seconds: Dict[str, float]) -> Dict[str, float]:
    """Span totals rounded to the microsecond, as the report stores them."""
    return {name: round(value, 6) for name, value in seconds.items()}


def build_report(
    app: str,
    scale: int = 1,
    seed: int = 0,
    trace_file: Optional[str] = None,
    debug_trace: bool = False,
    partition_config: Optional[PartitionConfig] = None,
    faults: Optional[FaultPlan] = None,
    skip_passes: Tuple[str, ...] = (),
    pass_order: Optional[Tuple[str, ...]] = None,
) -> Dict:
    """Run ``app`` end to end and return its schema-valid report dict.

    Args:
        app: a workload name (``repro.cli list``) or ``"tiny"``.
        scale / seed: workload generation parameters (as everywhere else).
        trace_file: when given, the whole run is traced to this JSONL file
            and the path is recorded in the report's ``trace_file`` field.
            Either way the run executes under a tracer (a sink-less one
            without a file), and the report's wall times are its span
            totals: ``phase.<name>`` spans give ``phase_seconds``, and the
            pass manager's ``pass.<name>`` spans ``pipeline.pass_seconds``.
        debug_trace: also emit per-instance firehose events (large files).
        partition_config: override the default :class:`PartitionConfig`.
        faults: a :class:`~repro.faults.FaultPlan` to apply to every
            machine before placement/partitioning.  A non-empty plan adds
            an extra *healthy* optimized run (phase ``simulate_healthy``)
            and fills the report's ``faults`` section with the plan and
            the degraded-vs-healthy overheads; an empty (or absent) plan
            leaves the pipeline untouched and ``faults`` null.
        skip_passes / pass_order: the pipeline shape (``--skip-pass`` /
            pass reordering); unknown names raise
            :class:`~repro.errors.ConfigurationError` before any work.
            The shape, per-pass wall times, and session identity land in
            the report's ``pipeline`` section (schema v3).

    The returned dict is validated against :mod:`repro.obs.schema` before
    being returned, so downstream consumers never see a malformed report.
    """
    if faults is not None and faults.is_empty:
        faults = None
    with tracing(trace_file, debug=debug_trace) as tracer:
        return _build(
            app, scale, seed, tracer, trace_file, partition_config, faults,
            skip_passes, pass_order,
        )


def _build(
    app: str,
    scale: int,
    seed: int,
    tracer: Tracer,
    trace_file: Optional[str],
    partition_config: Optional[PartitionConfig],
    faults: Optional[FaultPlan],
    skip_passes: Tuple[str, ...] = (),
    pass_order: Optional[Tuple[str, ...]] = None,
) -> Dict:
    from repro.pipeline.session import session_for

    machine_factory, program_factory = _factories(app, scale, seed)

    with tracer.span("phase.build"):
        program = program_factory()

    def make_machine(apply_plan: bool = True) -> Machine:
        machine = machine_factory()
        if apply_plan and faults is not None:
            machine.apply_faults(faults)
        return machine

    def make_session(machine: Machine, plan: Optional[FaultPlan]):
        # The session owns fault application (machines arrive healthy here).
        return session_for(
            machine,
            config=partition_config or PartitionConfig(),
            faults=plan,
            skip_passes=skip_passes,
            pass_order=pass_order,
        )

    # Default placement: its own machine, as in the experiment harness.
    default_machine = make_machine()
    default_program = program_factory()
    placement = DefaultPlacement(default_machine).place(default_program)
    with tracer.span("phase.simulate_default"):
        default_metrics = Simulator(default_machine, SimConfig()).run(
            placement.units
        )

    session = make_session(make_machine(apply_plan=False), faults)
    optimized_machine = session.machine
    partitioner = NdpPartitioner.from_session(session)
    with tracer.span("phase.partition"):
        partition = partitioner.partition(program)
    with tracer.span("phase.simulate_optimized"):
        optimized_metrics = Simulator(optimized_machine, SimConfig()).run(
            partition.units()
        )
    # Before the healthy rerun below, whose passes would add to the totals.
    pass_seconds = _micros(tracer.seconds("pass."))

    faults_section = None
    if faults is not None:
        # Degraded-vs-healthy baseline: the same optimized pipeline on an
        # unfaulted machine, so the overhead numbers isolate the plan.
        with tracer.span("phase.simulate_healthy"):
            healthy_session = make_session(make_machine(apply_plan=False), None)
            healthy_partition = NdpPartitioner.from_session(
                healthy_session
            ).partition(program)
            healthy_metrics = Simulator(
                healthy_session.machine, SimConfig()
            ).run(healthy_partition.units())
        faults_section = _faults_info(faults, optimized_metrics, healthy_metrics)

    heatmap = LinkStats.from_link_flits(
        optimized_machine.mesh.cols,
        optimized_machine.mesh.rows,
        optimized_metrics.link_flits,
    )
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "app": app,
        "scale": scale,
        "seed": seed,
        "machine": _machine_info(optimized_machine),
        "plan": _plan_info(partition),
        "default": default_metrics.to_dict(),
        "optimized": optimized_metrics.to_dict(),
        "deltas": _deltas(default_metrics, optimized_metrics),
        "link_heatmap": heatmap.to_json(),
        "phase_seconds": _micros(tracer.seconds("phase.")),
        "pipeline": {**session.to_json(), "pass_seconds": pass_seconds},
        "trace_file": trace_file,
        "faults": faults_section,
    }
    assert_valid(report)
    return report


def _faults_info(
    plan: FaultPlan, degraded: SimMetrics, healthy: SimMetrics
) -> Dict:
    """The report's ``faults`` object (plan + degradation accounting)."""
    def overhead(base: float, new: float) -> float:
        return 0.0 if base <= 0 else (new - base) / base

    dead_links = sorted(
        {tuple(sorted((fault.src, fault.dst))) for fault in plan.links}
    )
    return {
        "plan": plan.to_json(),
        "fingerprint": plan.fingerprint(),
        "dead_nodes": sorted(plan.all_dead_nodes()),
        "dead_links": [list(link) for link in dead_links],
        "fault_events": degraded.fault_events,
        "relocations": degraded.fault_relocations,
        "detour_extra_hops": degraded.detour_extra_hops,
        "degraded_vs_healthy": {
            "healthy_movement": healthy.data_movement,
            "degraded_movement": degraded.data_movement,
            "healthy_cycles": healthy.total_cycles,
            "degraded_cycles": degraded.total_cycles,
            "movement_overhead": overhead(
                healthy.data_movement, degraded.data_movement
            ),
            "time_overhead": overhead(
                healthy.total_cycles, degraded.total_cycles
            ),
        },
    }


def write_report(report: Dict, path: str) -> None:
    """Serialize ``report`` to ``path`` (stable key order, one trailing NL)."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def heatmap_of(report: Dict) -> LinkStats:
    """Rebuild a :class:`LinkStats` from a report's ``link_heatmap``."""
    heatmap = report["link_heatmap"]
    flits = {
        (link["src"], link["dst"]): link["flits"] for link in heatmap["links"]
    }
    return LinkStats.from_link_flits(
        heatmap["mesh"]["cols"], heatmap["mesh"]["rows"], flits
    )


def summary_lines(report: Dict) -> List[str]:
    """Human-readable digest of a report (printed by ``repro.cli report``)."""
    deltas = report["deltas"]
    plan = report["plan"]
    lines = [
        f"app: {report['app']}  (scale={report['scale']} seed={report['seed']})",
        f"movement reduction : {deltas['movement_reduction']:+.1%}",
        f"time reduction     : {deltas['time_reduction']:+.1%}",
        f"L1 improvement     : {deltas['l1_improvement']:+.3f}",
        f"energy reduction   : {deltas['energy_reduction']:+.1%}",
        f"plan variants      : {plan['variant_by_nest']}",
        f"window sizes       : {plan['window_sizes']}",
        "phase seconds      : "
        + "  ".join(
            f"{name}={seconds:.2f}"
            for name, seconds in report["phase_seconds"].items()
        ),
    ]
    faults = report.get("faults")
    if faults is not None:
        comparison = faults["degraded_vs_healthy"]
        lines += [
            f"fault plan         : {faults['fingerprint']}  "
            f"dead_nodes={faults['dead_nodes']} "
            f"dead_links={faults['dead_links']}",
            f"degradation        : movement "
            f"{comparison['movement_overhead']:+.1%}  time "
            f"{comparison['time_overhead']:+.1%}  "
            f"detour_hops={faults['detour_extra_hops']}  "
            f"relocations={faults['relocations']}",
        ]
    return lines
