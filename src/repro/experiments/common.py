"""Shared experiment infrastructure.

``paper_machine`` is the evaluation platform: the KNL template (6x6 mesh,
32 L2 banks, corner DDR controllers, edge MCDRAM EDCs) with the L1 scaled
to 8KB.  The scaling argument: the paper's applications run 661MB-3.3GB
datasets against 32KB L1s (working-set-to-L1 ratios in the thousands); our
workloads are ~10^3 smaller, so an 8KB L1 restores the
working-set-exceeds-L1 regime every result in Section 6 depends on.  The
machine is otherwise the faithful template; ``knl_machine()`` (32KB L1)
remains available for full-scale runs.

``compare_app`` runs the default placement and the NDP-partitioned version
of one application through the simulator and caches the outcome, since
most figures slice the same 12-app comparison differently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.cluster_modes import ClusterMode
from repro.arch.machine import Machine, MachineConfig
from repro.arch.memory_modes import MemoryMode
from repro.baselines.default_placement import DefaultPlacement, PlacementResult
from repro.core.partitioner import NdpPartitioner, PartitionConfig, PartitionResult
from repro.faults import FaultPlan
from repro.sim.engine import SimConfig, Simulator
from repro.sim.metrics import SimMetrics
from repro.workloads import ALL_WORKLOAD_NAMES, build_workload

#: Canonical application list (paper Table 1 order).
DEFAULT_APPS: List[str] = list(ALL_WORKLOAD_NAMES)

#: title -> (paper order, run function); filled by the @experiment
#: decorator when the fig*/table* modules import.
_EXPERIMENTS: Dict[str, Tuple[int, Callable]] = {}


def experiment(title: str, order: int) -> Callable:
    """Decorator registering a module's ``run`` as a named experiment.

    Every ``fig*.py``/``table*.py`` decorates its ``run(apps, scale,
    seed)`` with its paper title and ordering key; the suite runner and
    the per-module CLIs (:func:`experiment_main`) are derived from the
    registry instead of copy-pasted lists and argparse blocks.
    """

    def register(fn: Callable) -> Callable:
        _EXPERIMENTS[title] = (order, fn)
        fn.experiment_title = title
        return fn

    return register


def all_experiments() -> List[Tuple[str, Callable]]:
    """Registered (title, run) pairs in paper order (tables, then figures)."""
    return [
        (title, fn)
        for title, (_, fn) in sorted(_EXPERIMENTS.items(), key=lambda kv: kv[1][0])
    ]


def parse_apps(spec: str) -> Optional[List[str]]:
    """A validated app list from a comma-separated ``--apps`` value.

    Returns ``None`` (with a message on stderr) when any name is unknown —
    callers translate that into exit code 2.
    """
    apps = [app.strip() for app in spec.split(",") if app.strip()]
    unknown = [app for app in apps if app not in ALL_WORKLOAD_NAMES]
    if unknown:
        print(
            f"error: unknown app name(s): {', '.join(unknown)}; "
            f"known apps: {', '.join(ALL_WORKLOAD_NAMES)}",
            file=sys.stderr,
        )
        return None
    return apps


def experiment_main(run_fn: Callable, argv: Optional[List[str]] = None) -> int:
    """Shared CLI for one experiment module: ``--apps/--scale/--seed``.

    ``python -m repro.experiments.fig13_movement --apps barnes,fft`` runs
    just that figure; unknown app names exit 2 with a message.
    """
    import argparse

    title = getattr(run_fn, "experiment_title", run_fn.__module__)
    parser = argparse.ArgumentParser(description=f"Run {title}.")
    parser.add_argument("--apps", default="", help="comma-separated app subset")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    apps = DEFAULT_APPS
    if args.apps:
        apps = parse_apps(args.apps)
        if apps is None:
            return 2
    result = run_fn(apps=apps, scale=args.scale, seed=args.seed)
    print(result.report())
    return 0


#: The paper's evaluation mesh (KNL: 6x6 tiles, 32 active L2 banks).
PAPER_MESH = (6, 6)


def paper_machine(
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
    mesh_cols: int = PAPER_MESH[0],
    mesh_rows: int = PAPER_MESH[1],
) -> Machine:
    """The evaluation machine (KNL template, L1 scaled to the workload size).

    Defaults to the paper's 6x6/32-bank configuration; passing
    ``mesh_cols``/``mesh_rows`` scales the same template to any
    rectangular mesh (bank count snapping to the largest power of two
    that fits — see :func:`repro.arch.knl.mesh_machine`), which is what
    the benchmark's 16x16 ``mesh16-degraded`` workload runs.
    """
    if (mesh_cols, mesh_rows) != PAPER_MESH:
        from repro.arch.knl import mesh_machine

        return mesh_machine(
            mesh_cols, mesh_rows,
            cluster_mode=cluster_mode, memory_mode=memory_mode,
        )
    return Machine(
        MachineConfig(
            mesh_cols=mesh_cols,
            mesh_rows=mesh_rows,
            l2_bank_count=32,
            l1_capacity=8 * 1024,
            l1_associativity=8,
            l2_bank_capacity=1 << 20,
            cluster_mode=cluster_mode,
            memory_mode=memory_mode,
        )
    )


@dataclass
class AppComparison:
    """Default vs optimized outcome for one application."""

    app: str
    default_metrics: SimMetrics
    optimized_metrics: SimMetrics
    partition: PartitionResult
    default_units: int
    optimized_units: int

    # -- paper metrics -----------------------------------------------------

    def movement_reduction(self) -> float:
        """Fractional on-chip data movement reduction (Fig 13's quantity)."""
        base = self.default_metrics.data_movement
        if base <= 0:
            return 0.0
        return (base - self.optimized_metrics.data_movement) / base

    def movement_reduction_max(self) -> float:
        """Max per-statement movement reduction across statements."""
        base = self.default_metrics.movement_by_seq
        opt = self.optimized_metrics.movement_by_seq
        best = 0.0
        for seq, movement in base.items():
            if movement <= 0:
                continue
            reduction = (movement - opt.get(seq, 0)) / movement
            best = max(best, reduction)
        return best

    def time_reduction(self) -> float:
        """Fractional execution-time reduction (Fig 17's quantity)."""
        base = self.default_metrics.total_cycles
        if base <= 0:
            return 0.0
        return (base - self.optimized_metrics.total_cycles) / base

    def l1_improvement(self) -> float:
        """Absolute L1 hit-rate improvement (Fig 16's quantity)."""
        return (
            self.optimized_metrics.l1_hit_rate()
            - self.default_metrics.l1_hit_rate()
        )

    def energy_reduction(self) -> float:
        """Fractional energy reduction (Fig 24's quantity)."""
        base = self.default_metrics.energy_pj
        if base <= 0:
            return 0.0
        return (base - self.optimized_metrics.energy_pj) / base

    def network_latency_reduction(self) -> Tuple[float, float]:
        """(average, maximum) NoC latency reductions (Fig 19)."""
        base_avg = self.default_metrics.network_avg_latency
        base_max = self.default_metrics.network_max_latency
        avg = 0.0 if base_avg <= 0 else (
            (base_avg - self.optimized_metrics.network_avg_latency) / base_avg
        )
        worst = 0.0 if base_max <= 0 else (
            (base_max - self.optimized_metrics.network_max_latency) / base_max
        )
        return avg, worst


_CACHE: Dict[Tuple, AppComparison] = {}
_IDEAL_CACHE: Dict[Tuple, SimMetrics] = {}
_FIXED_CACHE: Dict[Tuple, SimMetrics] = {}


def clear_cache() -> None:
    """Drop all memoized comparisons (tests use this for isolation)."""
    _CACHE.clear()
    _IDEAL_CACHE.clear()
    _FIXED_CACHE.clear()


def ideal_analysis_metrics(app: str, scale: int = 1, seed: int = 0) -> SimMetrics:
    """Simulated metrics of the ideal-data-analysis partition (memoized).

    Shared by Figures 17 and 24, which report the same scenario's time and
    energy respectively.
    """
    key = (app, scale, seed)
    cached = _IDEAL_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.baselines.ideal import partition_with_ideal_analysis

    machine = paper_machine()
    program = build_workload(app, scale, seed)
    partition = partition_with_ideal_analysis(machine, program)
    metrics = Simulator(machine, SimConfig()).run(partition.units())
    _IDEAL_CACHE[key] = metrics
    return metrics


def fixed_window_metrics(
    app: str,
    size: int,
    scale: int = 1,
    seed: int = 0,
    reuse_aware: bool = True,
) -> SimMetrics:
    """Metrics of the fixed-window-size build (memoized).

    Shared by Figures 20 (time) and 21 (L1 rate).  The adaptive run's split
    plan is held fixed so only the window size varies.
    """
    key = (app, size, scale, seed, reuse_aware)
    cached = _FIXED_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.core.window import WindowConfig

    comparison = compare_app(app, scale, seed)
    config = PartitionConfig(
        window=WindowConfig(reuse_aware=reuse_aware),
        adaptive_window=False,
        fixed_window_size=size,
        split_plan_override=comparison.partition.split_plan,
    )
    _, metrics, _ = run_optimized(app, scale, seed, partition_config=config)
    _FIXED_CACHE[key] = metrics
    return metrics


def run_default(
    app: str,
    scale: int = 1,
    seed: int = 0,
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
    sim_config: SimConfig = SimConfig(),
    faults: Optional[FaultPlan] = None,
) -> Tuple[PlacementResult, SimMetrics, Machine]:
    """Default placement of ``app``, simulated; returns placement + metrics."""
    machine = paper_machine(cluster_mode, memory_mode)
    if faults is not None and not faults.is_empty:
        machine.apply_faults(faults)
    program = build_workload(app, scale, seed)
    placement = DefaultPlacement(machine).place(program)
    metrics = Simulator(machine, sim_config).run(placement.units)
    return placement, metrics, machine


def run_optimized(
    app: str,
    scale: int = 1,
    seed: int = 0,
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
    partition_config: Optional[PartitionConfig] = None,
    sim_config: SimConfig = SimConfig(),
    faults: Optional[FaultPlan] = None,
    predictor: str = "trace",
) -> Tuple[PartitionResult, SimMetrics, Machine]:
    """NDP-partitioned ``app``, simulated; returns partition + metrics.

    Builds one :class:`~repro.pipeline.session.CompilationSession` per run
    (which owns fault application) and compiles through the pass pipeline
    via the :class:`NdpPartitioner` facade.  ``predictor`` selects the
    miss-prediction pass: ``"trace"`` (the default trace-trained
    predictor) or ``"analytic"`` (the closed-form locality model,
    DESIGN.md §12).
    """
    from repro.pipeline import session_for
    from repro.pipeline.passes import predictor_pass_order

    session = session_for(
        paper_machine(cluster_mode, memory_mode),
        config=partition_config or PartitionConfig(),
        faults=faults,
        pass_order=predictor_pass_order(predictor),
    )
    machine = session.machine
    program = build_workload(app, scale, seed)
    partitioner = NdpPartitioner.from_session(session)
    partition = partitioner.partition(program)
    metrics = Simulator(machine, sim_config).run(partition.units())
    return partition, metrics, machine


def compare_app(
    app: str,
    scale: int = 1,
    seed: int = 0,
    cluster_mode: ClusterMode = ClusterMode.QUADRANT,
    memory_mode: MemoryMode = MemoryMode.FLAT,
    faults: Optional[FaultPlan] = None,
    predictor: str = "trace",
) -> AppComparison:
    """Default-vs-optimized comparison for one app (memoized).

    A non-empty ``faults`` plan degrades both machines before placement;
    the memoization key includes the plan's fingerprint (and the chosen
    predictor), so healthy/degraded and trace/analytic comparisons of the
    same app never collide.
    """
    if faults is not None and faults.is_empty:
        faults = None
    fault_key = None if faults is None else faults.fingerprint()
    key = (app, scale, seed, cluster_mode, memory_mode, fault_key, predictor)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    _, default_metrics, _ = run_default(
        app, scale, seed, cluster_mode, memory_mode, faults=faults
    )
    partition, optimized_metrics, _ = run_optimized(
        app, scale, seed, cluster_mode, memory_mode, faults=faults,
        predictor=predictor,
    )
    comparison = AppComparison(
        app=app,
        default_metrics=default_metrics,
        optimized_metrics=optimized_metrics,
        partition=partition,
        default_units=default_metrics.unit_count,
        optimized_units=optimized_metrics.unit_count,
    )
    _CACHE[key] = comparison
    return comparison


def _prewarm_compare(args) -> Tuple[Tuple, AppComparison]:
    """Worker: one (app, cluster, memory) comparison, cache-key + value."""
    app, scale, seed, cluster_mode, memory_mode = args
    comparison = compare_app(app, scale, seed, cluster_mode, memory_mode)
    return (
        (app, scale, seed, cluster_mode, memory_mode, None, "trace"),
        comparison,
    )


def _prewarm_ideal(args) -> Tuple[Tuple, SimMetrics]:
    """Worker: the ideal-analysis metrics of one app."""
    app, scale, seed = args
    return (app, scale, seed), ideal_analysis_metrics(app, scale, seed)


def _prewarm_fixed(args) -> Tuple[Tuple, SimMetrics]:
    """Worker: one fixed-window-size build, given the adaptive split plan.

    Replicates :func:`fixed_window_metrics` without recomputing the app
    comparison — the caller passes the already-computed split plan in.
    """
    app, size, scale, seed, reuse_aware, split_plan = args
    from repro.core.window import WindowConfig

    config = PartitionConfig(
        window=WindowConfig(reuse_aware=reuse_aware),
        adaptive_window=False,
        fixed_window_size=size,
        split_plan_override=split_plan,
    )
    _, metrics, _ = run_optimized(app, scale, seed, partition_config=config)
    return (app, size, scale, seed, reuse_aware), metrics


def prewarm(
    apps: List[str],
    scale: int = 1,
    seed: int = 0,
    jobs: int = 1,
    cluster_modes: Tuple[ClusterMode, ...] = (
        ClusterMode.ALL_TO_ALL,
        ClusterMode.QUADRANT,
        ClusterMode.SNC4,
    ),
    memory_modes: Tuple[MemoryMode, ...] = (MemoryMode.FLAT, MemoryMode.CACHE),
    window_sizes: Tuple[int, ...] = tuple(range(1, 9)),
) -> None:
    """Fill the comparison caches in parallel across ``jobs`` processes.

    Every experiment then reads memoized results, so a subsequent serial
    ``run_all`` pass emits byte-identical reports while the heavy per-app
    compile+simulate work fans out over :func:`repro.pipeline.run_pool`.
    Two phases: (1) all (app, cluster, memory) comparisons plus the
    ideal-analysis runs; (2) the fixed-window sweeps, which need phase 1's
    split plans.
    """
    from repro.pipeline import run_pool

    compare_tasks = [
        (app, scale, seed, cluster, memory)
        for app in apps
        for cluster in cluster_modes
        for memory in memory_modes
    ]
    ideal_tasks = [(app, scale, seed) for app in apps]
    for key, comparison in run_pool(_prewarm_compare, compare_tasks, jobs):
        _CACHE[key] = comparison
    for key, metrics in run_pool(_prewarm_ideal, ideal_tasks, jobs):
        _IDEAL_CACHE[key] = metrics
    fixed_tasks = [
        (
            app,
            size,
            scale,
            seed,
            True,
            _CACHE[
                (app, scale, seed, ClusterMode.QUADRANT, MemoryMode.FLAT,
                 None, "trace")
            ].partition.split_plan,
        )
        for app in apps
        for size in window_sizes
    ]
    for key, metrics in run_pool(_prewarm_fixed, fixed_tasks, jobs):
        _FIXED_CACHE[key] = metrics


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Plain-text table used by every experiment's report."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
