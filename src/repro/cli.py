"""Command-line entry point: ``python -m repro.cli``.

Subcommands:

* ``compare APP``   — default vs NDP-partitioned run of one workload.
* ``report APP``    — run one workload and write a machine-readable
  ``report.json`` (plan per nest, deltas vs default, NoC link heatmap,
  per-phase timings; schema in :mod:`repro.obs.schema`).
* ``codegen APP``   — show the generated per-node code for a few windows.
* ``experiments``   — run the full table/figure suite (see
  :mod:`repro.experiments.runner` for flags).
* ``faults``        — fault-injection demo: generate a seeded random
  :class:`~repro.faults.FaultPlan`, run an app on the degraded machine,
  and print the plan, the degradation overheads, and the detour heatmap.
* ``serve``         — run the compile-as-a-service daemon
  (:mod:`repro.serve.daemon`): content-addressed artifact cache,
  persistent worker pool, bounded queue with 429 backpressure, graceful
  SIGTERM drain.
* ``client``        — talk to a running daemon
  (:mod:`repro.serve.client`): send a compile request, print stats or
  health, or ask it to drain.
* ``list``          — list the available workloads.

``compare``, ``report``, and ``experiments`` accept ``--trace FILE`` to
stream structured JSONL trace events (compile spans, gate verdicts,
window-search candidates, simulator epochs) to ``FILE``; see
:mod:`repro.obs.tracer`.  Tracing never changes any printed number.

``compare`` and ``report`` accept ``--predictor {trace,analytic}`` to
choose the L2 miss predictor the ``predict`` pass builds
(``PartitionConfig.predictor``): ``trace`` (the default) trains the
two-bit region predictor on a simulated trace; ``analytic`` builds the
closed-form locality model of :mod:`repro.core.locality` (DESIGN.md
section 12).  The default path is bit-identical with the flag absent.

Every subcommand executes a schedule one way: the event simulator.
The task-graph replay that cross-checks it is an oracle in
:mod:`repro.check.replay`, run by ``make check``, not a CLI option.

``compare`` and ``report`` accept ``--faults PLAN.json`` to run on a
degraded machine (dead links / offline tiles / slow MCDRAM channels);
see :mod:`repro.faults`.  Library errors (unknown workload, invalid
fault plan, ...) print one clear message to stderr and exit 2 instead
of tracebacking.

``compare``, ``report``, ``faults``, and ``experiments`` accept
``--check`` (equivalently ``REPRO_CHECK=1``) to enable the runtime
invariant hooks of :mod:`repro.check`: every optimized path is audited
against its brute-force reference as the run executes, and a violation
exits 2 with the concrete counterexample.  Checking composes freely
with ``--faults`` and ``--trace`` and never changes a printed number.
Conflicting flag combinations (e.g. ``--trace-debug`` without
``--trace``, or ``faults --plan`` with generation knobs) exit 2 with a
clear message instead of silently dropping one of the flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.core.codegen import generate_code
from repro.core.partitioner import PREDICTORS, PartitionConfig
from repro.errors import ReproError
from repro.experiments.common import compare_app
from repro.faults import FaultPlan
from repro.workloads import ALL_WORKLOAD_NAMES, workload_specs


def _cmd_list(_args) -> int:
    for spec in workload_specs():
        print(f"{spec.name:<10} [{spec.suite}] {spec.description}")
    return 0


def _traced(args, fn) -> int:
    """Run ``fn()`` under ``--trace FILE`` when given, else directly."""
    trace = getattr(args, "trace", None)
    if not trace:
        return fn()
    from repro.obs.tracer import tracing

    with tracing(trace, debug=getattr(args, "trace_debug", False)):
        return fn()


def _fault_plan_of(args):
    """The FaultPlan of ``--faults FILE`` (None when absent/empty)."""
    path = getattr(args, "faults", "")
    if not path:
        return None
    plan = FaultPlan.load(path)
    return None if plan.is_empty else plan


def _flag_conflict(args) -> str:
    """A human-readable flag-composition conflict, or '' when flags compose.

    The flag audit: --check/--faults/--trace compose freely on every
    subcommand that takes them; combinations that would silently drop one
    flag are rejected here so the run exits 2 with a clear message
    instead of quietly doing less than asked.
    """
    if getattr(args, "trace_debug", False) and not getattr(args, "trace", ""):
        return (
            "--trace-debug requires --trace FILE (there is no trace "
            "stream to put the debug events on)"
        )
    if getattr(args, "command", "") == "faults" and args.plan:
        knobs = [
            name
            for name, value in (
                ("--seed", args.seed),
                ("--links", args.links),
                ("--nodes", args.nodes),
            )
            if value is not None
        ]
        if knobs:
            return (
                f"faults --plan supplies a ready-made plan; the generation "
                f"knob(s) {', '.join(knobs)} would be silently ignored — "
                "drop them or drop --plan"
            )
    return ""


def _cmd_compare(args) -> int:
    return _traced(args, lambda: _run_compare(args))


def _run_compare(args) -> int:
    from repro.utils.barchart import percent_chart

    plan = _fault_plan_of(args)
    comparison = compare_app(
        args.app, scale=args.scale, seed=args.seed, faults=plan,
        predictor=args.predictor,
    )
    d, o = comparison.default_metrics, comparison.optimized_metrics
    print(f"app: {args.app}")
    if args.predictor != "trace":
        print(f"predictor: {args.predictor}")
    if plan is not None:
        print(
            f"faults   : {plan.fingerprint()}  "
            f"dead_nodes={sorted(plan.all_dead_nodes())} "
            f"dead_links={sorted((f.src, f.dst) for f in plan.links)} "
            f"degraded_channels={sorted(plan.channel_factors())}"
        )
    print(f"default  : {d.summary()}")
    print(f"optimized: {o.summary()}")
    print()
    print(
        percent_chart(
            {
                "movement reduction": comparison.movement_reduction(),
                "time reduction": comparison.time_reduction(),
                "L1 improvement": comparison.l1_improvement(),
                "energy reduction": comparison.energy_reduction(),
            }
        )
    )
    print(f"\nwindow sizes  : {comparison.partition.window_sizes}")
    print(f"plan variants : {comparison.partition.variant_by_nest}")
    return 0


def _list_passes() -> int:
    """Print the registered pass pipeline (``report --list-passes``)."""
    from repro.pipeline import PASS_REGISTRY

    print(f"{'pass':<14} {'paper':<10} {'module':<22} notes")
    print(f"{'-' * 14} {'-' * 10} {'-' * 22} {'-' * 5}")
    for registered in PASS_REGISTRY.values():
        info = registered.info
        notes = "inline" if info.inline else ""
        print(
            f"{info.name:<14} {info.paper_section:<10} "
            f"{info.module:<22} {notes}".rstrip()
        )
    print(f"\norder: {' -> '.join(PASS_REGISTRY)}")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import (
        build_report,
        heatmap_of,
        summary_lines,
        write_report,
    )

    if args.list_passes:
        return _list_passes()
    if not args.app:
        print(
            "error: report needs an APP argument (or --list-passes)",
            file=sys.stderr,
        )
        return 2
    report = build_report(
        args.app,
        scale=args.scale,
        seed=args.seed,
        trace_file=args.trace or None,
        debug_trace=args.trace_debug,
        partition_config=PartitionConfig(predictor=args.predictor),
        faults=_fault_plan_of(args),
        skip_passes=tuple(args.skip_pass),
    )
    write_report(report, args.out)
    print("\n".join(summary_lines(report)))
    if not args.no_heatmap:
        print("\nNoC link heatmap (flits per link, both directions summed):")
        print(heatmap_of(report).ascii_grid())
    print(f"\nwrote {args.out}")
    if args.trace:
        print(f"trace: {args.trace}")
    return 0


def _cmd_codegen(args) -> int:
    comparison = compare_app(args.app, scale=args.scale, seed=args.seed)
    schedules = []
    for nest_schedule in comparison.partition.nest_schedules.values():
        for statement_schedule in nest_schedule.statement_schedules():
            schedules.append(statement_schedule)
            if len(schedules) >= args.statements:
                break
        break
    print(generate_code(schedules).listing())
    return 0


def _cmd_faults(args) -> int:
    """Fault-injection demo: seeded plan -> degraded run -> degradation report."""
    from repro.faults import random_plan
    from repro.obs.report import (
        build_report,
        heatmap_of,
        summary_lines,
        write_report,
    )

    if args.plan:
        plan = FaultPlan.load(args.plan)
    else:
        if args.app == "tiny":
            from repro.arch.knl import small_machine

            machine = small_machine()
        else:
            from repro.experiments.common import paper_machine

            machine = paper_machine()
        plan = random_plan(
            machine.mesh.cols,
            machine.mesh.rows,
            seed=args.seed if args.seed is not None else 0,
            link_count=args.links if args.links is not None else 2,
            node_count=args.nodes if args.nodes is not None else 1,
            protected_nodes=set(machine.mc_nodes) | set(machine.edc_nodes),
        )
    print("fault plan:")
    print(plan.dumps())
    if args.plan_out:
        plan.dump(args.plan_out)
        print(f"wrote plan to {args.plan_out}")

    report = build_report(args.app, scale=args.scale, faults=plan)
    print()
    print("\n".join(summary_lines(report)))
    if args.out:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    print("\nNoC link heatmap (degraded run; detours route around dead links):")
    print(heatmap_of(report).ascii_grid())
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.apps:
        forwarded.extend(["--apps", args.apps])
    forwarded.extend(["--scale", str(args.scale), "--seed", str(args.seed)])
    if args.trace:
        forwarded.extend(["--trace", args.trace])
    if args.check:
        forwarded.append("--check")
    return runner_main(forwarded)


def main(argv: List[str] = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and dispatch a subcommand."""
    if argv is None:
        argv = sys.argv[1:]
    # ``serve`` and ``client`` own their whole flag surface (argparse's
    # REMAINDER cannot forward leading optionals), so dispatch them
    # before the main parser sees their flags.
    if argv and argv[0] in ("serve", "client"):
        try:
            if argv[0] == "serve":
                from repro.serve.daemon import main as serve_main

                return serve_main(argv[1:])
            from repro.serve.client import main as client_main

            return client_main(argv[1:])
        except (ReproError, FileNotFoundError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(func=_cmd_list)

    def add_trace_flags(p) -> None:
        p.add_argument(
            "--trace",
            default="",
            metavar="FILE",
            help="write structured JSONL trace events to FILE",
        )
        p.add_argument(
            "--trace-debug",
            action="store_true",
            help="also emit per-instance firehose events (large traces)",
        )

    def add_faults_flag(p) -> None:
        p.add_argument(
            "--faults",
            default="",
            metavar="PLAN.json",
            help="apply this fault plan (see repro.faults) before placement",
        )

    def add_check_flag(p) -> None:
        p.add_argument(
            "--check",
            action="store_true",
            help="enable runtime invariant checking (repro.check); "
            "equivalent to REPRO_CHECK=1",
        )

    def add_predictor_flag(p) -> None:
        p.add_argument(
            "--predictor",
            choices=PREDICTORS,
            default="trace",
            help="L2 miss predictor: 'trace' (default, trace-trained) or "
            "'analytic' (closed-form locality model, DESIGN.md sec. 12)",
        )

    compare = sub.add_parser("compare", help="default vs optimized for one app")
    compare.add_argument("app", choices=ALL_WORKLOAD_NAMES)
    compare.add_argument("--scale", type=int, default=1)
    compare.add_argument("--seed", type=int, default=0)
    add_trace_flags(compare)
    add_faults_flag(compare)
    add_check_flag(compare)
    add_predictor_flag(compare)
    compare.set_defaults(func=_cmd_compare)

    report = sub.add_parser(
        "report", help="write a machine-readable report.json for one app"
    )
    report.add_argument(
        "app",
        nargs="?",
        default="",
        choices=list(ALL_WORKLOAD_NAMES) + ["tiny", ""],
        help="workload name, or 'tiny' for the built-in sub-second app",
    )
    report.add_argument("--scale", type=int, default=1)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", default="report.json", metavar="FILE")
    report.add_argument(
        "--no-heatmap", action="store_true", help="skip the ASCII heatmap"
    )
    report.add_argument(
        "--skip-pass",
        action="append",
        default=[],
        metavar="NAME",
        help="skip a registered compiler pass other than schedule "
        "(repeatable; see --list-passes)",
    )
    report.add_argument(
        "--list-passes",
        action="store_true",
        help="list the registered pass pipeline and exit",
    )
    add_trace_flags(report)
    add_faults_flag(report)
    add_check_flag(report)
    add_predictor_flag(report)
    report.set_defaults(func=_cmd_report)

    faults = sub.add_parser(
        "faults",
        help="fault-injection demo: degraded run + detour heatmap",
    )
    faults.add_argument(
        "app",
        nargs="?",
        default="tiny",
        choices=list(ALL_WORKLOAD_NAMES) + ["tiny"],
        help="workload to degrade (default: the sub-second 'tiny' app)",
    )
    # Generation knobs default to None so an explicit use can be detected:
    # they conflict with --plan (which supplies the plan ready-made).
    faults.add_argument(
        "--seed", type=int, default=None, help="fault-plan generation seed"
    )
    faults.add_argument(
        "--links", type=int, default=None, help="mesh links to kill (default 2)"
    )
    faults.add_argument(
        "--nodes", type=int, default=None, help="tiles to take offline (default 1)"
    )
    faults.add_argument(
        "--scale", type=int, default=1, help="workload scale (real apps)"
    )
    faults.add_argument(
        "--plan",
        default="",
        metavar="PLAN.json",
        help="use this plan instead of generating a random one",
    )
    faults.add_argument(
        "--plan-out",
        default="",
        metavar="FILE",
        help="also write the generated plan to FILE",
    )
    faults.add_argument(
        "--out", default="", metavar="FILE", help="also write report.json"
    )
    add_check_flag(faults)
    faults.set_defaults(func=_cmd_faults)

    codegen = sub.add_parser("codegen", help="show generated per-node code")
    codegen.add_argument("app", choices=ALL_WORKLOAD_NAMES)
    codegen.add_argument("--statements", type=int, default=6)
    codegen.add_argument("--scale", type=int, default=1)
    codegen.add_argument("--seed", type=int, default=0)
    codegen.set_defaults(func=_cmd_codegen)

    # ``serve`` and ``client`` are dispatched above, before this parser
    # runs; their subparsers only list them in ``repro --help``.
    sub.add_parser(
        "serve",
        help="run the compile-as-a-service daemon (repro.serve; "
        "`repro serve --help` lists its flags)",
    )
    sub.add_parser(
        "client",
        help="send requests to a running serve daemon "
        "(`repro client --help` lists its commands)",
    )

    experiments = sub.add_parser("experiments", help="run the table/figure suite")
    experiments.add_argument("--quick", action="store_true")
    experiments.add_argument("--apps", default="")
    experiments.add_argument("--scale", type=int, default=1)
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write structured JSONL trace events to FILE",
    )
    add_check_flag(experiments)
    experiments.set_defaults(func=_cmd_experiments)

    args = parser.parse_args(argv)
    conflict = _flag_conflict(args)
    if conflict:
        print(f"error: {conflict}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "check", False):
            from repro import check

            # Scoped (not enable()) so repeated main() calls in one
            # process — the test suite — never leak check mode.
            with check.checking():
                return args.func(args)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
