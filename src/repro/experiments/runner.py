"""Run every experiment and emit a combined report.

``python -m repro.experiments.runner [--apps a,b,c] [--scale N] [--quick]
[--jobs N] [--trace FILE]`` prints each table/figure's report in paper
order; ``--quick`` restricts to a 4-app subset for smoke runs.
``--trace FILE`` streams structured JSONL trace events for every compile
and simulation in the suite to ``FILE`` (see :mod:`repro.obs.tracer`),
each experiment inside an ``experiment`` span; it never changes the
rendered reports.  The output holds no wall times, so it is byte-stable
for a given seed.  ``--jobs N`` fans the heavy per-app compile+simulate
work (all cluster/memory-mode comparisons, the ideal-analysis runs, and
the fixed-window sweeps) out over N worker processes before the reports
are rendered serially, so the output is identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.errors import ReproError
from repro.experiments import common
from repro.obs.tracer import get_tracer

# Importing the modules registers each @experiment-decorated run() with
# ``common``; the suite order comes from the registry, not this list.
from repro.experiments import (  # noqa: F401
    fig13_movement,
    fig14_parallelism,
    fig15_syncs,
    fig16_l1,
    fig17_exec_time,
    fig18_isolation,
    fig19_latency,
    fig20_window,
    fig21_window_l1,
    fig22_modes,
    fig23_data_mapping,
    fig24_energy,
    predictor_sweep,
    table1_analyzable,
    table2_predictor,
    table3_opmix,
)

QUICK_APPS = ["barnes", "cholesky", "ocean", "minimd"]


def run_all(apps: List[str], scale: int = 1, seed: int = 0, out=sys.stdout) -> None:
    tracer = get_tracer()
    for name, experiment in common.all_experiments():
        with tracer.span("experiment", experiment=name):
            result = experiment(apps=apps, scale=scale, seed=seed)
        print(f"\n=== {name} ===", file=out)
        print(result.report(), file=out)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", default="", help="comma-separated app subset")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="4-app smoke subset")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-app prewarm phase (1 = serial)",
    )
    parser.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write structured JSONL trace events to FILE",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="enable runtime invariant checking (repro.check) for the suite",
    )
    args = parser.parse_args(argv)
    if args.apps:
        apps = common.parse_apps(args.apps)
        if apps is None:
            return 2
    elif args.quick:
        apps = QUICK_APPS
    else:
        apps = common.DEFAULT_APPS
    if args.check:
        import os

        from repro import check

        check.enable()
        # Worker processes (--jobs) bootstrap their mode from the
        # environment, so checking composes with the parallel prewarm.
        os.environ["REPRO_CHECK"] = "1"
    try:
        if args.jobs > 1:
            common.prewarm(apps, scale=args.scale, seed=args.seed, jobs=args.jobs)
        if args.trace:
            from repro.obs.tracer import tracing

            with tracing(args.trace):
                run_all(apps, args.scale, args.seed)
        else:
            run_all(apps, args.scale, args.seed)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
