"""Ablation benchmarks for the design choices DESIGN.md calls out.

* reuse-aware vs reuse-agnostic windows (the paper's Section 6.3 reports
  the agnostic variant ~11% worse);
* transitive-closure sync minimization on/off (arc-count effect);
* load-balance threshold sweep around the paper's 10%;
* level-based (structured) vs paper-literal flattened operand sets.
"""

import itertools

import pytest
from conftest import run_once

from repro.core import balancer
from repro.core.locator import DataLocator
from repro.core.window import WindowConfig, WindowScheduler
from repro.experiments.common import compare_app, paper_machine
from repro.workloads import build_workload

APPS = ["barnes", "ocean"]


def schedule_nest_movement(app, **window_kwargs):
    machine = paper_machine()
    program = build_workload(app)
    program.declare_on(machine)
    config = WindowConfig(always_split=True, **window_kwargs)
    scheduler = WindowScheduler(machine, DataLocator(machine), config)
    nest = program.nests[0]
    schedule = scheduler.schedule_nest(program, nest, 8)
    return schedule


def test_ablation_reuse_aware_windows(benchmark):
    def run():
        rows = {}
        for app in APPS:
            aware = schedule_nest_movement(app, reuse_aware=True).movement
            agnostic = schedule_nest_movement(app, reuse_aware=False).movement
            rows[app] = (aware, agnostic)
        return rows

    rows = run_once(benchmark, run)
    print()
    for app, (aware, agnostic) in rows.items():
        delta = (agnostic - aware) / max(agnostic, 1)
        print(f"  {app}: reuse-aware {aware}  agnostic {agnostic}  ({delta:+.1%})")
        # Section 6.3: ignoring reuse moves more data.
        assert aware <= agnostic


def test_ablation_sync_minimization(benchmark):
    def run():
        rows = {}
        for app in APPS:
            schedule = schedule_nest_movement(app)
            rows[app] = (schedule.sync_count, schedule.sync_count_unminimized)
        return rows

    rows = run_once(benchmark, run)
    print()
    for app, (minimized, unminimized) in rows.items():
        print(f"  {app}: syncs {minimized} (was {unminimized})")
        assert minimized <= unminimized


def test_ablation_balance_threshold(benchmark, monkeypatch):
    # The threshold is the module constant the balancer reads per call.
    def run():
        rows = {}
        for threshold in (0.0, 0.10, 0.50):
            monkeypatch.setattr(balancer, "BALANCE_THRESHOLD", threshold)
            rows[threshold] = schedule_nest_movement(APPS[0]).movement
        return rows

    rows = run_once(benchmark, run)
    print()
    for threshold, movement in rows.items():
        print(f"  threshold {threshold:.2f}: movement {movement}")
    # The knob perturbs placement but must not break scheduling.
    assert all(v > 0 for v in rows.values())


def test_ablation_flattened_products(benchmark):
    def run():
        structured = schedule_nest_movement(APPS[0], flatten_products=False).movement
        flattened = schedule_nest_movement(APPS[0], flatten_products=True).movement
        return structured, flattened

    structured, flattened = run_once(benchmark, run)
    print(f"\n  structured sets: {structured}  paper-literal flattened: {flattened}")
    # Both are valid schedules with comparable movement (within 25%).
    assert abs(structured - flattened) <= 0.25 * max(structured, flattened)
