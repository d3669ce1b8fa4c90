"""Fault-injection layer: plans, detour routing, degradation, reporting.

Covers the invariants the fault subsystem promises:

* seeded :class:`~repro.faults.FaultPlan` generation and its JSON form
  round-trip deterministically;
* fault-aware routes avoid every dead link/node, stay mesh-adjacent, and
  the simulator's per-link flit volumes still sum to exactly the
  reported ``DataMovement`` (the heatmap identity survives detours);
* an empty plan is bit-identical to no plan at all;
* a plan killing links and a tile compiles + simulates end to end with
  nothing scheduled on offline nodes, and the v2 report carries a valid
  ``faults`` section;
* tiles that die mid-run get their units relocated instead of crashing.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.knl import small_machine
from repro.baselines.default_placement import DefaultPlacement
from repro.errors import FaultError
from repro.faults import (
    ChannelDegrade,
    FaultPlan,
    LinkFault,
    NodeFault,
    random_plan,
)
from repro.noc.routing import Router, xy_route_links_cached
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


def _protected(machine):
    return set(machine.mc_nodes) | set(machine.edc_nodes)


def _seeded_plan(machine, seed=7):
    """Two dead links + one dead tile (the acceptance scenario)."""
    return random_plan(
        machine.mesh.cols,
        machine.mesh.rows,
        seed=seed,
        link_count=2,
        node_count=1,
        protected_nodes=_protected(machine),
    )


def _tiny_units(machine):
    from repro.benchmarks.perf import tiny_app

    return compile_program(tiny_app(), session_for(machine)).units()


# -- plan serialization ----------------------------------------------------


def test_plan_json_roundtrip_is_exact():
    plan = FaultPlan(
        seed=3,
        links=(LinkFault(1, 2), LinkFault(5, 9, at_unit=4)),
        nodes=(NodeFault(10), NodeFault(6, at_unit=9)),
        channels=(ChannelDegrade(1, 3.0),),
        description="hand-built",
    )
    again = FaultPlan.loads(plan.dumps())
    assert again == plan
    assert again.dumps() == plan.dumps()
    assert again.fingerprint() == plan.fingerprint()


def test_plan_load_dump_roundtrip(tmp_path):
    plan = FaultPlan(seed=1, links=(LinkFault(0, 1),))
    path = tmp_path / "plan.json"
    plan.dump(str(path))
    assert FaultPlan.load(str(path)) == plan


def test_random_plan_is_deterministic():
    a = random_plan(4, 4, seed=11, link_count=2, node_count=1)
    b = random_plan(4, 4, seed=11, link_count=2, node_count=1)
    assert a == b and a.fingerprint() == b.fingerprint()
    assert random_plan(4, 4, seed=12) != a


def test_random_plan_respects_protected_nodes(machine):
    protected = _protected(machine)
    plan = random_plan(
        4, 4, seed=5, link_count=3, node_count=2, protected_nodes=protected
    )
    assert not (plan.all_dead_nodes() & protected)
    for fault in plan.links:
        assert fault.src not in protected and fault.dst not in protected


def test_random_plan_never_cuts_a_live_tile_off():
    # The first draw at this seed kills links 63-79 and 78-79 and tile 95,
    # which leaves tile 79 unreachable; the plan is drawn again.
    from repro.experiments.common import paper_machine

    machine = paper_machine(mesh_cols=16, mesh_rows=16)
    plan = random_plan(
        16, 16, seed=16, link_count=4, node_count=2,
        protected_nodes=sorted(_protected(machine)),
    )
    machine.apply_faults(plan)
    assert machine.dead_nodes == plan.all_dead_nodes()


def test_random_plan_gives_up_on_an_always_disconnected_mesh():
    with pytest.raises(FaultError, match="no connected plan"):
        random_plan(2, 1, seed=0, link_count=1, node_count=0)


@pytest.mark.parametrize(
    "count", ["link_count", "node_count", "degraded_channel_count"]
)
def test_random_plan_rejects_a_negative_count(count):
    with pytest.raises(FaultError, match=f"{count} must be >= 0, got -1"):
        random_plan(4, 4, seed=0, **{count: -1})


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"version": 99}',
        '{"unknown_field": 1}',
        '{"links": [{"src": 0}]}',
        '{"nodes": [{"node": "x"}]}',
        '{"nodes": [{"node": true}]}',
        '{"nodes": [{"node": 1.5}]}',
        '{"nodes": [{"node": 1, "at_unit": 2.7}]}',
        '{"nodes": [{"node": 1, "at_unit": -1}]}',
        '{"links": [{"src": 0, "dst": false}]}',
        '{"channels": [{"channel": 0, "latency_factor": "NaN"}]}',
        '{"channels": [{"channel": 0, "latency_factor": NaN}]}',
        '{"channels": [{"channel": 0, "latency_factor": 1e309}]}',
        '{"channels": [{"channel": "0"}]}',
        '{"seed": "x"}',
    ],
)
def test_malformed_plans_raise_fault_error(text):
    with pytest.raises(FaultError):
        FaultPlan.loads(text)


def test_empty_plan_properties():
    plan = FaultPlan(seed=0)
    assert plan.is_empty
    assert not plan.static_dead_links() and not plan.all_dead_nodes()
    assert plan.midrun_events() == []


# -- plan validation against a machine -------------------------------------


def test_killing_a_memory_controller_is_rejected(machine):
    mc = machine.mc_nodes[0]
    with pytest.raises(FaultError):
        machine.apply_faults(FaultPlan(seed=0, nodes=(NodeFault(mc),)))


def test_out_of_range_ids_are_rejected(machine):
    with pytest.raises(FaultError):
        machine.apply_faults(FaultPlan(seed=0, nodes=(NodeFault(99),)))
    with pytest.raises(FaultError):
        machine.apply_faults(FaultPlan(seed=0, links=(LinkFault(0, 99),)))


def test_non_adjacent_link_is_rejected(machine):
    with pytest.raises(FaultError):
        machine.apply_faults(FaultPlan(seed=0, links=(LinkFault(0, 5),)))


def test_disconnecting_plan_is_rejected(machine):
    # Kill all four links around node 5 while leaving it alive: isolated.
    links = tuple(
        LinkFault(*sorted((5, n))) for n in (1, 4, 6, 9)
    )
    with pytest.raises(FaultError):
        machine.apply_faults(FaultPlan(seed=0, links=links))


def test_plan_cannot_be_applied_twice(machine):
    plan = _seeded_plan(machine)
    machine.apply_faults(plan)
    with pytest.raises(FaultError):
        machine.apply_faults(plan)


# -- fault-aware routing ---------------------------------------------------


def _assert_route_valid(mesh, links, src, dst, dead_links, dead_nodes):
    assert links, f"no route {src}->{dst}"
    node = src
    for a, b in links:
        assert a == node, "route links are not contiguous"
        assert abs(a % mesh.cols - b % mesh.cols) + abs(
            a // mesh.cols - b // mesh.cols
        ) == 1, f"{a}->{b} is not a mesh link"
        assert (a, b) not in dead_links, f"route uses dead link {a}->{b}"
        node = b
    assert node == dst
    interior = {a for a, _ in links} | {b for _, b in links}
    assert not (interior & set(dead_nodes) - {src, dst})


def test_router_detours_around_dead_links(machine):
    mesh = machine.mesh
    dead = {(5, 6), (6, 5)}
    router = Router(mesh)
    router.set_faults(dead, ())
    for src in range(mesh.node_count):
        for dst in range(mesh.node_count):
            if src == dst:
                continue
            links = router.route_links(src, dst)
            _assert_route_valid(mesh, links, src, dst, dead, ())


def test_router_routes_around_dead_node(machine):
    mesh = machine.mesh
    router = Router(mesh)
    router.set_faults((), (5,))
    alive = [n for n in range(mesh.node_count) if n != 5]
    for src in alive:
        for dst in alive:
            if src == dst:
                continue
            nodes = router.route_nodes(src, dst)
            assert 5 not in nodes


def test_router_healthy_matches_xy(machine):
    mesh = machine.mesh
    router = Router(mesh)
    assert router.healthy
    for src, dst in ((0, 15), (3, 12), (7, 8)):
        assert router.route_links(src, dst) == tuple(
            xy_route_links_cached(mesh, src, dst)
        )


def test_router_raises_for_dead_endpoint(machine):
    router = Router(machine.mesh)
    router.set_faults((), (5,))
    with pytest.raises(FaultError):
        router.route_links(5, 0)


def test_router_detour_hops_never_below_manhattan(machine):
    mesh = machine.mesh
    manhattan = mesh.distance_fn()
    router = Router(mesh)
    router.set_faults({(5, 6), (6, 5), (9, 10), (10, 9)}, ())
    for src in range(mesh.node_count):
        for dst in range(mesh.node_count):
            if src != dst:
                assert router.hops(src, dst) >= manhattan(src, dst)


def test_set_faults_bumps_epoch_and_reroutes(machine):
    router = Router(machine.mesh)
    before = router.route_links(5, 6)
    epoch = router.set_faults({(5, 6), (6, 5)}, ())
    after = router.route_links(5, 6)
    assert epoch == 1
    assert before == ((5, 6),)
    assert after != before and len(after) > 1


# -- machine degradation ---------------------------------------------------


def test_banks_rehomed_off_dead_tiles(machine):
    plan = _seeded_plan(machine)
    healthy_homes = list(machine.bank_to_node)
    machine.apply_faults(plan)
    dead = machine.dead_nodes
    assert dead
    for bank, node in enumerate(machine.bank_to_node):
        assert node not in dead
        if healthy_homes[bank] not in dead:
            assert node == healthy_homes[bank]


def test_alive_nodes_excludes_dead(machine):
    plan = _seeded_plan(machine)
    machine.apply_faults(plan)
    alive = machine.alive_nodes()
    assert set(alive) | set(machine.dead_nodes) == set(
        range(machine.mesh.node_count)
    )
    for node in machine.dead_nodes:
        assert not machine.is_node_alive(node)


def test_degraded_channel_inflates_memory_latency(declared):
    machine, program = declared
    name = program.arrays()[0] if callable(getattr(program, "arrays", None)) else "A"
    healthy = machine.memory_access_cycles(name, 0)
    channel = machine.layout.channel_of(name, 0)
    plan = FaultPlan(seed=0, channels=(ChannelDegrade(channel, 4.0),))
    machine.apply_faults(plan)
    machine.mcdram.reset()
    assert machine.memory_access_cycles(name, 0) == pytest.approx(4.0 * healthy)


# -- scheduling + simulation under faults ----------------------------------


def test_placement_and_partition_avoid_offline_nodes(machine):
    plan = _seeded_plan(machine)
    machine.apply_faults(plan)
    dead = machine.dead_nodes
    from repro.benchmarks.perf import tiny_app

    placement = DefaultPlacement(machine).place(tiny_app())
    assert all(unit.node not in dead for unit in placement.units)
    units = _tiny_units(machine)
    assert units
    assert all(unit.node not in dead for unit in units)


def test_degraded_run_flits_sum_to_data_movement(machine):
    plan = _seeded_plan(machine)
    machine.apply_faults(plan)
    units = _tiny_units(machine)
    metrics = Simulator(machine, SimConfig()).run(units)
    assert metrics.data_movement > 0
    assert sum(metrics.link_flits.values()) == metrics.data_movement
    dead_links = plan.static_dead_links()
    assert all(link not in dead_links for link in metrics.link_flits)


def test_empty_plan_is_bit_identical_to_healthy():
    healthy = small_machine()
    healthy_units = _tiny_units(healthy)
    healthy_metrics = Simulator(healthy, SimConfig()).run(healthy_units)

    empty = small_machine()
    empty.apply_faults(FaultPlan(seed=0))
    empty_units = _tiny_units(empty)
    empty_metrics = Simulator(empty, SimConfig()).run(empty_units)

    assert [u.node for u in empty_units] == [u.node for u in healthy_units]
    assert empty_metrics.to_dict() == healthy_metrics.to_dict()
    assert empty_metrics.link_flits == healthy_metrics.link_flits


def test_midrun_node_death_relocates_units():
    # Compile healthy, then the schedule's own machine degrades mid-run —
    # the simulator must relocate the victim's units, not crash.
    machine = small_machine()
    units = _tiny_units(machine)
    victim = units[len(units) // 2].node
    plan = FaultPlan(seed=1, nodes=(NodeFault(victim, at_unit=3),))

    machine.apply_faults(plan)
    metrics = Simulator(machine, SimConfig()).run(units)
    assert metrics.fault_events == 1
    assert metrics.fault_relocations > 0
    assert sum(metrics.link_flits.values()) == metrics.data_movement


# -- reporting -------------------------------------------------------------


def test_report_v2_faults_section(machine):
    from repro.obs.report import build_report
    from repro.obs.schema import validate_report

    plan = _seeded_plan(machine)
    report = build_report("tiny", faults=plan)
    assert validate_report(report) == []
    faults = report["faults"]
    assert faults is not None
    assert faults["fingerprint"] == plan.fingerprint()
    assert faults["dead_nodes"] == sorted(plan.all_dead_nodes())
    assert FaultPlan.from_json(faults["plan"]) == plan
    comparison = faults["degraded_vs_healthy"]
    assert comparison["degraded_movement"] == report["optimized"]["data_movement"]
    assert report["phase_seconds"]["simulate_healthy"] >= 0.0
    assert (
        report["link_heatmap"]["total_flit_hops"]
        == report["optimized"]["data_movement"]
    )


def test_report_healthy_run_has_null_faults():
    from repro.obs.report import build_report

    report = build_report("tiny")
    assert report["faults"] is None
    assert "simulate_healthy" not in report["phase_seconds"]


def test_v1_reports_without_faults_field_still_validate():
    from repro.obs.report import build_report
    from repro.obs.schema import validate_report

    report = build_report("tiny")
    legacy = dict(report)
    legacy.pop("faults")
    legacy["schema_version"] = 1
    assert validate_report(legacy) == []


# -- CLI front-ends --------------------------------------------------------


def test_cli_faults_demo(tmp_path, capsys):
    from repro import cli

    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "report.json"
    status = cli.main(
        [
            "faults",
            "--seed",
            "7",
            "--plan-out",
            str(plan_path),
            "--out",
            str(report_path),
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "fault plan" in out and "degradation" in out
    plan = FaultPlan.load(str(plan_path))
    assert not plan.is_empty
    report = json.loads(report_path.read_text())
    assert report["faults"]["fingerprint"] == plan.fingerprint()


def test_cli_report_rejects_bad_fault_plan(tmp_path, capsys):
    from repro import cli

    bad = tmp_path / "bad.json"
    bad.write_text('{"surprise": 1}')
    status = cli.main(["report", "tiny", "--faults", str(bad)])
    assert status == 2
    assert "unknown fault plan field" in capsys.readouterr().err


def test_runner_rejects_unknown_app(capsys):
    from repro.experiments.runner import main as runner_main

    for argv, message in (
        (["--apps", "nosuchapp"], "unknown app name"),
        (["--apps", "cholesky", "--scale", "0"], "scale"),
    ):
        status = runner_main(argv)
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
