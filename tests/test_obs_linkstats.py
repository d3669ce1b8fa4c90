"""Link-level NoC accounting: the heatmap decomposes total movement.

The paper's DataMovement metric counts link traversals; :class:`LinkStats`
breaks the same total down per directed mesh link.  The invariant under
test: ``sum(flits over links) == SimMetrics.data_movement`` — exactly, not
approximately — because the simulator charges movement and records traffic
from the same XY routes.
"""

from __future__ import annotations

from repro.arch.knl import small_machine
from repro.baselines.default_placement import DefaultPlacement
from repro.benchmarks.perf import tiny_app
from repro.noc.network import LinkStats
from repro.noc.routing import mesh_links
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


def _default_run():
    machine = small_machine()
    placement = DefaultPlacement(machine).place(tiny_app())
    metrics = Simulator(machine, SimConfig()).run(placement.units)
    return machine, metrics


def _optimized_run():
    machine = small_machine()
    partition = compile_program(tiny_app(), session_for(machine))
    simulator = Simulator(machine, SimConfig())
    metrics = simulator.run(partition.units())
    return machine, simulator, metrics


def test_mesh_links_enumerates_directed_mesh_edges():
    machine = small_machine()
    links = mesh_links(machine.mesh)
    cols, rows = machine.mesh.cols, machine.mesh.rows
    expected = 2 * (cols * (rows - 1) + rows * (cols - 1))
    assert len(links) == expected
    assert links == sorted(links)
    assert len(set(links)) == len(links)
    for src, dst in links:
        sx, sy = src % cols, src // cols
        dx, dy = dst % cols, dst // cols
        assert abs(sx - dx) + abs(sy - dy) == 1


def test_link_flits_sum_to_data_movement_default():
    machine, metrics = _default_run()
    stats = LinkStats.from_link_flits(
        machine.mesh.cols, machine.mesh.rows, metrics.link_flits
    )
    assert metrics.data_movement > 0
    assert stats.total_flit_hops() == metrics.data_movement


def test_link_flits_sum_to_data_movement_optimized():
    machine, _, metrics = _optimized_run()
    stats = LinkStats.from_link_flits(
        machine.mesh.cols, machine.mesh.rows, metrics.link_flits
    )
    assert metrics.data_movement > 0
    assert stats.total_flit_hops() == metrics.data_movement


def test_recorded_links_are_mesh_adjacent():
    machine, _, metrics = _optimized_run()
    valid = set(mesh_links(machine.mesh))
    assert metrics.link_flits, "optimized run moved no data"
    for link, flits in metrics.link_flits.items():
        assert link in valid
        assert flits > 0


def test_network_link_stats_snapshot():
    machine, simulator, metrics = _optimized_run()
    stats = simulator.network.link_stats()
    assert stats.total_flit_hops() == metrics.data_movement
    throughput = stats.node_throughput()
    assert len(throughput) == machine.mesh.node_count
    assert sum(throughput) == metrics.data_movement


def test_to_json_shape_and_roundtrip():
    machine, simulator, metrics = _optimized_run()
    stats = simulator.network.link_stats()
    payload = stats.to_json()
    assert payload["mesh"] == {
        "cols": machine.mesh.cols,
        "rows": machine.mesh.rows,
    }
    assert payload["total_flit_hops"] == metrics.data_movement
    assert sum(link["flits"] for link in payload["links"]) == metrics.data_movement

    rebuilt = LinkStats.from_link_flits(
        payload["mesh"]["cols"],
        payload["mesh"]["rows"],
        {(e["src"], e["dst"]): e["flits"] for e in payload["links"]},
    )
    assert rebuilt.to_json() == payload


def test_ascii_grid_mentions_every_node():
    machine, simulator, _ = _optimized_run()
    grid = simulator.network.link_stats().ascii_grid()
    for node in range(machine.mesh.node_count):
        assert f"[{node:>3}]" in grid
