"""Metamorphic laws of the pipeline (ISSUE: dead links, window-1).

Two relations that must hold without knowing any exact expected value:

* **Dead-link monotonicity** — killing mesh links (and nothing else: no
  dead tiles, no channel degrades) leaves every message's endpoints
  unchanged, so detours can only lengthen routes and the simulated
  DataMovement of a fixed schedule can never *decrease*.
* **Window-1 law** — with single-statement windows the variable->node
  reuse map is created fresh (and therefore empty) for every window, so
  ``reuse_aware=True`` and ``reuse_aware=False`` must compile to the
  same movement, statement by statement.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.knl import small_machine
from repro.benchmarks.perf import tiny_app
from repro.core.partitioner import PartitionConfig
from repro.core.window import WindowConfig
from repro.faults.plan import FaultPlan, LinkFault
from repro.noc.routing import Router, mesh_links
from repro.noc.topology import Mesh2D
from repro.pipeline import compile_program, session_for
from repro.sim.engine import Simulator

# Link-only fault plans over the 4x4 small-machine mesh, growing in
# severity; none disconnects the grid.
LINK_PLANS = [
    FaultPlan(links=(LinkFault(5, 6),), description="one interior link"),
    FaultPlan(
        links=(LinkFault(0, 1), LinkFault(4, 5)),
        description="two links near a corner",
    ),
    FaultPlan(
        links=(LinkFault(1, 2), LinkFault(6, 10), LinkFault(9, 13)),
        description="three scattered links",
    ),
]


def _movement_of(machine, units):
    return Simulator(machine).run(units).data_movement


class TestDeadLinkMonotonicity:
    @pytest.mark.parametrize(
        "plan", LINK_PLANS, ids=[p.description for p in LINK_PLANS]
    )
    def test_dead_links_never_decrease_movement(self, plan):
        """Simulate one compiled schedule healthy, then link-degraded."""
        machine = small_machine()
        result = compile_program(tiny_app(), session_for(machine))
        units = result.units()
        healthy = _movement_of(machine, units)
        machine.apply_faults(plan)  # link-only: endpoints stay identical
        degraded = _movement_of(machine, units)
        assert degraded >= healthy

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_degraded_hops_never_below_manhattan(self, data):
        """Route-level law: a detour is at least as long as the XY route."""
        mesh = data.draw(
            st.builds(Mesh2D, st.integers(2, 5), st.integers(2, 5))
        )
        sampled = data.draw(
            st.lists(st.sampled_from(mesh_links(mesh)), max_size=3, unique=True)
        )
        dead_links = [
            link for (a, b) in sampled for link in ((a, b), (b, a))
        ]
        router = Router(mesh, dead_links)
        try:
            router.check_connected()
        except Exception:
            assume(False)
        for src in range(mesh.node_count):
            for dst in range(mesh.node_count):
                assert router.hops(src, dst) >= mesh.distance(src, dst)


class TestWindowOneLaw:
    def test_window_size_one_equals_reuse_agnostic(self):
        """reuse_aware is a no-op when every window holds one statement."""
        movements = {}
        per_statement = {}
        for reuse_aware in (True, False):
            config = PartitionConfig(
                adaptive_window=False,
                fixed_window_size=1,
                window=WindowConfig(reuse_aware=reuse_aware),
            )
            result = compile_program(tiny_app(), session_for(small_machine(), config))
            movements[reuse_aware] = result.movement
            per_statement[reuse_aware] = result.per_statement_movement()
        assert movements[True] == movements[False]
        assert per_statement[True] == per_statement[False]
