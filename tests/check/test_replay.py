"""Differential test: the task-graph replay equals the simulator exactly.

:func:`repro.check.replay.replay` executes a schedule as a concurrent
task graph and observes its data movement through the machine's own
caches and routes.  At one unseeded worker it dispatches ready tasks in
the simulator's ``(seq, uid)`` order, so its movement, sync count and
per-link flit map must *equal* ``Simulator.run``'s — on healthy machines
and under fault plans whose detours both charge.  Mid-run faults are
refused: the simulator relocates units when they strike, and the replay
has no relocation path.  So is a schedule that names a producer it does
not contain.
"""

import pytest

from repro.arch.knl import small_machine
from repro.benchmarks.perf import tiny_app
from repro.check.replay import replay
from repro.check.taskspace import TaskError
from repro.core.subcomputation import SubResult, Subcomputation
from repro.errors import FaultError
from repro.experiments.common import paper_machine, run_optimized
from repro.faults import FaultPlan, NodeFault, random_plan
from repro.ir.statement import Access
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


def assert_replay_equals_simulation(machine, units):
    machine.mcdram.reset()
    simulated = Simulator(machine, SimConfig()).run(units)
    machine.mcdram.reset()
    replayed = replay(machine, units)
    assert replayed.sync_violations == []
    assert len(replayed.completion_order) == len(units)
    assert replayed.data_movement == simulated.data_movement
    assert replayed.sync_count == simulated.sync_count
    assert replayed.link_flits == simulated.link_flits


def compiled_tiny(faults=None):
    """(machine, units) of the built-in ``tiny`` app on the 4x4 machine."""
    session = session_for(small_machine(), faults=faults)
    partition = compile_program(tiny_app(), session)
    return session.machine, partition.units()


@pytest.mark.parametrize(
    "app", ("tiny", "minimd", "ocean", "fft", "lu", "radix")
)
def test_replay_equals_simulation(app):
    if app == "tiny":
        machine, units = compiled_tiny()
    else:
        partition, _, machine = run_optimized(app)
        units = partition.units()
    assert_replay_equals_simulation(machine, units)


@pytest.mark.parametrize("seed", range(3))
def test_replay_equals_simulation_under_faults(seed):
    """Cholesky on the 6x6 machine with two dead links and a dead tile."""
    healthy = paper_machine()
    plan = random_plan(
        6, 6, seed=seed, link_count=2, node_count=1,
        protected_nodes=set(healthy.mc_nodes) | set(healthy.edc_nodes),
    )
    partition, metrics, machine = run_optimized("cholesky", faults=plan)
    assert metrics.detour_extra_hops > 0  # the plan forces detours
    assert_replay_equals_simulation(machine, partition.units())


def test_midrun_faults_are_refused():
    machine, units = compiled_tiny(FaultPlan(nodes=(NodeFault(5, at_unit=10),)))
    with pytest.raises(FaultError, match="mid-run"):
        replay(machine, units)


def test_unscheduled_producer_is_refused():
    orphan = Subcomputation(
        uid=11, seq=0, node=2, op="+", op_count=1, cost=1.0,
        sub_results=(SubResult(10, 1, hops=3),), store=Access("A", 0),
    )
    with pytest.raises(TaskError, match="never spawned"):
        replay(small_machine(), [orphan])
