"""Differential test: a schedule fed in seq-ordered batches simulates
exactly like one ``Simulator.run`` over the whole schedule.

The empirical gate feeds each candidate's windows into a simulator as
they are built (``Simulator.feed``, then ``finish``).  Every dependence
arc points to the same or a later seq and the ready heap pops by
``(seq, uid)``, so draining the heap after each batch must pop the same
units in the same order: caches, network congestion and mid-run fault
activation evolve as in one batch run.  Hypothesis cuts compiled
schedules at random seq boundaries, on a healthy machine, under static
faults and under a mid-run tile death, and with the simulator's
isolation knobs.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.knl import small_machine
from repro.errors import SimulationError
from repro.faults import random_plan
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


def chain_program() -> Program:
    """Statements linked by flow, anti and output dependences, within an
    iteration and across the repeated sweeps of ``t``."""
    p = Program("chain")
    for phase, name in ((2, "A"), (5, "B"), (8, "C"), (11, "D")):
        p.declare(name, 256, bank_phase=phase)
    p.add_nest(
        LoopNest.of(
            [Loop("t", 0, 3), Loop("i", 0, 32)],
            [
                parse_statement("A(i) = B(i) + C(i) + D(i)"),
                parse_statement("B(i) = A(i) + C(i + 1)"),
                parse_statement("D(i) = A(i) + B(i) + C(i)"),
            ],
            "main",
        )
    )
    return p


@functools.lru_cache(maxsize=None)
def compiled(scenario: str):
    """(machine, units) of the chain program on the 4x4 machine under
    ``scenario``."""
    machine = small_machine()
    protected = set(machine.mc_nodes) | set(machine.edc_nodes)
    plan = None
    if scenario == "static_faults":
        plan = random_plan(
            4, 4, seed=7, link_count=2, node_count=1, protected_nodes=protected
        )
    elif scenario == "midrun_fault":
        plan = random_plan(
            4, 4, seed=2, link_count=1, node_count=1,
            protected_nodes=protected, midrun_node_at=20,
        )
    session = session_for(machine, faults=plan)
    return session.machine, tuple(compile_program(chain_program(), session).units())


def _mc_override(machine, units):
    """Every touched page served by a fixed, page-dependent controller."""
    layout = machine.layout
    pages = {
        layout.page_of(g.access.array, g.access.index)
        for unit in units
        for g in unit.gathered
    }
    return {page: page % machine.node_count for page in sorted(pages)}


def _config(knob: str, machine, units) -> SimConfig:
    if knob == "forced_l1_hit_rate":
        return SimConfig(forced_l1_hit_rate=0.6)
    if knob == "mc_override":
        return SimConfig(mc_override=_mc_override(machine, units))
    if knob == "ideal_network":
        return SimConfig(ideal_network=True)
    return SimConfig()


def _batches(units, cuts):
    """``units`` split before each seq in ``cuts`` (program order kept)."""
    batches = [[]]
    cuts = sorted(cuts)
    for unit in units:
        while cuts and unit.seq >= cuts[0]:
            cuts.pop(0)
            if batches[-1]:
                batches.append([])
        batches[-1].append(unit)
    return batches


def _assert_same(streamed, batch):
    assert streamed.to_dict() == batch.to_dict()
    assert dict(streamed.movement_by_seq) == dict(batch.movement_by_seq)
    assert streamed.link_flits == batch.link_flits


SCENARIOS = ("healthy", "static_faults", "midrun_fault")
KNOBS = ("default", "forced_l1_hit_rate", "mc_override", "ideal_network")


@pytest.mark.parametrize(
    "scenario,knob",
    [(s, "default") for s in SCENARIOS] + [("healthy", k) for k in KNOBS[1:]],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_streamed_equals_batch(scenario, knob, data):
    machine, units = compiled(scenario)
    seqs = sorted({unit.seq for unit in units})
    cuts = data.draw(
        st.lists(st.sampled_from(seqs[1:]), max_size=40, unique=True), label="cuts"
    )
    config = _config(knob, machine, units)
    batch = Simulator(machine, config).run(list(units))
    simulator = Simulator(machine, config)
    for part in _batches(units, cuts):
        simulator.feed(part)
    streamed = simulator.finish()
    if scenario == "midrun_fault":
        assert batch.fault_events == 1
    _assert_same(streamed, batch)


def test_window_by_window_equals_batch():
    # The gate's cut: one batch per statement instance.
    machine, units = compiled("midrun_fault")
    batch = Simulator(machine, SimConfig()).run(list(units))
    simulator = Simulator(machine, SimConfig())
    running = []
    for part in _batches(units, {unit.seq for unit in units}):
        simulator.feed(part)
        running.append((simulator.metrics.data_movement, simulator.latest_finish))
    _assert_same(simulator.finish(), batch)
    # The running totals only grow, and end at the batch run's.
    for earlier, later in zip(running, running[1:]):
        assert earlier[0] <= later[0] and earlier[1] <= later[1]
    assert running[-1] == (batch.data_movement, batch.total_cycles)


def test_out_of_order_feed_raises():
    machine, units = compiled("healthy")
    seqs = sorted({unit.seq for unit in units})
    early = [u for u in units if u.seq == seqs[0]]
    late = [u for u in units if u.seq == seqs[1]]
    simulator = Simulator(machine, SimConfig())
    simulator.feed(late)
    with pytest.raises(SimulationError, match="must follow"):
        simulator.feed(early)
    # A repeated seq does not follow either.
    simulator = Simulator(machine, SimConfig())
    simulator.feed(early)
    with pytest.raises(SimulationError, match="must follow"):
        simulator.feed(early)
