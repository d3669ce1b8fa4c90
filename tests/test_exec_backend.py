"""SimBackend adapter tests, and the replay oracle's scheduling properties.

The load-bearing assertions:

* the sim backend is a *pure adapter* — identical numbers to calling
  ``Simulator.run`` directly;
* a replay of the schedule on the task runtime (:mod:`repro.check.replay`)
  stays within ``MOVEMENT_AGREEMENT_TOLERANCE`` of the simulator at four
  workers and never violates sync order: every cross-node dependency
  completes before its consumer in the observed completion order;
* seeded scheduling is reproducible, and property-holds across seeds.

The exact single-worker agreement is the differential test in
``tests/check/test_replay.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.replay import (
    MOVEMENT_AGREEMENT_TOLERANCE,
    movement_agreement,
    replay,
    task_specs,
)
from repro.check.taskspace import TaskError
from repro.exec import SimBackend
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


@pytest.fixture
def compiled(declared):
    """(machine, units) for the conftest tiny program, compiled once."""
    machine, program = declared
    partition = compile_program(program, session_for(machine))
    return machine, partition.units()


def run_replay(machine, units, **kwargs):
    machine.mcdram.reset()
    return replay(machine, units, **kwargs)


def sim_forecast(machine, units):
    return SimBackend().run(machine, units)


def assert_sync_order_valid(replayed, units):
    """Every cross-node dependency precedes its consumer in completion order."""
    assert replayed.sync_violations == []
    position = {uid: k for k, uid in enumerate(replayed.completion_order)}
    for spec in task_specs(units):
        for producer in spec.sync_deps:
            assert position[producer] < position[spec.uid]


class TestSimBackendAdapter:
    def test_matches_direct_simulator_run(self, compiled):
        machine, units = compiled
        direct = Simulator(machine, SimConfig()).run(units)
        result = sim_forecast(machine, units)
        assert result.data_movement == direct.data_movement
        assert result.sync_count == direct.sync_count
        assert result.unit_count == direct.unit_count
        assert result.metrics.link_flits == direct.link_flits

    def test_link_flits_decompose_total(self, compiled):
        machine, units = compiled
        result = sim_forecast(machine, units)
        assert sum(result.metrics.link_flits.values()) == result.data_movement


class TestRuntimeBackend:
    """The replay's scheduling modes: multi-worker, seeded, unseeded."""

    def test_multi_worker_agrees_within_tolerance(self, compiled):
        machine, units = compiled
        forecast = sim_forecast(machine, units)
        replayed = run_replay(machine, units, workers=4)
        agreement = movement_agreement(
            replayed.data_movement, forecast.data_movement
        )
        assert agreement <= MOVEMENT_AGREEMENT_TOLERANCE
        assert_sync_order_valid(replayed, units)

    def test_sync_order_valid_unseeded(self, compiled):
        machine, units = compiled
        replayed = run_replay(machine, units, workers=1)
        assert_sync_order_valid(replayed, units)

    def test_replay_validates_options_eagerly(self, compiled):
        machine, units = compiled
        with pytest.raises(TaskError, match="workers=1"):
            replay(machine, units, workers=4, seed=1)

    def test_same_seed_same_completion_order(self, compiled):
        machine, units = compiled
        first = run_replay(machine, units, workers=1, seed=11)
        second = run_replay(machine, units, workers=1, seed=11)
        assert first.completion_order == second.completion_order
        assert first.data_movement == second.data_movement

    @settings(
        max_examples=8,
        deadline=None,
        # Sharing the compiled fixture across examples is deliberate:
        # the units are immutable and every run builds fresh caches.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=0, max_value=2**16))
    def test_any_seed_preserves_sync_order(self, compiled, seed):
        """Property: scrambled dispatch never lets a cross-node consumer
        run ahead of its sync dependency."""
        machine, units = compiled
        replayed = run_replay(machine, units, workers=1, seed=seed)
        assert_sync_order_valid(replayed, units)


class TestMovementAgreement:
    def test_zero_forecast_zero_observed(self):
        assert movement_agreement(0, 0) == 0.0

    def test_zero_forecast_nonzero_observed_is_infinite(self):
        assert movement_agreement(5, 0) == float("inf")

    def test_relative_error(self):
        assert movement_agreement(105, 100) == pytest.approx(0.05)
        assert movement_agreement(95, 100) == pytest.approx(0.05)
