"""The simulator backend: run a compiled schedule through the simulator.

:class:`SimBackend` wraps the event simulator
(:class:`repro.sim.engine.Simulator`) unchanged; its numbers are
bit-identical to calling ``Simulator.run`` directly.  The repository
benchmark (``bench/``) runs every compiled schedule through
:meth:`SimBackend.run` and times that call as its final simulation.
The task-graph replay that cross-checks the simulator is an oracle, not
a backend: :mod:`repro.check.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.machine import Machine
from repro.core.subcomputation import Subcomputation
from repro.sim.engine import SimConfig, Simulator
from repro.sim.metrics import SimMetrics


@dataclass
class ExecutionResult:
    """The headline counters of one simulation, plus the full metrics."""

    data_movement: int
    sync_count: int
    unit_count: int
    metrics: SimMetrics


class SimBackend:
    """The event simulator behind one ``run(machine, units)`` call."""

    def run(
        self,
        machine: Machine,
        units: Sequence[Subcomputation],
        sim_config: Optional[SimConfig] = None,
    ) -> ExecutionResult:
        """Simulate ``units``; the full :class:`SimMetrics` ride along."""
        metrics = Simulator(machine, sim_config or SimConfig()).run(units)
        return ExecutionResult(
            data_movement=metrics.data_movement,
            sync_count=metrics.sync_count,
            unit_count=metrics.unit_count,
            metrics=metrics,
        )
