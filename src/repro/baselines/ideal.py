"""Ideal scenarios (paper Section 6.4, Figure 17 bars 2 and 3).

* **Ideal network** — every network message completes in 0 cycles.  The
  paper deducts measured network latencies from execution time; we run the
  simulator with ``ideal_network=True`` (traffic is still recorded so
  movement metrics stay meaningful).
* **Ideal data analysis** — perfect compile-time knowledge: 100% accurate
  L2 hit/miss prediction and exact data-access information.  We give the
  partitioner an :class:`OracleL2Predictor` (it *simulates* the L2 instead
  of guessing) and an unbounded L1-reuse model, which is exactly the
  information a perfect profile would provide.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.arch.machine import Machine
from repro.cache.hierarchy import CacheSystem
from repro.cache.predictor import PredictorStats
from repro.core.partitioner import PartitionConfig, PartitionResult
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig


def ideal_network_config(base: SimConfig = SimConfig()) -> SimConfig:
    """A simulator configuration where messages take zero cycles."""
    return replace(base, ideal_network=True)


class OracleL2Predictor:
    """A hit/miss 'predictor' that simulates the L2 to answer exactly.

    Duck-typed replacement for
    :class:`~repro.cache.predictor.HitMissPredictor`: ``predict`` runs the
    access against a private model of the shared L2 banks, so every answer
    matches what the simulator will observe for the same access stream.
    """

    #: ``predict`` runs the access against the private L2 model, so every
    #: call advances cache state — the answer depends on how many times the
    #: compiler asked before.  Memoization layers that would skip repeat
    #: location queries (the nest's split kernel) must stay off.
    pure_predict = False

    def __init__(self, machine: Machine):
        self.machine = machine
        self._l2 = CacheSystem(
            machine.node_count,
            machine.l1_config,
            machine.l2_config,
            machine.bank_to_node,
        )
        self.stats = PredictorStats()

    def predict(self, address: int) -> bool:
        mapping = self.machine.mapping
        block = mapping.l2.block_of(address)
        bank = mapping.l2.bank_of(address)
        hit = self._l2.l2_banks[bank].access(block)
        self.stats.correct += 1  # the oracle is always right
        return hit

    def train(self, address: int, was_hit: bool) -> None:
        """No-op: the oracle needs no training."""

    def predict_and_train(self, address: int, was_hit: bool) -> bool:
        return self.predict(address)

    def accuracy(self) -> float:
        return 1.0

    def reset(self) -> None:
        self._l2.clear()
        self.stats = PredictorStats()


def partition_with_ideal_analysis(
    machine: Machine,
    program: Program,
    config: Optional[PartitionConfig] = None,
) -> PartitionResult:
    """Partition with perfect data analysis (Figure 17's third bar).

    Oracle predictor + a generous L1-reuse model stand in for the paper's
    profile-everything run; the result upper-bounds what better compiler
    analysis could buy.  The oracle is seeded into the pipeline in place
    of the predictor the config would build.
    """
    base = config or PartitionConfig()
    window = replace(base.window, l1_model_blocks=max(base.window.l1_model_blocks, 512))
    ideal_config = replace(base, window=window, predictor=None)
    return compile_program(
        program,
        session_for(machine, ideal_config),
        initial={"predictor": OracleL2Predictor(machine)},
    )
