"""What one compile is configured with and what it produces.

:class:`PartitionConfig` holds the knobs of a partitioning run and
:class:`PartitionResult` the compile-time statistics the paper reports:
per-statement data movement (Fig 13), degree of subcomputation
parallelism (Fig 14), synchronizations per statement (Fig 15), and the
operator mix of the re-mapped computations (Table 3).  The profiling and
predictor-training steps the passes call live here too.

Algorithm 1 itself runs as the fixed pass sequence of
:mod:`repro.pipeline` — profile, predict, inspect, split, schedule —
entered through ``compile_program(program, session_for(machine, config))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.machine import Machine
from repro.cache.hierarchy import CacheSystem
from repro.cache.predictor import HitMissPredictor
from repro.core.window import NestSchedule, WindowConfig
from repro.errors import ConfigurationError
from repro.ir.program import Program
from repro.utils.stats import mean


#: Leading statement instances the profiling steps read: the array access
#: counts, and per nest the statement profiles behind the split plan.
PROFILE_INSTANCES = 4000

#: Leading statement instances of the default execution trace that train
#: the L2 hit/miss predictor.
PREDICTOR_TRAINING_INSTANCES = 4000

#: The L2 miss predictors the ``predict`` pass can build: the two-bit
#: predictor trained on a default-execution trace (§4.1), or the
#: closed-form locality model of :mod:`repro.core.locality`.
PREDICTORS = ("trace", "analytic")


@dataclass(frozen=True)
class PartitionConfig:
    """Configuration of a partitioning run."""

    window: WindowConfig = WindowConfig()
    adaptive_window: bool = True
    fixed_window_size: int = 1
    #: One of :data:`PREDICTORS`, or ``None`` to locate every datum at its
    #: home bank (no miss prediction).
    predictor: Optional[str] = "trace"
    #: Skip profiling and the gate, using exactly this statement->split
    #: mapping (window-size sweeps reuse the adaptive run's plan).
    split_plan_override: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.predictor is not None and self.predictor not in PREDICTORS:
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}; choose "
                f"{', '.join(map(repr, PREDICTORS))} or None"
            )


@dataclass
class PartitionResult:
    """Everything the compiler produced for one program."""

    program_name: str
    nest_schedules: Dict[str, NestSchedule]
    window_sizes: Dict[str, int]
    movement_by_size: Dict[str, Dict[int, int]]
    predictor_accuracy: Optional[float] = None
    #: Which plan won each nest's empirical gate: star / profile / split.
    variant_by_nest: Dict[str, str] = field(default_factory=dict)
    #: The chosen (nest, body_index) -> split? decisions, reusable via
    #: PartitionConfig.split_plan_override.
    split_plan: Dict = field(default_factory=dict)

    @property
    def movement(self) -> int:
        """Total predicted data movement (links traversed) of the schedule."""
        return sum(s.movement for s in self.nest_schedules.values())

    def units(self):
        """All scheduled subcomputations, simulator-ready, in program order."""
        out = []
        for schedule in self.nest_schedules.values():
            for statement_schedule in schedule.statement_schedules():
                out.extend(statement_schedule.subcomputations)
        return out

    @property
    def statement_count(self) -> int:
        """Number of scheduled statement instances across all nests."""
        return sum(s.statement_count for s in self.nest_schedules.values())

    def per_statement_movement(self) -> List[int]:
        """Each statement instance's movement, in program order."""
        out: List[int] = []
        for schedule in self.nest_schedules.values():
            out.extend(schedule.per_statement_movement())
        return out

    def parallel_degrees(self) -> List[int]:
        """Per-statement count of distinct execution nodes (Fig 14)."""
        out: List[int] = []
        for schedule in self.nest_schedules.values():
            out.extend(schedule.parallel_degrees())
        return out

    def average_parallelism(self) -> float:
        """Mean parallel degree over all statement instances."""
        return mean(self.parallel_degrees())

    def max_parallelism(self) -> int:
        """Largest parallel degree of any statement instance."""
        degrees = self.parallel_degrees()
        return max(degrees) if degrees else 0

    def syncs_per_statement(self) -> float:
        """Average minimized synchronizations per statement (Fig 15)."""
        statements = self.statement_count
        if not statements:
            return 0.0
        total = sum(s.sync_count for s in self.nest_schedules.values())
        return total / statements

    def syncs_per_statement_unminimized(self) -> float:
        """Average pre-minimization synchronizations per statement."""
        statements = self.statement_count
        if not statements:
            return 0.0
        total = sum(
            s.sync_count_unminimized for s in self.nest_schedules.values()
        )
        return total / statements

    def remapped_op_fractions(self) -> Dict[str, float]:
        """Fraction of re-mapped ops by type: add/sub, mul/div, others.

        Table 3's categories.  Our IR has the four arithmetic operators;
        'others' counts the pure-move forwards the scheduler emits.
        """
        counts: Dict[str, int] = {}
        for schedule in self.nest_schedules.values():
            for op, count in schedule.remapped_op_breakdown().items():
                counts[op] = counts.get(op, 0) + count
        addsub = counts.get("+", 0) + counts.get("-", 0)
        muldiv = counts.get("*", 0) + counts.get("/", 0)
        others = sum(counts.values()) - addsub - muldiv
        total = max(addsub + muldiv + others, 1)
        return {
            "add/sub": addsub / total,
            "mul/div": muldiv / total,
            "others": others / total,
        }

    def modeled_l1_hits(self) -> int:
        """Compile-time estimate of L1 reuse hits across all nests."""
        return sum(s.l1_hits_modeled for s in self.nest_schedules.values())


def profile_access_counts(
    program: Program, max_instances: int = PROFILE_INSTANCES
) -> Dict[str, float]:
    """Per-array dynamic access counts (the profiling step of Section 6.1)."""
    counts: Dict[str, float] = {}
    seen = 0
    for instance in program.instances():
        for access in instance.accesses():
            counts[access.array] = counts.get(access.array, 0.0) + 1.0
        seen += 1
        if seen >= max_instances:
            break
    return counts


def train_predictor(
    machine: Machine,
    program: Program,
    predictor: HitMissPredictor,
    max_instances: int = PREDICTOR_TRAINING_INSTANCES,
) -> float:
    """Train the L2 predictor on a default-execution trace; returns accuracy.

    Simulates only the shared L2 banks (the predictor predicts L2 outcomes;
    L1 behaviour is irrelevant to it) over the program's access stream in
    default execution order.
    """
    program.declare_on(machine)
    caches = CacheSystem(
        machine.node_count,
        machine.l1_config,
        machine.l2_config,
        machine.bank_to_node,
    )
    seen = 0
    for instance in program.instances():
        for access in instance.accesses():
            address = machine.layout.pa_of(access.array, access.index)
            block = machine.layout.block_of(access.array, access.index)
            bank = machine.layout.l2_bank_of(access.array, access.index)
            was_hit = caches.l2_banks[bank].access(block)
            predictor.predict_and_train(address, was_hit)
        seen += 1
        if seen >= max_instances:
            break
    return predictor.accuracy()
