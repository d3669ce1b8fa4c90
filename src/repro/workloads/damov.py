"""Seeded synthetic workloads classified by compute-vs-movement intensity.

Modeled on the DAMOV methodology (Oliveira et al.): instead of mimicking
one named application, generate families of loop nests whose *bottleneck
class* is controlled — how many arithmetic operations the kernel performs
per operand it moves, and how analyzable its subscripts are:

* ``"compute"``   — long arithmetic chains over few, affine operands; the
  kernel is bound by issue width, and moving it buys little.
* ``"balanced"``  — medium chains with clustered indirect gathers, the
  regime where partitioning decisions are genuinely contested.
* ``"movement"``  — short statements dominated by permutation-indexed
  gathers; data movement is the bottleneck and placement dominates.

Every generated program is a pure function of ``(name, scale, seed)`` via
:func:`repro.utils.rng.derive_rng` — byte-identical statements and index
data on every call — which is what lets the benchmark's
``mesh16-degraded`` workload pin its movement and cycles.  The generator
deliberately does NOT register with ``repro.workloads.suite`` (the
paper's 12-app registry drives the fig*/table* experiments; perturbing
it would change their reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import WorkloadError
from repro.ir.loop import Loop
from repro.ir.program import Program
from repro.utils.rng import derive_rng
from repro.workloads.base import clustered_index, nest, permutation_index

#: The generator's bottleneck classes, in increasing movement intensity.
DAMOV_CLASSES: Tuple[str, ...] = ("compute", "balanced", "movement")

#: arithmetic-ops-per-access boundaries separating the classes
#: (:func:`classify_program` maps measured intensity back to a label).
_COMPUTE_MIN_INTENSITY = 1.5
_MOVEMENT_MAX_INTENSITY = 0.8


@dataclass(frozen=True)
class DamovWorkload:
    """One generated workload plus its declared and measured class."""

    name: str
    damov_class: str
    program: Program
    intensity: float  # arithmetic ops per operand access (static)


def arithmetic_intensity(program: Program) -> float:
    """Static arithmetic ops per *distinct* operand access across all nests.

    Repeated occurrences of the same reference within a statement stay in
    registers, so they count once — that is what lets a long chain over
    few operands read as compute-bound.  Intensity >= ~1.5 means the
    kernel re-uses operands across operations (compute-bound), <= ~0.8 it
    moves more data than it computes on (movement-bound).
    """
    ops = 0
    accesses = 0
    for loop_nest in program.nests:
        trip = loop_nest.trip_count
        for statement in loop_nest.body:
            ops += statement.operation_count() * trip
            distinct = {str(ref) for ref in statement.refs()}
            accesses += len(distinct) * trip
    return ops / accesses if accesses else 0.0


def classify_program(program: Program) -> str:
    """Map measured :func:`arithmetic_intensity` back to a class label."""
    intensity = arithmetic_intensity(program)
    if intensity >= _COMPUTE_MIN_INTENSITY:
        return "compute"
    if intensity <= _MOVEMENT_MAX_INTENSITY:
        return "movement"
    return "balanced"


def _compute_statements(arrays: List[str], terms: int) -> List[str]:
    """Power chains over few distinct operands (polynomial-style reuse)."""
    a, b, c = arrays[0], arrays[1], arrays[2]
    b_power = "*".join([f"{b}(2*i)"] * terms)
    c_power = "*".join([f"{c}(2*i)"] * terms)
    return [
        f"{a}(2*i) = {a}(2*i) + {b_power} + {c_power}",
        f"{b}(2*i) = {b}(2*i) + {a}(2*i)*{a}(2*i) + {c}(2*i)*{c}(2*i)",
    ]


def _balanced_statements(arrays: List[str], index: str) -> List[str]:
    a, b, c = arrays[0], arrays[1], arrays[2]
    return [
        f"{a}(2*i) = {a}(2*i) + {b}({index}(2*i))*{c}(2*i)*{c}(2*i)"
        f" + {b}({index}(2*i+1))*{c}(4*i)",
        f"{c}(2*i) = {c}(2*i) + {a}(2*i)*{a}(2*i)*{b}(4*i)",
    ]


def _movement_statements(arrays: List[str], index: str) -> List[str]:
    a, b, c = arrays[0], arrays[1], arrays[2]
    return [
        f"{a}(2*i) = {b}({index}(4*i)) + {b}({index}(4*i+1))",
        f"{c}(2*i) = {b}({index}(4*i+2)) + {a}(2*i)",
    ]


def damov_workload(
    damov_class: str, variant: int = 0, scale: int = 1, seed: int = 0
) -> DamovWorkload:
    """Generate one classified workload, deterministic in every argument.

    ``variant`` perturbs the randomized shape parameters (array sizes,
    bank phases, cluster widths) within the class so a sweep can hold the
    class fixed while varying the instance.
    """
    if damov_class not in DAMOV_CLASSES:
        raise WorkloadError(
            f"unknown DAMOV class {damov_class!r}; "
            f"known: {', '.join(DAMOV_CLASSES)}"
        )
    name = f"damov_{damov_class}{variant}"
    rng = derive_rng(seed, f"damov-{damov_class}-{variant}")
    p = Program(name)
    n = int(rng.integers(960, 1536)) * max(scale, 1)
    arrays = ["A", "B", "C"]
    for array in arrays:
        p.declare(
            array,
            2 * n + int(rng.integers(0, 32)),
            bank_phase=int(rng.integers(0, 12)),
        )
    loops = [Loop("t", 0, 2), Loop("i", 0, n)]
    if damov_class == "compute":
        terms = 4 + int(rng.integers(0, 3))
        statements = _compute_statements(arrays, terms)
    elif damov_class == "balanced":
        cluster = 4 + int(rng.integers(0, 5))
        clustered_index(
            p, "IX", 4 * n + 4, 2 * n, cluster, seed,
            f"damov-{damov_class}-{variant}-ix",
        )
        statements = _balanced_statements(arrays, "IX")
    else:
        permutation_index(
            p, "IX", 4 * n + 4, seed, f"damov-{damov_class}-{variant}-ix"
        )
        statements = _movement_statements(arrays, "IX")
    p.add_nest(nest("kernel", loops, statements))
    return DamovWorkload(
        name=name,
        damov_class=damov_class,
        program=p,
        intensity=arithmetic_intensity(p),
    )


def damov_suite(
    count: int = 6, scale: int = 1, seed: int = 0
) -> List[DamovWorkload]:
    """``count`` workloads cycling through the classes (deterministic).

    The cycle order follows :data:`DAMOV_CLASSES`, so any ``count >= 3``
    covers every bottleneck class at least once.
    """
    if count < 1:
        raise WorkloadError(f"damov_suite needs count >= 1, got {count}")
    suite = []
    for index in range(count):
        damov_class = DAMOV_CLASSES[index % len(DAMOV_CLASSES)]
        variant = index // len(DAMOV_CLASSES)
        suite.append(damov_workload(damov_class, variant, scale, seed))
    return suite
