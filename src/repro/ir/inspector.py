"""Inspector–executor support for may-dependences (paper Section 4.5).

Irregular applications access arrays through index arrays (``X(Y(i))``)
whose contents are unknown at compile time.  The paper inserts an
*inspector* over the first iterations of the outer timing loop: it runs the
access pattern once, recording the concrete elements each instance touches;
the *executor* (the remaining timing iterations, where subcomputation
scheduling is actually applied) consumes that information.

Our workloads hand the Program its index-array contents up front (they play
the role of runtime values), so the inspector's job is to (1) verify data is
available, (2) materialize the concrete access sets, and (3) expose the
may-dependence edges those accesses induce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import WorkloadError
from repro.ir.dependence import Dependence, instance_dependences
from repro.ir.expr import IndirectIndex
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.statement import StatementInstance


@dataclass
class InspectionResult:
    """What the inspector learned about one nest."""

    nest_name: str
    instances_inspected: int
    indirect_reference_count: int
    touched_elements: Dict[str, Set[int]] = field(default_factory=dict)
    dependences: List[Dependence] = field(default_factory=list)

    @property
    def has_may_dependences(self) -> bool:
        return self.indirect_reference_count > 0


class InspectorExecutor:
    """Runs the inspection phase for a program's irregular nests."""

    def __init__(self, program: Program, inspect_iterations: int = 4):
        self.program = program
        self.inspect_iterations = inspect_iterations
        self._results: Dict[str, InspectionResult] = {}

    def needs_inspection(self, nest: LoopNest) -> bool:
        """True when the nest contains indirect references."""
        return any(not s.is_analyzable for s in nest.body)

    def index_arrays_of(self, nest: LoopNest) -> Set[str]:
        """Names of index arrays the nest reads through."""
        found: Set[str] = set()
        for statement in nest.body:
            for ref in statement.refs():
                for index in ref.indices:
                    if isinstance(index, IndirectIndex):
                        found.add(index.array)
        return found

    def inspect(self, nest: LoopNest) -> InspectionResult:
        """Run the inspector over the leading iterations of ``nest``.

        Raises :class:`~repro.errors.WorkloadError` when an index array has
        no runtime data — the situation the inspector exists to prevent.
        """
        for index_array in self.index_arrays_of(nest):
            if index_array not in self.program.index_data:
                raise WorkloadError(
                    f"inspector: index array {index_array!r} has no runtime data"
                )
        budget = self.inspect_iterations * nest.body_size
        inspected: List[StatementInstance] = []
        indirect_refs = 0
        touched: Dict[str, Set[int]] = {}
        for inst in self.program.nest_instances(nest):
            if len(inspected) >= budget:
                break
            inspected.append(inst)
            for ref in (inst.statement.lhs, *inst.statement.input_refs()):
                if not ref.is_analyzable:
                    indirect_refs += 1
            for access in inst.accesses():
                touched.setdefault(access.array, set()).add(access.index)
        result = InspectionResult(
            nest_name=nest.name,
            instances_inspected=len(inspected),
            indirect_reference_count=indirect_refs,
            touched_elements=touched,
            dependences=instance_dependences(inspected),
        )
        self._results[nest.name] = result
        return result

    def inspect_all(self) -> Dict[str, InspectionResult]:
        """Inspect every nest that needs it; returns results per nest name."""
        for nest in self.program.nests:
            if self.needs_inspection(nest):
                self.inspect(nest)
        return dict(self._results)
