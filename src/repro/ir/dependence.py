"""Data dependence analysis over statement instances.

The scheduler needs flow / anti / output dependences between nearby
statement instances to insert synchronizations (Section 4.5) and to keep
parallel subcomputations correct.  Because windows operate on concrete
instances, we analyze dependences *exactly* at instance granularity with a
single forward scan (last-writer / readers-since-write maps) instead of a
symbolic subscript test — this is the instance-level equivalent of
Maydan-style exact analysis for the affine references, and it consumes
inspector output for the indirect ones.

Static may-dependence detection (:func:`may_depend`) is what triggers the
inspector–executor path for irregular nests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ir.program import Program
from repro.ir.statement import Access, StatementInstance


class DependenceKind(enum.Enum):
    FLOW = "flow"      # read-after-write
    ANTI = "anti"      # write-after-read
    OUTPUT = "output"  # write-after-write

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Dependence:
    """A dependence from instance ``src_seq`` to later instance ``dst_seq``."""

    src_seq: int
    dst_seq: int
    kind: DependenceKind
    access: Access

    def __str__(self) -> str:
        return f"{self.kind} {self.access} : {self.src_seq} -> {self.dst_seq}"


def instance_dependences(
    instances: Sequence[StatementInstance],
) -> List[Dependence]:
    """All pairwise dependences among ``instances`` (in execution order).

    One forward scan; self-dependences within an instance (e.g.
    ``X(i) = X(i) + ...``) are reported as a FLOW edge from the instance to
    itself only when the same element is both read and written — callers use
    this to serialize reductions.
    """
    deps: List[Dependence] = []
    last_writer: Dict[Tuple[str, int], int] = {}
    readers_since_write: Dict[Tuple[str, int], List[int]] = {}

    for inst in instances:
        for read in inst.reads:
            key = read.key()
            writer = last_writer.get(key)
            if writer is not None:
                deps.append(Dependence(writer, inst.seq, DependenceKind.FLOW, read))
            readers_since_write.setdefault(key, []).append(inst.seq)
        wkey = inst.write.key()
        for reader in readers_since_write.get(wkey, ()):  # includes self-read
            if reader != inst.seq:
                deps.append(
                    Dependence(reader, inst.seq, DependenceKind.ANTI, inst.write)
                )
        writer = last_writer.get(wkey)
        if writer is not None:
            deps.append(
                Dependence(writer, inst.seq, DependenceKind.OUTPUT, inst.write)
            )
        last_writer[wkey] = inst.seq
        readers_since_write[wkey] = []
    return deps


def may_depend(program: Program) -> bool:
    """True when any nest contains an indirect reference (a may-dependence).

    Exact subscript values are then unknown at compile time; the paper
    handles this with the inspector-executor paradigm (Section 4.5).
    """
    for nest in program.nests:
        for statement in nest.body:
            if not statement.is_analyzable:
                return True
    return False


def analyzable_fraction(program: Program, max_instances: int = 20000) -> float:
    """Fraction of dynamic data references that are statically analyzable.

    This is the quantity of the paper's Table 1.  Weighted by dynamic
    execution: each instance contributes one reference per LHS/RHS ref, and
    a reference is analyzable when all its subscripts are affine in the loop
    variables.  Sampling caps the scan at ``max_instances`` instances, which
    is exact for our workloads (statement mix is iteration-invariant).
    """
    analyzable = 0
    total = 0
    count = 0
    for nest in program.nests:
        for inst in program.nest_instances(nest):
            refs = [inst.statement.lhs, *inst.statement.input_refs()]
            for ref in refs:
                total += 1
                if ref.is_analyzable:
                    analyzable += 1
            count += 1
            if count >= max_instances:
                break
        if count >= max_instances:
            break
    return analyzable / total if total else 1.0
