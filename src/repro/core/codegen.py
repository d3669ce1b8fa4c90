"""Code generation (paper Section 4.5, Figure 8).

Turns a schedule into per-node program listings: each node receives the
subcomputations assigned to it, with ``sync(...)`` waits ahead of any
combine that consumes cross-node results.  This is the shape of the code
the paper's source-to-source translator emits (Figure 8b's node i / node i1
/ node i2 listing).  The listing is text only; the schedule-replay oracle
(:mod:`repro.check.replay`) builds its own task form of the same sync
waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.scheduler import StatementSchedule
from repro.core.subcomputation import Subcomputation


@dataclass
class GeneratedCode:
    """Per-node generated pseudo-code."""

    lines_by_node: Dict[int, List[str]]

    def nodes(self) -> List[int]:
        """Mesh nodes that received at least one instruction, sorted."""
        return sorted(self.lines_by_node)

    def listing(self) -> str:
        """The full listing, grouped by node (Figure 8 style)."""
        chunks = []
        for node in self.nodes():
            chunks.append(f"Node {node}:")
            for line in self.lines_by_node[node]:
                chunks.append(f"  {line}")
        return "\n".join(chunks)

    def line_count(self) -> int:
        """Total emitted instructions across all nodes."""
        return sum(len(lines) for lines in self.lines_by_node.values())


def _render(sub: Subcomputation) -> List[str]:
    lines: List[str] = []
    waits = [r for r in sub.sub_results if r.from_node != sub.node]
    if waits:
        names = " and ".join(f"sync(T{r.producer_uid})" for r in waits)
        lines.append(names)
    if sub.source:
        # Unsplit statements carry their original text verbatim.
        lines.append(sub.source)
        return lines
    operands: List[str] = [str(g.access) for g in sub.gathered]
    operands += [f"T{r.producer_uid}" for r in sub.sub_results]
    ops = list(sub.op_breakdown)
    flat_ops: List[str] = []
    for op, count in ops:
        flat_ops.extend([op] * count)
    # Render as a left-to-right chain; pad with the set operator if the
    # breakdown is shorter (pure moves have no ops).
    rendered = operands[0] if operands else "0"
    default_op = sub.op if sub.op != "move" else "+"
    for i, operand in enumerate(operands[1:]):
        op = flat_ops[i] if i < len(flat_ops) else default_op
        rendered = f"{rendered} {op} {operand}"
    target = str(sub.store) if sub.store is not None else f"T{sub.uid}"
    lines.append(f"{target} = {rendered}")
    return lines


def generate_code(schedules: Iterable[StatementSchedule]) -> GeneratedCode:
    """Generate the per-node listing for a set of statement schedules."""
    lines_by_node: Dict[int, List[str]] = {}
    for schedule in schedules:
        for sub in schedule.subcomputations:
            lines_by_node.setdefault(sub.node, []).extend(_render(sub))
    return GeneratedCode(lines_by_node)


def generate_for_partition(partition) -> GeneratedCode:
    """Listing for a whole :class:`~repro.core.partitioner.PartitionResult`:
    every nest's statement schedules, in program order.
    """
    schedules = (
        statement_schedule
        for nest_schedule in partition.nest_schedules.values()
        for statement_schedule in nest_schedule.statement_schedules()
    )
    return generate_code(schedules)
