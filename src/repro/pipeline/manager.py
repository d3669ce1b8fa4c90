"""The :class:`PassManager`: runs the registered passes over a program.

The manager owns the outer ``compile`` trace span, walks the session's
pass order, runs every executed pass in a ``pass.<name>`` span, emits one
deterministic ``pipeline.pass`` trace point per pass, and honors the skip
set.  With the default order and no skips the artifact flow is
bit-identical to the historical ``NdpPartitioner.partition`` monolith.

Timing semantics: the tracer's ``pass.`` span totals
(``tracer.seconds("pass.")``) are report.json's ``pipeline.pass_seconds``.
``schedule``'s seconds are the wall time of the whole scheduling pass,
*including* the inline ``balance``/``sync_minimize`` work done in its hot
loop; ``sync_minimize`` additionally reports its own slice (each window's
minimize runs in a ``pass.sync_minimize`` span that only a debug trace
writes out), so the inline cost is visible without perturbing the totals.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ir.program import Program
from repro.pipeline.passes import PASS_REGISTRY, Artifacts, resolve_order


class PassManager:
    """Runs a session's pass pipeline over one program."""

    def __init__(self, session, order: Optional[Tuple[str, ...]] = None):
        self.session = session
        self.order = resolve_order(
            order if order is not None else session.pass_order
        )

    def run(self, program: Program, initial: Optional[dict] = None) -> Artifacts:
        """Execute the pipeline; returns the artifact dict.

        The session's cross-pass caches are cleared first (one compile =
        one cache scope), and the fault plan is applied if it has not been
        yet, so a bare hand-built session still compiles correctly.
        ``initial`` seeds extra artifacts before the first pass — the
        :class:`~repro.core.partitioner.NdpPartitioner` facade uses it to
        inject a caller-replaced predictor (the ideal-analysis oracle).
        """
        session = self.session
        session.caches.clear()
        session.apply_faults()
        tracer = session.tracer
        compile_span = tracer.span(
            "compile", program=program.name, nests=len(program.nests)
        )
        artifacts = Artifacts(program=program)
        if initial:
            artifacts.update(initial)
        for index, name in enumerate(self.order):
            enabled = session.pass_enabled(name)
            tracer.point(
                "pipeline.pass", pass_name=name, index=index, skipped=not enabled
            )
            if not enabled:
                continue
            with tracer.span(f"pass.{name}"):
                PASS_REGISTRY[name].run(session, artifacts)
        partition = artifacts.get("partition")
        if partition is not None:
            compile_span.add(
                movement=partition.movement, statements=partition.statement_count
            )
        compile_span.end()
        return artifacts
