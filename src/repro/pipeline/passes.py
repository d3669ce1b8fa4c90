"""The registered compiler passes (the paper's §4 flow, made explicit).

Every stage of the compile flow is a named :class:`Pass` in
:data:`PASS_REGISTRY`, and every compile runs all of them in registry
order, the one pass order.  Each pass is timed in its own span
and may be skipped (``repro.cli report --skip-pass balance``), except
``schedule``, which produces the partition.

=============  =============  ==========================  ==================
pass           paper section  what it does                module
=============  =============  ==========================  ==================
profile        §6.1           array access profiling      core.profiling
predict        §4.1           L2 hit/miss predictor       cache.predictor
inspect        §4.5           inspector for irregular     ir.inspector
split          §4.2           MST split planning          core.profiling
schedule       §4.3–4.4       gate + window scheduling    core.window
balance        §4.5 (inline)  load balancing (10% rule)   core.balancer
sync_minimize  §4.5 (inline)  sync minimization           core.syncgraph
=============  =============  ==========================  ==================

``predict`` builds the predictor ``PartitionConfig.predictor`` names: the
trace-trained two-bit predictor, the closed-form locality model
(:mod:`repro.core.locality`), or none.  ``balance`` and ``sync_minimize``
are *inline* passes: their work happens inside the window scheduler's hot
loop, so their ``run`` methods are no-ops and skipping them flips a flag
the scheduler consults (:meth:`CompilationSession.pass_enabled`).

Passes share one artifact dict: ``program`` (set by the manager, with any
caller-seeded entries such as a ``predictor``), ``predictor`` and
``predictor_accuracy`` (predict), ``fallback_nodes``/``profiles``/
``split_plan`` (split), and ``partition`` (schedule).  ``profile`` and
``inspect`` write no artifact: they record the profile on the machine and
resolve irregular nests in place.  A skipped pass leaves its keys unset,
and its consumers fall back.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from repro import check
from repro.cache.predictor import HitMissPredictor
from repro.check import invariants
from repro.core.locator import DataLocator
from repro.core.partitioner import (
    PREDICTOR_TRAINING_INSTANCES,
    PROFILE_INSTANCES,
    PartitionResult,
    profile_access_counts,
    train_predictor,
)
from repro.core.profiling import build_split_plan, profile_statements
from repro.core.window import (
    SPLIT_BIAS,
    SearchOutcome,
    WindowScheduler,
    WindowSizeSearch,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.ir.dependence import may_depend
from repro.ir.inspector import InspectorExecutor
from repro.ir.program import Program


@dataclass(frozen=True)
class PassInfo:
    """Registry metadata of one pass (what ``--list-passes`` shows)."""

    name: str
    paper_section: str
    module: str
    #: Inline passes run inside the schedule pass's hot loop; skipping
    #: them flips a scheduler flag instead of dropping a ``run`` call.
    inline: bool = False


class Pass:
    """Protocol of a registered pass: ``info`` metadata plus ``run``."""

    info: PassInfo

    def run(self, session, artifacts: Dict) -> None:
        raise NotImplementedError


PASS_REGISTRY: Dict[str, Pass] = {}


def register_pass(cls):
    """Class decorator: instantiate and register a pass by its name."""
    instance = cls()
    PASS_REGISTRY[instance.info.name] = instance
    return cls


def skip_set(names: Iterable[str]) -> FrozenSet[str]:
    """``names`` as a set of passes to skip, validated.

    Raises :class:`~repro.errors.ConfigurationError` for a name that is
    not a registered pass, and for ``schedule``: its partition is the
    compile's output.
    """
    skip = frozenset(names)
    unknown = sorted(skip - set(PASS_REGISTRY))
    if unknown:
        raise ConfigurationError(
            f"unknown pass name(s) in skip_passes: {', '.join(unknown)}; "
            f"registered passes: {', '.join(sorted(PASS_REGISTRY))}"
        )
    if "schedule" in skip:
        raise ConfigurationError(
            "pass 'schedule' cannot be skipped: it produces the partition"
        )
    return skip


@register_pass
class ProfilePass(Pass):
    """§6.1's profiling step: declare arrays, record access counts."""

    info = PassInfo("profile", "§6.1", "repro.core.profiling")

    def run(self, session, artifacts: Dict) -> None:
        program: Program = artifacts["program"]
        program.declare_in(session)
        with session.tracer.span("compile.profile_arrays"):
            session.machine.record_profile(profile_access_counts(program))


@register_pass
class PredictPass(Pass):
    """§4.1's miss prediction: the predictor ``config.predictor`` names.

    ``"trace"`` trains the two-bit predictor on a default-execution trace
    and records its accuracy; ``"analytic"`` builds the closed-form
    :class:`repro.core.locality.AnalyticMissPredictor` (DESIGN.md §12),
    which is not trained, so its accuracy is ``None``; ``None`` builds no
    predictor, so every datum is located at its home bank.  A
    ``predictor`` seeded through ``compile_program(..., initial=...)``
    (the ideal-analysis oracle) is used and trained whatever the config
    says.

    In check mode the analytic model is also compared against a trained
    trace predictor over the training address stream
    (:func:`repro.check.invariants.check_predictor_agreement`).
    """

    info = PassInfo("predict", "§4.1", "repro.cache.predictor")

    def run(self, session, artifacts: Dict) -> None:
        program: Program = artifacts["program"]
        if "predictor" not in artifacts:
            kind = session.config.predictor
            if kind == "analytic":
                artifacts["predictor"] = self._analytic(session, program)
                artifacts["predictor_accuracy"] = None
                return
            artifacts["predictor"] = HitMissPredictor() if kind else None
        predictor = artifacts["predictor"]
        accuracy = None
        if predictor is not None:
            tracer = session.tracer
            with tracer.span("compile.train_predictor") as train_span:
                accuracy = train_predictor(session.machine, program, predictor)
                train_span.add(accuracy=round(accuracy, 6))
        artifacts["predictor_accuracy"] = accuracy

    @staticmethod
    def _analytic(session, program: Program):
        """The closed-form model (plus its differential oracle when checking)."""
        from repro.core.locality import AnalyticMissPredictor

        machine = session.machine
        with session.tracer.span("compile.analytic_predict") as span:
            predictor = AnalyticMissPredictor(machine, program)
            model = predictor.model
            span.add(
                regions=len(model.region_verdicts),
                hit_region_fraction=round(model.hit_region_fraction, 6),
                modeled_hit_fraction=round(model.modeled_hit_fraction(), 6),
                skipped_nests=len(model.skipped_nests),
            )
        if check.enabled():
            trace = HitMissPredictor()
            train_predictor(machine, program, trace)
            addresses = []
            layout = machine.layout
            for seen, instance in enumerate(program.instances()):
                if seen >= PREDICTOR_TRAINING_INSTANCES or len(addresses) >= 2000:
                    break
                for access in instance.accesses():
                    addresses.append(layout.pa_of(access.array, access.index))
            invariants.check_predictor_agreement(predictor, trace, addresses)
        return predictor


@register_pass
class InspectPass(Pass):
    """§4.5's inspector: resolve indirect accesses of irregular nests."""

    info = PassInfo("inspect", "§4.5", "repro.ir.inspector")

    def run(self, session, artifacts: Dict) -> None:
        program: Program = artifacts["program"]
        if may_depend(program):
            with session.tracer.span("compile.inspect"):
                InspectorExecutor(program).inspect_all()


@register_pass
class SplitPass(Pass):
    """§4.2's MST split planning: profile statements, decide who splits."""

    info = PassInfo("split", "§4.2", "repro.core.profiling")

    def run(self, session, artifacts: Dict) -> None:
        program: Program = artifacts["program"]
        machine = session.machine
        config = session.config
        predictor = artifacts.get("predictor")
        tracer = session.tracer
        # The default placement's iteration->node assignment: unsplit
        # statements run exactly where the default would run them, so "do
        # not split" always degenerates to the baseline (the paper's scheme
        # optimizes *on top of* the locality-optimized default, Section 6.1).
        from repro.baselines.default_placement import DefaultPlacement

        fallback_nodes = DefaultPlacement(machine).assignment(program)
        if config.split_plan_override is None:
            with tracer.span("compile.split_plan"):
                locator_for_profiling = DataLocator(machine, predictor)
                profiles = profile_statements(
                    machine,
                    program,
                    locator_for_profiling,
                    fallback_nodes,
                    sample_per_nest=PROFILE_INSTANCES,
                    session=session,
                )
                split_plan = build_split_plan(profiles, SPLIT_BIAS)
                if tracer.enabled:
                    for key in sorted(profiles):
                        profile = profiles[key]
                        tracer.point(
                            "compile.statement_profile",
                            nest=key[0],
                            body_index=key[1],
                            instances=profile.instances,
                            star_movement=round(profile.star_movement, 6),
                            mst_weight=round(profile.mst_weight, 6),
                            serial_chain=profile.serial_chain,
                            split=split_plan[key],
                        )
        else:
            profiles = {}
            split_plan = dict(config.split_plan_override)
        artifacts["fallback_nodes"] = fallback_nodes
        artifacts["profiles"] = profiles
        artifacts["split_plan"] = split_plan


#: Movement regression tolerated by the empirical gate: a split plan must
#: deliver better time AND at most this factor of the all-star plan's data
#: movement (the paper's first-class metric is movement; a plan that wins
#: time by flooding the network is not the paper's optimization).
GATE_MOVEMENT_TOLERANCE = 1.05


@register_pass
class SchedulePass(Pass):
    """§4.3–4.4: the per-nest empirical gate, window search, scheduling."""

    info = PassInfo("schedule", "§4.3–4.4", "repro.core.window")

    def run(self, session, artifacts: Dict) -> None:
        program: Program = artifacts["program"]
        machine = session.machine
        config = session.config
        tracer = session.tracer
        predictor = artifacts.get("predictor")
        locator = DataLocator(machine, predictor)
        # Graceful degradation when upstream passes were skipped: no
        # fallback assignment (run the default placement now — schedule
        # cannot work without it) and an empty split plan (all-star).
        if "fallback_nodes" in artifacts:
            fallback_nodes = artifacts["fallback_nodes"]
        else:
            from repro.baselines.default_placement import DefaultPlacement

            fallback_nodes = DefaultPlacement(machine).assignment(program)
        split_plan = artifacts.get("split_plan", {})
        profiles = artifacts.get("profiles", {})

        nest_schedules: Dict = {}
        window_sizes: Dict[str, int] = {}
        movement_by_size: Dict[str, Dict[int, int]] = {}
        variant_by_nest: Dict[str, str] = {}
        chosen_plan: Dict = {}
        uid_counter = itertools.count()
        for nest in program.nests:
            if nest.name in nest_schedules:
                raise SchedulingError(f"duplicate nest name {nest.name!r}")
            nest_span = tracer.span(
                "compile.nest", nest=nest.name, statements=nest.body_size
            )
            # Vectorized fast path and the one split memo
            # (repro.core.vectorized): per-nest location tables + split
            # templates, shared by every candidate plan's scheduling and
            # size search — a statement's empty-map split depends only on
            # its operands, so its MST work is done once per signature
            # instead of once per plan.  ensure() replays the whole nest's
            # page translations in canonical first-touch order up front —
            # the same frames the lazy scalar touches would assign.
            from repro.core.vectorized import templates_for

            templates = templates_for(
                session, program, nest, locator, config.window.flatten_products
            )
            if templates is not None:
                templates.tables.ensure(nest.instance_count)
            schedule_plan = functools.partial(
                self._schedule_plan, session, program, nest, locator,
                fallback_nodes, uid_counter, templates,
            )
            if config.split_plan_override is not None:
                keys = [(nest.name, b) for b in range(nest.body_size)]
                plan = {k: bool(split_plan.get(k, False)) for k in keys}
                variant = "override"
                outcome = schedule_plan(plan)
            else:
                plan, variant, outcome = self._choose_nest_plan(
                    session, nest, split_plan, profiles, predictor, schedule_plan
                )
            chosen_plan.update(plan)
            variant_by_nest[nest.name] = variant
            final = outcome.best_schedule
            nest_schedules[nest.name] = final
            window_sizes[nest.name] = outcome.best_size
            movement_by_size[nest.name] = outcome.movement_by_size
            nest_span.add(
                variant=variant,
                window_size=outcome.best_size,
                movement=final.movement,
                syncs=final.sync_count,
                syncs_unminimized=final.sync_count_unminimized,
            )
            nest_span.end()
        result = PartitionResult(
            program_name=program.name,
            nest_schedules=nest_schedules,
            window_sizes=window_sizes,
            movement_by_size=movement_by_size,
            predictor_accuracy=artifacts.get("predictor_accuracy"),
            variant_by_nest=variant_by_nest,
            split_plan=chosen_plan,
        )
        if check.enabled():
            # Check mode: the finished compile must account consistently
            # (aggregates re-sum from their decompositions), its schedule
            # must be a well-formed dependence DAG, and on a degraded
            # machine nothing may be placed on a tile the plan ever kills.
            invariants.check_partition_accounting(result)
            units = result.units()
            invariants.check_units_wellformed(units)
            invariants.check_unit_nodes_alive(units, machine.dead_nodes)
        artifacts["partition"] = result

    @staticmethod
    def _schedule_plan(
        session,
        program: Program,
        nest,
        locator: DataLocator,
        fallback_nodes: Dict[int, int],
        uid_counter,
        templates,
        plan: Dict,
    ) -> SearchOutcome:
        """Schedule the whole nest under one split plan.

        A plan that splits something gets §4.4's window-size search when
        the window is adaptive; any other plan runs at size 1, or at the
        configured fixed size.  Every plan draws its uids from the
        compilation's one counter, so uids stay unique across nests and
        candidate plans; consumers (the simulator's heap and last-writer
        scan, sync graphs) depend only on their relative order.
        """
        config = session.config
        shared = dict(
            uid_counter=uid_counter,
            fallback_nodes=fallback_nodes,
            split_plan=plan,
            session=session,
            templates=templates,
        )
        if config.adaptive_window and any(plan.values()):
            return WindowSizeSearch(
                session.machine, locator, config.window, **shared
            ).search(program, nest)
        size = 1 if config.adaptive_window else config.fixed_window_size
        schedule = WindowScheduler(
            session.machine, locator, config.window, **shared
        ).schedule_nest(program, nest, size)
        return SearchOutcome(nest.name, size, schedule, {size: schedule.movement})

    def _choose_nest_plan(
        self,
        session,
        nest,
        profile_plan: Dict,
        profiles: Dict,
        predictor,
        schedule_plan,
    ) -> Tuple[Dict, str, SearchOutcome]:
        """Pick the nest's split plan empirically (the gate).

        Candidate plans — all-star (identical to the default execution), the
        profile-derived per-statement plan, and all-split (every statement
        except serial-chain reductions) — are each scheduled over the whole
        nest by ``schedule_plan`` and *simulated*.  A splitting plan is
        accepted only when it improves execution time AND does not regress
        data movement beyond :data:`GATE_MOVEMENT_TOLERANCE`; among accepted
        plans the fastest wins, and the schedule it was measured with is
        the one that ships.  The all-star plan is always a candidate, so a
        partitioned build never regresses a nest below the baseline.
        """
        keys = [(nest.name, b) for b in range(nest.body_size)]
        star = {key: False for key in keys}
        from_profile = {key: bool(profile_plan.get(key, False)) for key in keys}
        all_split = {
            key: not (key in profiles and profiles[key].serial_chain)
            for key in keys
        }
        tracer = session.tracer
        if session.config.window.always_split:
            tracer.point("gate.skip", nest=nest.name, reason="always_split")
            return all_split, "split", schedule_plan(all_split)
        candidates = []
        if any(from_profile.values()):
            candidates.append(("profile", from_profile))
        if any(all_split.values()) and all_split != from_profile:
            candidates.append(("split", all_split))
        if not candidates:
            tracer.point(
                "gate.skip", nest=nest.name, reason="no_candidates", variant="star"
            )
            return star, "star", schedule_plan(star)

        machine = session.machine
        best = schedule_plan(star)
        best_cycles, star_movement = self._simulate(machine, best.best_schedule)
        tracer.point(
            "gate.candidate",
            nest=nest.name,
            variant="star",
            cycles=best_cycles,
            movement=star_movement,
        )
        best_plan = star
        best_variant = "star"
        for variant, plan in candidates:
            outcome = schedule_plan(plan)
            cycles, movement = self._simulate(machine, outcome.best_schedule)
            accepted = (
                cycles < best_cycles
                and movement <= GATE_MOVEMENT_TOLERANCE * max(star_movement, 1)
            )
            tracer.point(
                "gate.candidate",
                nest=nest.name,
                variant=variant,
                cycles=cycles,
                movement=movement,
                accepted=accepted,
            )
            if accepted:
                best_cycles = cycles
                best_plan = plan
                best_variant = variant
                best = outcome
        tracer.point(
            "gate.verdict", nest=nest.name, variant=best_variant, cycles=best_cycles
        )
        if getattr(predictor, "pure_predict", True):
            return best_plan, best_variant, best
        # A stateful predictor (the ideal-analysis oracle) answers from its
        # query history, which the later candidates' scheduling has
        # advanced: its winner is scheduled once more, against the full
        # history.  The measured schedules are dropped first, so the new
        # one is the only nest schedule alive while it is built.
        best = outcome = None
        return best_plan, best_variant, schedule_plan(best_plan)

    @staticmethod
    def _simulate(machine, schedule) -> Tuple[int, int]:
        """(cycles, movement) of one nest schedule on the event simulator."""
        from repro.sim.engine import SimConfig, Simulator

        units = [
            sub
            for statement_schedule in schedule.statement_schedules()
            for sub in statement_schedule.subcomputations
        ]
        metrics = Simulator(machine, SimConfig()).run(units)
        return metrics.total_cycles, metrics.data_movement


@register_pass
class BalancePass(Pass):
    """§4.5's load balancing — inline in the scheduler's placement loop.

    Skipping this pass makes the scheduler take the minimum-movement
    candidate unconditionally (no 10% veto): the scheduler constructs its
    :class:`repro.core.balancer.LoadBalancer` with ``enabled=False``.
    """

    info = PassInfo("balance", "§4.5", "repro.core.balancer", inline=True)

    def run(self, session, artifacts: Dict) -> None:
        """No-op: the work happens inside the schedule pass's hot loop."""


@register_pass
class SyncMinimizePass(Pass):
    """§4.5's synchronization minimization — inline per window.

    Skipping this pass leaves every window's sync graph unminimized
    (``sync_count == sync_count_unminimized``).  Each window's
    ``minimize()`` runs in a ``pass.sync_minimize`` span, so its wall
    time is charged to this pass.
    """

    info = PassInfo("sync_minimize", "§4.5", "repro.core.syncgraph", inline=True)

    def run(self, session, artifacts: Dict) -> None:
        """No-op: the work happens per window in the schedule pass."""


#: The registry's names as a tuple: the one pass order, the paper's
#: sequence with the inline passes listed where the paper puts their work
#: (after windowing).  Code walks :data:`PASS_REGISTRY` itself; this is a
#: re-export for callers that want the order without the pass objects.
DEFAULT_PASS_ORDER: Tuple[str, ...] = tuple(PASS_REGISTRY)
