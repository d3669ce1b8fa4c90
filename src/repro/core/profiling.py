"""Profile-guided split planning.

The paper's toolchain is profile-driven end to end: the default placement
assigns iteration chunks "to the most beneficial core using profile data"
(Section 6.1), and data mapping (Section 6.5) is profile-based too.  In the
same spirit, the partitioner decides *statically, per program statement*
whether splitting pays:

1. simulate the default execution of a sample of each nest through real L1
   caches and L2 banks, measuring each static statement's true average data
   movement (operand fetches that miss L1 travel home->core; L2 misses add
   the MC leg; the store travels as well);
2. measure the same statements' average MST weight (the movement a split
   schedule would incur — accurate because split gathers happen *at* the
   data's home banks);
3. split a statement only when its MST saves at least ``SPLIT_BIAS`` links
   per instance over the measured default.

A static decision is stable: per-instance greedy flip-flopping (split some
instances of a statement but not others) perturbs the caches it is judging
against and converges badly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.machine import Machine
from repro.cache.hierarchy import CacheSystem
from repro.core.locator import DataLocator
from repro.core.splitter import split_statement
from repro.ir.program import Program

StatementKey = Tuple[str, int]

#: Split only when the MST saves at least this many links per instance
#: over the measured default execution: each cross-node result message
#: costs a synchronization and serializes dependence chains, so marginal
#: splits are not worth taking.
SPLIT_BIAS = 3.0


@dataclass
class StatementProfile:
    """Measured per-instance averages for one static statement."""

    key: StatementKey
    instances: int
    star_movement: float   # simulated default movement per instance
    mst_weight: float      # split-schedule movement per instance
    serial_chain: bool = False  # consecutive instances write the same element

    def should_split(self, bias: float) -> bool:
        """True when the profile predicts splitting beats the default here."""
        if self.serial_chain:
            # A reduction whose LHS repeats across consecutive instances is
            # a serial dependence chain: every split link inserts a
            # cross-node wait that cannot be hidden by running other
            # iterations (there are none independent), so splitting it is a
            # latency disaster regardless of the movement arithmetic.
            return False
        return self.mst_weight + bias <= self.star_movement


def profile_statements(
    machine: Machine,
    program: Program,
    locator: DataLocator,
    fallback_nodes: Optional[Dict[int, int]] = None,
    sample_per_nest: int = 4096,
    session=None,
) -> Dict[StatementKey, StatementProfile]:
    """Measure star vs MST movement for every static statement.

    The cache simulation mirrors the execution engine's access flow but
    only tracks movement, so it is cheap enough to run over a large sample.
    When a ``session`` is given, the MST side splits with the session's
    operand tree (``config.window.flatten_products``, the one the schedule
    pass splits with) through the nest's split kernel
    (:mod:`repro.core.vectorized`); the movement side stays on the
    reference simulation either way.
    """
    program.declare_on(machine)
    flatten = session is not None and session.config.window.flatten_products
    fallback_nodes = fallback_nodes or {}
    caches = CacheSystem(
        machine.node_count, machine.l1_config, machine.l2_config, machine.bank_to_node
    )
    layout = machine.layout
    star_sum: Dict[StatementKey, float] = {}
    mst_sum: Dict[StatementKey, float] = {}
    counts: Dict[StatementKey, int] = {}

    for nest in program.nests:
        templates = None
        if session is not None:
            from repro.core.vectorized import templates_for

            templates = templates_for(
                session, program, nest, locator, flatten_products=flatten
            )
            if templates is not None:
                # Replay the sample's page translations up front (canonical
                # order — identical frames to the lazy scalar touches).
                templates.tables.ensure(min(sample_per_nest, nest.instance_count))
        splitter = (
            templates.split
            if templates is not None
            else (
                lambda instance: split_statement(
                    instance, locator, flatten_products=flatten
                )
            )
        )
        sampled = 0
        for instance in program.nest_instances(nest, program.seq_base_of(nest)):
            if sampled >= sample_per_nest:
                break
            sampled += 1
            node = fallback_nodes.get(
                instance.seq, locator.store_node(instance.write)
            )
            movement = 0
            seen_blocks = set()
            for access in instance.accesses():
                block = layout.block_of(access.array, access.index)
                if block in seen_blocks:
                    continue
                seen_blocks.add(block)
                if caches.l1s[node].access(block):
                    continue
                bank = layout.l2_bank_of(access.array, access.index)
                home = machine.home_node(access.array, access.index)
                movement += machine.distance(home, node)
                if not caches.l2_banks[bank].access(block):
                    mc = machine.mc_node(access.array, access.index, requester=node)
                    movement += machine.distance(mc, home)
            key = instance.static_key
            star_sum[key] = star_sum.get(key, 0.0) + movement
            counts[key] = counts.get(key, 0) + 1
            split = splitter(instance)
            mst_sum[key] = mst_sum.get(key, 0.0) + split.mst_weight

    serial = _serial_chain_statements(program)
    profiles: Dict[StatementKey, StatementProfile] = {}
    for key, count in counts.items():
        profiles[key] = StatementProfile(
            key=key,
            instances=count,
            star_movement=star_sum[key] / count,
            mst_weight=mst_sum[key] / count,
            serial_chain=key in serial,
        )
    return profiles


def _serial_chain_statements(program: Program) -> set:
    """Static keys of statements forming tight serial dependence chains.

    A statement whose LHS subscript does not involve the innermost loop
    variable (e.g. ``S(i) = S(i) + A(PV(i),k)`` inside a ``k`` loop) writes
    the same element on consecutive iterations — a reduction chain with no
    independent work to overlap.
    """
    from repro.ir.expr import AffineIndex

    serial = set()
    for nest in program.nests:
        innermost = nest.loops[-1].var
        for body_index, statement in enumerate(nest.body):
            depends = False
            for index in statement.lhs.indices:
                if isinstance(index, AffineIndex):
                    if innermost in dict(index.coeffs):
                        depends = True
                else:  # indirect: variables() covers the inner affine part
                    if innermost in index.variables():
                        depends = True
            if not depends:
                serial.add((nest.name, body_index))
    return serial


def build_split_plan(
    profiles: Dict[StatementKey, StatementProfile], bias: float
) -> Dict[StatementKey, bool]:
    """statement key -> split? decisions from measured profiles."""
    return {key: profile.should_split(bias) for key, profile in profiles.items()}
