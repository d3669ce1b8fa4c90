"""Runtime assertion hooks for check mode (``--check`` / ``REPRO_CHECK=1``).

Each function here states one invariant of the optimized pipeline and
raises :class:`~repro.errors.CheckError` with a concrete counterexample
when it breaks.  Hook sites in the partitioner, scheduler, balancer,
router, layout, and simulator call these behind an
``repro.check.enabled()`` guard, so the pristine pipeline pays one
boolean test per site and check mode pays the (bounded) verification
cost.  No checker mutates pipeline state: enabling checks never changes
a computed number.

The invariant -> module map lives in DESIGN.md section 10.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.check.oracles import (
    INF,
    floyd_warshall,
    naive_bank_of_va,
    naive_channel_of_va,
    oracle_split_weight,
    reference_transitive_closure,
    reference_transitive_reduction,
    walk_is_valid_route,
)
from repro.errors import CheckError

LinkId = Tuple[int, int]

#: Sync graphs beyond this many arcs skip the O(V*E) reference reduction
#: (windows are <= 8 statements, so real graphs are far below this).
MAX_REFERENCE_REDUCTION_ARCS = 512

#: Meshes beyond this many nodes skip the O(n^3) Floyd-Warshall audit.
MAX_FLOYD_WARSHALL_NODES = 144


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckError` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckError(message)


# -- simulator conservation invariants -------------------------------------

def check_heatmap_conservation(metrics) -> None:
    """Per-link flits sum exactly to DataMovement; so do per-seq totals.

    Every data flit-hop the simulator charges traverses exactly one
    directed link and belongs to exactly one statement instance, so both
    decompositions must re-sum to the headline metric bit-for-bit.
    """
    link_total = sum(metrics.link_flits.values())
    require(
        link_total == metrics.data_movement,
        f"heatmap conservation broken: per-link flits sum to {link_total} "
        f"but data_movement is {metrics.data_movement}",
    )
    seq_total = sum(metrics.movement_by_seq.values())
    require(
        seq_total == metrics.data_movement,
        f"per-statement conservation broken: movement_by_seq sums to "
        f"{seq_total} but data_movement is {metrics.data_movement}",
    )


def check_units_wellformed(units: Sequence) -> None:
    """A schedule is a DAG of uniquely-named units with resolvable inputs.

    Checks (1) uid uniqueness, (2) every consumed child result names a
    unit in the schedule, and (3) the dataflow arcs admit a topological
    order (no cycle), which is what 'every schedule respects the
    dependence graph' means before memory arcs are added (the simulator's
    last-writer scan adds those and re-verifies completion).
    """
    by_uid = {}
    for unit in units:
        require(
            unit.uid not in by_uid,
            f"duplicate subcomputation uid {unit.uid} in schedule",
        )
        by_uid[unit.uid] = unit
    indegree = {uid: 0 for uid in by_uid}
    successors: Dict[int, list] = {uid: [] for uid in by_uid}
    for unit in units:
        for result in unit.sub_results:
            require(
                result.producer_uid in by_uid,
                f"unit {unit.uid} consumes unknown producer "
                f"{result.producer_uid}",
            )
            require(
                result.producer_uid != unit.uid,
                f"unit {unit.uid} consumes its own result",
            )
            indegree[unit.uid] += 1
            successors[result.producer_uid].append(unit.uid)
    ready = [uid for uid, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        uid = ready.pop()
        seen += 1
        for successor in successors[uid]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    require(
        seen == len(by_uid),
        f"schedule dataflow has a cycle: only {seen} of {len(by_uid)} "
        "units are topologically orderable",
    )


def check_unit_nodes_alive(units: Sequence, dead_nodes: Iterable[int]) -> None:
    """No unit of a fault-aware schedule is placed on an offline tile."""
    dead = frozenset(dead_nodes)
    if not dead:
        return
    for unit in units:
        require(
            unit.node not in dead,
            f"unit {unit.uid} scheduled on offline tile {unit.node}",
        )


# -- balancer arbitration ---------------------------------------------------

def check_balancer_choice(
    balancer, candidates: Sequence[int], cost: float, chosen: int
) -> None:
    """The balancer's verdict follows its own 10% rule.

    The chosen node either passes the would-unbalance test (stays within
    the 10% threshold of the next most-loaded node) or — when every candidate
    is vetoed — is the least-loaded candidate (deterministic ties by id).
    """
    require(
        chosen in candidates,
        f"balancer chose node {chosen} not among candidates {list(candidates)}",
    )
    if not balancer.would_unbalance(chosen, cost):
        return
    fallback = min(candidates, key=lambda n: (balancer.load[n], n))
    require(
        chosen == fallback,
        f"balancer chose vetoed node {chosen} (load {balancer.load[chosen]}) "
        f"over least-loaded candidate {fallback} "
        f"(load {balancer.load[fallback]})",
    )


def check_split_weight(split, distance) -> None:
    """The splitter's reported MST weight equals the exhaustive minimum.

    Harness-level only (the exhaustive oracle is exponential in operand-set
    size): the property tests in ``tests/check/`` run it over randomized
    statements; it is never hooked into the runtime pipeline.
    """
    expected = oracle_split_weight(split, distance)
    require(
        split.mst_weight == expected,
        f"splitter MST weight {split.mst_weight} differs from the "
        f"exhaustive minimum {expected} (seq {split.instance.seq})",
    )


# -- memoization bit-equality -----------------------------------------------

def check_nest_tables(tables, sample: int = 8) -> None:
    """Vectorized nest tables equal the scalar locator answers.

    Samples up to ``sample`` covered rows per column (spread across the
    covered range) and recomputes block, on-chip verdict, primary node,
    and store node through the scalar ``layout``/``predictor``/``machine``
    call chain.  Safe to replay: tables only exist for pure predictors,
    and every sampled page is already translated, so the duplicate
    queries cannot perturb frame assignment.
    """
    machine = tables.machine
    layout = machine.layout
    predictor = tables.predictor
    body = tables.body_size
    full_rows, rem = divmod(tables.covered, body)
    for s in range(body):
        rows = full_rows + (1 if s < rem else 0)
        if rows == 0:
            continue
        step = max(1, rows // sample)
        picks = list(range(0, rows, step))[:sample] + [rows - 1]
        for r, column in enumerate(tables.access.reads[s]):
            for it in picks:
                index = int(column.indices[it])
                block = layout.block_of(column.array, index)
                require(
                    tables.read_block[s][r][it] == block,
                    f"nest table divergence ({tables.nest.name} s={s} r={r} "
                    f"it={it}): block {tables.read_block[s][r][it]} != "
                    f"scalar {block}",
                )
                if predictor is not None:
                    on_chip = predictor.predict(layout.pa_of(column.array, index))
                else:
                    on_chip = True
                require(
                    bool(tables.read_on_chip[s][r][it]) == on_chip,
                    f"nest table divergence ({tables.nest.name} s={s} r={r} "
                    f"it={it}): on_chip {tables.read_on_chip[s][r][it]} != "
                    f"scalar {on_chip}",
                )
                expected = (
                    machine.home_node(column.array, index)
                    if on_chip
                    else machine.mc_node(column.array, index)
                )
                require(
                    tables.read_primary[s][r][it] == expected,
                    f"nest table divergence ({tables.nest.name} s={s} r={r} "
                    f"it={it}): primary {tables.read_primary[s][r][it]} != "
                    f"scalar {expected}",
                )
        write = tables.access.writes[s]
        for it in picks:
            index = int(write.indices[it])
            block = layout.block_of(write.array, index)
            home = machine.home_node(write.array, index)
            require(
                tables.write_block[s][it] == block
                and tables.store_node[s][it] == home,
                f"nest table divergence ({tables.nest.name} s={s} write "
                f"it={it}): (block, store) "
                f"({tables.write_block[s][it]}, {tables.store_node[s][it]}) "
                f"!= scalar ({block}, {home})",
            )


def check_access_table(table, program, nest, sample: int = 8) -> None:
    """Closed-form access columns equal the scalar instance stream.

    Samples up to ``sample`` iterations (spread across the nest, endpoints
    included) and replays them through ``program.nest_instances`` — the
    scalar resolver the whole pipeline trusts — comparing every read and
    write element index against the vectorized column.
    """
    if table.iterations == 0:
        return
    step = max(1, table.iterations // sample)
    picks = sorted(set(list(range(0, table.iterations, step))[:sample]
                       + [table.iterations - 1]))
    wanted = {it: {} for it in picks}
    stream = program.nest_instances(nest)
    for i, instance in enumerate(stream):
        it, s = divmod(i, table.body_size)
        if it > picks[-1]:
            break
        if it in wanted:
            wanted[it][s] = instance
    for it in picks:
        for s, instance in wanted[it].items():
            for r, access in enumerate(instance.reads):
                column = table.reads[s][r]
                require(
                    column.array == access.array
                    and int(column.indices[it]) == access.index,
                    f"access table divergence ({table.nest_name} s={s} r={r} "
                    f"it={it}): column has {column.array}"
                    f"[{int(column.indices[it])}], scalar resolved "
                    f"{access.array}[{access.index}]",
                )
            write = table.writes[s]
            require(
                write.array == instance.write.array
                and int(write.indices[it]) == instance.write.index,
                f"access table divergence ({table.nest_name} s={s} write "
                f"it={it}): column has {write.array}"
                f"[{int(write.indices[it])}], scalar resolved "
                f"{instance.write.array}[{instance.write.index}]",
            )


#: Minimum analytic-vs-trace verdict agreement the differential oracle
#: tolerates (DESIGN.md section 12 measures 0.82-1.00 on the paper
#: workloads; the floor is deliberately loose — the models legitimately
#: diverge on cross-nest reuse and trained-sample boundaries).
MIN_PREDICTOR_AGREEMENT = 0.5

#: Below this many compared addresses, agreement is noise: skip the floor.
MIN_PREDICTOR_SAMPLE = 64


def check_predictor_agreement(
    analytic, trace, addresses: Sequence[int],
    floor: float = MIN_PREDICTOR_AGREEMENT,
) -> float:
    """The analytic predictor agrees with the trace oracle on ``addresses``.

    Both predictors are queried read-only (``predict`` never trains), so
    the check cannot perturb either model.  Returns the agreement fraction;
    raises when it falls below ``floor`` on a meaningful sample.
    """
    total = len(addresses)
    if total == 0:
        return 1.0
    agree = sum(
        1 for a in addresses if analytic.predict(a) == trace.predict(a)
    )
    fraction = agree / total
    require(
        total < MIN_PREDICTOR_SAMPLE or fraction >= floor,
        f"analytic predictor diverged from the trace oracle: agreement "
        f"{fraction:.3f} over {total} addresses is below the documented "
        f"floor {floor} (DESIGN.md section 12)",
    )
    return fraction


def check_split_cache_hit(cached, recomputed) -> None:
    """A table-built split equals the scalar splitter's, field for field.

    ``cached`` has table-sourced locations and may be a Kruskal memo hit;
    ``recomputed`` has locator-sourced locations and a fresh Kruskal.
    """
    require(
        cached.mst_edges == recomputed.mst_edges,
        f"split cache divergence at seq {cached.instance.seq}: cached MST "
        f"edges {cached.mst_edges} != recomputed {recomputed.mst_edges}",
    )
    require(
        cached.merges == recomputed.merges
        and cached.leaves == recomputed.leaves
        and cached.sets == recomputed.sets
        and cached.store_node == recomputed.store_node,
        f"split cache divergence at seq {cached.instance.seq}: cached "
        "structure differs from recompute",
    )


def check_route_cache_entry(mesh, links, src: int, dst: int, dead_links) -> None:
    """A (possibly cached) route is a live walk of the expected length."""
    require(
        walk_is_valid_route(links, src, dst, mesh, dead_links),
        f"route {src}->{dst} is not a contiguous live-link walk: {links}",
    )


# -- router vs Floyd-Warshall ------------------------------------------------

def check_router_distances(router) -> None:
    """Every live-pair route length equals the true shortest distance.

    Floyd–Warshall over the surviving graph is the all-pairs reference;
    the router's (cached, detoured) ``hops`` must match it exactly, and
    every returned route must be a contiguous walk over live links.
    """
    mesh = router.mesh
    if mesh.node_count > MAX_FLOYD_WARSHALL_NODES:
        return
    reference = floyd_warshall(mesh, router.dead_links, router.dead_nodes)
    alive = [n for n in range(mesh.node_count) if router.alive(n)]
    for src in alive:
        row = reference[src]
        for dst in alive:
            expected = row[dst]
            if expected == INF:
                # Disconnection is a validation concern (FaultError), not a
                # shortest-path one; route_links would raise on this pair.
                continue
            links = router.route_links(src, dst)
            require(
                len(links) == int(expected),
                f"route {src}->{dst} uses {len(links)} links but the "
                f"shortest surviving path is {int(expected)}",
            )
            require(
                router.hops(src, dst) == int(expected),
                f"router.hops({src}, {dst}) = {router.hops(src, dst)} but "
                f"Floyd-Warshall says {int(expected)}",
            )
            check_route_cache_entry(mesh, links, src, dst, router.dead_links)


# -- mesh geometry (sparse distances, hierarchical placement) ---------------

def check_mesh_distance_fn(mesh, sample: int = 0) -> None:
    """``distance_fn()`` agrees with the Floyd-Warshall oracle everywhere.

    The sparse/closed-form callable of a large mesh and the table lookup
    of a small one must both return the healthy-mesh shortest distance.
    ``sample > 0`` bounds the audit to the first ``sample`` node ids
    (big meshes); 0 audits every pair up to the Floyd-Warshall cap.
    """
    if sample <= 0 and mesh.node_count > MAX_FLOYD_WARSHALL_NODES:
        return
    limit = mesh.node_count if sample <= 0 else min(sample, mesh.node_count)
    fn = mesh.distance_fn()
    reference = floyd_warshall(mesh)
    for src in range(limit):
        row = reference[src]
        for dst in range(limit):
            require(
                fn(src, dst) == int(row[dst]),
                f"distance_fn({src}, {dst}) = {fn(src, dst)} but "
                f"Floyd-Warshall says {int(row[dst])}",
            )


def check_preferences_cover_alive(
    preferences: Sequence[Sequence[int]], alive: Iterable[int]
) -> None:
    """Every chunk preference list is a permutation of the alive nodes.

    The hierarchical search must neither drop, duplicate, nor invent a
    candidate node — :meth:`DefaultPlacement._assign_chunks`'s load-cap
    fallback scans the whole list, so a missing node silently shrinks
    the machine and an offline one resurrects a dead tile.
    """
    expected = sorted(alive)
    expected_set = set(expected)
    for index, ranked in enumerate(preferences):
        if sorted(ranked) == expected:
            continue
        missing = sorted(expected_set - set(ranked))[:5]
        extra = sorted(set(ranked) - expected_set)[:5]
        duplicated = len(ranked) != len(set(ranked))
        raise CheckError(
            f"chunk {index} preferences are not a permutation of the alive "
            f"nodes: missing {missing}, extra {extra}, "
            f"duplicates={duplicated}"
        )


# -- layout maps vs naive mapper --------------------------------------------

def check_layout_maps(layout, name: str) -> None:
    """Vectorized bank/channel maps equal the scalar per-address mapper.

    Pure virtual-address arithmetic on both sides (the naive mapper never
    touches the page allocator), so this hook cannot perturb frame
    assignment order — check mode stays bit-identical.
    """
    length = layout.spec(name).length
    banks = layout._bank_lists.get(name)
    if banks is not None:
        for index in range(length):
            expected = naive_bank_of_va(layout, name, index)
            require(
                banks[index] == expected,
                f"bank map divergence: {name}[{index}] vectorized bank "
                f"{banks[index]} != naive {expected}",
            )
    channels = layout._channel_lists.get(name)
    if channels is not None:
        for index in range(length):
            expected = naive_channel_of_va(layout, name, index)
            require(
                channels[index] == expected,
                f"channel map divergence: {name}[{index}] vectorized channel "
                f"{channels[index]} != naive {expected}",
            )


# -- sync graph minimization -------------------------------------------------

def check_syncgraph_minimized(
    arcs_before: Sequence[Tuple[int, int]],
    arcs_after: Sequence[Tuple[int, int]],
) -> None:
    """Minimization produced exactly the unique transitive reduction.

    Two-sided: reachability is preserved (no ordering lost) and every
    surviving arc is irredundant (the count matches the reference, so no
    removable arc was kept either).
    """
    if len(arcs_before) > MAX_REFERENCE_REDUCTION_ARCS:
        return
    before = set(arcs_before)
    after = set(arcs_after)
    closure_before = reference_transitive_closure(before)
    closure_after = reference_transitive_closure(after)
    require(
        closure_before == closure_after,
        "sync-graph minimization changed reachability: "
        f"lost {sorted(closure_before - closure_after)[:5]}, "
        f"gained {sorted(closure_after - closure_before)[:5]}",
    )
    reference = reference_transitive_reduction(before)
    require(
        after == reference,
        "sync-graph minimization is not the transitive reduction: "
        f"kept-but-redundant {sorted(after - reference)[:5]}, "
        f"dropped-but-needed {sorted(reference - after)[:5]}",
    )


# -- partition accounting -----------------------------------------------------

def check_partition_accounting(partition) -> None:
    """A partition's aggregate counters re-sum from their decompositions."""
    per_statement = partition.per_statement_movement()
    require(
        sum(per_statement) == partition.movement,
        f"partition movement {partition.movement} != per-statement sum "
        f"{sum(per_statement)}",
    )
    require(
        len(per_statement) == partition.statement_count,
        f"partition statement_count {partition.statement_count} != "
        f"{len(per_statement)} per-statement entries",
    )
    for name, schedule in partition.nest_schedules.items():
        window_sum = sum(w.movement for w in schedule.windows)
        require(
            window_sum == schedule.movement,
            f"nest {name!r} movement {schedule.movement} != per-window sum "
            f"{window_sum}",
        )
