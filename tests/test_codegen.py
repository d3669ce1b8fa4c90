"""Direct unit tests for repro.core.codegen (paper Figure 8).

Pins the per-node text *listing* (grouping, sync-wait emission, operator
chains) and its agreement with the structured :class:`TaskSpec` records
the schedule-replay oracle builds (dataflow deps, the cross-node
``sync_deps`` subset, the store): every ``sync(T<uid>)`` the listing
renders is exactly a ``sync_deps`` entry of some task.
"""

import re

from repro.check.replay import task_spec_of, task_specs
from repro.core.codegen import (
    GeneratedCode,
    generate_code,
    generate_for_partition,
)
from repro.core.scheduler import StatementSchedule
from repro.core.subcomputation import GatheredInput, SubResult, Subcomputation
from repro.ir.statement import Access


def gather(array, index, from_node=0, hops=0):
    return GatheredInput(Access(array, index), from_node, hops)


def schedule_of(*subs):
    """A minimal StatementSchedule wrapper (codegen only reads .subcomputations)."""
    final = subs[-1]
    return StatementSchedule(
        instance=None,
        subcomputations=tuple(subs),
        final_uid=final.uid,
        store_node=final.node,
        mst_weight=0,
    )


def split_pair(producer_node=1, consumer_node=2):
    """A child on ``producer_node`` feeding a final store on ``consumer_node``."""
    child = Subcomputation(
        uid=10, seq=0, node=producer_node, op="+", op_count=1, cost=1.0,
        gathered=(gather("B", 0, from_node=producer_node),
                  gather("C", 0, from_node=producer_node)),
    )
    final = Subcomputation(
        uid=11, seq=0, node=consumer_node, op="+", op_count=1, cost=1.0,
        gathered=(gather("D", 0, from_node=consumer_node),),
        sub_results=(SubResult(child.uid, child.node, hops=3),),
        store=Access("A", 0),
    )
    return child, final


class TestListing:
    def test_grouped_by_node_sorted(self):
        child, final = split_pair(producer_node=5, consumer_node=2)
        code = generate_code([schedule_of(child, final)])
        listing = code.listing()
        headers = [l for l in listing.splitlines() if l.startswith("Node")]
        assert headers == ["Node 2:", "Node 5:"]
        # Every instruction line is indented under its node header.
        for line in listing.splitlines():
            assert line.startswith("Node ") or line.startswith("  ")

    def test_line_count_sums_all_nodes(self):
        child, final = split_pair()
        code = generate_code([schedule_of(child, final)])
        # child: 1 compute line; final: 1 sync line + 1 compute line.
        assert code.line_count() == 3
        assert code.line_count() == sum(
            len(lines) for lines in code.lines_by_node.values()
        )

    def test_sync_wait_emitted_for_cross_node_result(self):
        child, final = split_pair(producer_node=1, consumer_node=2)
        code = generate_code([schedule_of(child, final)])
        consumer_lines = code.lines_by_node[2]
        assert consumer_lines[0] == "sync(T10)"
        # The sync precedes the consuming compute line.
        assert "T10" in consumer_lines[1]

    def test_no_sync_for_same_node_result(self):
        child, final = split_pair(producer_node=3, consumer_node=3)
        code = generate_code([schedule_of(child, final)])
        assert not any("sync" in line for line in code.lines_by_node[3])

    def test_final_stores_child_forwards(self):
        child, final = split_pair()
        code = generate_code([schedule_of(child, final)])
        assert any(l.startswith("T10 = ") for l in code.lines_by_node[1])
        assert any(l.startswith("A[0] = ") for l in code.lines_by_node[2])

    def test_source_override_rendered_verbatim(self):
        unsplit = Subcomputation(
            uid=0, seq=0, node=4, op="+", op_count=2, cost=2.0,
            gathered=(gather("B", 1),),
            store=Access("A", 1),
            source="A(i) = B(i) + C(i)",
        )
        code = generate_code([schedule_of(unsplit)])
        assert code.lines_by_node[4] == ["A(i) = B(i) + C(i)"]

    def test_op_breakdown_renders_mixed_chain(self):
        sub = Subcomputation(
            uid=7, seq=0, node=0, op="+", op_count=2, cost=2.0,
            gathered=(gather("B", 0), gather("C", 0), gather("D", 0)),
            store=Access("A", 0),
            op_breakdown=(("*", 1), ("+", 1)),
        )
        code = generate_code([schedule_of(sub)])
        assert code.lines_by_node[0] == ["A[0] = B[0] * C[0] + D[0]"]

    def test_empty_code_object(self):
        code = GeneratedCode({})
        assert code.nodes() == []
        assert code.listing() == ""
        assert code.line_count() == 0


class TestTaskSpecs:
    def test_task_spec_fields(self):
        child, final = split_pair(producer_node=1, consumer_node=2)
        spec = task_spec_of(final)
        assert spec.uid == 11
        assert spec.node == 2
        assert spec.deps == (10,)
        assert spec.sync_deps == (10,)
        assert spec.reads == (Access("D", 0),)
        assert spec.store == Access("A", 0)

    def test_same_node_dep_is_not_a_sync_dep(self):
        child, final = split_pair(producer_node=3, consumer_node=3)
        spec = task_spec_of(final)
        assert spec.deps == (10,)
        assert spec.sync_deps == ()

    def test_child_spec_has_no_store(self):
        child, _ = split_pair()
        spec = task_spec_of(child)
        assert spec.store is None
        assert spec.deps == ()

    def test_task_specs_preserve_order(self):
        child, final = split_pair()
        assert [t.uid for t in task_specs([child, final])] == [10, 11]

    def test_listing_syncs_match_sync_deps(self):
        child, final = split_pair(producer_node=1, consumer_node=2)
        code = generate_code([schedule_of(child, final)])
        rendered = set(re.findall(r"sync\(T(\d+)\)", code.listing()))
        declared = {
            str(uid)
            for task in task_specs([child, final])
            for uid in task.sync_deps
        }
        assert rendered == declared


class TestPartitionIntegration:
    def test_tiny_partition_listing_and_tasks_agree(self, declared):
        from repro.pipeline import compile_program, session_for

        machine, program = declared
        partition = compile_program(program, session_for(machine))
        code = generate_for_partition(partition)
        assert code.line_count() > 0
        tasks = task_specs(partition.units())
        uids = {t.uid for t in tasks}
        rendered = set(re.findall(r"sync\(T(\d+)\)", code.listing()))
        assert {int(u) for u in rendered} <= uids
        declared_syncs = {
            str(uid) for task in tasks for uid in task.sync_deps
        }
        assert rendered == declared_syncs
