"""Load balancing across nodes (paper Section 4.5).

Subcomputation cost is measured in operations, with division costing 10x an
addition or multiplication (the paper's footnote 5).  The scheduler assigns
a subcomputation to a node only if doing so keeps the load balanced:
if the assignment would push the node more than :data:`BALANCE_THRESHOLD`
(10%) above the next most-loaded node, the node is skipped and the next
candidate is considered.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro import check
from repro.check import invariants
from repro.obs.tracer import get_tracer

#: Cost of each primitive operator; division is 10x (paper footnote 5).
OP_COSTS: Dict[str, float] = {"+": 1.0, "-": 1.0, "*": 1.0, "/": 10.0}

#: The paper's 10% rule: a node may not end up more than this fraction
#: above the next most-loaded node.
BALANCE_THRESHOLD = 0.10


def op_cost(op: str, count: int = 1) -> float:
    """Weighted cost of ``count`` applications of ``op``."""
    return OP_COSTS.get(op, 1.0) * count


class LoadBalancer:
    """Tracks per-node load and arbitrates subcomputation placement.

    ``enabled=False`` turns the 10% veto off entirely (every candidate
    passes, so ``choose`` returns the first = minimum-movement one) while
    load accounting keeps running — the ``--skip-pass balance`` pipeline
    configuration, where ``imbalance()`` still reports the damage.
    """

    def __init__(self, node_count: int, enabled: bool = True):
        """Track per-node load over ``node_count`` nodes."""
        self.node_count = node_count
        self.enabled = enabled
        self.load = [0.0] * node_count
        self.skips = 0
        # Running top-2 load values (and which node holds the maximum).
        # ``would_unbalance`` only ever needs "the highest load among the
        # *other* nodes": the maximum when the queried node is not the
        # leader, the runner-up value when it is.  Loads only grow (record
        # adds positive costs), so the pair can be maintained in O(1) per
        # record instead of scanning every node per query.
        self._top_node = -1
        self._top_load = 0.0
        self._second_load = 0.0

    def would_unbalance(self, node: int, cost: float) -> bool:
        """True when assigning ``cost`` to ``node`` breaks the 10% rule.

        The rule compares the node's would-be load against the next most
        highly-loaded node: exceeding it by more than
        :data:`BALANCE_THRESHOLD` is a veto.  A chip with no load anywhere
        never vetoes, and a disabled balancer never vetoes at all.
        """
        if not self.enabled:
            return False
        others_max = (
            self._second_load if node == self._top_node else self._top_load
        )
        if others_max <= 0.0:
            # Nothing scheduled elsewhere yet; compare against the average
            # would-be load to avoid every first assignment being vetoed.
            return False
        return self.load[node] + cost > (1.0 + BALANCE_THRESHOLD) * others_max

    def choose(self, candidates: Sequence[int], cost: float) -> int:
        """First candidate that passes the balance check, else least loaded.

        ``candidates`` are ordered by scheduling preference (minimum data
        movement first); the fallback mirrors the paper's "skips this node
        and moves to the next one".
        """
        chosen = self._choose(candidates, cost)
        if check.enabled():
            # Check mode: the verdict must follow the 10% rule (the chosen
            # node passed the veto test, or every candidate was vetoed and
            # it is the least-loaded one).  Loads are unchanged by choose,
            # so re-asking would_unbalance here sees the same state.
            invariants.check_balancer_choice(self, candidates, cost, chosen)
        return chosen

    def _choose(self, candidates: Sequence[int], cost: float) -> int:
        for node in candidates:
            if not self.would_unbalance(node, cost):
                return node
            self.skips += 1
            tracer = get_tracer()
            if tracer.debug:
                # Firehose (one event per vetoed placement): debug only.
                tracer.point(
                    "balance.veto", node=node, cost=cost,
                    load=round(self.load[node], 3),
                )
        return min(candidates, key=lambda n: (self.load[n], n))

    def record(self, node: int, cost: float) -> None:
        """Commit ``cost`` to ``node``'s running load."""
        new_load = self.load[node] + cost
        self.load[node] = new_load
        if node == self._top_node:
            self._top_load = new_load
        elif new_load > self._top_load:
            self._second_load = self._top_load
            self._top_node = node
            self._top_load = new_load
        elif new_load > self._second_load:
            self._second_load = new_load

    def imbalance(self) -> float:
        """max/mean load ratio (1.0 = perfectly balanced; 0 when idle)."""
        busy = [load for load in self.load if load > 0]
        if not busy:
            return 0.0
        mean = sum(self.load) / self.node_count
        return max(self.load) / mean if mean > 0 else 0.0

    def reset(self) -> None:
        """Clear all load state and the skip counter."""
        self.load = [0.0] * self.node_count
        self.skips = 0
        self._top_node = -1
        self._top_load = 0.0
        self._second_load = 0.0
