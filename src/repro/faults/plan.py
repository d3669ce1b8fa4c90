"""Deterministic fault plans (the degradation subsystem's input).

A :class:`FaultPlan` describes every hardware defect one run should model:

* **link faults** — a physical mesh link is down; both directions of the
  link stop carrying traffic and routes detour around it;
* **node faults** — a tile is offline; its core executes nothing, its L2
  bank is re-homed to the nearest healthy tile, and no route may pass
  through it;
* **channel degradations** — an MCDRAM/DDR channel answers at a latency
  multiple of its healthy speed (partially-failed stacks on real parts).

Link and node faults carry an ``at_unit`` activation epoch: ``0`` means
the fault exists before the run starts (the compiler sees it and plans
around it); ``at_unit = k > 0`` means the fault strikes after the
simulator has completed ``k`` subcomputations, which exercises mid-run
relocation and route-cache invalidation.

Plans are plain JSON documents so they can be versioned next to the
experiment configs::

    {
      "version": 1,
      "seed": 42,
      "links": [{"src": 1, "dst": 2}, {"src": 5, "dst": 9, "at_unit": 64}],
      "nodes": [{"node": 10}],
      "channels": [{"channel": 2, "latency_factor": 2.5}]
    }

Serialization is canonical (sorted keys, sorted fault entries), so a plan
round-trips through JSON byte-for-byte — seeded plans are reproducible
artifacts, not ephemeral state.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import FaultError
from repro.noc.routing import Router
from repro.noc.topology import Mesh2D

PLAN_VERSION = 1

#: (src, dst) directed link id, matching :mod:`repro.noc.routing`.
LinkId = Tuple[int, int]


@dataclass(frozen=True, order=True)
class LinkFault:
    """One failed mesh link (undirected: both directions stop working)."""

    src: int
    dst: int
    at_unit: int = 0

    def directed(self) -> Tuple[LinkId, LinkId]:
        """Both directed link ids killed by this fault."""
        return ((self.src, self.dst), (self.dst, self.src))


@dataclass(frozen=True, order=True)
class NodeFault:
    """One offline tile (core + L2 bank + router all unavailable)."""

    node: int
    at_unit: int = 0


@dataclass(frozen=True, order=True)
class ChannelDegrade:
    """A memory channel running at ``latency_factor`` x healthy latency."""

    channel: int
    latency_factor: float = 2.0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic description of one machine's defects."""

    seed: int = 0
    links: Tuple[LinkFault, ...] = ()
    nodes: Tuple[NodeFault, ...] = ()
    channels: Tuple[ChannelDegrade, ...] = ()
    description: str = ""

    def __post_init__(self):
        # Canonicalize entry order so equality, fingerprints, and JSON
        # round-trips are insensitive to construction order.
        object.__setattr__(self, "links", tuple(sorted(self.links)))
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "channels", tuple(sorted(self.channels)))

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the plan describes a perfectly healthy machine."""
        return not (self.links or self.nodes or self.channels)

    def static_dead_links(self) -> FrozenSet[LinkId]:
        """Directed links already down before the run starts."""
        dead: Set[LinkId] = set()
        for fault in self.links:
            if fault.at_unit <= 0:
                dead.update(fault.directed())
        return frozenset(dead)

    def static_dead_nodes(self) -> FrozenSet[int]:
        """Tiles already offline before the run starts."""
        return frozenset(f.node for f in self.nodes if f.at_unit <= 0)

    def all_dead_links(self) -> FrozenSet[LinkId]:
        """Every directed link that is down at any point of the run."""
        dead: Set[LinkId] = set()
        for fault in self.links:
            dead.update(fault.directed())
        return frozenset(dead)

    def all_dead_nodes(self) -> FrozenSet[int]:
        """Every tile that is offline at any point of the run."""
        return frozenset(f.node for f in self.nodes)

    def midrun_events(self) -> List[Tuple[int, object]]:
        """Faults that strike mid-run, sorted by (at_unit, fault).

        Returns ``(at_unit, fault)`` pairs where ``fault`` is a
        :class:`LinkFault` or :class:`NodeFault` with ``at_unit > 0``.
        """
        events: List[Tuple[int, object]] = []
        for fault in self.links:
            if fault.at_unit > 0:
                events.append((fault.at_unit, fault))
        for fault in self.nodes:
            if fault.at_unit > 0:
                events.append((fault.at_unit, fault))
        events.sort(key=lambda e: (e[0], repr(e[1])))
        return events

    def channel_factors(self) -> Dict[int, float]:
        """channel index -> latency multiplier (absent = healthy)."""
        return {c.channel: c.latency_factor for c in self.channels}

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict:
        """Canonical JSON-safe dict (sorted entries; round-trips exactly)."""
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "description": self.description,
            "links": [
                {"src": f.src, "dst": f.dst, "at_unit": f.at_unit}
                for f in sorted(self.links)
            ],
            "nodes": [
                {"node": f.node, "at_unit": f.at_unit} for f in sorted(self.nodes)
            ],
            "channels": [
                {"channel": c.channel, "latency_factor": c.latency_factor}
                for c in sorted(self.channels)
            ],
        }

    def dumps(self) -> str:
        """Canonical JSON text (stable key order, trailing newline)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def dump(self, path: str) -> None:
        """Write the canonical JSON form to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_json(cls, data: Dict) -> "FaultPlan":
        """Parse a plan dict; raises :class:`FaultError` on malformed input."""
        if not isinstance(data, dict):
            raise FaultError(f"fault plan must be a JSON object, got {type(data).__name__}")
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise FaultError(f"unsupported fault plan version {version!r}")
        known = {"version", "seed", "description", "links", "nodes", "channels"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultError(
                f"unknown fault plan field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        try:
            links = tuple(
                sorted(
                    LinkFault(_integer(e, "src"), _integer(e, "dst"), _at_unit(e))
                    for e in data.get("links", ())
                )
            )
            nodes = tuple(
                sorted(
                    NodeFault(_integer(e, "node"), _at_unit(e))
                    for e in data.get("nodes", ())
                )
            )
            channels = tuple(
                sorted(
                    ChannelDegrade(_integer(e, "channel"), _latency_factor(e))
                    for e in data.get("channels", ())
                )
            )
        except (KeyError, TypeError) as exc:
            raise FaultError(f"malformed fault plan entry: {exc}") from exc
        return cls(
            seed=_integer(data, "seed", 0),
            links=links,
            nodes=nodes,
            channels=channels,
            description=str(data.get("description", "")),
        )

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file."""
        try:
            with open(path) as fh:
                return cls.loads(fh.read())
        except OSError as exc:
            raise FaultError(f"cannot read fault plan {path!r}: {exc}") from exc

    def fingerprint(self) -> str:
        """Short stable content hash (memoization keys, report provenance)."""
        digest = hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()
        return digest[:16]


def _integer(entry: Dict, key: str, default: Optional[int] = None) -> int:
    """``entry[key]`` as an int, or ``default`` when given and absent.

    A bool, float or string raises :class:`FaultError`: ``int()`` would
    read ``true`` and ``1.5`` as node 1.
    """
    value = entry[key] if default is None else entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FaultError(f"fault plan field {key!r} must be an integer, got {value!r}")
    return value


def _at_unit(entry: Dict) -> int:
    """The entry's activation epoch: an int ``>= 0`` (default 0)."""
    at_unit = _integer(entry, "at_unit", 0)
    if at_unit < 0:
        raise FaultError(f"fault plan field 'at_unit' must be >= 0, got {at_unit}")
    return at_unit


def _latency_factor(entry: Dict) -> float:
    """The entry's latency factor: a finite int or float (default 2.0).

    A string, bool, NaN or infinity raises :class:`FaultError`; NaN would
    pass the machine's ``>= 1.0`` check and put bare ``NaN`` tokens into
    ``report.json``.
    """
    value = entry.get("latency_factor", 2.0)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise FaultError(
            "fault plan field 'latency_factor' must be a finite number, "
            f"got {value!r}"
        )
    return float(value)


#: Draws :func:`random_plan` makes before it gives up on a connected plan.
RANDOM_PLAN_ATTEMPTS = 256


def random_plan(
    cols: int,
    rows: int,
    seed: int = 0,
    link_count: int = 2,
    node_count: int = 1,
    degraded_channel_count: int = 1,
    latency_factor: float = 2.5,
    protected_nodes: Sequence[int] = (),
    midrun_node_at: Optional[int] = None,
) -> FaultPlan:
    """A seeded, reproducible fault plan for a ``cols x rows`` mesh.

    Picks ``link_count`` distinct physical links and ``node_count`` tiles
    (never from ``protected_nodes`` — callers pass the MC/EDC nodes, which
    must stay reachable), plus ``degraded_channel_count`` degraded memory
    channels.  The same arguments always produce the same plan.

    A draw that cuts a live tile off the surviving network (the check
    :meth:`repro.arch.machine.Machine.apply_faults` runs) is discarded
    and the next one taken from the same random stream, so a connected
    first draw is the plan; after :data:`RANDOM_PLAN_ATTEMPTS`
    disconnected draws the call raises :class:`FaultError`.

    ``midrun_node_at``, when given, makes the *last* chosen node fault
    strike after that many completed units instead of before the run.
    A negative count raises :class:`FaultError` before any draw.
    """
    for name, count in (
        ("link_count", link_count),
        ("node_count", node_count),
        ("degraded_channel_count", degraded_channel_count),
    ):
        if count < 0:
            raise FaultError(f"{name} must be >= 0, got {count}")
    rng = random.Random(seed)
    node_total = cols * rows
    protected = set(protected_nodes)

    all_links: List[Tuple[int, int]] = []
    for node in range(node_total):
        x, y = node % cols, node // cols
        if x + 1 < cols:
            all_links.append((node, node + 1))
        if y + 1 < rows:
            all_links.append((node, node + cols))
    eligible_nodes = [n for n in range(node_total) if n not in protected]
    if node_count > len(eligible_nodes):
        raise FaultError(
            f"cannot pick {node_count} faulty nodes from "
            f"{len(eligible_nodes)} unprotected tiles"
        )
    if link_count > len(all_links):
        raise FaultError(f"mesh has only {len(all_links)} links")
    # Avoid links touching protected nodes so corner MCs / edge EDCs never
    # lose their last attachment on small meshes.
    safe_links = [
        (a, b)
        for (a, b) in all_links
        if a not in protected and b not in protected
    ] or all_links
    mesh = Mesh2D(cols, rows)

    for _ in range(RANDOM_PLAN_ATTEMPTS):
        chosen_nodes = sorted(rng.sample(eligible_nodes, node_count))
        chosen_links = sorted(rng.sample(safe_links, min(link_count, len(safe_links))))
        chosen_channels = sorted(rng.sample(range(4), min(degraded_channel_count, 4)))
        node_faults = []
        for i, node in enumerate(chosen_nodes):
            at_unit = 0
            if midrun_node_at is not None and i == len(chosen_nodes) - 1:
                at_unit = midrun_node_at
            node_faults.append(NodeFault(node, at_unit))
        plan = FaultPlan(
            seed=seed,
            links=tuple(LinkFault(a, b) for (a, b) in chosen_links),
            nodes=tuple(node_faults),
            channels=tuple(
                ChannelDegrade(c, latency_factor) for c in chosen_channels
            ),
            description=f"random_plan(seed={seed}, {cols}x{rows})",
        )
        probe = Router(mesh, plan.all_dead_links(), plan.all_dead_nodes())
        try:
            probe.check_connected()
        except FaultError:
            continue
        return plan
    raise FaultError(
        f"random_plan(seed={seed}, {cols}x{rows}) drew no connected plan "
        f"in {RANDOM_PLAN_ATTEMPTS} attempts"
    )
