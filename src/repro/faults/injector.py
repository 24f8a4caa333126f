"""The :class:`FaultInjector`: turns a plan into concrete fault decisions.

The injector is the single stochastic authority for faults. It owns one
seeded RNG stream (``make_rng(seed, "faults")``), so for a fixed
``(plan, seed)`` the sequence of injected events is bit-reproducible —
the property the determinism tests and the CI double-run job assert.

Components never read the plan themselves; they ask the injector at
their hook points:

* :meth:`link_ser_scale` — multiplicative serialization-time factor for
  active ``link_degrade`` windows (pure function of time, no RNG).
* :meth:`link_decide` — per-message draw for drop/duplicate/delay.
* :meth:`snoop_decide` — per-snoop draw for delayed/NACKed responses.
* :meth:`nic_decide` — one-shot stall/reset events for a queue engine.

The three per-message hooks read *compiled window segments*: the
plan's ``start_ns``/``end_ns`` boundaries cut time into segments inside
which the set of active events cannot change, so each hook caches the
segment holding the last ``now`` it saw (per link name for the link
hooks) with the active, matching events in plan order, and rescans the
plan only when ``now`` leaves it.

Every injected fault is tallied in a :class:`~repro.sim.stats.Counter`
bag adopted by the ``repro.obs`` registry under the ``faults``
component, so ``--metrics-out`` reports exactly what was injected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FaultError
from repro.faults.plan import (
    LINK_MESSAGE_KINDS,
    NIC_KINDS,
    SNOOP_KINDS,
    FaultEvent,
    FaultPlan,
)
from repro.obs.instrument import Instrumented
from repro.sim.rng import make_rng
from repro.sim.stats import Counter


@dataclass(frozen=True)
class LinkFault:
    """Outcome of one per-message link draw.

    ``extra_ns`` is added to the message's delivery latency;
    ``retransmit`` / ``duplicate`` tell the link to book one extra
    serialization's worth of bandwidth (the wasted copy on the wire).
    """

    kind: str
    extra_ns: float = 0.0
    retransmit: bool = False
    duplicate: bool = False


@dataclass(frozen=True)
class SnoopFault:
    """Outcome of one per-snoop draw.

    A NACK means the requester re-issues the snoop: ``extra_ns`` covers
    the turnaround and ``reissue`` tells the fabric to charge the snoop
    message a second time on the link.
    """

    kind: str
    extra_ns: float = 0.0
    reissue: bool = False


@dataclass(frozen=True)
class NicFault:
    """A one-shot NIC event delivered to a queue engine."""

    kind: str
    duration_ns: float = 0.0


#: A segment no time falls in: the first call of every hook compiles.
_NO_SEGMENT = (math.inf, -math.inf, None)


def _segment(events: Sequence[FaultEvent], now: float) -> Tuple[float, float, tuple]:
    """The window segment holding ``now``: ``(lo, hi, active)``.

    ``lo`` is the latest window boundary (any event's ``start_ns`` or
    ``end_ns``) at or before ``now`` and ``hi`` the earliest one after
    it. No boundary falls inside ``[lo, hi)``, so every event is active
    at every time in the segment exactly when it is active at ``now``.
    ``active`` keeps those events in plan order.
    """
    lo = -math.inf
    hi = math.inf
    for ev in events:
        for edge in (ev.start_ns, ev.end_ns):
            if edge <= now:
                if edge > lo:
                    lo = edge
            elif edge < hi:
                hi = edge
    return lo, hi, tuple(ev for ev in events if ev.active(now))


def _link_fault(ev: FaultEvent) -> LinkFault:
    """The (immutable) outcome a successful draw of ``ev`` returns."""
    if ev.kind == "link_drop":
        return LinkFault("link_drop", extra_ns=ev.extra_ns, retransmit=True)
    if ev.kind == "link_duplicate":
        return LinkFault("link_duplicate", duplicate=True)
    return LinkFault("link_delay", extra_ns=ev.extra_ns)


def _snoop_fault(ev: FaultEvent) -> SnoopFault:
    """The (immutable) outcome a successful draw of ``ev`` returns."""
    if ev.kind == "snoop_nack":
        return SnoopFault("snoop_nack", extra_ns=ev.extra_ns, reissue=True)
    return SnoopFault("snoop_delay", extra_ns=ev.extra_ns)


class FaultInjector(Instrumented):
    """Deterministic fault oracle for one simulation run.

    The per-message hooks answer from cached window segments (see the
    module docstring): a hook rescans the plan only when ``now`` leaves
    its cached segment, and inside one segment it replays the scan's
    outcome exactly — degrade scales divide in plan order, draws run in
    plan order with one RNG call per active matching event until one
    fires, and the counters and injection log see the same entries.

    Args:
        plan: The fault schedule.
        seed: Root seed; the injector derives its own RNG stream from
            it, independent of every other seeded component.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        if not isinstance(plan, FaultPlan):
            raise FaultError(f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.seed = seed
        self._rng = make_rng(seed, "faults")
        self.counters = Counter()
        self._link_events = plan.events_of(*LINK_MESSAGE_KINDS)
        self._degrade_events = plan.events_of("link_degrade")
        self._snoop_events = plan.events_of(*SNOOP_KINDS)
        self._nic_events: Tuple[FaultEvent, ...] = plan.events_of(*NIC_KINDS)
        #: One-shot bookkeeping: (event position in plan, queue index).
        self._fired: Set[Tuple[int, int]] = set()
        self._injection_log: List[Tuple[float, str]] = []
        # Compiled window segments, (lo, hi, cached answer). Link hooks
        # keep one per link name; the degrade answer is the scale
        # product, the draw answers (probability, kind, outcome) rows.
        self._degrade_segments: Dict[str, tuple] = {}
        self._link_segments: Dict[str, tuple] = {}
        self._snoop_segment: tuple = _NO_SEGMENT

    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return "faults"

    def _register_metrics(self, registry) -> None:
        registry.adopt_counters(self.obs_name, self.counters)

    # ------------------------------------------------------------------
    def _note(self, now: float, kind: str) -> None:
        self.counters.add(f"injected_{kind}")
        self._injection_log.append((now, kind))

    @property
    def injection_log(self) -> Tuple[Tuple[float, str], ...]:
        """Chronological ``(now, kind)`` record of every injected fault."""
        return tuple(self._injection_log)

    def total_injected(self) -> int:
        """Total faults injected so far, across all kinds."""
        return len(self._injection_log)

    # ------------------------------------------------------------------
    # Link hooks
    # ------------------------------------------------------------------
    def link_ser_scale(self, link_name: str, now: float) -> float:
        """Serialization-time multiplier from active degrade windows.

        Pure function of (plan, link, time): no RNG draw, so calling it
        never perturbs the injector's stream. Overlapping windows
        compound.
        """
        segment = self._degrade_segments.get(link_name, _NO_SEGMENT)
        if not segment[0] <= now < segment[1]:
            lo, hi, active = _segment(
                [ev for ev in self._degrade_events if ev.matches_link(link_name)],
                now,
            )
            scale = 1.0
            for ev in active:
                scale /= ev.factor
            segment = self._degrade_segments[link_name] = (lo, hi, scale)
        scale = segment[2]
        if scale != 1.0:
            self.counters.add("degraded_messages")
        return scale

    def link_decide(self, link_name: str, now: float) -> Optional[LinkFault]:
        """Per-message draw: drop (retransmit), duplicate, or delay.

        The first matching event in plan order wins; at most one link
        fault is injected per message.
        """
        segment = self._link_segments.get(link_name, _NO_SEGMENT)
        if not segment[0] <= now < segment[1]:
            lo, hi, active = _segment(
                [ev for ev in self._link_events if ev.matches_link(link_name)],
                now,
            )
            rows = tuple((ev.probability, ev.kind, _link_fault(ev)) for ev in active)
            segment = self._link_segments[link_name] = (lo, hi, rows)
        for probability, kind, fault in segment[2]:
            if self._rng.random() < probability:
                self._note(now, kind)
                return fault
        return None

    # ------------------------------------------------------------------
    # Coherence hook
    # ------------------------------------------------------------------
    def snoop_decide(self, now: float) -> Optional[SnoopFault]:
        """Per-snoop draw: delayed response or NACK + re-issue."""
        segment = self._snoop_segment
        if not segment[0] <= now < segment[1]:
            lo, hi, active = _segment(self._snoop_events, now)
            rows = tuple((ev.probability, ev.kind, _snoop_fault(ev)) for ev in active)
            segment = self._snoop_segment = (lo, hi, rows)
        for probability, kind, fault in segment[2]:
            if self._rng.random() < probability:
                self._note(now, kind)
                return fault
        return None

    # ------------------------------------------------------------------
    # NIC hook
    # ------------------------------------------------------------------
    def nic_decide(self, queue_index: int, now: float) -> Optional[NicFault]:
        """One-shot stall/reset check for queue ``queue_index``.

        Each ``nic_stall`` / ``nic_reset`` event fires at most once per
        matching queue, the first time the engine polls at or after its
        ``start_ns``. Earliest-due event wins when several are pending.
        """
        best: Optional[Tuple[float, int, FaultEvent]] = None
        for position, ev in enumerate(self._nic_events):
            if now < ev.start_ns or not ev.matches_queue(queue_index):
                continue
            key = (position, queue_index)
            if key in self._fired:
                continue
            if best is None or ev.start_ns < best[0]:
                best = (ev.start_ns, position, ev)
        if best is None:
            return None
        _, position, ev = best
        self._fired.add((position, queue_index))
        self._note(now, ev.kind)
        return NicFault(ev.kind, duration_ns=ev.duration_ns)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(plan={self.plan.name!r}, seed={self.seed}, "
            f"injected={self.total_injected()})"
        )
