"""The :class:`FaultInjector`: compiles a plan into fault segments.

The injector is the single stochastic authority for faults. It owns one
seeded RNG stream (``make_rng(seed, "faults")``), so for a fixed
``(plan, seed)`` the sequence of injected events is bit-reproducible —
the property the determinism tests and the CI double-run job assert.

Components never read the plan. The injector compiles it, and the hook
sites read what it compiled:

* :meth:`link_segment` — for one link name, the *window segment* holding
  ``now``: the span between two plan boundaries (any link event's
  ``start_ns`` or ``end_ns``) inside which the set of active events
  cannot change, with the product of the active ``link_degrade``
  scales and one ``(probability, LinkFault)`` row per active
  drop/duplicate/delay event, in plan order.
* :meth:`snoop_segment` — the same for the snoop events (no scale).
* :meth:`nic_due` — when a queue's earliest unfired NIC one-shot is
  due; :meth:`nic_decide` fires it.

A site (:class:`~repro.interconnect.link.Link`, the router's hop loop,
the fabric's snoop sites, both NIC engines) keeps the segment it was
handed, which names the injector that compiled it, and asks for a new
one only when ``now`` leaves ``[lo, hi)`` or another injector is
attached. Inside the segment a message multiplies its serialization
time by the scale (bumping ``degraded_messages`` when it is not 1.0)
and draws each row from :attr:`draw` in plan order until one fires;
only a fired draw calls back (:meth:`_note`) to count and log itself.
That is exactly what a per-message scan of the plan gives: the same
draws in the same order, the same counters (``degraded_messages``
enters the bag when a message is first degraded) and the same
injection log. The per-message scan lives on in the tests, as the
oracle the sites are held to.

Every injected fault is tallied in a :class:`~repro.sim.stats.Counter`
bag adopted by the ``repro.obs`` registry under the ``faults``
component, so ``--metrics-out`` reports exactly what was injected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

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

    The injector compiles the plan into window segments and the hook
    sites draw from them (see the module docstring); it runs only when a
    site's segment goes stale, when a draw fires, and when a NIC
    one-shot falls due.

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
        #: One uniform draw in ``[0, 1)`` from the injector's stream: a
        #: site draws one per active row, in plan order, until a draw
        #: falls below the row's probability.
        self.draw = self._rng.random
        self.counters = Counter()
        self._link_events = plan.events_of("link_degrade", *LINK_MESSAGE_KINDS)
        self._snoop_events = plan.events_of(*SNOOP_KINDS)
        self._nic_events: Tuple[FaultEvent, ...] = plan.events_of(*NIC_KINDS)
        #: One-shot bookkeeping: (event position in plan, queue index).
        self._fired: Set[Tuple[int, int]] = set()
        self._injection_log: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return "faults"

    def _register_metrics(self, registry) -> None:
        registry.adopt_counters(self.obs_name, self.counters)

    # ------------------------------------------------------------------
    def _note(self, now: float, kind: str) -> None:
        """Count and log one fired fault (the sites' only call back)."""
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
    # Compiled segments
    # ------------------------------------------------------------------
    def link_segment(self, link_name: str, now: float) -> tuple:
        """The link window segment holding ``now`` for ``link_name``.

        Returns ``(lo, hi, scale, rows, injector)``. Every link event
        that targets ``link_name`` (or no link) is active throughout
        ``[lo, hi)`` exactly when it is active at ``now``. ``scale`` is
        1.0 divided by each active ``link_degrade`` factor in plan order
        (overlapping windows compound; no RNG draw). ``rows`` holds one
        ``(probability, LinkFault)`` per active drop, duplicate or delay
        event in plan order; the first row whose draw fires decides the
        message, so at most one link fault is injected per message.
        ``injector`` is ``self``, so a site can tell when another
        injector is attached.
        """
        lo, hi, active = _segment(
            [ev for ev in self._link_events if ev.matches_link(link_name)], now
        )
        scale = 1.0
        rows = []
        for ev in active:
            if ev.kind == "link_degrade":
                scale /= ev.factor
            else:
                rows.append((ev.probability, _link_fault(ev)))
        return lo, hi, scale, tuple(rows), self

    def snoop_segment(self, now: float) -> tuple:
        """The snoop window segment holding ``now``.

        Returns ``(lo, hi, rows, injector)``, with one
        ``(probability, SnoopFault)`` row per active ``snoop_delay`` or
        ``snoop_nack`` event in plan order; a snoop's first firing row
        decides it.
        """
        lo, hi, active = _segment(self._snoop_events, now)
        rows = tuple((ev.probability, _snoop_fault(ev)) for ev in active)
        return lo, hi, rows, self

    # ------------------------------------------------------------------
    # NIC hook
    # ------------------------------------------------------------------
    def nic_due(self, queue_index: int) -> float:
        """When queue ``queue_index``'s earliest unfired one-shot is due.

        :meth:`nic_decide` returns None at every time before it, so an
        engine asks only once ``now`` reaches it (``inf``: none left).
        """
        due = math.inf
        for position, ev in enumerate(self._nic_events):
            if (
                ev.start_ns < due
                and ev.matches_queue(queue_index)
                and (position, queue_index) not in self._fired
            ):
                due = ev.start_ns
        return due

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
