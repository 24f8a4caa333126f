"""Generic point-to-point link cost model.

A :class:`Link` charges three costs per message:

* **propagation latency** — fixed one-way wire + protocol-stack delay;
* **serialization** — ``(payload + header_overhead) / bandwidth``;
* **queueing** — congestion-induced waiting, modelled from measured
  utilization: each direction tracks the serialization demand offered
  over a short trailing window and charges an M/D/1-style wait
  ``ser * rho / (1 - rho)`` based on the previous window's utilization.
  This is stable under the out-of-order local timestamps that burst
  accesses generate (a backlog-horizon model is not) and produces
  natural saturation behaviour: as offered load approaches line rate,
  waits grow without bound and throttle the offering actors.

The same class models UPI (both directions symmetric, high bandwidth)
and a PCIe lane group. Utilization statistics feed the analysis layer's
bandwidth-share model for multi-core scaling.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import InterconnectError
from repro.interconnect.messages import MessageClass
from repro.sim.engine import Simulator


class LinkStats:
    """Aggregate per-direction traffic counters.

    The four scalar counters live in the mutable list :attr:`agg`
    (``[messages, payload_bytes, wire_bytes, busy_ns]``) so batched
    senders (:meth:`Link.occupy_pair`) can bump them with plain list
    stores; the named attributes stay available as read-only properties
    for snapshot-time consumers.
    """

    __slots__ = ("agg", "_per_class")

    def __init__(self) -> None:
        self.agg: list = [0, 0, 0, 0.0]
        # One [count, wire_bytes] cell per message class: note() is on
        # the per-message hot path, so both counters share a single
        # dict lookup.
        self._per_class: Dict[str, list] = {}

    def note(self, cls: MessageClass, payload: int, wire: int, ser_ns: float) -> None:
        agg = self.agg
        agg[0] += 1
        agg[1] += payload
        agg[2] += wire
        agg[3] += ser_ns
        entry = self.class_cell(cls)
        entry[0] += 1
        entry[1] += wire

    @property
    def messages(self) -> int:
        return self.agg[0]

    @property
    def payload_bytes(self) -> int:
        return self.agg[1]

    @property
    def wire_bytes(self) -> int:
        return self.agg[2]

    @property
    def busy_ns(self) -> float:
        return self.agg[3]

    @property
    def by_class(self) -> Dict[str, int]:
        """Per-class message counts (snapshot view)."""
        return {k: v[0] for k, v in self._per_class.items()}

    @property
    def wire_by_class(self) -> Dict[str, int]:
        """Per-class wire bytes (snapshot view)."""
        return {k: v[1] for k, v in self._per_class.items()}

    def class_cell(self, cls: MessageClass) -> list:
        """Get-or-create the mutable ``[count, wire_bytes]`` cell of a class."""
        entry = self._per_class.get(cls.value)
        if entry is None:
            self._per_class[cls.value] = entry = [0, 0]
        return entry

    def snapshot(self) -> Dict:
        """The canonical dict form of one direction's counters.

        Shard snapshots carry per-direction stats in this shape, so the
        keys are part of the merged-document fingerprint contract:
        ``messages``/``payload``/``wire``/``busy`` merge as sums and the
        two ``*_class`` maps merge key-wise (see
        :func:`repro.shard.merge._merge_link`).
        """
        return {
            "messages": self.agg[0],
            "payload": self.agg[1],
            "wire": self.agg[2],
            "busy": self.agg[3],
            "by_class": self.by_class,
            "wire_by_class": self.wire_by_class,
        }


class Link:
    """A full-duplex link between two endpoints (sockets or host/device).

    Args:
        sim: Simulator providing the clock used for queueing decisions.
        name: Diagnostic label ("upi", "pcie-e810", ...).
        latency_ns: One-way propagation latency per message.
        bandwidth_bytes_per_ns: Per-direction serialization rate.
        header_overhead: Protocol header bytes added to each message's
            wire size (UPI flit headers, PCIe TLP headers).
    """

    #: Optional :class:`repro.faults.FaultInjector`. Class-level None so
    #: fault-free runs carry zero extra per-message cost or state.
    faults = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency_ns: float,
        bandwidth_bytes_per_ns: float,
        header_overhead: int = 12,
    ) -> None:
        if latency_ns < 0:
            raise InterconnectError(f"link {name!r}: negative latency")
        if bandwidth_bytes_per_ns <= 0:
            raise InterconnectError(f"link {name!r}: bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.latency_ns = latency_ns
        self.bandwidth = bandwidth_bytes_per_ns
        self.header_overhead = header_overhead
        # Utilization-window state per direction: serialization demand
        # accumulated in the current wall-time window, split by actor so
        # an actor is never queued behind its own (self-paced) demand.
        self._win_busy = [0.0, 0.0]
        self._win_by: list = [{}, {}]
        self._win_start = [0.0, 0.0]
        self._rho = [0.0, 0.0]
        self._rho_by: list = [{}, {}]
        self.stats = (LinkStats(), LinkStats())
        #: Invoked (no args) by :meth:`scaled` so callers holding
        #: precomputed wire/serialization figures can invalidate them.
        self.on_scaled: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def one_way(
        self,
        cls: MessageClass,
        direction: int,
        payload_bytes: Optional[int] = None,
        charge_queueing: bool = True,
        actor: str = "anon",
    ) -> float:
        """Send one message; return the delay until it is delivered.

        Args:
            cls: Message class (sets default payload size).
            direction: 0 or 1; which half of the duplex pair carries it.
            payload_bytes: Override payload size (MMIO/DMA bodies).
            charge_queueing: When False the message still consumes
                bandwidth but the caller is not delayed by queueing
                (used for prefetches and speculative reads that are not
                on the requester's critical path).

        Returns:
            Nanoseconds from "now" until delivery at the far end.
        """
        if direction not in (0, 1):
            raise InterconnectError(f"direction must be 0 or 1, got {direction}")
        payload = cls.payload_bytes(payload_bytes or 0)
        wire = payload + self.header_overhead
        ser = wire / self.bandwidth
        disrupt = 0.0
        if self.faults is not None:
            ser *= self.faults.link_ser_scale(self.name, self.sim.now)
            disrupt = self._fault_disruptions(cls, direction, ser, wire, actor)
        wait = self._enqueue(direction, ser, actor)
        self.stats[direction].note(cls, payload, wire, ser)
        if charge_queueing:
            return wait + ser + self.latency_ns + disrupt
        return ser + self.latency_ns + disrupt

    def occupy(
        self,
        cls: MessageClass,
        direction: int,
        payload_bytes: Optional[int] = None,
        inflate: float = 1.0,
        charge_queueing: bool = True,
        actor: str = "anon",
    ) -> float:
        """Consume bandwidth for one message; return only the queueing delay.

        Used by the coherence fabric, whose zero-load latencies already
        include propagation and serialization: the fabric adds just the
        congestion-induced wait returned here. ``inflate`` scales the
        wire size to model inefficient encodings (non-temporal
        partial-line streams). ``actor`` names the issuing agent for the
        per-actor utilization accounting; windows roll on simulator time.
        """
        if direction not in (0, 1):
            raise InterconnectError(f"direction must be 0 or 1, got {direction}")
        if inflate < 1.0:
            raise InterconnectError(f"inflate must be >= 1.0, got {inflate}")
        payload = cls.payload_bytes(payload_bytes or 0)
        wire = int((payload + self.header_overhead) * inflate)
        ser = wire / self.bandwidth
        disrupt = 0.0
        if self.faults is not None:
            ser *= self.faults.link_ser_scale(self.name, self.sim.now)
            disrupt = self._fault_disruptions(cls, direction, ser, wire, actor)
        wait = self._enqueue(direction, ser, actor)
        self.stats[direction].note(cls, payload, wire, ser)
        if charge_queueing:
            return wait + disrupt
        return disrupt

    def _fault_disruptions(
        self, cls: MessageClass, direction: int, ser: float, wire: int, actor: str
    ) -> float:
        """Draw one per-message link fault; return the extra delivery delay.

        Coherent links never surface loss to the protocol layer: a
        dropped flit is retransmitted by the link layer, so a "drop"
        manifests as extra latency plus a second (wasted) copy on the
        wire. Duplicates likewise burn bandwidth without delaying the
        original. Both wasted copies are booked through ``_enqueue`` and
        counted in the stats with zero payload bytes.
        """
        # repro: allow(zero-cost-hooks) every caller guards on self.faults
        fault = self.faults.link_decide(self.name, self.sim.now)
        if fault is None:
            return 0.0
        if fault.retransmit or fault.duplicate:
            self._enqueue(direction, ser, actor)
            self.stats[direction].note(cls, 0, wire, ser)
        if fault.retransmit:
            return fault.extra_ns + ser
        return fault.extra_ns

    #: Utilization-measurement window, ns.
    WINDOW_NS = 2000.0
    #: Utilization cap: keeps the M/D/1 wait finite at saturation.
    RHO_CAP = 0.97

    def _enqueue(self, direction: int, ser: float, actor: str) -> float:
        """Record ``ser`` ns of demand by ``actor``; return the wait.

        Windows roll on wall (simulator) time; demand is accounted per
        actor. The wait charged to a message is an M/D/1-style
        ``ser * rho / (1 - rho)`` where rho is the utilization offered
        by *other* actors — an actor's own stream is already paced by
        the latency charged to it, so it never queues behind itself.
        """
        t = self.sim.now
        elapsed = t - self._win_start[direction]
        if elapsed >= self.WINDOW_NS:
            self._rho[direction] = min(
                self.RHO_CAP, self._win_busy[direction] / elapsed
            )
            self._rho_by[direction] = {
                a: min(self.RHO_CAP, busy / elapsed)
                for a, busy in self._win_by[direction].items()
            }
            self._win_start[direction] = t
            self._win_busy[direction] = 0.0
            self._win_by[direction] = {}
        self._win_busy[direction] += ser
        by = self._win_by[direction]
        by[actor] = by.get(actor, 0.0) + ser
        settled_others = max(
            0.0, self._rho[direction] - self._rho_by[direction].get(actor, 0.0)
        )
        if settled_others <= 0.0 and self._win_busy[direction] == by[actor]:
            # Sole actor, nothing settled from others: live_others and
            # the clipped settled share are both exactly 0.0.
            return 0.0
        live_elapsed = max(self.WINDOW_NS / 4, t - self._win_start[direction] + ser)
        live_others = (self._win_busy[direction] - by[actor]) / live_elapsed
        rho_others = min(self.RHO_CAP, max(settled_others, live_others))
        if rho_others <= 0.0:
            return 0.0
        # Two congestion regimes, take whichever binds less:
        #  * M/D/1 residual wait — right for a light actor slipping
        #    messages between heavy streams;
        #  * proportional fair share — right at saturation, where each
        #    heavy stream gets capacity * (its demand / total demand)
        #    and the M/D/1 pole would overshoot.
        mm1 = ser * rho_others / (1.0 - rho_others)
        own = max(by[actor], ser)
        total = self._win_busy[direction]
        settled_total = self._rho[direction]
        live_total = total / live_elapsed
        rho_total = min(1.0, max(settled_total, live_total))
        fair = ser * max(0.0, total / own - 1.0) * rho_total * rho_total
        return min(mm1, fair)

    def occupy_pair(self, plan: tuple, actor: str, base: float = 0.0) -> float:
        """Charge a flattened two-message plan; return ``base`` + waits.

        The coherence fabric's memoized transition plans always pair one
        request message with one response on the opposite half of the
        duplex link, so the whole plan is a flat 16-field tuple — two
        ``(direction, cls, payload, wire, ser, charge_queueing, agg,
        class_cell)`` rows concatenated — that unpacks in one step and
        runs straight-line. ``wire``/``ser`` are resolved against the
        current bandwidth and header configuration and ``agg``/
        ``class_cell`` are the live statistics cells of each direction's
        :class:`LinkStats` (the fabric rebuilds its plans via
        :attr:`on_scaled` when either goes stale — both :meth:`scaled`
        and :meth:`reset_stats` fire it). The accounting is
        bit-identical to calling :meth:`occupy` once per row — same
        fault draws, window rolls, per-actor demand updates and wait
        arithmetic in the same evaluation order — batching away only
        the per-call validation, payload resolution and attribute
        traffic; :meth:`occupy` is the oracle the property tests hold
        it to. Rows with ``charge_queueing`` False still consume
        window demand but add nothing to the returned total. With an
        injector attached each row runs the fault hooks inline, as
        :meth:`occupy` does: the degrade scale and the per-message draw
        (whose wasted copy books ahead of the row), then the row's own
        accounting, with the draw's extra delay charged beside its wait.
        """
        (d0, cls0, payload0, wire0, ser0, charge0, agg0, cell0,
         d1, cls1, payload1, wire1, ser1, charge1, agg1, cell1) = plan
        faults = self.faults
        window = self.WINDOW_NS
        cap = self.RHO_CAP
        t = self.sim.now
        win_busy = self._win_busy
        win_by = self._win_by
        win_start = self._win_start
        rho_settled = self._rho
        rho_by = self._rho_by
        live_floor = window / 4
        disrupt = 0.0
        # --- request row
        if faults is not None:
            ser0 = ser0 * faults.link_ser_scale(self.name, t)
            disrupt = self._fault_disruptions(cls0, d0, ser0, wire0, actor)
        elapsed = t - win_start[d0]
        if elapsed >= window:
            rho_settled[d0] = min(cap, win_busy[d0] / elapsed)
            rho_by[d0] = {
                a: min(cap, busy / elapsed)
                for a, busy in win_by[d0].items()
            }
            win_start[d0] = t
            win_busy[d0] = 0.0
            win_by[d0] = {}
        busy = win_busy[d0] + ser0
        win_busy[d0] = busy
        by = win_by[d0]
        try:
            mine = by[actor] + ser0
        except KeyError:
            mine = ser0
        by[actor] = mine
        agg0[0] += 1
        agg0[1] += payload0
        agg0[2] += wire0
        agg0[3] += ser0
        cell0[0] += 1
        cell0[1] += wire0
        if charge0:
            wait = 0.0
            try:
                settled_others = rho_settled[d0] - rho_by[d0][actor]
            except KeyError:
                settled_others = rho_settled[d0]
            # Sole actor in the live window with nothing settled from
            # others: live_others is exactly 0.0 and the clipped
            # settled share is 0.0, so the wait is 0.0 — skip its
            # arithmetic entirely (the dominant uncontended case).
            if busy != mine or settled_others > 0.0:
                if settled_others < 0.0:
                    settled_others = 0.0
                live_elapsed = t - win_start[d0] + ser0
                if live_elapsed < live_floor:
                    live_elapsed = live_floor
                live_others = (busy - mine) / live_elapsed
                rho_others = settled_others if settled_others >= live_others else live_others
                if rho_others > cap:
                    rho_others = cap
                if rho_others > 0.0:
                    mm1 = ser0 * rho_others / (1.0 - rho_others)
                    own = mine if mine >= ser0 else ser0
                    settled_total = rho_settled[d0]
                    live_total = busy / live_elapsed
                    rho_total = settled_total if settled_total >= live_total else live_total
                    if rho_total > 1.0:
                        rho_total = 1.0
                    over = busy / own - 1.0
                    if over < 0.0:
                        over = 0.0
                    fair = ser0 * over * rho_total * rho_total
                    wait = mm1 if mm1 <= fair else fair
            # One sum, as occupy() returns it, so totals round alike.
            base += wait + disrupt
        # --- response row (opposite direction, so state is independent)
        if faults is not None:
            ser1 = ser1 * faults.link_ser_scale(self.name, t)
            disrupt = self._fault_disruptions(cls1, d1, ser1, wire1, actor)
        elapsed = t - win_start[d1]
        if elapsed >= window:
            rho_settled[d1] = min(cap, win_busy[d1] / elapsed)
            rho_by[d1] = {
                a: min(cap, busy / elapsed)
                for a, busy in win_by[d1].items()
            }
            win_start[d1] = t
            win_busy[d1] = 0.0
            win_by[d1] = {}
        busy = win_busy[d1] + ser1
        win_busy[d1] = busy
        by = win_by[d1]
        try:
            mine = by[actor] + ser1
        except KeyError:
            mine = ser1
        by[actor] = mine
        agg1[0] += 1
        agg1[1] += payload1
        agg1[2] += wire1
        agg1[3] += ser1
        cell1[0] += 1
        cell1[1] += wire1
        if charge1:
            wait = 0.0
            try:
                settled_others = rho_settled[d1] - rho_by[d1][actor]
            except KeyError:
                settled_others = rho_settled[d1]
            if busy != mine or settled_others > 0.0:
                if settled_others < 0.0:
                    settled_others = 0.0
                live_elapsed = t - win_start[d1] + ser1
                if live_elapsed < live_floor:
                    live_elapsed = live_floor
                live_others = (busy - mine) / live_elapsed
                rho_others = settled_others if settled_others >= live_others else live_others
                if rho_others > cap:
                    rho_others = cap
                if rho_others > 0.0:
                    mm1 = ser1 * rho_others / (1.0 - rho_others)
                    own = mine if mine >= ser1 else ser1
                    settled_total = rho_settled[d1]
                    live_total = busy / live_elapsed
                    rho_total = settled_total if settled_total >= live_total else live_total
                    if rho_total > 1.0:
                        rho_total = 1.0
                    over = busy / own - 1.0
                    if over < 0.0:
                        over = 0.0
                    fair = ser1 * over * rho_total * rho_total
                    wait = mm1 if mm1 <= fair else fair
            base += wait + disrupt
        return base

    def plan_one_way(self, cls: MessageClass, direction: int,
                     payload_bytes: Optional[int] = None) -> tuple:
        """Build a memoized per-hop charge row for :meth:`one_way`.

        Returns the flat 14-field tuple ``(link, direction, payload,
        wire, ser, latency, ser+latency, agg, class_cell, win_busy,
        win_by, win_start, rho_settled, rho_by)`` — the resolved wire
        figures plus the live statistics and utilization-window cells a
        caller needs to replay :meth:`one_way`'s accounting without the
        per-call validation, payload resolution, and class-cell dict
        lookup (see :meth:`repro.topology.net.Router.charge`). The row
        embeds mutable state that :meth:`scaled` and :meth:`reset_stats`
        replace, so holders must drop it when :attr:`on_scaled` fires;
        fault attachment needs no invalidation because consumers are
        expected to re-check :attr:`faults` per charge and fall back to
        :meth:`one_way`.
        """
        if direction not in (0, 1):
            raise InterconnectError(f"direction must be 0 or 1, got {direction}")
        payload = cls.payload_bytes(payload_bytes or 0)
        wire = payload + self.header_overhead
        ser = wire / self.bandwidth
        stats = self.stats[direction]
        return (
            self, direction, payload, wire, ser, self.latency_ns,
            ser + self.latency_ns, stats.agg, stats.class_cell(cls),
            self._win_busy, self._win_by, self._win_start,
            self._rho, self._rho_by,
        )

    def round_trip(
        self,
        request: MessageClass,
        response: MessageClass,
        direction: int,
        request_bytes: Optional[int] = None,
        response_bytes: Optional[int] = None,
    ) -> float:
        """Request out on ``direction``, response back on the other half."""
        out = self.one_way(request, direction, request_bytes)
        back = self.one_way(response, 1 - direction, response_bytes)
        return out + back

    # ------------------------------------------------------------------
    def utilization(self, direction: int, window_ns: float) -> float:
        """Fraction of ``window_ns`` this direction spent serializing."""
        if window_ns <= 0:
            return 0.0
        return min(1.0, self.stats[direction].busy_ns / window_ns)

    def total_wire_bytes(self) -> int:
        """Wire bytes in both directions combined."""
        return self.stats[0].wire_bytes + self.stats[1].wire_bytes

    def reset_stats(self) -> None:
        """Clear traffic statistics and the utilization-window state.

        Resetting the window state matters for reused links: a settled
        rho estimate or partially filled demand window from the previous
        experiment would otherwise leak queueing delay (and the per-class
        byte counters would double-count) into the next one.
        """
        self.stats = (LinkStats(), LinkStats())
        now = self.sim.now
        self._win_busy = [0.0, 0.0]
        self._win_by = [{}, {}]
        self._win_start = [now, now]
        self._rho = [0.0, 0.0]
        self._rho_by = [{}, {}]
        # Cached occupy_pair plans embed the replaced stats cells.
        if self.on_scaled is not None:
            self.on_scaled()

    def rho(self, direction: int) -> float:
        """Most recently settled utilization estimate for a direction."""
        return self._rho[direction]

    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> None:
        """Rescale link performance in place (Fig 21 sensitivity knob)."""
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise InterconnectError("scale factors must be positive")
        self.latency_ns *= latency_factor
        self.bandwidth *= bandwidth_factor
        if self.on_scaled is not None:
            self.on_scaled()

    def __repr__(self) -> str:
        return (
            f"<Link {self.name!r} lat={self.latency_ns:.1f}ns "
            f"bw={self.bandwidth * 8:.0f}Gbps>"
        )
