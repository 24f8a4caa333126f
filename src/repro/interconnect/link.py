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

from typing import Dict, Optional

from repro.errors import InterconnectError
from repro.interconnect.messages import MessageClass
from repro.sim.engine import Simulator

#: Utilization-measurement window, ns.
WINDOW_NS = 2000.0
#: Utilization cap: keeps the M/D/1 wait finite at saturation.
RHO_CAP = 0.97


class LinkStats:
    """Per-direction traffic counters, counted once per message shape.

    A message's *shape* is its ``(class, payload bytes, wire bytes)``
    triple. A charged message bumps the one ``[count]`` cell of its
    shape (:meth:`shape_cell`) and adds its serialization time to the
    running ``[busy_ns]`` cell :attr:`busy`; that is all the per-message
    work, so batched senders (:meth:`Link.occupy_pairs`,
    :meth:`repro.topology.net.Router.charge`) hold both cells in their
    plans and bump them with two list stores. ``messages``, the byte
    totals and the two per-class maps are summed from the shape counts
    when read. Integer totals do not depend on the order messages were
    counted in, so they equal per-message counting exactly; ``busy``
    stays a float sum in send order because its bits are pinned.
    """

    __slots__ = ("busy", "_shapes")

    def __init__(self) -> None:
        #: ``[busy_ns]``: serialization time summed in send order.
        self.busy: list = [0.0]
        # (class value, payload, wire) -> [count], in first-use order.
        self._shapes: Dict[tuple, list] = {}

    def shape_cell(self, cls: MessageClass, payload: int, wire: int) -> list:
        """Get-or-create the mutable ``[count]`` cell of one message shape."""
        key = (cls.value, payload, wire)
        cell = self._shapes.get(key)
        if cell is None:
            cell = self._shapes[key] = [0]
        return cell

    def note(self, cls: MessageClass, payload: int, wire: int, ser_ns: float) -> None:
        """Count one message of the given shape."""
        self.shape_cell(cls, payload, wire)[0] += 1
        self.busy[0] += ser_ns

    def _totals(self) -> tuple:
        """``(messages, payload, wire, by_class, wire_by_class)`` from the shapes."""
        messages = payload_bytes = wire_bytes = 0
        by_class: Dict[str, int] = {}
        wire_by_class: Dict[str, int] = {}
        for (cls, payload, wire), (count,) in self._shapes.items():
            messages += count
            payload_bytes += count * payload
            wire_bytes += count * wire
            by_class[cls] = by_class.get(cls, 0) + count
            wire_by_class[cls] = wire_by_class.get(cls, 0) + count * wire
        return messages, payload_bytes, wire_bytes, by_class, wire_by_class

    @property
    def messages(self) -> int:
        return self._totals()[0]

    @property
    def payload_bytes(self) -> int:
        return self._totals()[1]

    @property
    def wire_bytes(self) -> int:
        return self._totals()[2]

    @property
    def busy_ns(self) -> float:
        return self.busy[0]

    @property
    def by_class(self) -> Dict[str, int]:
        """Per-class message counts (snapshot view)."""
        return self._totals()[3]

    @property
    def wire_by_class(self) -> Dict[str, int]:
        """Per-class wire bytes (snapshot view)."""
        return self._totals()[4]

    def snapshot(self) -> Dict:
        """The canonical dict form of one direction's counters.

        Shard snapshots carry per-direction stats in this shape, so the
        keys are part of the merged-document fingerprint contract:
        ``messages``/``payload``/``wire``/``busy`` merge as sums and the
        two ``*_class`` maps merge key-wise (see
        :func:`repro.shard.merge._merge_link`).
        """
        messages, payload, wire, by_class, wire_by_class = self._totals()
        return {
            "messages": messages,
            "payload": payload,
            "wire": wire,
            "busy": self.busy[0],
            "by_class": by_class,
            "wire_by_class": wire_by_class,
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

    #: Optional :class:`repro.faults.FaultInjector`; each link starts
    #: with its own ``None`` (see :meth:`__init__`).
    faults = None

    #: The fault segment last fetched from :attr:`faults`,
    #: ``(lo, hi, scale, rows, injector)`` (see
    #: :meth:`repro.faults.FaultInjector.link_segment`). Class-level and
    #: naming no injector, so the first faulted message fetches one.
    _fault_segment = (0.0, 0.0, 1.0, (), None)

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
        # On the instance, not only the class: Python 3.11 specializes
        # the per-charge load of an instance attribute, not a class one.
        self.faults = None
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
        # Plan dicts built from this link's figures and cells; emptied
        # by scaled() and reset_stats() (see register_plans).
        self._plan_dicts: list = []

    def register_plans(self, plans: dict) -> None:
        """Have :meth:`scaled` and :meth:`reset_stats` empty ``plans``.

        A consumer that memoizes this link's wire and serialization
        figures or its statistics cells (the fabric's transition plans,
        the router's charge plans) registers the dict holding them. The
        link keeps the dict, not its owner, so no reference cycle forms
        as long as the plans themselves do not hold the link.
        """
        self._plan_dicts.append(plans)

    def _drop_plans(self) -> None:
        for plans in self._plan_dicts:
            plans.clear()

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
        faults = self.faults
        if faults is not None:
            ser, disrupt = self._fault_hooks(faults, cls, direction, ser, wire, actor)
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
        faults = self.faults
        if faults is not None:
            ser, disrupt = self._fault_hooks(faults, cls, direction, ser, wire, actor)
        wait = self._enqueue(direction, ser, actor)
        self.stats[direction].note(cls, payload, wire, ser)
        if charge_queueing:
            return wait + disrupt
        return disrupt

    def _fault_hooks(
        self, faults, cls: MessageClass, direction: int, ser: float, wire: int, actor: str
    ) -> tuple:
        """``(ser, extra delay)`` of one message under ``faults``.

        Reads the link's fault segment, fetching a new one only when
        ``now`` has left it or another injector is attached. Inside it a
        message with no active event costs the range test; a degrade
        window scales ``ser`` and counts the message in
        ``degraded_messages``; each active per-message event draws once,
        in plan order, until one fires (:meth:`_book_fault`).
        :meth:`repro.topology.net.Router.charge` calls this per faulted
        hop; :meth:`occupy_pairs` runs the same steps inline.
        """
        t = self.sim.now
        lo, hi, scale, rows, owner = self._fault_segment
        if owner is not faults or not lo <= t < hi:
            lo, hi, scale, rows, owner = self._fault_segment = faults.link_segment(
                self.name, t
            )
        if scale != 1.0:
            ser = ser * scale
            faults.counters.add("degraded_messages")
        for probability, fault in rows:
            if faults.draw() < probability:
                return ser, self._book_fault(faults, fault, cls, direction, ser, wire, actor)
        return ser, 0.0

    def _book_fault(
        self, faults, fault, cls: MessageClass, direction: int, ser: float, wire: int,
        actor: str,
    ) -> float:
        """Log a fired link fault, book its wasted copy; return its extra delay.

        Coherent links never surface loss to the protocol layer: a
        dropped flit is retransmitted by the link layer, so a "drop"
        manifests as extra latency plus a second (wasted) copy on the
        wire. Duplicates likewise burn bandwidth without delaying the
        original. Both wasted copies are booked through ``_enqueue`` and
        counted in the stats with zero payload bytes, ahead of the
        message's own accounting.
        """
        faults._note(self.sim.now, fault.kind)
        if fault.retransmit or fault.duplicate:
            self._enqueue(direction, ser, actor)
            self.stats[direction].note(cls, 0, wire, ser)
        if fault.retransmit:
            return fault.extra_ns + ser
        return fault.extra_ns

    #: Utilization-measurement window, ns (the module's
    #: :data:`WINDOW_NS`, which the charge paths read as a global).
    WINDOW_NS = WINDOW_NS
    #: Utilization cap (the module's :data:`RHO_CAP`).
    RHO_CAP = RHO_CAP

    def _roll(self, direction: int, t: float) -> None:
        """Settle ``direction``'s window at ``t`` and open a new one there.

        Callers roll only when ``t`` is at least :attr:`WINDOW_NS` past
        the window's start. The settled utilization, in total and per
        actor, is the window's demand over the time it was open.
        """
        elapsed = t - self._win_start[direction]
        self._rho[direction] = min(RHO_CAP, self._win_busy[direction] / elapsed)
        self._rho_by[direction] = {
            a: min(RHO_CAP, busy / elapsed) for a, busy in self._win_by[direction].items()
        }
        self._win_start[direction] = t
        self._win_busy[direction] = 0.0
        self._win_by[direction] = {}

    def _enqueue(self, direction: int, ser: float, actor: str) -> float:
        """Record ``ser`` ns of demand by ``actor``; return the wait.

        Windows roll on wall (simulator) time; demand is accounted per
        actor. The wait charged to a message is an M/D/1-style
        ``ser * rho / (1 - rho)`` where rho is the utilization offered
        by *other* actors — an actor's own stream is already paced by
        the latency charged to it, so it never queues behind itself.
        By the same rule an actor alone in the live window never waits,
        whatever others settled in the previous one: its stream is the
        window's whole demand, so its fair-share term is exactly 0.0.
        """
        t = self.sim.now
        if t - self._win_start[direction] >= WINDOW_NS:
            self._roll(direction, t)
        self._win_busy[direction] += ser
        by = self._win_by[direction]
        by[actor] = by.get(actor, 0.0) + ser
        if self._win_busy[direction] == by[actor]:
            # Sole actor in the live window: live_others is exactly 0.0
            # and total / own - 1.0 is exactly 0.0, so the fair share,
            # and with it the wait, is 0.0 whatever others settled.
            return 0.0
        settled_others = max(
            0.0, self._rho[direction] - self._rho_by[direction].get(actor, 0.0)
        )
        live_elapsed = max(WINDOW_NS / 4, t - self._win_start[direction] + ser)
        live_others = (self._win_busy[direction] - by[actor]) / live_elapsed
        rho_others = min(RHO_CAP, max(settled_others, live_others))
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

    def occupy_pairs(
        self, plan: tuple, actor: str, base: float = 0.0, n: int = 1, out=None
    ) -> float:
        """Charge ``n`` copies of a flattened two-message plan at ``now``.

        The coherence fabric's memoized transition plans always pair one
        request message with one response on the opposite half of the
        duplex link, so the whole plan is a flat 14-field tuple — two
        ``(direction, cls, wire, ser, charge_queueing, busy, count)``
        rows concatenated — that unpacks once and runs straight-line.
        ``wire``/``ser`` are resolved against the current bandwidth and
        header configuration; ``busy`` and ``count`` are the direction's
        :attr:`LinkStats.busy` cell and the row shape's
        :meth:`LinkStats.shape_cell`, so counting a message is two list
        stores (the fabric registers its plans with
        :meth:`register_plans`, so both :meth:`scaled` and
        :meth:`reset_stats` drop them when either goes stale).

        The pairs go out one after another, request then response, all
        at the same ``now``: a single fill, upgrade or prefetch sends
        one, and a fill run
        (:meth:`repro.coherence.fabric.CoherenceFabric.access_burst`)
        sends one per line. Each pair's result is ``base`` plus the
        waits of its charged rows; the call returns the last pair's, and
        appends every pair's, in send order, to ``out`` when given. The
        accounting is bit-identical to calling :meth:`occupy` once per
        row — same fault draws, window rolls, per-actor demand updates
        and wait arithmetic in the same evaluation order — batching away
        only the per-call validation, payload resolution and attribute
        traffic; :meth:`occupy` is the oracle the property tests hold it
        to. Rows with ``charge_queueing`` False still consume window
        demand but add nothing to the result, so a demand-only pair (the
        prefetcher's) books its rows and returns ``base``. A charged row
        works its wait out only when another actor shares the live
        window (see :meth:`_enqueue`). With an injector attached the
        call reads the fault segment once, as :meth:`occupy` would at
        its one ``now``: each row scales by the degrade factor (counting
        it), draws the active events in plan order (a fired draw's
        wasted copy books ahead of the row), then does its own
        accounting, with the draw's extra delay charged beside its wait.
        """
        (d0, cls0, wire0, ser0, charge0, busy0, count0,
         d1, cls1, wire1, ser1, charge1, busy1, count1) = plan
        faults = self.faults
        t = self.sim.now
        if faults is not None:
            # One now for every pair, so one segment and one scale.
            lo, hi, scale, rows, owner = self._fault_segment
            if owner is not faults or not lo <= t < hi:
                lo, hi, scale, rows, owner = self._fault_segment = faults.link_segment(
                    self.name, t
                )
            if scale != 1.0:
                ser0 = ser0 * scale
                ser1 = ser1 * scale
        # At one now only a direction's first message can roll its
        # window, and a request row books demand on its own direction
        # alone, so both rolls can happen first. The settled shares and
        # the live span are then fixed for the call: each direction works
        # them out at its first wait that needs them.
        window = WINDOW_NS
        cap = RHO_CAP
        win_start = self._win_start
        if t - win_start[d0] >= window:
            self._roll(d0, t)
        if t - win_start[d1] >= window:
            self._roll(d1, t)
        win_busy = self._win_busy
        win_by = self._win_by
        # The running sums a pair adds to (window demand, the actor's
        # share of it, the statistics' busy time) stay in locals, and go
        # back to their cells before a fired draw books its wasted copy
        # through them and when the call ends: the same float adds in
        # the same order. A missing share starts at 0.0, and 0.0 + ser is
        # ser exactly.
        rho_settled = self._rho
        rho_by = self._rho_by
        by0 = win_by[d0]
        by1 = win_by[d1]
        wb0 = win_busy[d0]
        wb1 = win_busy[d1]
        mine0 = by0.get(actor, 0.0)
        mine1 = by1.get(actor, 0.0)
        sb0 = busy0[0]
        sb1 = busy1[0]
        live0 = live1 = None
        pairs = n
        while True:
            total = base
            # --- request row
            disrupt = 0.0
            if faults is not None:
                if scale != 1.0:
                    faults.counters.add("degraded_messages")
                for probability, fault in rows:
                    if faults.draw() < probability:
                        win_busy[d0] = wb0
                        by0[actor] = mine0
                        busy0[0] = sb0
                        disrupt = self._book_fault(faults, fault, cls0, d0, ser0, wire0, actor)
                        wb0 = win_busy[d0]
                        mine0 = by0[actor]
                        sb0 = busy0[0]
                        break
            wb0 += ser0
            mine0 += ser0
            sb0 += ser0
            if charge0:
                wait = 0.0
                # Sole actor in the live window: the fair share, and with
                # it the wait, is exactly 0.0 whatever others settled (see
                # _enqueue) — skip the arithmetic (the common case). Else
                # _enqueue's formula, where max(own, ser) is mine0: the
                # row's ser is already booked in it.
                if wb0 != mine0:
                    if live0 is None:
                        settled0 = rho_settled[d0]
                        others0 = settled0 - rho_by[d0].get(actor, 0.0)
                        if others0 < 0.0:
                            others0 = 0.0
                        live0 = t - win_start[d0] + ser0
                        if live0 < window / 4:
                            live0 = window / 4
                    live_others = (wb0 - mine0) / live0
                    rho_others = others0 if others0 >= live_others else live_others
                    if rho_others > cap:
                        rho_others = cap
                    if rho_others > 0.0:
                        mm1 = ser0 * rho_others / (1.0 - rho_others)
                        live_total = wb0 / live0
                        rho_total = settled0 if settled0 >= live_total else live_total
                        if rho_total > 1.0:
                            rho_total = 1.0
                        over = wb0 / mine0 - 1.0
                        if over < 0.0:
                            over = 0.0
                        fair = ser0 * over * rho_total * rho_total
                        wait = mm1 if mm1 <= fair else fair
                # One sum, as occupy() returns it, so totals round alike.
                total += wait + disrupt
            # --- response row (opposite direction, so state is independent)
            disrupt = 0.0
            if faults is not None:
                if scale != 1.0:
                    faults.counters.add("degraded_messages")
                for probability, fault in rows:
                    if faults.draw() < probability:
                        win_busy[d1] = wb1
                        by1[actor] = mine1
                        busy1[0] = sb1
                        disrupt = self._book_fault(faults, fault, cls1, d1, ser1, wire1, actor)
                        wb1 = win_busy[d1]
                        mine1 = by1[actor]
                        sb1 = busy1[0]
                        break
            wb1 += ser1
            mine1 += ser1
            sb1 += ser1
            if charge1:
                wait = 0.0
                if wb1 != mine1:
                    if live1 is None:
                        settled1 = rho_settled[d1]
                        others1 = settled1 - rho_by[d1].get(actor, 0.0)
                        if others1 < 0.0:
                            others1 = 0.0
                        live1 = t - win_start[d1] + ser1
                        if live1 < window / 4:
                            live1 = window / 4
                    live_others = (wb1 - mine1) / live1
                    rho_others = others1 if others1 >= live_others else live_others
                    if rho_others > cap:
                        rho_others = cap
                    if rho_others > 0.0:
                        mm1 = ser1 * rho_others / (1.0 - rho_others)
                        live_total = wb1 / live1
                        rho_total = settled1 if settled1 >= live_total else live_total
                        if rho_total > 1.0:
                            rho_total = 1.0
                        over = wb1 / mine1 - 1.0
                        if over < 0.0:
                            over = 0.0
                        fair = ser1 * over * rho_total * rho_total
                        wait = mm1 if mm1 <= fair else fair
                total += wait + disrupt
            if out is not None:
                out.append(total)
            pairs -= 1
            if pairs:
                continue
            win_busy[d0] = wb0
            by0[actor] = mine0
            busy0[0] = sb0
            count0[0] += n
            win_busy[d1] = wb1
            by1[actor] = mine1
            busy1[0] = sb1
            count1[0] += n
            return total

    def plan_one_way(self, cls: MessageClass, direction: int,
                     payload_bytes: Optional[int] = None) -> tuple:
        """Build a memoized per-hop charge row for :meth:`one_way`.

        Returns the flat 12-field tuple ``(direction, wire, ser,
        latency, ser+latency, busy, count, win_busy, win_by, win_start,
        rho_settled, rho_by)`` — the resolved wire figures
        plus the live statistics cells (:attr:`LinkStats.busy` and the
        hop's :meth:`LinkStats.shape_cell`) and utilization-window cells
        a caller needs to replay :meth:`one_way`'s accounting without
        the per-call validation, payload resolution, and shape lookup
        (see :meth:`repro.topology.net.Router.charge`). The row embeds
        mutable state that :meth:`scaled` and :meth:`reset_stats`
        replace, so holders keep rows in a dict passed to
        :meth:`register_plans`; the row does not hold the link, so that
        dict forms no cycle with it. Fault attachment needs no
        invalidation: consumers re-read :attr:`faults` per charge and
        read the link's fault segment inline.
        """
        if direction not in (0, 1):
            raise InterconnectError(f"direction must be 0 or 1, got {direction}")
        payload = cls.payload_bytes(payload_bytes or 0)
        wire = payload + self.header_overhead
        ser = wire / self.bandwidth
        stats = self.stats[direction]
        return (
            direction, wire, ser, self.latency_ns,
            ser + self.latency_ns, stats.busy, stats.shape_cell(cls, payload, wire),
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
        # Registered plans embed the replaced stats and window cells.
        self._drop_plans()

    def rho(self, direction: int) -> float:
        """Most recently settled utilization estimate for a direction."""
        return self._rho[direction]

    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> None:
        """Rescale link performance in place (Fig 21 sensitivity knob)."""
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise InterconnectError("scale factors must be positive")
        self.latency_ns *= latency_factor
        self.bandwidth *= bandwidth_factor
        self._drop_plans()

    def __repr__(self) -> str:
        return (
            f"<Link {self.name!r} lat={self.latency_ns:.1f}ns "
            f"bw={self.bandwidth * 8:.0f}Gbps>"
        )
