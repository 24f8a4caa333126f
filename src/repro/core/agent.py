"""The NIC-side agent: the device half of the CC-NIC interface.

One agent process serves one queue pair, emulating the paper's software
NIC (§4): it polls the TX ring for new descriptors, reads payloads over
the coherent interconnect, loops packets back through a small wire
delay, allocates RX buffers, writes received payloads, and produces RX
descriptors. With shared buffer management it frees TX buffers straight
into its recycling stack (so subsequent RX writes land in NIC-warm
lines); without it, it forwards completions to the host and consumes
pre-posted blank buffers, exactly like a PCIe NIC.

Between packets the loop is empty TX polls, each a hit on the agent's
own copy of the ring's signal line until the host's store invalidates
it (§3.2). Once an idle iteration repeats the previous one, the agent
skips the following ones that fall before anything else can act and
yields a :class:`~repro.sim.engine.Resume` (see
:meth:`NicQueueAgent._skip_idle`); every result and counter is the
step-by-step run's.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Tuple

from repro.coherence.cache import CacheAgent
from repro.core.buffers import Buffer
from repro.core.ring import CONTINUATION, WorkItem
from repro.obs.instrument import Instrumented
from repro.sim.engine import Resume
from repro.workloads.packets import Packet

#: Cycles of NIC-side packet processing per packet (header parse, DMA
#: engine bookkeeping of the modelled ASIC).
NIC_CYCLES_PER_PKT = 13

#: Idle poll gap when an iteration finds no work, in ns.
IDLE_GAP_NS = 12.0


class NicQueueAgent(Instrumented):
    """Device-side processing loop for one queue pair."""

    #: Optional :class:`repro.obs.flight.FlightRecorder`, which takes
    #: one call record per TX or RX batch and the sampled packets'
    #: checkpoints; class-level None so detached iterations pay one
    #: attribute test per batch.
    flight = None

    #: Optional :class:`repro.check.sanitizer.Sanitizer`; same
    #: zero-cost-detached idiom as :attr:`flight`.
    sanitizer = None

    #: Optional :class:`repro.faults.FaultInjector` for stall/reset
    #: events, handed over by the interface's ``faults`` setter.
    #: Class-level None: fault-free.
    faults = None

    _obs_hooks = ("flight", "sanitizer")

    def __init__(self, interface, queue_index: int) -> None:
        # The agent keeps what it uses, not the interface or the queue
        # pair that own it: neither then forms a cycle with it.
        self.queue_index = queue_index
        pair = interface.pair(queue_index)
        self.tx = pair.tx
        self.rx = pair.rx
        self.tx_comp = pair.tx_comp
        self.rx_post = pair.rx_post
        self.config = interface.config
        self.pool = interface.pool
        system = interface.system
        self.sim = system.sim
        self.fabric = system.fabric
        self.agent: CacheAgent = system.new_nic_core(f"nic-q{queue_index}")
        # Loopback by default; applications may set a transmit sink to
        # model real peers (the KV store's clients) and inject arrivals.
        self.on_transmit = None
        # Packets "on the wire": (arrival time, packet).
        self._wire: Deque[Tuple[float, Packet]] = deque()
        # Blank buffers consumed from the host's rx_post ring.
        self._blanks: Deque[Buffer] = deque()
        self.tx_packets = 0
        self.rx_packets = 0
        self.busy_ns = 0.0
        # Fault state: a reset wedges the device (it stops serving its
        # rings and drops arrivals) until the host driver's watchdog
        # calls reinit(). lost_packets counts wire drops from resets.
        self.wedged = False
        self.lost_packets = 0
        # Per-packet processing charge, precomputed (cycles() is pure).
        self._pkt_ns = system.cycles(NIC_CYCLES_PER_PKT)

    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return f"nic_agent.q{self.queue_index}"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "tx_packets", fn=lambda: float(self.tx_packets))
        registry.gauge(self.obs_name, "rx_packets", fn=lambda: float(self.rx_packets))
        registry.gauge(self.obs_name, "busy_ns", fn=lambda: self.busy_ns)
        registry.gauge(
            self.obs_name, "lost_packets", fn=lambda: float(self.lost_packets)
        )

    # ------------------------------------------------------------------
    def run(self):
        """Generator body for the simulator (the NIC polling loop)."""
        sim = self.sim
        # Hot-loop hoists over construction-time-stable state; faults is
        # re-read each iteration because injectors may attach mid-run.
        tx = self.tx
        tx_poll = tx.poll
        tx_batch = self.config.tx_batch
        agent = self.agent
        assemble = self._assemble
        take_arrived = self._take_arrived
        queue_index = self.queue_index
        # When this queue's earliest unfired NIC one-shot is due, and the
        # injector that said so: the injector is asked again only once
        # that time comes or another injector is attached.
        due_from = None
        due = 0.0
        # Idle-poll elision: the last idle iteration's poll cost and TX
        # positions, or None after any other iteration.
        idle_key = None
        while True:
            faults = self.faults
            if faults is not None:
                if faults is not due_from:
                    due_from, due = faults, faults.nic_due(queue_index)
                if sim.now >= due:
                    fault = faults.nic_decide(queue_index, sim.now)
                    due = faults.nic_due(queue_index)
                    if fault is not None:
                        if fault.kind == "nic_reset":
                            self._device_reset()
                        idle_key = None
                        yield fault.duration_ns
                        continue
                if self.wedged:
                    # Arrivals fall on the floor until the host watchdog
                    # reinitializes this queue.
                    self.lost_packets += len(self._take_arrived(sim.now))
                    idle_key = None
                    yield IDLE_GAP_NS
                    continue
            busy = False
            ns = 0.0
            # --- TX: consume descriptors, read payloads, transmit.
            items, poll_ns = tx_poll(agent, tx_batch)
            ns += poll_ns
            flight = self.flight
            if flight is not None and items:
                # The coherence protocol is the signal: the poll that
                # returned these items observed the producer's
                # invalidation at sim.now and finished fetching the
                # descriptor lines poll_ns later.
                fetch_ns = sim.now + poll_ns
                for item in items:
                    if item.trace is not None:
                        flight.packet_event(item.trace, "signal_observed", sim.now)
                        flight.packet_event(item.trace, "nic_fetch", fetch_ns)
            packets = assemble(items)
            if packets:
                busy = True
                ns += self._transmit(packets, sim.now + ns)
            # --- RX: deliver packets that have finished the wire delay.
            arrived = take_arrived(sim.now + ns)
            if arrived:
                busy = True
                ns += self._receive(arrived, base_ns=ns)
            if busy:
                self.busy_ns += ns
                idle_key = None
            elif items:
                idle_key = None  # continuation descriptors only
            else:
                key = (poll_ns, tx.head, tx.tail)
                # A free poll (zero hit latency) takes no step of its own.
                if key == idle_key and poll_ns:
                    resume = self._skip_idle(
                        poll_ns, due if faults is not None else math.inf
                    )
                    if resume is not None:
                        yield resume
                        continue
                idle_key = key
            if ns:
                yield ns
            if not busy:
                yield IDLE_GAP_NS

    def _skip_idle(self, poll_ns: float, due: float):
        """Skip the steps that would repeat this idle iteration exactly.

        Called right after an idle poll (no descriptor, no arrival, no
        fault) that repeated the previous idle iteration's cost on the
        same TX head and tail. No produce came between the two, so this
        poll was a hit on the NIC's own copy of the polled line, and
        until something else acts every iteration repeats it: a poll
        step of ``poll_ns``, then a step of :data:`IDLE_GAP_NS`. This
        iteration's gap step and the whole iterations after it are
        skipped while every skipped step is strictly earlier than the
        engine's horizon (next queued event, timeline roll, ``until``)
        and within its step budget, each skipped poll starts strictly
        before the TX head slot can turn visible (``idle_wake``) and
        before ``due`` (this queue's next NIC one-shot), and ends
        strictly before the wire's head arrival. Returns the
        :class:`Resume` to yield, or None when not even the gap step
        can be skipped.
        """
        sim = self.sim
        start = sim.now
        limit, budget = sim.horizon()
        t = start + poll_ns  # this iteration's gap step
        if not (t < limit and budget):
            return None
        wire = self._wire
        if wire and wire[0][0] < limit:
            limit = wire[0][0]
        wake = self.tx.idle_wake()
        if due < wake:
            wake = due
        steps = 1
        t += IDLE_GAP_NS
        while t < wake and steps + 2 <= budget:
            end = t + poll_ns
            if not end < limit:
                break
            steps += 2
            t = end + IDLE_GAP_NS
        if steps > 1:
            self.fabric.skip_read_hits(
                self.agent, self.tx.poll_addr(), start, (poll_ns, IDLE_GAP_NS),
                steps // 2,
            )
        return Resume(t, steps)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _device_reset(self) -> None:
        """Lose all on-chip state: wire packets drop, the device wedges.

        Blank buffers the device had already fetched from the rx_post
        ring stay parked in ``_blanks`` — they are host pool memory, and
        :meth:`reinit` hands them back so the watchdog can free them.
        """
        self.wedged = True
        self.lost_packets += len(self._wire)
        self._wire.clear()

    def reinit(self) -> List[Buffer]:
        """Host-driven recovery: unwedge and surrender orphaned blanks."""
        self.wedged = False
        orphaned = list(self._blanks)
        self._blanks.clear()
        return orphaned

    # ------------------------------------------------------------------
    # TX path
    # ------------------------------------------------------------------
    def _assemble(self, items: List[WorkItem]) -> List[Tuple[Packet, Buffer]]:
        """Group continuation descriptors with their head descriptor."""
        packets = []
        for item in items:
            if item.pkt is CONTINUATION:
                continue  # payload handled via the head item's chain
            packets.append((item.pkt, item.buf))
        return packets

    def _transmit(self, packets: List[Tuple[Packet, Buffer]], now: float) -> float:
        """Read payloads, free TX buffers, place packets on the wire."""
        config = self.config
        fabric = self.fabric
        flight = self.flight
        if flight is not None:
            first = flight.events_seen
        ns = 0.0
        to_free: List[Buffer] = []
        spans = []
        san = self.sanitizer
        for _pkt, buf in packets:
            if san is not None:
                san.buf_access(self.agent, buf, write=False)
            seg = buf
            while seg is not None:
                if seg.data_len:
                    spans.append((seg.addr, seg.data_len))
                seg = seg.seg_next
        ns += fabric.access_burst(self.agent, spans, write=False)
        payload_ns = now + ns
        pkt_ns = self._pkt_ns
        wire_delay = config.wire_delay_ns
        for pkt, buf in packets:
            ns += pkt_ns
            seg = buf
            while seg is not None:
                if not seg.external:
                    to_free.append(seg)
                seg = seg.seg_next
            arrival = now + ns + wire_delay
            sink = self.on_transmit
            if sink is not None:
                sink(pkt, arrival)
            else:
                self._wire.append((arrival, pkt))
            if flight is not None:
                pid = getattr(pkt, "pkt_id", None)
                if pid is not None and flight.tracked(pid):
                    if sink is not None:
                        # The sink's peer never reads it back.
                        flight.packet_egress(pid)
                    else:
                        flight.packet_event(pid, "payload_fetch", payload_ns)
                        flight.packet_event(pid, "wire", arrival)
            self.tx_packets += 1
        if config.nic_buffer_mgmt:
            ns += self.pool.free(self.agent, to_free)
        else:
            comp_items = [WorkItem(buf=b, length=0, pkt=None) for b in to_free]
            _, comp_ns = self.tx_comp.produce(self.agent, comp_items, base_ns=ns)
            ns += comp_ns
        if flight is not None:
            flight.call(
                self.agent.name, "nic_tx", now, now + ns, first, packets=len(packets)
            )
        return ns

    # ------------------------------------------------------------------
    # RX path
    # ------------------------------------------------------------------
    def inject(self, pkt: Packet, when: float = 0.0) -> None:
        """Deliver an externally generated packet to this queue's RX path."""
        self._wire.append((when, pkt))

    def _take_arrived(self, now: float) -> List[Packet]:
        wire = self._wire
        arrived = []
        while wire and wire[0][0] <= now:
            arrived.append(wire.popleft()[1])
        return arrived

    def _receive(self, packets: List[Packet], base_ns: float = 0.0) -> float:
        """Write received payloads and produce RX descriptors.

        Shared buffer management lets the NIC pick buffer sizes *after*
        seeing the burst (small buffers for small packets) — impossible
        for a PCIe NIC whose blanks were posted in advance (§3.4).
        """
        config = self.config
        fabric = self.fabric
        agent = self.agent
        flight = self.flight
        if flight is not None:
            first = flight.events_seen
        ns = 0.0
        items: List[WorkItem] = []
        spans: List[Tuple[int, int]] = []
        san = self.sanitizer
        caching = config.caching_stores
        pkt_ns = self._pkt_ns
        # Under NIC-managed buffers a packet that fits one buffer takes
        # it from the pool here; jumbo chains and host-posted blanks go
        # through _rx_chain.
        alloc = self.pool.alloc if config.nic_buffer_mgmt else None
        buf_size = config.buf_size
        for position, pkt in enumerate(packets):
            size = pkt.size
            if alloc is not None and size <= buf_size:
                bufs, alloc_ns = alloc(agent, [size])
                buf = bufs[0] if bufs else None
                if buf is not None:
                    buf.data_len = size  # the pool sized it to fit
            else:
                buf, alloc_ns = self._rx_chain(size)
            ns += alloc_ns
            if buf is None:
                # No blanks posted: requeue this and all later packets.
                self._wire.extendleft(
                    (0.0, waiting) for waiting in reversed(packets[position:])
                )
                break
            if san is not None:
                san.buf_access(agent, buf, write=True)
            seg = buf
            while seg is not None:
                if caching:
                    spans.append((seg.addr, seg.data_len))
                else:
                    ns += fabric.nt_store(agent, seg.addr, seg.data_len)
                seg = seg.seg_next
            ns += pkt_ns
            items.append(WorkItem(buf, size, pkt))
        if spans:
            ns += fabric.access_burst(agent, spans, write=True)
        if items:
            accepted, produce_ns = self.rx.produce(
                agent, items, base_ns=base_ns + ns
            )
            ns += produce_ns
            if flight is not None:
                # Requeued items are re-received later and get recorded
                # on eventual acceptance, keeping the chain monotone.
                for item in items[:accepted]:
                    pid = getattr(item.pkt, "pkt_id", None)
                    if pid is not None and flight.tracked(pid):
                        item.trace = pid
                        flight.packet_event(pid, "compl_write", item.visible_at)
            # Ring backpressure: requeue anything not accepted.
            for item in items[accepted:]:
                self._wire.appendleft((0.0, item.pkt))
                self.pool.free(agent, [item.buf])
            self.rx_packets += accepted
        if flight is not None:
            start = self.sim.now + base_ns
            flight.call(
                agent.name, "nic_rx", start, start + ns, first,
                packets=len(packets),
            )
        return ns

    def _rx_chain(self, size: int):
        """Buffers for one received packet; jumbo frames chain segments.

        :meth:`_receive` allocates a one-buffer packet itself under
        NIC-managed buffers; it comes here for the rest.
        """
        config = self.config
        if size <= config.buf_size:
            buf, ns = self._rx_buffer(size)
            if buf is not None:
                buf.set_payload(size)
            return buf, ns
        head = None
        prev = None
        ns = 0.0
        remaining = size
        acquired = []
        while remaining > 0:
            seg, seg_ns = self._rx_buffer(min(remaining, config.buf_size))
            ns += seg_ns
            if seg is None:
                # Cannot finish the chain: return what we took.
                ns += self.pool.free(self.agent, acquired) if acquired else 0.0
                return None, ns
            seg.seg_next = None
            seg.set_payload(min(remaining, config.buf_size))
            acquired.append(seg)
            if head is None:
                head = seg
            else:
                prev.seg_next = seg
            prev = seg
            remaining -= seg.data_len
        return head, ns

    def _rx_buffer(self, size: int):
        """Allocate (shared mgmt) or dequeue a posted blank (host mgmt)."""
        config = self.config
        if config.nic_buffer_mgmt:
            bufs, ns = self.pool.alloc(self.agent, [size])
            return (bufs[0] if bufs else None), ns
        ns = 0.0
        if not self._blanks:
            blanks, poll_ns = self.rx_post.poll(self.agent, config.rx_batch)
            ns += poll_ns
            for item in blanks:
                self._blanks.append(item.buf)
        if not self._blanks:
            return None, ns
        return self._blanks.popleft(), ns
