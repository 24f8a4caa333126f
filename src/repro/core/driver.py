"""Host-side CC-NIC driver.

One :class:`CcnicDriver` serves one application thread with a private
TX/RX queue pair (the paper's per-thread queue configuration). All
methods return the nanoseconds of host-core time they cost; application
processes yield those to the simulator.

With ``nic_buffer_mgmt`` disabled (Fig 15's final ablation step), the
driver also performs PCIe-style bookkeeping: it posts blank RX buffers
to the NIC through an extra ring and reaps TX completions to free
buffers — the "extra bookkeeping passes over the queues" of §3.4.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.coherence.cache import CacheAgent
from repro.core.buffers import Buffer
from repro.core.recovery import RecoverableDriver
from repro.core.results import AllocResult, RxResult, TxResult
from repro.core.ring import CONTINUATION, WorkItem
from repro.errors import NicError
from repro.obs.instrument import Instrumented
from repro.sim.stats import ordered_sum
from repro.workloads.packets import Packet


class CcnicDriver(RecoverableDriver, Instrumented):
    """Host-side API for one queue pair of a :class:`CcnicInterface`."""

    #: Optional :class:`repro.obs.flight.FlightRecorder`, which takes
    #: one call record per burst and the sampled packets' checkpoints;
    #: class-level None so detached bursts pay one attribute test.
    flight = None

    #: Optional :class:`repro.check.sanitizer.Sanitizer`; same
    #: zero-cost-detached idiom as :attr:`flight`.
    sanitizer = None

    _obs_hooks = ("flight", "sanitizer")

    def __init__(self, interface, queue_index: int, host_agent: CacheAgent) -> None:
        self.interface = interface
        self.queue_index = queue_index
        self.agent = host_agent
        self.pair = interface.pair(queue_index)
        self._seq = 0
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_ns = 0.0
        self.rx_ns = 0.0
        self._empty_rx = RxResult((), 0.0)
        self._init_recovery_state()
        self._agent_losses_taken = 0

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return f"driver.q{self.queue_index}"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "tx_packets", fn=lambda: float(self.tx_packets))
        registry.gauge(self.obs_name, "rx_packets", fn=lambda: float(self.rx_packets))
        registry.gauge(self.obs_name, "tx_ns", fn=lambda: self.tx_ns)
        registry.gauge(self.obs_name, "rx_ns", fn=lambda: self.rx_ns)
        self._register_recovery_metrics(registry)

    # ------------------------------------------------------------------
    # Buffers and payloads
    # ------------------------------------------------------------------
    def alloc(self, sizes: Sequence[int]) -> AllocResult:
        """Allocate one buffer per payload size (partial on exhaustion)."""
        bufs, ns = self.interface.pool.alloc(self.agent, sizes)
        return AllocResult(bufs, ns)

    def free(self, bufs: Sequence[Buffer]) -> float:
        """Return buffers to the pool."""
        return self.interface.pool.free(self.agent, bufs)

    def write_payload(self, buf: Buffer, size: int) -> float:
        """Write ``size`` payload bytes into ``buf`` (full payload access).

        Uses cacheable stores by default (cache-to-cache transfer path);
        with ``caching_stores`` disabled, uses non-temporal stores that
        bypass the cache (the Fig 9 comparison case).
        """
        if 0 < size <= buf.capacity:
            buf.data_len = size
        else:
            buf.set_payload(size)  # raises PoolError
        san = self.sanitizer
        if san is not None:
            san.buf_access(self.agent, buf, write=True)
        fabric = self.interface.system.fabric
        if self.interface.config.caching_stores:
            return fabric.write(self.agent, buf.addr, size)
        return fabric.nt_store(self.agent, buf.addr, size)

    def read_payload(self, buf: Buffer) -> float:
        """Read a received buffer's full payload."""
        return self.read_payloads([buf])

    def read_payloads(self, bufs: Sequence[Buffer]) -> float:
        """Read a burst of received payloads.

        The reads are independent, so they overlap in the core's fill
        buffers (charged via the fabric's burst-access model).
        """
        san = self.sanitizer
        if san is not None:
            for buf in bufs:
                san.buf_access(self.agent, buf, write=False)
        fabric = self.interface.system.fabric
        spans = []
        for buf in bufs:
            seg = buf
            while seg is not None:
                if seg.data_len:
                    spans.append((seg.addr, seg.data_len))
                seg = seg.seg_next
        if not spans:
            return 0.0
        return fabric.access_burst(self.agent, spans, write=False)

    def write_payloads(self, sized: Sequence[Tuple[Buffer, int]]) -> float:
        """Write a burst of TX payloads (overlapped independent stores)."""
        fabric = self.interface.system.fabric
        san = self.sanitizer
        spans = []
        for buf, size in sized:
            if 0 < size <= buf.capacity:
                buf.data_len = size
            else:
                buf.set_payload(size)  # raises PoolError
            if san is not None:
                san.buf_access(self.agent, buf, write=True)
            spans.append((buf.addr, size))
        if not spans:
            return 0.0
        if self.interface.config.caching_stores:
            return fabric.access_burst(self.agent, spans, write=True)
        return ordered_sum(
            fabric.nt_store(self.agent, addr, size) for addr, size in spans
        )

    # ------------------------------------------------------------------
    # TX / RX
    # ------------------------------------------------------------------
    def tx_burst(
        self,
        entries: Sequence[Tuple[Buffer, Packet]],
        base_ns: float = 0.0,
    ) -> TxResult:
        """Submit packets for transmission.

        Args:
            entries: (buffer, packet) pairs; each buffer's ``data_len``
                must be set (via :meth:`write_payload`). Multi-segment
                buffers occupy one extra descriptor slot per extra
                segment, as the paper notes for zero-copy KV gets.
            base_ns: Time already accumulated by the caller this step;
                descriptor visibility is delayed by it.

        Returns:
            :class:`TxResult`; packets beyond ring capacity are not
            submitted and their descriptors are untouched.
        """
        flight = self.flight
        if flight is not None:
            first = flight.events_seen
        items: List[WorkItem] = []
        bounds: List[int] = []  # item count after each whole packet
        for buf, pkt in entries:
            if buf.data_len <= 0:
                raise NicError(f"buffer {buf.buf_id} submitted without payload")
            self._seq = seq = self._seq + 1
            seg = buf.seg_next
            if seg is None:
                items.append(WorkItem(buf, buf.data_len, pkt, seq))
            else:
                items.append(WorkItem(buf, buf.total_len, pkt, seq))
                while seg is not None:
                    items.append(WorkItem(buf, 0, CONTINUATION, seq))
                    seg = seg.seg_next
            bounds.append(len(items))
        accepted_items, ns = self.pair.tx.produce(
            self.agent, items, base_ns=base_ns, bounds=bounds
        )
        accepted_packets = 0
        for bound in bounds:
            if bound <= accepted_items:
                accepted_packets += 1
        self.tx_packets += accepted_packets
        self.tx_ns += ns
        if flight is not None:
            # Ride the trace id on each accepted packet's head descriptor
            # so the NIC agent can attribute its fetch. Stamping after
            # produce() is safe: consumers gate on visible_at, which is
            # strictly in this step's future.
            start = self.interface.system.sim.now + base_ns
            prev = 0
            for (_buf, pkt), bound in zip(entries, bounds):
                if bound > accepted_items:
                    break
                head = items[prev]
                prev = bound
                pid = getattr(pkt, "pkt_id", None)
                if pid is None:
                    continue
                submit_ns = getattr(pkt, "tx_ns", 0.0) or start
                if flight.packet_begin(pid, submit_ns):
                    head.trace = pid
                    flight.packet_event(pid, "desc_write", head.visible_at)
            flight.call(
                self.agent.name, "tx_burst", start, start + ns, first,
                packets=len(entries), accepted=accepted_packets,
            )
        return TxResult(accepted_packets, ns)

    def rx_burst(self, max_packets: int) -> RxResult:
        """Poll the RX ring for up to ``max_packets`` received packets."""
        flight = self.flight
        if flight is not None:
            first = flight.events_seen
        items, ns = self.pair.rx.poll(self.agent, max_packets)
        self.rx_ns += ns
        if items:
            out = [(item.pkt, item.buf) for item in items if item.pkt is not CONTINUATION]
            self.rx_packets += len(out)
            if flight is not None:
                reap_ns = self.interface.system.sim.now + ns
                for item in items:
                    if item.trace is not None:
                        flight.packet_event(item.trace, "host_reap", reap_ns)
            result = RxResult(out, ns)
        else:
            # Empty polls dominate a latency-bound run; the result is
            # immutable, so one empty RxResult serves every poll of the
            # same cost.
            result = self._empty_rx
            if result.ns != ns:
                result = self._empty_rx = RxResult((), ns)
        if flight is not None:
            now = self.interface.system.sim.now
            flight.call(
                self.agent.name, "rx_burst", now, now + ns, first,
                received=result.count,
            )
        return result

    # ------------------------------------------------------------------
    # Idle-poll elision
    # ------------------------------------------------------------------
    @property
    def needs_housekeeping(self) -> bool:
        """Whether :meth:`housekeeping` does any work.

        Only with host-side buffer management: under NIC-managed buffers
        it returns 0.0 at once, so apps may leave it uncalled. Apps read
        this with ``getattr(driver, "needs_housekeeping", True)``; drivers
        without the flag keep their per-iteration call.
        """
        return not self.interface.config.nic_buffer_mgmt

    @property
    def skips_idle_polls(self) -> bool:
        """Whether an app may skip this driver's steady-state empty polls.

        Needs housekeeping that does nothing (NIC-side buffer
        management) and the grouped RX ring, whose producer writes each
        line once per lap: an empty poll that repeats the previous one's
        cost on the same line was then a hit on the host's own copy.
        """
        return not self.needs_housekeeping and self.pair.rx.grouped

    def idle_wake(self) -> float:
        """When a repeat of the last empty poll could do more than it did.

        Valid after an empty poll, housekeeping and watchdog pass that
        repeated the previous one: the earlier of when the RX head slot
        can turn visible on its own and when the watchdog would fire.
        """
        wake = self.pair.rx.idle_wake()
        if self._watchdog is not None:
            tx = self.pair.tx
            wake = min(wake, self._watchdog.quiet_until(tx.tail - tx.head))
        return wake

    def skip_idle_polls(
        self, poll_ns: float, start: float, step: float, count: int, last: float
    ) -> None:
        """Account ``count`` skipped repeats of the last empty poll pass.

        The repeats fall at ``start + step``, ``+ step``, ... up to
        ``last``, each strictly before :meth:`idle_wake`; each would
        have cost ``poll_ns`` and changed only what is replayed here:
        the RX time, the fabric's hit count and, with a flight recorder
        attached, each poll's hit event inside its ``rx_burst`` call
        record, and the watchdog's clock.
        """
        rx_ns = self.rx_ns
        for _ in range(count):
            rx_ns += poll_ns
        self.rx_ns = rx_ns
        line = self.pair.rx.poll_addr()
        fabric = self.interface.system.fabric
        flight = self.flight
        if flight is None:
            fabric.skip_read_hits(self.agent, line, start, (step,), count)
        else:
            t = start
            for _ in range(count):
                first = flight.events_seen
                fabric.skip_read_hits(self.agent, line, t, (step,), 1)
                t += step
                flight.call(
                    self.agent.name, "rx_burst", t, t + poll_ns, first, received=0
                )
        if self._watchdog is not None:
            tx = self.pair.tx
            self._watchdog.skip(last, tx.tail - tx.head)

    # ------------------------------------------------------------------
    # Recovery (inert until configure_recovery is called)
    # ------------------------------------------------------------------
    def watchdog(self) -> float:
        """Reset the queue pair if the TX ring has stopped making progress.

        Called from the application's housekeeping pass; returns the ns
        the check (and any reset) cost. A wedged NIC leaves descriptors
        parked with the consumed count frozen — exactly what
        :class:`RingWatchdog` watches for.
        """
        if self._watchdog is None:
            return 0.0
        sim = self.interface.system.sim
        tx = self.pair.tx
        if not self._watchdog.stalled(sim.now, tx.tail - tx.head, tx.consumed):
            return 0.0
        ns = self._reset_rings()
        self._watchdog.reset(sim.now)
        return ns

    def _reset_rings(self) -> float:
        """Reinitialize every ring of the pair and revive the NIC agent.

        Abandoned descriptors are reclaimed: their buffers (including
        blanks the device had fetched) go back to the pool, and every
        abandoned data packet is counted so the application can write
        the loss off against its in-flight window.
        """
        pair = self.pair
        lost_packets = 0
        to_free: List[Buffer] = []
        for queue in (pair.tx, pair.rx, pair.tx_comp, pair.rx_post):
            if queue is None:
                continue
            for item in queue.reinitialize():
                if item.pkt is not None and item.pkt is not CONTINUATION:
                    lost_packets += 1
                if item.buf is not None:
                    to_free.append(item.buf)
        if pair.rx_post is not None:
            pair.rx_post_mark = pair.rx_post.consumed
        if pair.agent is not None:
            to_free.extend(pair.agent.reinit())
        ns = self._free_abandoned(to_free)
        self.watchdog_resets += 1
        self.reset_dropped += lost_packets
        self._reset_losses += lost_packets
        return ns

    def take_reset_losses(self) -> int:
        """Packets lost to NIC resets since the last call.

        Covers descriptors abandoned during ring reinitialization and
        packets the device dropped from the wire while wedged; the
        traffic generator writes these off so its closed-loop window
        refills instead of deadlocking.
        """
        lost = self._reset_losses
        self._reset_losses = 0
        agent = self.pair.agent
        if agent is not None:
            lost += agent.lost_packets - self._agent_losses_taken
            self._agent_losses_taken = agent.lost_packets
        return lost

    # ------------------------------------------------------------------
    # PCIe-style bookkeeping (only when shared management is disabled)
    # ------------------------------------------------------------------
    def housekeeping(self, post_target: int = 64) -> float:
        """Reap TX completions and post blank RX buffers.

        A no-op under CC-NIC's shared buffer management, where apps
        leave it uncalled (:attr:`needs_housekeeping`); with host-side
        management they call it each loop iteration.
        """
        if not self.needs_housekeeping:
            return 0.0
        ns = 0.0
        # Reap TX completions: the NIC cannot free, so it passes used
        # buffers back and the host returns them to the pool.
        done, poll_ns = self.pair.tx_comp.poll(self.agent, post_target)
        ns += poll_ns
        if done:
            ns += self.free([item.buf for item in done])
        # Post blank RX buffers up to the target.
        deficit = post_target - self.pair.rx_posted
        if deficit > 0:
            blank = self.alloc([self.interface.config.buf_size] * deficit)
            ns += blank.ns
            if blank.bufs:
                items = [WorkItem(buf=b, length=0, pkt=None) for b in blank.bufs]
                accepted, produce_ns = self.pair.rx_post.produce(
                    self.agent, items, base_ns=ns
                )
                ns += produce_ns
                self.pair.rx_post_mark += accepted
                if accepted < blank.count:
                    ns += self.free(list(blank.bufs[accepted:]))
        return ns
