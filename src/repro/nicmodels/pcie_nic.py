"""PCIe NIC interface model (E810- and CX6-style).

Implements the descriptor-queue interface of §2.1 over the PCIe access
paths of §2.2, exposing the same driver API as
:class:`~repro.core.driver.CcnicDriver` so the traffic generator and
applications are interface-agnostic:

* the host keeps rings and buffers in local write-back memory;
* TX submission writes descriptors locally, fences, and rings an
  uncacheable MMIO doorbell (one per burst);
* the device DMA-reads descriptors in batches, DMA-reads payloads,
  passes packets through a rate-limited pipeline, and on the RX side
  consumes pre-posted blank buffers, DMA-writes payloads and completion
  descriptors (DDIO-installing them into the host LLC);
* the host reaps TX completions from a head line the device DMA-writes,
  frees buffers, and re-posts blank RX buffers with an RX doorbell —
  the host-only buffer management of Fig 10a;
* a CX6-style device additionally accepts small packets inline through
  the write-combining MMIO path, skipping both DMA reads for
  latency-critical traffic (footnote 1 of §2.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.coherence.cache import CacheAgent
from repro.core.buffers import Buffer
from repro.core.config import CcnicConfig
from repro.core.pool import BufferPool
from repro.core.recovery import RecoverableDriver
from repro.core.results import AllocResult, RxResult, TxResult
from repro.errors import NicError
from repro.interconnect.link import Link
from repro.interconnect.messages import MessageClass
from repro.mem.region import Region
from repro.obs.instrument import Instrumented, Observability
from repro.pcie.dma import DmaEngine
from repro.pcie.mmio import MmioPath
from repro.platform.nicspecs import NicHardwareSpec
from repro.platform.system import System
from repro.workloads.packets import Packet

#: Device-side cycles per packet of pipeline bookkeeping (ns, fixed).
DEVICE_TICK_NS = 3.0

#: Idle poll gap of the device engine loop.
DEVICE_IDLE_NS = 25.0


@dataclass(frozen=True)
class PcieNicConfig:
    """Sizing and policy for a PCIe NIC interface instance."""

    ring_slots: int = 1024
    pool_buffers: int = 4096
    buf_size: int = 4096
    dma_batch: int = 32          # descriptors fetched per DMA read
    rx_post_target: int = 256    # blanks the host keeps posted
    inline_threshold: int = 128  # CX6: payloads at or below go inline
    tx_batch: int = 32
    rx_batch: int = 32

    def pool_config(self) -> CcnicConfig:
        """Pool settings: software-only recycling, full-size buffers."""
        return CcnicConfig(
            buf_recycling=True,       # i40e-style software reuse
            small_buffers=False,
            nic_buffer_mgmt=True,     # pool flag unused by this driver
            nonseq_alloc=False,
            ring_slots=self.ring_slots,
            pool_buffers=self.pool_buffers,
            buf_size=self.buf_size,
            recycle_stack_max=1024,
        )


@dataclass
class _TxWork:
    pkt: Packet
    buf: Buffer
    submit_ns: float
    inline: bool = False


@dataclass
class _RxCompletion:
    pkt: Packet
    buf: Buffer
    visible_at: float


@dataclass
class _PcieQueue:
    """Shared state between the host driver and the device engine."""

    tx_ring: Region
    rx_ring: Region
    tx_head_line: Region          # device DMA-writes the TX head here
    # Host-side logical state.
    tx_inflight: "Deque[_TxWork]" = field(default_factory=deque)
    tx_completed: "Deque[Buffer]" = field(default_factory=deque)
    rx_completions: "Deque[_RxCompletion]" = field(default_factory=deque)
    posted_blanks: int = 0
    # Device-side logical state.
    doorbells: "Deque[Tuple[float, int]]" = field(default_factory=deque)
    rx_doorbells: "Deque[Tuple[float, int]]" = field(default_factory=deque)
    host_tail: int = 0
    device_fetched: int = 0
    host_rx_posted: int = 0
    device_rx_fetched: int = 0
    device_blanks: "Deque[Buffer]" = field(default_factory=deque)
    # Inline (MMIO-path) TX work arriving with its WC flush: (when, work).
    inline_arrivals: "Deque[Tuple[float, _TxWork]]" = field(default_factory=deque)
    # Blanks in flight: (ready time after the background descriptor
    # prefetch completes, buffer).
    blank_queue: "Deque[Tuple[float, Buffer]]" = field(default_factory=deque)
    pending_tx: "Deque[_TxWork]" = field(default_factory=deque)
    wire: "Deque[Tuple[float, Packet]]" = field(default_factory=deque)
    waiting_rx: "Deque[Packet]" = field(default_factory=deque)
    # Fault state: a reset wedges the device until the host watchdog
    # reinitializes the queue; orphaned holds buffers the device forgot
    # (fetched blanks, pending TX) for the host to reclaim.
    wedged: bool = False
    lost_packets: int = 0
    orphaned: List[Buffer] = field(default_factory=list)


class PcieNicInterface(Instrumented):
    """One PCIe NIC on the simulated host.

    Args:
        system: Simulated platform (device uses its PCIe, not UPI).
        spec: E810 or CX6 hardware parameters.
        config: Ring/pool sizing.
    """

    #: Optional :class:`repro.faults.FaultInjector` consulted by the
    #: device engines for stall/reset events. Class-level None.
    faults = None

    def __init__(
        self,
        system: System,
        spec: NicHardwareSpec,
        config: Optional[PcieNicConfig] = None,
    ) -> None:
        self.system = system
        self.spec = spec
        self.config = config or PcieNicConfig()
        self.link = Link(
            system.sim,
            name=f"pcie-{spec.name.lower()}",
            latency_ns=spec.pcie_one_way_ns,
            bandwidth_bytes_per_ns=system.spec.pcie_wire_bytes_per_ns,
            header_overhead=24,
        )
        self.pool = BufferPool(system, self.config.pool_config())
        self.dma = DmaEngine(system, spec, self.link)
        self._queues: Dict[int, _PcieQueue] = {}
        self._started = False
        # Device packet pipeline pacing (shared across queues).
        self._next_emit = 0.0
        # Loopback by default; apps may set a transmit sink per queue.
        self.on_transmit = None

    # ------------------------------------------------------------------
    def queue(self, index: int) -> _PcieQueue:
        existing = self._queues.get(index)
        if existing is not None:
            return existing
        if self._started:
            raise NicError("cannot add queues after start()")
        q = _PcieQueue(
            tx_ring=self.system.alloc_host(f"{self.spec.name}_txr{index}", self.config.ring_slots * 16),
            rx_ring=self.system.alloc_host(f"{self.spec.name}_rxr{index}", self.config.ring_slots * 16),
            tx_head_line=self.system.alloc_host(f"{self.spec.name}_txh{index}", 64),
        )
        self._queues[index] = q
        return q

    def driver(self, index: int, host_agent: Optional[CacheAgent] = None) -> "PcieNicDriver":
        if host_agent is None:
            host_agent = self.system.new_host_core(f"host-{self.spec.name}-q{index}")
        return PcieNicDriver(self, index, host_agent)

    def start(self) -> None:
        if self._started:
            raise NicError("interface already started")
        self._started = True
        for index in sorted(self._queues):
            engine = _DeviceEngine(self, index)
            self.system.sim.spawn(engine.run(), name=f"{self.spec.name}-dev-q{index}")

    def emit_slot(self, ready_ns: float) -> float:
        """Reserve the next packet-pipeline slot (token bucket)."""
        gap = 1e9 / self.spec.pps_capacity
        start = max(ready_ns, self._next_emit)
        self._next_emit = start + gap
        return start

    def inject(self, queue_index: int, pkt: Packet, when: float = 0.0) -> None:
        """Deliver an externally generated packet to a queue's RX path."""
        self.queue(queue_index).wire.append((when, pkt))

    @property
    def queue_count(self) -> int:
        return len(self._queues)

    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return f"pcie.{self.spec.name.lower()}"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "queue_count", fn=lambda: float(self.queue_count))

    def _instrument_children(self, obs: Observability) -> None:
        self.pool.instrument(obs)

    def __repr__(self) -> str:
        return f"<PcieNicInterface {self.spec.name} queues={len(self._queues)}>"


class _DeviceEngine:
    """The NIC ASIC's per-queue engine loop."""

    def __init__(self, interface: PcieNicInterface, index: int) -> None:
        self.nic = interface
        self.index = index
        self.q = interface.queue(index)
        self.spec = interface.spec
        self.dma = interface.dma
        self.config = interface.config
        # True while the engine has had work on consecutive iterations:
        # its DMA pipeline is full and new reads hide their round trip.
        self._warm = False

    def run(self):
        sim = self.nic.system.sim
        q = self.q
        index = self.index
        # When this queue's earliest unfired NIC one-shot is due, and the
        # injector that said so (see NicQueueAgent.run).
        due_from = None
        due = 0.0
        while True:
            faults = self.nic.faults
            if faults is not None:
                if faults is not due_from:
                    due_from, due = faults, faults.nic_due(index)
                if sim.now >= due:
                    fault = faults.nic_decide(index, sim.now)
                    due = faults.nic_due(index)
                    if fault is not None:
                        if fault.kind == "nic_reset":
                            self._device_reset()
                        yield fault.duration_ns
                        continue
                if q.wedged:
                    # Arrivals fall on the floor until the host watchdog
                    # reinitializes this queue.
                    while q.wire and q.wire[0][0] <= sim.now:
                        q.wire.popleft()
                        q.lost_packets += 1
                    yield DEVICE_IDLE_NS
                    continue
            busy = False
            ns = 0.0
            now = sim.now
            # --- Accept doorbells that have traversed PCIe.
            while q.doorbells and q.doorbells[0][0] <= now:
                _t, tail = q.doorbells.popleft()
                q.host_tail = max(q.host_tail, tail)
            while q.rx_doorbells and q.rx_doorbells[0][0] <= now:
                _t, posted = q.rx_doorbells.popleft()
                q.host_rx_posted = max(q.host_rx_posted, posted)
            while q.inline_arrivals and q.inline_arrivals[0][0] <= now:
                q.pending_tx.append(q.inline_arrivals.popleft()[1])

            # --- Fetch TX descriptors (one DMA batch per iteration).
            backlog = q.host_tail - q.device_fetched
            if backlog > 0:
                n = min(backlog, self.config.dma_batch)
                addr = self.q.tx_ring.base + (q.device_fetched % self.config.ring_slots) * 16
                span = min(n * 16, self.q.tx_ring.size - (addr - self.q.tx_ring.base))
                ns += self.dma.read(addr, max(16, span), pipelined=self._warm)
                q.device_fetched += n
                moved = 0
                while moved < n and q.tx_inflight:
                    q.pending_tx.append(q.tx_inflight.popleft())
                    moved += 1
                busy = True

            # --- RX blank descriptors arrive via a background prefetch
            # engine (it does not block the packet path; its DMA reads
            # were issued and charged when the host rang the doorbell).
            while q.blank_queue and q.blank_queue[0][0] <= now:
                q.device_blanks.append(q.blank_queue.popleft()[1])
                q.device_rx_fetched += 1

            # --- RX side: deliver arrived packets into posted blanks.
            while q.wire and q.wire[0][0] <= now:
                q.waiting_rx.append(q.wire.popleft()[1])
            if q.waiting_rx and q.device_blanks:
                rx_ns = self._receive(now + ns)
                if rx_ns > 0:
                    busy = True
                    ns += rx_ns

            # --- TX pipeline: read payloads, pace, loop back.
            if q.pending_tx:
                busy = True
                batch = []
                while q.pending_tx and len(batch) < self.config.tx_batch:
                    batch.append(q.pending_tx.popleft())
                ns += self._transmit(batch, now + ns)

            # Late wire arrivals within this iteration get picked up on
            # the next pass (the engine re-polls immediately when busy).
            self._warm = busy
            if ns:
                yield ns
            else:
                yield DEVICE_IDLE_NS

    # ------------------------------------------------------------------
    def _device_reset(self) -> None:
        """Lose all on-chip state: in-flight packets drop, the device wedges.

        Fetched-but-unsent TX work and fetched blanks are host pool
        memory the device has now forgotten; they park in ``orphaned``
        until the host driver's ring reset reclaims them.
        """
        q = self.q
        q.wedged = True
        q.lost_packets += len(q.wire) + len(q.waiting_rx)
        q.wire.clear()
        q.waiting_rx.clear()
        while q.pending_tx:
            work = q.pending_tx.popleft()
            q.lost_packets += 1
            if not work.inline:
                q.orphaned.append(work.buf)
        q.orphaned.extend(q.device_blanks)
        q.device_blanks.clear()

    def _transmit(self, batch: List[_TxWork], now: float) -> float:
        ns = 0.0
        to_complete: List[Buffer] = []
        # Payload DMA reads: the first pays the round trip, the rest are
        # pipelined behind it (the engine keeps several reads in flight).
        first = not self._warm
        for work in batch:
            if work.inline:
                continue  # payload already arrived through MMIO
            size = work.buf.total_len
            cost = self.dma.read(work.buf.addr, max(64, size), pipelined=not first)
            ns += cost if first else size / self.nic.link.bandwidth + DEVICE_TICK_NS
            first = False
        for work in batch:
            emit = self.nic.emit_slot(now + ns)
            depart = emit + self.spec.pipeline_ns
            if self.nic.on_transmit is not None:
                self.nic.on_transmit(work.pkt, depart)
            else:
                self.q.wire.append((depart, work.pkt))
            if not work.inline:
                # Inline buffers were reclaimed at submit (payload was
                # copied through MMIO); only DMA-path buffers complete.
                to_complete.append(work.buf)
            ns += DEVICE_TICK_NS
        # Completion: one posted DMA write of the TX head line per batch.
        ns += self.dma.write(self.q.tx_head_line.base, 8)
        visible = now + ns + self.dma.visibility_ns
        for buf in to_complete:
            self.q.tx_completed.append(buf)
        self._tx_complete_visible = visible
        return ns

    def _receive(self, now: float) -> float:
        q = self.q
        ns = 0.0
        completed: List[_RxCompletion] = []
        while q.waiting_rx and q.device_blanks:
            pkt = q.waiting_rx[0]
            segments_needed = max(1, -(-pkt.size // self.config.buf_size))
            if len(q.device_blanks) < segments_needed:
                break  # not enough posted blanks for this jumbo frame
            q.waiting_rx.popleft()
            head = None
            prev = None
            remaining = pkt.size
            for _ in range(segments_needed):
                seg = q.device_blanks.popleft()
                seg.seg_next = None
                seg.set_payload(min(remaining, self.config.buf_size))
                remaining -= seg.data_len
                ns += self.dma.write(seg.addr, seg.data_len)
                if head is None:
                    head = seg
                else:
                    prev.seg_next = seg
                prev = seg
            ns += DEVICE_TICK_NS
            completed.append(_RxCompletion(pkt=pkt, buf=head, visible_at=0.0))
            if len(completed) >= self.config.rx_batch:
                break
        if completed:
            # Completion descriptors: one posted DMA write per 4 (one
            # cache line of 16B completions).
            lines = (len(completed) + 3) // 4
            addr = q.rx_ring.base
            for i in range(lines):
                ns += self.dma.write(addr + i * 64, 64)
            visible = now + ns + self.dma.visibility_ns
            for comp in completed:
                comp.visible_at = visible
                q.rx_completions.append(comp)
        return ns


class PcieNicDriver(RecoverableDriver, Instrumented):
    """Host-side driver with the common burst API.

    Per-descriptor costs are substantially higher than CC-NIC's: PCIe
    NICs use 32-64B work-queue entries with many fields to build on TX
    and full completion-queue entries to parse on RX, plus the memory
    barriers the DMA interface requires (the DPDK mlx5/ice datapaths
    spend on the order of 100 cycles per descriptor each way).
    """

    #: Optional :class:`repro.obs.flight.FlightRecorder`, which takes
    #: one call record per burst; class-level None so detached bursts
    #: pay one attribute test.
    flight = None

    _obs_hooks = ("flight",)

    CYCLES_PER_DESC = 60
    CYCLES_PER_PKT = 8
    CYCLES_PER_BLANK = 30

    def __init__(self, interface: PcieNicInterface, index: int, host_agent: CacheAgent) -> None:
        self.interface = interface
        self.queue_index = index
        self.agent = host_agent
        self.q = interface.queue(index)
        self.mmio = MmioPath(interface.spec, link=interface.link)
        self._rx_reap_count = 0
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_ns = 0.0
        self.rx_ns = 0.0
        self._init_recovery_state()
        self._device_losses_taken = 0

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
    # Recovery (inert until configure_recovery is called)
    # ------------------------------------------------------------------
    def watchdog(self) -> float:
        """Reset the queue if descriptor fetch has stopped making progress.

        The PCIe stall signature: host-side descriptors keep piling up
        in ``tx_inflight`` while ``device_fetched`` stays frozen — the
        engine is no longer consuming doorbells.
        """
        if self._watchdog is None:
            return 0.0
        sim = self.interface.system.sim
        q = self.q
        if not self._watchdog.stalled(sim.now, len(q.tx_inflight), q.device_fetched):
            return 0.0
        ns = self._reset_rings()
        self._watchdog.reset(sim.now)
        return ns

    def _reset_rings(self) -> float:
        """Reinitialize the queue after a wedge and reclaim buffers.

        Everything outstanding on either side of PCIe is abandoned:
        unfetched TX descriptors, in-flight inline submissions, unread
        RX completions, posted and fetched blanks. Cursors realign so
        host and device agree that nothing is outstanding.
        """
        q = self.q
        lost_packets = 0
        to_free: List[Buffer] = []
        while q.tx_inflight:
            work = q.tx_inflight.popleft()
            lost_packets += 1
            to_free.append(work.buf)
        while q.inline_arrivals:
            q.inline_arrivals.popleft()
            lost_packets += 1  # its buffer was reclaimed at submit (copied)
        while q.rx_completions:
            comp = q.rx_completions.popleft()
            lost_packets += 1
            to_free.append(comp.buf)
        to_free.extend(q.orphaned)
        q.orphaned.clear()
        while q.blank_queue:
            to_free.append(q.blank_queue.popleft()[1])
        while q.device_blanks:
            to_free.append(q.device_blanks.popleft())
        q.doorbells.clear()
        q.rx_doorbells.clear()
        q.device_fetched = q.host_tail
        q.device_rx_fetched = q.host_rx_posted
        q.posted_blanks = 0
        q.wedged = False
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
        lost += self.q.lost_packets - self._device_losses_taken
        self._device_losses_taken = self.q.lost_packets
        return lost

    # ------------------------------------------------------------------
    # Buffers and payloads (host-local; no interconnect involvement)
    # ------------------------------------------------------------------
    def alloc(self, sizes: Sequence[int]) -> AllocResult:
        bufs, ns = self.interface.pool.alloc(self.agent, sizes)
        return AllocResult(bufs, ns)

    def free(self, bufs: Sequence[Buffer]) -> float:
        return self.interface.pool.free(self.agent, bufs)

    def write_payload(self, buf: Buffer, size: int) -> float:
        return self.write_payloads([(buf, size)])

    def write_payloads(self, sized: Sequence[Tuple[Buffer, int]]) -> float:
        fabric = self.interface.system.fabric
        spans = []
        for buf, size in sized:
            buf.set_payload(size)
            spans.append((buf.addr, size))
        if not spans:
            return 0.0
        return fabric.access_burst(self.agent, spans, write=True)

    def read_payload(self, buf: Buffer) -> float:
        return self.read_payloads([buf])

    def read_payloads(self, bufs: Sequence[Buffer]) -> float:
        fabric = self.interface.system.fabric
        spans = [
            (seg.addr, seg.data_len)
            for buf in bufs
            for seg in buf.segments()
            if seg.data_len
        ]
        if not spans:
            return 0.0
        return fabric.access_burst(self.agent, spans, write=False)

    # ------------------------------------------------------------------
    # TX / RX
    # ------------------------------------------------------------------
    def tx_burst(
        self,
        entries: Sequence[Tuple[Buffer, Packet]],
        base_ns: float = 0.0,
    ) -> TxResult:
        system = self.interface.system
        sim = system.sim
        q = self.q
        config = self.interface.config
        space = config.ring_slots - len(q.tx_inflight) - len(q.tx_completed)
        accepted = list(entries)[: max(0, space)]
        if not accepted:
            return TxResult(0, system.cycles(self.CYCLES_PER_DESC))
        flight = self.flight
        if flight is not None:
            first = flight.events_seen
        ns = 0.0
        inline_ok = self.interface.spec.inline_descriptors
        inline_count = 0
        fabric = system.fabric
        dma_count = 0
        inline_work = []
        for buf, pkt in accepted:
            if buf.data_len <= 0:
                raise NicError(f"buffer {buf.buf_id} submitted without payload")
            inline = inline_ok and buf.total_len <= config.inline_threshold and buf.seg_next is None
            if inline:
                # CX6 low-latency path: descriptor + payload through the
                # write-combining MMIO window. These never enter the
                # DMA-fetched descriptor stream.
                ns += self.mmio.wc_write(q.tx_ring.base, 16 + buf.total_len)
                inline_count += 1
                work = _TxWork(pkt=pkt, buf=buf, submit_ns=sim.now + ns, inline=True)
                inline_work.append(work)
                q.tx_completed.append(buf)  # reclaimed immediately (copied)
            else:
                slot = q.host_tail % config.ring_slots
                ns += fabric.write(self.agent, q.tx_ring.base + slot * 16, 16)
                work = _TxWork(pkt=pkt, buf=buf, submit_ns=sim.now + ns, inline=False)
                q.host_tail += 1
                q.tx_inflight.append(work)
                dma_count += 1
            ns += system.cycles(self.CYCLES_PER_DESC)
        if inline_count:
            ns += self.mmio.sfence()
            arrival = sim.now + base_ns + ns + self.interface.spec.pcie_one_way_ns
            for work in inline_work:
                q.inline_arrivals.append((arrival, work))
        if dma_count:
            # Ring the doorbell for the DMA-path descriptors.
            ns += self.mmio.uc_write(4)
            arrival = sim.now + base_ns + ns + self.interface.spec.pcie_one_way_ns \
                + self.interface.spec.doorbell_coalesce_ns
            q.doorbells.append((arrival, q.host_tail))
        self.tx_packets += len(accepted)
        self.tx_ns += ns
        if flight is not None:
            start = sim.now + base_ns
            flight.call(
                self.agent.name, "tx_burst", start, start + ns, first,
                packets=len(entries), accepted=len(accepted),
            )
        return TxResult(len(accepted), ns)

    def rx_burst(self, max_packets: int) -> RxResult:
        system = self.interface.system
        sim = system.sim
        q = self.q
        fabric = system.fabric
        flight = self.flight
        if flight is not None:
            first = flight.events_seen
        out: List[Tuple[Packet, Buffer]] = []
        # Poll the completion line (DDIO-resident after a DMA write).
        ns = fabric.read(self.agent, q.rx_ring.base, 16)
        while q.rx_completions and len(out) < max_packets:
            comp = q.rx_completions[0]
            if comp.visible_at > sim.now + ns:
                break
            q.rx_completions.popleft()
            ns += fabric.read(self.agent, q.rx_ring.base + (len(out) % 16) * 64, 16)
            ns += system.cycles(self.CYCLES_PER_DESC)
            out.append((comp.pkt, comp.buf))
            q.posted_blanks -= sum(1 for _seg in comp.buf.segments())
        self.rx_packets += len(out)
        self.rx_ns += ns
        if flight is not None:
            flight.call(
                self.agent.name, "rx_burst", sim.now, sim.now + ns, first,
                max_packets=max_packets, received=len(out),
            )
        return RxResult(out, ns)

    # ------------------------------------------------------------------
    def housekeeping(self, post_target: Optional[int] = None) -> float:
        """Reap TX completions and keep blank RX buffers posted."""
        system = self.interface.system
        sim = system.sim
        q = self.q
        config = self.interface.config
        target = post_target or config.rx_post_target
        fabric = system.fabric
        ns = 0.0
        # Reap TX completions: read the DMA-written head line, free bufs.
        if q.tx_completed:
            ns += fabric.read(self.agent, q.tx_head_line.base, 8)
            done: List[Buffer] = []
            while q.tx_completed:
                done.append(q.tx_completed.popleft())
            ns += self.free(done)
        # Post blank RX buffers.
        deficit = target - q.posted_blanks
        if deficit >= 16 or (q.posted_blanks == 0 and deficit > 0):
            blank = self.alloc([config.buf_size] * deficit)
            blanks = list(blank.bufs)
            ns += blank.ns
            for i, buf in enumerate(blanks):
                slot = (q.host_rx_posted + i) % config.ring_slots
                ns += fabric.write(self.agent, q.rx_ring.base + slot * 16, 16)
            ns += system.cycles(self.CYCLES_PER_BLANK * max(1, len(blanks)))
            q.posted_blanks += len(blanks)
            ns += self.mmio.uc_write(4)
            arrival = sim.now + ns + self.interface.spec.pcie_one_way_ns
            q.rx_doorbells.append((arrival, q.host_rx_posted + len(blanks)))
            q.host_rx_posted += len(blanks)
            # The device's background engine DMA-reads the posted
            # descriptors; blanks become usable one DMA round trip after
            # the doorbell lands (bandwidth charged, packet path not
            # blocked).
            ready = arrival + self.interface.spec.dma_rtt_ns
            lines = (len(blanks) * 16 + 63) // 64
            for _ in range(lines):
                self.interface.link.occupy(
                    MessageClass.DMA_READ,
                    direction=0,
                    payload_bytes=64,
                    charge_queueing=False,
                )
            for buf in blanks:
                q.blank_queue.append((ready, buf))
        return ns
