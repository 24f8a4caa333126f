"""TAS-like userspace TCP fast path with an echo RPC server (§5.7).

TAS (TCP Acceleration as a Service) runs dedicated fast-path threads
that own the TCP data plane: per-flow state lookups, sequence/ack
bookkeeping, and the NIC TX/RX interface. The application (an echo RPC
server) exchanges descriptors with the fast path through shared-memory
queues. The paper swaps TAS's PCIe TX/RX for the CC-NIC Overlay and
measures how many fast-path threads are needed to reach 95% of peak
throughput (Table 2: 5 with the CX6, 3 with CC-NIC).

Our model keeps TAS's structure without a full TCP implementation: the
fast path maintains real per-flow connection state (sequence numbers,
ack counters, flow-table entries in simulated memory whose accesses are
charged through the coherence model), but no retransmission machinery —
loopback delivery is loss-free, as in the paper's testbed LAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.loopback import InterfaceKind, build_interface
from repro.errors import WorkloadError
from repro.obs.instrument import Instrumented
from repro.platform.presets import PlatformSpec
from repro.sim.stats import Histogram
from repro.workloads.packets import Packet

#: Echo RPC payload (the paper's 64B echo workload).
RPC_BYTES = 64
#: Cycles per fast-path packet: header parse, timer wheel touch, app
#: queue notification.
FASTPATH_CYCLES = 25
#: Cycles the echo application spends per RPC.
APP_CYCLES = 15
#: Flow-table entry size (one cache line per flow: state + seq/ack).
FLOW_ENTRY_BYTES = 64


@dataclass
class FlowState:
    """Per-connection TCP state the fast path maintains."""

    flow_id: int
    seq: int = 0
    ack: int = 0
    rx_packets: int = 0
    tx_packets: int = 0


@dataclass
class RpcResult:
    """Outcome of a fast-path thread measurement."""

    ops: int = 0
    elapsed_ns: float = 0.0
    latency: Histogram = field(default_factory=lambda: Histogram("rpc_ns"))

    @property
    def mops(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / self.elapsed_ns * 1e3


class TasFastPath(Instrumented):
    """One fast-path thread serving echo RPCs over a NIC queue pair."""

    #: Optional :class:`repro.obs.timeline.TimelineSampler`; the TX
    #: sink feeds post-warmup RPC latencies into its ``latency_ns``
    #: windowed series. Class-level None, same pattern as ``flight``.
    timeline = None

    _obs_hooks = ("timeline",)

    def __init__(
        self,
        setup,
        n_flows: int,
        offered_mops: float,
        n_ops: int,
        batch: int = 32,
        warmup_fraction: float = 0.1,
    ) -> None:
        if n_flows <= 0:
            raise WorkloadError("n_flows must be positive")
        if offered_mops <= 0 or n_ops <= 0:
            raise WorkloadError("offered_mops and n_ops must be positive")
        self.setup = setup
        self.n_flows = n_flows
        self.offered_mops = offered_mops
        self.n_ops = n_ops
        self.batch = batch
        self.warmup = int(n_ops * warmup_fraction)
        self.result = RpcResult()
        self.done = False
        system = setup.system
        self.flow_table = system.alloc_host("tas_flows", n_flows * FLOW_ENTRY_BYTES)
        self.flows: Dict[int, FlowState] = {
            i: FlowState(flow_id=i) for i in range(n_flows)
        }
        self._window_start: Optional[float] = None
        self.fastpath_busy_ns = 0.0
        self.fastpath_ops = 0

    # ------------------------------------------------------------------
    def client(self):
        """Open-loop clients cycling over the flows."""
        sim = self.setup.system.sim
        interval = 1e3 / self.offered_mops
        inject = self._injector()
        sent = 0
        while sent < self.n_ops:
            burst = min(self.batch, self.n_ops - sent)
            for i in range(burst):
                flow = (sent + i) % self.n_flows
                pkt = Packet(size=RPC_BYTES, tx_ns=sim.now, flow=flow)
                inject(pkt, sim.now)
            sent += burst
            yield interval * burst

    def _injector(self):
        if self.setup.kind.is_coherent:
            agent = self.setup.interface.pair(0).agent
            return lambda pkt, when: agent.inject(pkt, when)
        return lambda pkt, when: self.setup.interface.inject(0, pkt, when)

    def _attach_sink(self):
        """Take echoes at the NIC; returns the object now holding the sink."""
        result = self.result
        timeline = self.timeline
        sample_latency = None
        if timeline is not None:
            # Identity-stable open-window list; hoist its append.
            sample_latency = timeline.hist("latency_ns").append

        def sink(pkt: Packet, when: float) -> None:
            result.ops += 1
            if result.ops > self.warmup:
                if self._window_start is None:
                    self._window_start = when
                result.elapsed_ns = when - self._window_start
                result.latency.record(when - pkt.tx_ns)
                if sample_latency is not None:
                    sample_latency(when - pkt.tx_ns)
            if result.ops >= self.n_ops:
                self.done = True

        if self.setup.kind.is_coherent:
            host = self.setup.interface.pair(0).agent
        else:
            host = self.setup.interface
        host.on_transmit = sink
        return host

    # ------------------------------------------------------------------
    def fast_path(self):
        """Fast-path thread: TCP RX processing, app echo, TCP TX."""
        system = self.setup.system
        fabric = system.fabric
        driver = self.setup.driver
        agent = driver.agent
        while not self.done:
            ns = 0.0
            rx = driver.rx_burst(self.batch)
            ns += rx.ns
            if not rx.entries:
                ns += driver.housekeeping()
                yield max(ns + system.cycles(10), 2.0)
                continue
            ns += driver.read_payloads([buf for _pkt, buf in rx.entries])
            responses = []
            rx_bufs = []
            for pkt, buf in rx.entries:
                rx_bufs.append(buf)
                flow = self.flows[pkt.flow % self.n_flows]
                entry = self.flow_table.base + flow.flow_id * FLOW_ENTRY_BYTES
                # TCP RX: flow lookup + seq/ack update (one dirty line).
                ns += fabric.read(agent, entry, 32)
                flow.seq += pkt.size
                flow.rx_packets += 1
                ns += fabric.write(agent, entry, 16)
                ns += system.cycles(FASTPATH_CYCLES)
                # Application echo (shared-memory queue + app work).
                ns += system.cycles(APP_CYCLES)
                # TCP TX: build the echo segment.
                out = driver.alloc([RPC_BYTES])
                ns += out.ns
                if not out:
                    continue
                ns += driver.write_payload(out.bufs[0], RPC_BYTES)
                flow.ack = flow.seq
                flow.tx_packets += 1
                ns += fabric.write(agent, entry, 16)
                responses.append((out.bufs[0], Packet(size=RPC_BYTES, tx_ns=pkt.tx_ns)))
            while responses:
                tx = driver.tx_burst(responses, base_ns=ns)
                ns += tx.ns
                if tx.count == 0:
                    yield max(ns, 1.0)
                    ns = 0.0
                    continue
                del responses[: tx.count]
            ns += driver.free(rx_bufs)
            ns += driver.housekeeping()
            self.fastpath_busy_ns += ns
            self.fastpath_ops += rx.count
            yield max(ns, 1.0)

    @property
    def per_thread_mops(self) -> float:
        """Service rate of one fast-path thread (Mops)."""
        if self.fastpath_busy_ns <= 0:
            return 0.0
        return self.fastpath_ops / self.fastpath_busy_ns * 1e3

    def run(self, max_sim_ns: float = 5e8) -> RpcResult:
        host = self._attach_sink()
        system = self.setup.system
        system.sim.spawn(self.client(), "tas-client")
        system.sim.spawn(self.fast_path(), "tas-fastpath")
        try:
            system.sim.run(until=max_sim_ns, stop_when=lambda: self.done)
        finally:
            # The sink closes over this app, which holds the interface.
            host.on_transmit = None
        self.done = True
        return self.result


# ----------------------------------------------------------------------
# Thread-count study (Table 2's TCP echo RPC row)
# ----------------------------------------------------------------------
@dataclass
class RpcStudy:
    """Per-fast-path-thread rate and the shared NIC ceiling."""

    kind: InterfaceKind
    per_thread_mops: float
    peak_mops: float

    def throughput(self, threads: int) -> float:
        return min(threads * self.per_thread_mops, self.peak_mops)

    def threads_to_saturate(self, fraction: float = 0.95) -> int:
        target = fraction * self.peak_mops
        threads = 1
        while self.throughput(threads) < target and threads < 64:
            threads += 1
        return threads


def rpc_thread_study(
    spec: PlatformSpec,
    kind: InterfaceKind,
    n_flows: int = 96,
    n_ops: int = 6000,
    probe_mops: float = 60.0,
    nic_cap_mops: Optional[float] = None,
    obs=None,
    faults=None,
    batch: int = 32,
) -> RpcStudy:
    """Measure one fast-path thread; compose the thread-count answer.

    ``faults`` is an optional :class:`repro.faults.FaultInjector`
    attached to the built system. ``obs`` is an optional
    :class:`repro.obs.Observability` bundle; its observers (flight
    recorder, sanitizer, timeline) watch the probe run.
    """
    setup = build_interface(
        spec, kind if kind.is_coherent else InterfaceKind.CX6, obs=obs, faults=faults
    )
    fastpath = TasFastPath(
        setup, n_flows=n_flows, offered_mops=probe_mops, n_ops=n_ops, batch=batch
    )
    if obs is not None:
        fastpath.instrument(obs)
    fastpath.run()
    if obs is not None and obs.timeline is not None:
        obs.timeline.finish(setup.system.sim.now)
    if nic_cap_mops is None:
        # 64B echo RPCs: the CX6 engine moves one request + one response
        # per op; TAS overheads shave a little off the ideal.
        cx6 = spec.nic("cx6")
        nic_cap_mops = cx6.pps_capacity / 1e6 / 1.33
    return RpcStudy(
        kind=kind, per_thread_mops=fastpath.per_thread_mops, peak_mops=nic_cap_mops
    )
