"""CliqueMap-style key-value store over a simulated NIC interface (§5.7).

Server threads poll NIC RX queues for get/set RPCs against a hash index.
Gets are zero-copy: the response chains a header buffer with an external
segment referencing the object in store memory (DPDK extbuf), so large
objects are never memcpy'd but cost an extra TX descriptor. Sets write
the received object into store memory and update the index.

The workload matches the paper: two production object-size distributions
(Ads: 61% < 100B; Geo: 13% < 100B), 95% gets / 5% sets, Zipf(0.75) key
popularity, clients saturating the server.

Deployment comparison (Fig 19 / Table 2):

* **PCIe direct** — server threads drive the CX6 PCIe interface.
* **CC-NIC Overlay** — server threads drive CC-NIC queues over UPI; the
  NIC-socket agents play the role of the overlay threads bridging to
  the CX6 (§4). Peak throughput remains capped by the CX6 packet rate
  in both cases; the question is how many *application* threads reach
  that peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.loopback import InterfaceKind, LoopbackSetup, build_interface
from repro.core.buffers import Buffer
from repro.errors import WorkloadError
from repro.obs.instrument import Instrumented
from repro.platform.presets import PlatformSpec
from repro.sim.rng import make_rng
from repro.sim.stats import Histogram
from repro.workloads.distributions import (
    AdsObjectSizes,
    GeoObjectSizes,
    ObjectSizeDistribution,
    ZipfKeys,
)
from repro.workloads.packets import Packet

#: Request header bytes (key, opcode, RPC framing).
REQUEST_BYTES = 64
#: Response header bytes preceding the object payload.
HEADER_BYTES = 64
#: Cycles per hash-index probe (rte_hash bucket walk + key compare).
INDEX_CYCLES = 160
#: Cycles of per-RPC server bookkeeping (parse, validate, respond).
RPC_CYCLES = 420


@dataclass
class KvWorkload:
    """Workload parameters (paper defaults).

    ``key_base`` offsets this server's keys in the global flow space:
    a sharded deployment gives each queue pair a disjoint key range
    (flow-steered partitioning), so shard ``i`` of an ``n_keys``-per-
    shard run serves flows ``[i * n_keys, (i+1) * n_keys)`` and the
    union of shards covers one large keyspace with no overlap.
    """

    distribution: ObjectSizeDistribution
    get_fraction: float = 0.95
    n_keys: int = 4096          # scaled-down key space; skew via Zipf
    zipf_coefficient: float = 0.75
    seed: int = 7
    key_base: int = 0

    @classmethod
    def ads(cls, **kw) -> "KvWorkload":
        return cls(distribution=AdsObjectSizes(), **kw)

    @classmethod
    def geo(cls, **kw) -> "KvWorkload":
        return cls(distribution=GeoObjectSizes(), **kw)


@dataclass
class KvResult:
    """Outcome of one server-thread measurement."""

    ops: int = 0
    elapsed_ns: float = 0.0
    latency: Histogram = field(default_factory=lambda: Histogram("rpc_ns"))

    @property
    def mops(self) -> float:
        """Throughput in millions of operations per second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / self.elapsed_ns * 1e3


class KvServerApp(Instrumented):
    """One server thread bound to one NIC queue pair.

    The client side is modelled as an open-loop request injector into
    the queue's RX path; responses are counted at the TX sink.
    """

    #: Optional :class:`repro.obs.timeline.TimelineSampler`; the TX
    #: sink feeds post-warmup request latencies into its ``latency_ns``
    #: windowed series. Class-level None: detached runs pay one load
    #: plus a branch when the sink is attached.
    timeline = None

    _obs_hooks = ("timeline",)

    def __init__(
        self,
        setup: LoopbackSetup,
        workload: KvWorkload,
        offered_mops: float,
        n_ops: int,
        batch: int = 32,
        warmup_fraction: float = 0.1,
    ) -> None:
        if offered_mops <= 0 or n_ops <= 0:
            raise WorkloadError("offered_mops and n_ops must be positive")
        self.setup = setup
        self.workload = workload
        self.offered_mops = offered_mops
        self.n_ops = n_ops
        self.batch = batch
        self.warmup = int(n_ops * warmup_fraction)
        self.result = KvResult()
        self.done = False
        system = setup.system
        # Object store and index live in host memory; values are read
        # and written in place (zero-copy gets).
        self.store = system.alloc_host("kv_store", 8 << 20)
        self.index = system.alloc_host("kv_index", 1 << 20)
        self._rng = make_rng(workload.seed, "kv")
        self._keys = ZipfKeys(workload.n_keys, workload.zipf_coefficient)
        self._sizes = workload.distribution.sample_many(self._rng, workload.n_keys)
        self._window_start: Optional[float] = None
        #: Server-thread busy time (processing iterations only): the
        #: per-application-thread service cost that the thread-count
        #: study scales on. The NIC-side agent's busy time is tracked
        #: separately (overlay threads are provisioned independently).
        self.server_busy_ns = 0.0
        self.server_ops = 0

    # ------------------------------------------------------------------
    # Network-path hooks: a rack deployment (repro.apps.rack) charges
    # the ToR -> host fabric leg on each request and the host -> ToR leg
    # on each response. The single-box base case pays 0.0 on both.
    def _ingress_ns(self, pkt: Packet) -> float:
        """Extra delay before a request reaches this server's queue."""
        return 0.0

    def _egress_ns(self, pkt: Packet) -> float:
        """Extra delay before a response reaches the client side."""
        return 0.0

    # ------------------------------------------------------------------
    def client(self):
        """Open-loop request injector (the remote client machines)."""
        interval = 1e3 / self.offered_mops
        sent = 0
        sim = self.setup.system.sim
        inject = self._injector()
        ingress = self._ingress_ns
        while sent < self.n_ops:
            burst = min(self.batch, self.n_ops - sent)
            key_base = self.workload.key_base
            for _ in range(burst):
                key = self._keys.sample(self._rng)
                is_get = self._rng.random() < self.workload.get_fraction
                size = REQUEST_BYTES if is_get else min(
                    REQUEST_BYTES + self._sizes[key], 9600
                )
                pkt = Packet(size=size, tx_ns=sim.now, flow=key_base + key)
                pkt.is_get = is_get  # type: ignore[attr-defined]
                inject(pkt, sim.now + ingress(pkt))
                sent += 1
            yield interval * burst

    def _injector(self):
        if self.setup.kind.is_coherent:
            agent = self.setup.interface.pair(0).agent
            return lambda pkt, when: agent.inject(pkt, when)
        return lambda pkt, when: self.setup.interface.inject(0, pkt, when)

    def _attach_sink(self):
        """Take responses at the NIC; returns the object now holding the sink."""
        result = self.result
        egress = self._egress_ns
        timeline = self.timeline
        sample_latency = None
        if timeline is not None:
            # Identity-stable open-window list; hoist its append.
            sample_latency = timeline.hist("latency_ns").append

        def sink(pkt: Packet, when: float) -> None:
            when += egress(pkt)
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
    def server(self):
        """The server thread's polling loop."""
        system = self.setup.system
        fabric = system.fabric
        driver = self.setup.driver
        agent = driver.agent
        store_size = self.store.size
        # cycles() is pure in its argument: precompute the per-loop and
        # per-request work charges.
        rpc_ns = system.cycles(RPC_CYCLES)
        index_ns = system.cycles(INDEX_CYCLES)
        # Host-side bookkeeping runs only where the driver keeps some
        # (CC-NIC's NIC-managed buffers need none).
        housekeeping = None
        if getattr(driver, "needs_housekeeping", True):
            housekeeping = driver.housekeeping
        while not self.done:
            ns = rpc_ns
            rx = driver.rx_burst(self.batch)
            ns += rx.ns
            if not rx.entries:
                if housekeeping is not None:
                    ns += housekeeping()
                yield max(ns, 2.0)
                continue
            responses = []
            rx_bufs = []
            for pkt, buf in rx.entries:
                rx_bufs.append(buf)
                key = pkt.flow
                obj_size = self._sizes[key % len(self._sizes)]
                obj_addr = self.store.base + (key * 9600) % (store_size - 9600)
                ns += index_ns
                ns += fabric.read(agent, self.index.base + (key * 64) % self.index.size, 16)
                if getattr(pkt, "is_get", True):
                    # Zero-copy get: header buffer + external object segment.
                    header = driver.alloc([HEADER_BYTES])
                    ns += header.ns
                    if not header:
                        continue
                    head = header.bufs[0]
                    ns += driver.write_payload(head, HEADER_BYTES)
                    segment = Buffer(
                        addr=obj_addr, capacity=max(64, obj_size), external=True
                    )
                    segment.set_payload(obj_size)
                    head.chain(segment)
                    response = Packet(size=HEADER_BYTES + obj_size, tx_ns=pkt.tx_ns)
                    responses.append((head, response))
                else:
                    # Set: write the object into store memory, ack.
                    ns += fabric.write(agent, obj_addr, max(64, obj_size))
                    ack = driver.alloc([HEADER_BYTES])
                    ns += ack.ns
                    if not ack:
                        continue
                    ns += driver.write_payload(ack.bufs[0], HEADER_BYTES)
                    responses.append(
                        (ack.bufs[0], Packet(size=HEADER_BYTES, tx_ns=pkt.tx_ns))
                    )
            ns += driver.read_payloads(rx_bufs)
            while responses:
                tx = driver.tx_burst(responses, base_ns=ns)
                ns += tx.ns
                if tx.count == 0:
                    yield max(ns, 1.0)
                    ns = 0.0
                    continue
                del responses[: tx.count]
            ns += driver.free(rx_bufs)
            if housekeeping is not None:
                ns += housekeeping()
            self.server_busy_ns += ns
            self.server_ops += rx.count
            yield max(ns, 1.0)

    @property
    def per_thread_mops(self) -> float:
        """Service rate of one application thread (Mops)."""
        if self.server_busy_ns <= 0:
            return 0.0
        return self.server_ops / self.server_busy_ns * 1e3

    # ------------------------------------------------------------------
    def run(self, max_sim_ns: float = 5e8) -> KvResult:
        """Run client + server to completion; returns the result."""
        host = self._attach_sink()
        system = self.setup.system
        system.sim.spawn(self.client(), "kv-client")
        system.sim.spawn(self.server(), "kv-server")
        try:
            system.sim.run(until=max_sim_ns, stop_when=lambda: self.done)
        finally:
            # The sink closes over this app, which holds the interface.
            host.on_transmit = None
        self.done = True
        return self.result


# ----------------------------------------------------------------------
# Thread-count study (Fig 19 / Table 2 rows)
# ----------------------------------------------------------------------
@dataclass
class KvStudy:
    """Per-thread rate plus the composed throughput-vs-threads curve."""

    kind: InterfaceKind
    per_thread_mops: float
    peak_mops: float

    def throughput(self, threads: int, spec: PlatformSpec) -> float:
        """Aggregate Mops for ``threads`` application threads."""
        physical = min(threads, spec.cores_per_socket)
        extra = max(0, threads - spec.cores_per_socket)
        rate = (physical + extra * (spec.ht_speedup - 1.0)) * self.per_thread_mops
        return min(rate, self.peak_mops)

    def threads_to_saturate(self, spec: PlatformSpec, fraction: float = 0.95) -> int:
        """Smallest thread count reaching ``fraction`` of peak."""
        for threads in range(1, 4 * spec.cores_per_socket):
            if self.throughput(threads, spec) >= fraction * self.peak_mops:
                return threads
        return 4 * spec.cores_per_socket


def kv_thread_study(
    spec: PlatformSpec,
    kind: InterfaceKind,
    workload: KvWorkload,
    n_ops: int = 6000,
    probe_mops: float = 50.0,
    nic_cap_mops: Optional[float] = None,
    obs=None,
    faults=None,
    batch: int = 32,
) -> KvStudy:
    """Measure one server thread in detail and compose the curve.

    ``nic_cap_mops`` defaults to the CX6 packet-engine limit divided by
    the average packets per operation — both deployments forward through
    the same CX6, so the peak is shared (§5.7). ``faults`` is an
    optional :class:`repro.faults.FaultInjector` attached to the built
    system. ``obs`` is an optional :class:`repro.obs.Observability`
    bundle; its observers (flight recorder, sanitizer, timeline) watch
    the probe run.
    """
    setup = build_interface(
        spec, kind if kind.is_coherent else InterfaceKind.CX6, obs=obs, faults=faults
    )
    app = KvServerApp(setup, workload, offered_mops=probe_mops, n_ops=n_ops, batch=batch)
    if obs is not None:
        app.instrument(obs)
    app.run()
    if obs is not None and obs.timeline is not None:
        obs.timeline.finish(setup.system.sim.now)
    # Scale on the application thread's own service rate: under CC-NIC
    # the NIC-socket agents (the overlay threads of §4) absorb the
    # PCIe-side work, so the app thread's busy time is what each added
    # thread contributes; under the direct PCIe interface the app
    # thread's busy time includes all driver bookkeeping.
    per_thread = app.per_thread_mops
    if nic_cap_mops is None:
        cx6 = spec.nic("cx6")
        # Both deployments forward through the CX6: peak ops are bounded
        # by its packet engine (one request + one response per op, plus
        # segment descriptors) and by its Ethernet line rate against the
        # workload's measured bytes per operation (which is what caps
        # the large-object Geo distribution in the paper).
        pkts_per_op = 2.2
        engine_cap = cx6.pps_capacity / 1e6 / pkts_per_op
        mean_op_bytes = sum(app._sizes) / len(app._sizes) + 2 * HEADER_BYTES
        line_cap = cx6.line_rate_gbps * 1e3 / (mean_op_bytes * 8)
        nic_cap_mops = min(engine_cap, line_cap)
    return KvStudy(kind=kind, per_thread_mops=per_thread, peak_mops=nic_cap_mops)
