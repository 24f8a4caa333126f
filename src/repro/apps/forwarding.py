"""Network-function (middlebox) forwarding, the paper's §6 extension.

Packet switching through a PCIe NIC moves every payload byte across the
interconnect twice even when the application only rewrites headers. A
coherent NIC can instead *retain payloads in the NIC-side cache* while
the host touches only the header line: the payload crosses the
interconnect zero times for forwarded traffic.

Two forwarding modes over the CC-NIC interface:

* ``full_payload`` — the host reads the whole packet and writes it back
  out (the PCIe-equivalent data motion);
* ``header_only`` — the host reads and rewrites only the first cache
  line; the payload stays wherever it is cached (the NIC side), and the
  TX descriptor re-references the same buffer.

The measured difference — interconnect wire bytes per forwarded packet
and the per-core forwarding rate — is the §6 claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.loopback import InterfaceKind, build_interface
from repro.errors import WorkloadError
from repro.platform.presets import PlatformSpec
from repro.sim.stats import Histogram
from repro.workloads.packets import Packet

#: Header bytes the middlebox inspects and rewrites.
HEADER_BYTES = 64
#: Cycles of forwarding logic per packet (lookup + header rewrite).
FORWARD_CYCLES = 60


@dataclass
class ForwardingResult:
    """Outcome of a forwarding run."""

    forwarded: int = 0
    elapsed_ns: float = 0.0
    wire_bytes_per_pkt: float = 0.0
    latency: Histogram = field(default_factory=lambda: Histogram("fwd_ns"))

    @property
    def mpps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.forwarded / self.elapsed_ns * 1e3


class ForwardingApp:
    """One middlebox thread forwarding packets between two ports.

    Packets are injected into the RX path (port A); the app inspects
    headers and retransmits (port B, the TX sink).
    """

    def __init__(
        self,
        setup,
        pkt_size: int,
        n_packets: int,
        header_only: bool,
        offered_mpps: float = 20.0,
        batch: int = 32,
        warmup_fraction: float = 0.1,
    ) -> None:
        if pkt_size < HEADER_BYTES:
            raise WorkloadError(f"packets must be at least {HEADER_BYTES}B")
        if n_packets <= 0:
            raise WorkloadError("n_packets must be positive")
        self.setup = setup
        self.pkt_size = pkt_size
        self.n_packets = n_packets
        self.header_only = header_only
        self.offered_mpps = offered_mpps
        self.batch = batch
        self.warmup = int(n_packets * warmup_fraction)
        self.result = ForwardingResult()
        self.done = False
        self._window_start = None

    # ------------------------------------------------------------------
    def client(self):
        sim = self.setup.system.sim
        agent = self.setup.interface.pair(0).agent
        interval = 1e3 / self.offered_mpps
        sent = 0
        while sent < self.n_packets:
            burst = min(self.batch, self.n_packets - sent)
            for _ in range(burst):
                agent.inject(Packet(size=self.pkt_size, tx_ns=sim.now), sim.now)
            sent += burst
            yield interval * burst

    def _attach_sink(self):
        """Take forwarded packets at the NIC; returns the agent holding the sink."""
        result = self.result

        def sink(pkt: Packet, when: float) -> None:
            result.forwarded += 1
            if result.forwarded > self.warmup:
                if self._window_start is None:
                    self._window_start = when
                result.elapsed_ns = when - self._window_start
                result.latency.record(when - pkt.tx_ns)
            if result.forwarded >= self.n_packets:
                self.done = True

        host = self.setup.interface.pair(0).agent
        host.on_transmit = sink
        return host

    # ------------------------------------------------------------------
    def middlebox(self):
        system = self.setup.system
        fabric = system.fabric
        driver = self.setup.driver
        agent = driver.agent
        while not self.done:
            ns = 0.0
            rx = driver.rx_burst(self.batch)
            ns += rx.ns
            if not rx.entries:
                yield max(ns + system.cycles(8), 2.0)
                continue
            outgoing: List[tuple] = []
            for pkt, buf in rx.entries:
                head = next(iter(buf.segments()))
                if self.header_only:
                    # Touch only the header line; the payload lines stay
                    # in the NIC-side cache and never cross the link.
                    ns += fabric.read(agent, head.addr, HEADER_BYTES)
                    ns += fabric.write(agent, head.addr, HEADER_BYTES)
                else:
                    # PCIe-equivalent data motion: full payload in, full
                    # payload out.
                    ns += driver.read_payloads([buf])
                    ns += fabric.access(agent, head.addr, buf.total_len, write=True)
                ns += system.cycles(FORWARD_CYCLES)
                outgoing.append((buf, Packet(size=pkt.size, tx_ns=pkt.tx_ns)))
            while outgoing:
                tx = driver.tx_burst(outgoing, base_ns=ns)
                ns += tx.ns
                if tx.count == 0:
                    yield max(ns, 1.0)
                    ns = 0.0
                    continue
                del outgoing[: tx.count]
            yield max(ns, 1.0)

    # ------------------------------------------------------------------
    def run(self, max_sim_ns: float = 5e8) -> ForwardingResult:
        host = self._attach_sink()
        system = self.setup.system
        link = system.link
        start_wire = link.total_wire_bytes()
        system.sim.spawn(self.client(), "fwd-client")
        system.sim.spawn(self.middlebox(), "fwd-middlebox")
        try:
            system.sim.run(until=max_sim_ns, stop_when=lambda: self.done)
        finally:
            # The sink closes over this app, which holds the interface.
            host.on_transmit = None
        self.done = True
        if self.result.forwarded:
            self.result.wire_bytes_per_pkt = (
                link.total_wire_bytes() - start_wire
            ) / self.result.forwarded
        return self.result


def forwarding_study(
    spec: PlatformSpec,
    pkt_size: int = 1500,
    n_packets: int = 3000,
) -> dict:
    """Compare header-only and full-payload forwarding over CC-NIC."""
    out = {}
    for mode, header_only in (("header_only", True), ("full_payload", False)):
        setup = build_interface(spec, InterfaceKind.CCNIC)
        app = ForwardingApp(setup, pkt_size, n_packets, header_only=header_only)
        out[mode] = app.run()
    return out
