"""Loopback traffic generator (the paper's measurement application).

Mirrors the evaluation setup of §5.1: each application thread owns a
private TX/RX queue pair, allocates TX buffers, writes full timestamped
payloads for each burst, polls its RX queue, reads every RX payload, and
frees buffers. Latency is TX-submit to RX-read in virtual time;
throughput is received packets over the measurement window.

Two load modes:

* **closed loop** — at most ``inflight`` packets outstanding; with
  ``inflight=1`` this measures minimum latency.
* **open loop** — batches are offered at a fixed rate; if the interface
  cannot keep up, ring backpressure throttles the generator and the
  achieved rate saturates below the offered rate, tracing out the
  paper's throughput-latency curves.

Between two NIC steps most iterations are empty polls, each a hit on
the app's own copy of the RX signal line (§3.2). Once an empty iteration
repeats the previous one, the app skips the following ones that fall
before anything else can act and yields a
:class:`~repro.sim.engine.Resume` (see :meth:`LoopbackApp._skip_idle`);
every result and counter is the step-by-step run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import math

from repro.core.recovery import RecoveryPolicy, first_instant
from repro.errors import RingTimeoutError, WorkloadError
from repro.obs.instrument import Instrumented
from repro.sim.engine import Resume
from repro.sim.rng import make_rng
from repro.sim.stats import Histogram, ordered_sum
from repro.workloads.packets import Packet

#: Fixed per-iteration application overhead, cycles (loop, branch, timestamping).
APP_CYCLES_PER_LOOP = 16
APP_CYCLES_PER_PKT = 14


@dataclass
class LoopbackResult:
    """Measurement outcome of one traffic-generator run."""

    sent: int = 0
    received: int = 0
    bytes_received: int = 0
    window_start_ns: float = 0.0
    window_end_ns: float = 0.0
    latency: Histogram = field(default_factory=lambda: Histogram("latency_ns"))
    backpressure_events: int = 0
    # Packets written off under fault recovery: shed at submission
    # (ring timeout) or lost in flight (NIC reset). Always 0 when no
    # recovery policy is configured.
    dropped: int = 0

    @property
    def elapsed_ns(self) -> float:
        return max(0.0, self.window_end_ns - self.window_start_ns)

    @property
    def mpps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self._measured / self.elapsed_ns * 1e3

    @property
    def gbps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self._measured_bytes * 8.0 / self.elapsed_ns

    # Set by the generator: packets/bytes inside the measurement window.
    _measured: int = 0
    _measured_bytes: int = 0

    @property
    def median_latency_ns(self) -> float:
        return self.latency.median

    def __repr__(self) -> str:
        return (
            f"LoopbackResult(rx={self.received}, {self.mpps:.1f}Mpps, "
            f"{self.gbps:.1f}Gbps, median={self.latency.median:.0f}ns)"
        )


class LoopbackApp(Instrumented):
    """One application thread driving one queue pair.

    Args:
        driver: Host-side driver (CC-NIC, unoptimized-UPI, or PCIe —
            they share the same burst API).
        pkt_size: Payload bytes per packet.
        n_packets: Packets to send and receive before stopping.
        tx_batch: Packets submitted per burst.
        rx_batch: Maximum packets polled per burst.
        inflight: Closed-loop window (None for pure open loop).
        offered_mpps: Open-loop offered rate (None for closed loop).
        warmup_fraction: Leading fraction of packets excluded from the
            latency histogram and rate window.
        arrivals: Open-loop arrival process: "paced" (deterministic
            inter-burst gaps) or "poisson" (exponential gaps — burstier,
            with a heavier queueing tail at the same mean rate).
        seed: RNG seed for stochastic arrival processes.
        recovery: Optional :class:`RecoveryPolicy`. When set, the app
            degrades gracefully under injected faults — ring timeouts
            shed the burst, the driver watchdog runs each iteration, and
            packets lost to NIC resets are written off as ``dropped``
            instead of deadlocking the closed-loop window.
    """

    #: Optional :class:`repro.obs.flight.FlightRecorder`; the app closes
    #: each sampled packet's waterfall at its RX-read timestamp.
    flight = None

    #: Optional per-packet rack-fabric charge (``pkt -> extra ns``),
    #: set by topology scenarios: the returned delay is added to each
    #: received packet's delivery time, modelling the round trip through
    #: a :class:`repro.topology.net.Router`. Class-level None so
    #: single-box runs pay zero extra cost.
    route = None

    #: Optional :class:`repro.obs.timeline.TimelineSampler`; the app
    #: feeds post-warmup latencies into its ``latency_ns`` windowed
    #: series. Class-level None: detached runs pay one load + branch.
    timeline = None

    _obs_hooks = ("flight", "timeline")

    def __init__(
        self,
        driver,
        pkt_size: int,
        n_packets: int,
        tx_batch: int = 32,
        rx_batch: int = 32,
        inflight: Optional[int] = None,
        offered_mpps: Optional[float] = None,
        warmup_fraction: float = 0.1,
        arrivals: str = "paced",
        seed: int = 0,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        if n_packets <= 0:
            raise WorkloadError("n_packets must be positive")
        if inflight is None and offered_mpps is None:
            raise WorkloadError("need a closed-loop window or an offered rate")
        if inflight is not None and inflight <= 0:
            raise WorkloadError("inflight must be positive")
        if offered_mpps is not None and offered_mpps <= 0:
            raise WorkloadError("offered_mpps must be positive")
        if not 0.0 <= warmup_fraction < 1.0:
            raise WorkloadError("warmup_fraction must be in [0, 1)")
        if arrivals not in ("paced", "poisson"):
            raise WorkloadError(f"unknown arrival process {arrivals!r}")
        self.arrivals = arrivals
        self._rng = make_rng(seed, "trafficgen")
        self.driver = driver
        self.pkt_size = pkt_size
        self.n_packets = n_packets
        self.tx_batch = tx_batch
        self.rx_batch = rx_batch
        self.inflight = inflight
        self.offered_mpps = offered_mpps
        self.warmup = int(n_packets * warmup_fraction)
        self.result = LoopbackResult()
        self.done = False
        self.recovery = recovery
        if recovery is not None:
            driver.configure_recovery(recovery)
        # Loss accounting: submit-side sheds never entered the interface
        # (they cap the offered count); in-flight losses were sent and
        # must refill the closed-loop window. Invariant:
        #   sent + _submit_dropped == offered
        #   received + outstanding + _lost_inflight == sent
        #   dropped == _submit_dropped + _lost_inflight
        self._submit_dropped = 0
        self._lost_inflight = 0
        self._last_received = 0
        self._rx_stall_since = 0.0

    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return "trafficgen"

    def _register_metrics(self, registry) -> None:
        result = self.result
        registry.gauge(self.obs_name, "sent", fn=lambda: float(result.sent))
        registry.gauge(self.obs_name, "received", fn=lambda: float(result.received))
        registry.gauge(
            self.obs_name, "bytes_received", fn=lambda: float(result.bytes_received)
        )
        registry.gauge(
            self.obs_name,
            "backpressure_events",
            fn=lambda: float(result.backpressure_events),
        )
        registry.gauge(self.obs_name, "dropped", fn=lambda: float(result.dropped))
        registry.adopt_histogram(self.obs_name, "latency_ns", result.latency)

    # ------------------------------------------------------------------
    def run(self):
        """Generator body: the application polling loop."""
        driver = self.driver
        system = driver.interface.system
        sim = system.sim
        result = self.result
        rx_batch = self.rx_batch
        interval = None
        if self.offered_mpps is not None:
            interval = 1e3 / self.offered_mpps  # ns per packet
        next_send = 0.0
        pending: List[Tuple] = []  # (buffer, packet) ready to submit
        recovery = self.recovery
        # cycles() is pure in its argument: precompute the two per-loop
        # charges instead of recomputing them ~2x per packet.
        loop_ns = system.cycles(APP_CYCLES_PER_LOOP)
        pkt_ns = system.cycles(APP_CYCLES_PER_PKT)
        # Hot-loop hoists: this generator runs ~1.5 iterations per
        # packet, so repeated attribute traffic shows up in profiles.
        n_packets = self.n_packets
        inflight = self.inflight
        tx_batch = self.tx_batch
        pkt_size = self.pkt_size
        warmup = self.warmup
        drv_alloc = driver.alloc
        drv_write_payloads = driver.write_payloads
        drv_read_payloads = driver.read_payloads
        drv_rx_burst = driver.rx_burst
        drv_free = driver.free
        # Host-side bookkeeping runs only where the driver keeps some
        # (CC-NIC's NIC-managed buffers need none).
        drv_housekeeping = None
        if getattr(driver, "needs_housekeeping", True):
            drv_housekeeping = driver.housekeeping
        record_latency = result.latency.record
        route = self.route
        timeline = self.timeline
        sample_latency = None
        if timeline is not None:
            # The open-window list is identity-stable across window
            # closes, so hoisting its append out of the loop is safe.
            sample_latency = timeline.hist("latency_ns").append
        # Idle-poll elision: the last idle iteration's poll cost, RX
        # head and recovery counts, or None after a busy iteration.
        # PCIe drivers have no such flag and keep per-step polling.
        skips = getattr(driver, "skips_idle_polls", False)
        rx_ring = driver.pair.rx if skips else None
        idle_key = None

        # Every offered packet eventually resolves to received or
        # dropped, so the loop terminates even when faults lose packets.
        while result.received + result.dropped < n_packets:
            ns = loop_ns
            offered = result.sent + self._submit_dropped
            outstanding = result.sent - result.received - self._lost_inflight
            if outstanding < 0:
                outstanding = 0

            # ---- Prepare and submit TX.
            can_send = offered < n_packets and not pending
            if can_send and inflight is not None:
                can_send = outstanding < inflight
            if can_send and interval is not None:
                can_send = sim.now >= next_send
            idle = not (can_send or pending)
            if can_send:
                burst = min(tx_batch, n_packets - offered)
                if inflight is not None:
                    burst = min(burst, inflight - outstanding)
                sizes = [pkt_size] * burst
                blank = drv_alloc(sizes)
                bufs = blank.bufs
                ns += blank.ns
                ns += drv_write_payloads([(buf, pkt_size) for buf in bufs])
                now = sim.now
                for buf in bufs:
                    ns += pkt_ns
                    pending.append((buf, Packet(pkt_size, now + ns)))
                if interval is not None and bufs:
                    if next_send < sim.now - interval * burst:
                        next_send = sim.now  # don't accumulate unbounded debt
                    if self.arrivals == "poisson":
                        # Exponential inter-arrival per packet, summed
                        # over the burst: same mean rate, bursty.
                        gap = ordered_sum(
                            self._rng.expovariate(1.0) * interval
                            for _ in range(burst)
                        )
                        next_send += gap
                    else:
                        next_send += interval * burst

            if pending:
                try:
                    if recovery is not None:
                        tx = driver.tx_submit(pending, base_ns=ns)
                    else:
                        tx = driver.tx_burst(pending, base_ns=ns)
                except RingTimeoutError:
                    # The ring is dead; shed the burst instead of
                    # spinning. The watchdog below revives the queue.
                    ns += drv_free([buf for buf, _pkt in pending])
                    self._submit_dropped += len(pending)
                    result.dropped += len(pending)
                    pending.clear()
                else:
                    ns += tx.ns
                    if tx.count:
                        result.sent += tx.count
                        del pending[: tx.count]
                    if pending:
                        result.backpressure_events += 1

            # ---- Receive.
            rx = drv_rx_burst(rx_batch)
            ns += rx.ns
            entries = rx.entries
            if entries:
                idle = False
                bufs_to_free = []
                ns += drv_read_payloads([buf for _pkt, buf in entries])
                now = sim.now
                for pkt, buf in entries:
                    ns += pkt_ns
                    pkt.rx_ns = rx_ns = now + ns
                    if route is not None:
                        # Rack-fabric round trip: delivery (and latency)
                        # shifts; the local measurement window does not.
                        rx_ns += route(pkt)
                        pkt.rx_ns = rx_ns
                    result.received += 1
                    result.bytes_received += pkt.size
                    bufs_to_free.append(buf)
                    if result.received > warmup:
                        # Packet.latency_ns, from the stamp just taken.
                        latency = rx_ns - pkt.tx_ns
                        record_latency(latency)
                        if sample_latency is not None:
                            sample_latency(latency)
                        if result._measured == 0:
                            result.window_start_ns = now + ns
                        result._measured += 1
                        result._measured_bytes += pkt.size
                        result.window_end_ns = now + ns
                flight = self.flight
                if flight is not None:
                    for pkt, _buf in entries:
                        if flight.tracked(pkt.pkt_id):
                            flight.packet_finish(pkt.pkt_id, pkt.rx_ns)
                ns += drv_free(bufs_to_free)

            if drv_housekeeping is not None:
                ns += drv_housekeeping()
            if recovery is not None:
                ns += driver.watchdog()
                ns += self._write_off_losses(sim.now)
            step = max(ns, 1.0)
            if idle and skips:
                key = (rx.ns, rx_ring.head, result.dropped, driver.watchdog_resets)
                if key == idle_key:
                    send_at = math.inf
                    if interval is not None and offered < n_packets and (
                        inflight is None or outstanding < inflight
                    ):
                        send_at = next_send
                    resume = self._skip_idle(sim, step, rx.ns, send_at)
                    if resume is not None:
                        yield resume
                        continue
                idle_key = key
            else:
                idle_key = None
            yield step
        self.done = True

    def _skip_idle(self, sim, step: float, poll_ns: float, send_at: float):
        """Skip the iterations that would repeat this idle one exactly.

        Called at the end of an idle iteration (nothing sent, pending or
        received, no recovery action) that repeated the previous one's
        poll cost on the same RX head line, which makes its poll a hit
        on the app's own copy of the line. Until something else acts
        the next iterations are the same: each would step the clock by
        ``step``. They are skipped while strictly earlier than the
        horizon: the engine's (next queued event, timeline roll,
        ``until``), the RX head slot turning visible, the open-loop
        ``send_at``, and the instants at which the driver's watchdog or
        this app's in-flight write-off would act. Returns the
        :class:`Resume` to yield, or None when no iteration can be
        skipped.
        """
        start = last = sim.now
        t = start + step
        limit, budget = sim.horizon()
        if not (t < limit and budget):
            return None  # another process acts before the next iteration
        limit = min(limit, send_at, self.driver.idle_wake())
        result = self.result
        recovery = self.recovery
        outstanding = 0
        if recovery is not None:
            outstanding = result.sent - result.received - self._lost_inflight
            if outstanding > 0:
                limit = min(
                    limit,
                    first_instant(self._rx_stall_since, recovery.inflight_timeout_ns),
                )
        count = 0
        while t < limit and count < budget:
            count += 1
            last = t
            t += step
        if not count:
            return None
        self.driver.skip_idle_polls(poll_ns, start, step, count, last)
        if recovery is not None and outstanding <= 0:
            self._rx_stall_since = last  # _write_off_losses restarts it each pass
        return Resume(t, count)

    def _write_off_losses(self, now: float) -> float:
        """Account packets lost to resets; expire a dead in-flight window.

        Reset losses reported by the driver shrink the outstanding
        count directly. Separately, if nothing has been received for
        ``inflight_timeout_ns`` while packets are outstanding, the whole
        window is written off — those packets evaporated somewhere the
        driver could not see (e.g. on the wire during a reset).
        """
        result = self.result
        lost = self.driver.take_reset_losses()
        if lost:
            outstanding = max(
                0, result.sent - result.received - self._lost_inflight
            )
            lost = min(lost, outstanding)
            self._lost_inflight += lost
            result.dropped += lost
        outstanding = max(0, result.sent - result.received - self._lost_inflight)
        if outstanding and result.received == self._last_received:
            if now - self._rx_stall_since >= self.recovery.inflight_timeout_ns:
                self._lost_inflight += outstanding
                result.dropped += outstanding
                self._rx_stall_since = now
        else:
            self._last_received = result.received
            self._rx_stall_since = now
        return 0.0


def run_loopback(
    system,
    driver,
    pkt_size: int,
    n_packets: int,
    tx_batch: int = 32,
    rx_batch: int = 32,
    inflight: Optional[int] = None,
    offered_mpps: Optional[float] = None,
    max_sim_ns: float = 1e9,
    arrivals: str = "paced",
    seed: int = 0,
    obs=None,
    recovery: Optional[RecoveryPolicy] = None,
    route=None,
) -> LoopbackResult:
    """Convenience wrapper: spawn one app on a started interface and run."""
    app = LoopbackApp(
        driver,
        pkt_size=pkt_size,
        n_packets=n_packets,
        tx_batch=tx_batch,
        rx_batch=rx_batch,
        inflight=inflight,
        offered_mpps=offered_mpps,
        arrivals=arrivals,
        seed=seed,
        recovery=recovery,
    )
    if obs is not None:
        app.instrument(obs)
    if route is not None:
        app.route = route
    system.sim.spawn(app.run(), name="loopback-app")
    system.sim.run(until=max_sim_ns, stop_when=lambda: app.done)
    return app.result
