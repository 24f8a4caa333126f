"""Loopback experiment setup shared by the evaluation benchmarks.

Builds any of the four §5.1 comparison points on a fresh simulated
system and runs single-queue loopback measurements:

* ``ccnic`` — CC-NIC over UPI (fully optimized),
* ``unopt`` — the E810 interface run verbatim over UPI,
* ``e810`` / ``cx6`` — the PCIe NICs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core import CcnicConfig, CcnicInterface
from repro.core.nic import NicDriver, NicInterface
from repro.errors import ConfigError
from repro.nicmodels import PcieNicInterface, unoptimized_upi_config
from repro.obs.instrument import Observability
from repro.obs.wire import instrument_all
from repro.platform.presets import PlatformSpec
from repro.platform.system import System
from repro.workloads.trafficgen import LoopbackResult, run_loopback


class InterfaceKind(enum.Enum):
    """The four host-NIC interfaces compared in the evaluation."""

    CCNIC = "ccnic"
    UNOPT = "unopt"
    E810 = "e810"
    CX6 = "cx6"

    @property
    def is_coherent(self) -> bool:
        return self in (InterfaceKind.CCNIC, InterfaceKind.UNOPT)


@dataclass
class LoopbackSetup:
    """A ready-to-run system + interface + driver for one queue."""

    system: System
    interface: NicInterface
    driver: NicDriver
    kind: InterfaceKind

    def link(self):
        """The interconnect the host-NIC traffic crosses."""
        return self.interface.link

    def instrument(self, obs: Observability) -> "LoopbackSetup":
        """Attach ``obs`` to every layer of the built setup.

        The one attach path for telemetry and observers alike: each
        component's ``instrument`` cascade registers its metrics and
        takes the bundle's flight recorder, sanitizer and timeline on
        its hooks, and the timeline gains the setup's
        standard series. The bundle replaces any earlier one, so attach
        everything in one bundle.
        """
        system = self.system
        instrument_all(
            obs, system.sim, system.fabric, self.interface, self.driver,
            system.fabric.faults,
        )
        if obs.timeline is not None:
            from repro.obs.timeline import register_setup_series

            register_setup_series(obs.timeline, self)
        return self


def build_interface(
    spec: PlatformSpec,
    kind: InterfaceKind,
    config: Optional[CcnicConfig] = None,
    same_socket: bool = False,
    prefetch_host: bool = True,
    prefetch_nic: bool = False,
    link_latency_factor: float = 1.0,
    link_bandwidth_factor: float = 1.0,
    ring_slots: int = 1024,
    obs: Optional[Observability] = None,
    faults=None,
) -> LoopbackSetup:
    """Instantiate one comparison point with a single queue pair.

    ``faults`` is an optional :class:`repro.faults.FaultInjector`; it is
    attached to the system link, the coherence fabric, and the interface
    so every injection hook sees the same schedule, and it joins the
    telemetry cascade. ``obs`` is attached through
    :meth:`LoopbackSetup.instrument`.
    """
    system = System(
        spec,
        same_socket=same_socket,
        prefetch_host=prefetch_host,
        prefetch_nic=prefetch_nic,
        link_latency_factor=link_latency_factor,
        link_bandwidth_factor=link_bandwidth_factor,
    )
    if kind is InterfaceKind.CCNIC:
        cfg = config or CcnicConfig(ring_slots=ring_slots, recycle_stack_max=1024)
        interface = CcnicInterface(system, cfg)
        driver = interface.driver(0)
        interface.start()
    elif kind is InterfaceKind.UNOPT:
        if config is not None:
            raise ConfigError("unopt baseline builds its own config")
        cfg = unoptimized_upi_config(ring_slots=ring_slots)
        interface = CcnicInterface(system, cfg)
        driver = interface.driver(0)
        interface.start()
    else:
        nic_spec = spec.nic(kind.value)
        interface = PcieNicInterface(system, nic_spec)
        driver = interface.driver(0)
        interface.start()
    if faults is not None:
        system.link.faults = faults
        system.fabric.faults = faults
        interface.faults = faults
        if getattr(interface, "link", None) is not system.link:
            interface.link.faults = faults  # the PCIe lane group
    setup = LoopbackSetup(system=system, interface=interface, driver=driver, kind=kind)
    if obs is not None:
        # Instrument after start() so the interface cascade reaches the
        # per-pair NIC agents spawned there.
        setup.instrument(obs)
    return setup


def run_point(
    setup: LoopbackSetup,
    pkt_size: int,
    n_packets: int,
    inflight: Optional[int] = None,
    offered_mpps: Optional[float] = None,
    tx_batch: int = 32,
    rx_batch: int = 32,
    obs: Optional[Observability] = None,
    recovery=None,
    max_sim_ns: float = 1e9,
    route=None,
) -> LoopbackResult:
    """Run one loopback measurement on a built setup.

    ``obs`` instruments the loopback app (pass the bundle the setup was
    built with: its flight recorder closes packet waterfalls and its
    timeline takes per-packet latency samples); ``route`` is an
    optional per-packet rack-fabric charge (see
    :attr:`repro.workloads.trafficgen.LoopbackApp.route`).
    """
    return run_loopback(
        setup.system,
        setup.driver,
        pkt_size=pkt_size,
        n_packets=n_packets,
        inflight=inflight,
        offered_mpps=offered_mpps,
        tx_batch=tx_batch,
        rx_batch=rx_batch,
        obs=obs,
        recovery=recovery,
        max_sim_ns=max_sim_ns,
        route=route,
    )


def min_latency(
    spec: PlatformSpec,
    kind: InterfaceKind,
    pkt_size: int = 64,
    n_packets: int = 1200,
    **build_kwargs,
) -> float:
    """Minimum loopback latency: closed loop, one packet in flight."""
    setup = build_interface(spec, kind, **build_kwargs)
    result = run_point(
        setup, pkt_size, n_packets, inflight=1, tx_batch=1, rx_batch=1
    )
    return result.latency.minimum


def saturation(
    spec: PlatformSpec,
    kind: InterfaceKind,
    pkt_size: int = 64,
    n_packets: int = 30000,
    inflight: int = 384,
    **build_kwargs,
) -> LoopbackResult:
    """Single-queue saturation throughput (deep closed loop)."""
    setup = build_interface(spec, kind, **build_kwargs)
    return run_point(
        setup, pkt_size, n_packets, inflight=inflight, tx_batch=32, rx_batch=32
    )


def wire_bytes_per_packet(setup: LoopbackSetup, result: LoopbackResult) -> tuple:
    """Per-direction interconnect wire bytes per delivered packet."""
    link = setup.link()
    if result.received == 0:
        return 0.0, 0.0
    return (
        link.stats[0].wire_bytes / result.received,
        link.stats[1].wire_bytes / result.received,
    )
