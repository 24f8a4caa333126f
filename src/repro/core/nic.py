"""Structural typing for NIC interfaces and drivers.

Both :class:`~repro.core.interface.CcnicInterface` and
:class:`~repro.nicmodels.pcie_nic.PcieNicInterface` (and their drivers)
satisfy these protocols, which is what lets the traffic generator, the
application studies and :class:`~repro.analysis.loopback.LoopbackSetup`
stay interface-agnostic. The protocols are ``runtime_checkable`` so
tests can assert conformance with ``isinstance``.

These protocols deliberately omit the optional observation hooks
(``flight``, ``faults``, ``sanitizer`` class attributes on the concrete
types): ``runtime_checkable`` isinstance checks would then demand them
on every implementation, and the hooks are an attach-time concern of
the :class:`~repro.obs.Observability` cascade and the fault wiring in
:func:`~repro.analysis.loopback.build_interface`, not part of the
data-plane surface.
"""

from __future__ import annotations

from typing import Protocol, Sequence, Tuple, runtime_checkable

from repro.core.buffers import Buffer
from repro.core.results import AllocResult, RxResult, TxResult


@runtime_checkable
class NicDriver(Protocol):
    """Host-side burst API one application thread drives."""

    def alloc(self, sizes: Sequence[int]) -> AllocResult:
        """Allocate one buffer per payload size (partial on exhaustion)."""
        ...

    def free(self, bufs: Sequence[Buffer]) -> float:
        """Return buffers to the pool; returns the ns cost."""
        ...

    def write_payload(self, buf: Buffer, size: int) -> float:
        """Write ``size`` payload bytes into ``buf``."""
        ...

    def write_payloads(self, sized: Sequence[Tuple[Buffer, int]]) -> float:
        """Write a burst of TX payloads (overlapped stores)."""
        ...

    def read_payload(self, buf: Buffer) -> float:
        """Read one received payload."""
        ...

    def read_payloads(self, bufs: Sequence[Buffer]) -> float:
        """Read a burst of received payloads (overlapped loads)."""
        ...

    def tx_burst(self, entries, base_ns: float = 0.0) -> TxResult:
        """Submit (buffer, packet) pairs for transmission."""
        ...

    def rx_burst(self, max_packets: int) -> RxResult:
        """Poll for received packets."""
        ...

    def housekeeping(self) -> float:
        """Per-iteration driver bookkeeping (no-op where unneeded)."""
        ...


@runtime_checkable
class NicInterface(Protocol):
    """A NIC device instance: queue factory plus device-side engines."""

    def driver(self, index: int) -> NicDriver:
        """Create the host-side driver for queue ``index``."""
        ...

    def start(self) -> None:
        """Spawn the device-side engine processes."""
        ...

    @property
    def queue_count(self) -> int:
        """Number of queues created so far."""
        ...

    @property
    def link(self):
        """The interconnect host-NIC traffic crosses (UPI or PCIe)."""
        ...
