"""Packet representation.

Packets are logical: the simulator never materialises payload bytes, only
sizes and timestamps. ``tx_ns`` is stamped when the application submits
the packet, so TX-RX loopback latency is ``rx_ns - tx_ns`` in virtual
time — the same definition the paper's DPDK traffic generator uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WorkloadError

#: Next packet id; a bound C method, so drawing one makes no Python frame.
_next_packet_id = itertools.count().__next__


@dataclass(init=False)
class Packet:
    """One packet travelling through a simulated NIC interface.

    Attributes:
        size: Payload bytes on the wire.
        tx_ns: Virtual time the application submitted it (set by apps).
        rx_ns: Virtual time the application received it back.
        pkt_id: Unique id, useful in tests and tracing.
        flow: Optional flow label for application workloads.

    ``__init__`` is written out, validating as it assigns, so that
    building a packet, which applications do once per send, costs one
    Python frame. Fields, eq and repr are the dataclass's.
    """

    size: int
    tx_ns: float = 0.0
    rx_ns: Optional[float] = None
    pkt_id: int = field(default_factory=_next_packet_id)
    flow: int = 0

    def __init__(
        self,
        size: int,
        tx_ns: float = 0.0,
        rx_ns: Optional[float] = None,
        pkt_id: Optional[int] = None,
        flow: int = 0,
    ) -> None:
        if size <= 0:
            raise WorkloadError(f"packet size must be positive, got {size}")
        self.size = size
        self.tx_ns = tx_ns
        self.rx_ns = rx_ns
        self.pkt_id = _next_packet_id() if pkt_id is None else pkt_id
        self.flow = flow

    @property
    def latency_ns(self) -> float:
        """TX-to-RX loopback latency; only valid once received."""
        if self.rx_ns is None:
            raise WorkloadError(f"packet {self.pkt_id} has not been received")
        return self.rx_ns - self.tx_ns
