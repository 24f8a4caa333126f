"""The CC-NIC interface object: pool + queue pairs + NIC agents.

This is the top-level object applications construct. It owns the shared
buffer pool, creates one queue pair per application thread, and spawns
one NIC-side agent process per pair when started.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.agent import NicQueueAgent
from repro.core.config import CcnicConfig
from repro.core.driver import CcnicDriver
from repro.core.pool import BufferPool
from repro.core.ring import CoherentQueue
from repro.errors import NicError
from repro.obs.instrument import Instrumented, Observability
from repro.platform.system import System


@dataclass
class QueuePair:
    """TX/RX descriptor rings (plus bookkeeping rings) for one thread.

    The pair owns its NIC agent; the agent keeps the rings it serves,
    not the pair, so the two form no reference cycle.
    """

    tx: CoherentQueue
    rx: CoherentQueue
    tx_comp: Optional[CoherentQueue] = None
    rx_post: Optional[CoherentQueue] = None
    #: Blanks the host has posted on ``rx_post`` since its last reset,
    #: plus the ring's ``consumed`` count at that reset.
    rx_post_mark: int = 0
    agent: Optional[NicQueueAgent] = field(default=None, repr=False)

    @property
    def rx_posted(self) -> int:
        """Posted blank RX buffers the device has not fetched yet."""
        return self.rx_post_mark - self.rx_post.consumed


class CcnicInterface(Instrumented):
    """A CC-NIC device instance on a simulated system.

    Args:
        system: The simulated two-socket server.
        config: Feature flags and sizing (defaults: fully optimized).
        seed: Seed for the pool's non-sequential fill order.
    """

    #: Optional :class:`repro.faults.FaultInjector` consulted by the
    #: NIC agents for stall/reset events; see :attr:`faults`.
    _faults = None

    def __init__(self, system: System, config: Optional[CcnicConfig] = None, seed: int = 0) -> None:
        self.system = system
        self.config = config or CcnicConfig()
        self.pool = BufferPool(system, self.config, seed=seed)
        self._pairs: Dict[int, QueuePair] = {}
        self._started = False

    # ------------------------------------------------------------------
    def pair(self, index: int) -> QueuePair:
        """Get or lazily create queue pair ``index``."""
        existing = self._pairs.get(index)
        if existing is not None:
            return existing
        if self._started:
            raise NicError("cannot add queue pairs after start()")
        config = self.config
        host = self.system.HOST_SOCKET
        nic = self.system.nic_socket
        tx_home = host if config.writer_homed_rings else nic
        rx_home = nic if config.writer_homed_rings else host
        pair = QueuePair(
            tx=CoherentQueue(
                self.system,
                f"txq{index}",
                layout=config.desc_layout,
                inline_signals=config.inline_signals,
                slots=config.ring_slots,
                home_socket=tx_home,
            ),
            rx=CoherentQueue(
                self.system,
                f"rxq{index}",
                layout=config.desc_layout,
                inline_signals=config.inline_signals,
                slots=config.ring_slots,
                home_socket=rx_home,
            ),
        )
        if not config.nic_buffer_mgmt:
            pair.tx_comp = CoherentQueue(
                self.system,
                f"txcomp{index}",
                layout=config.desc_layout,
                inline_signals=True,
                slots=config.ring_slots,
                home_socket=rx_home,
            )
            pair.rx_post = CoherentQueue(
                self.system,
                f"rxpost{index}",
                layout=config.desc_layout,
                inline_signals=True,
                slots=config.ring_slots,
                home_socket=tx_home,
            )
        self._pairs[index] = pair
        return pair

    @property
    def faults(self):
        """The fault injector the NIC agents consult, or None.

        Setting it hands it to every agent, now and at :meth:`start`:
        agents keep the injector, not the interface.
        """
        return self._faults

    @faults.setter
    def faults(self, injector) -> None:
        self._faults = injector
        for pair in self._pairs.values():
            if pair.agent is not None:
                pair.agent.faults = injector

    def driver(self, index: int, host_agent=None) -> CcnicDriver:
        """Create the host-side driver for queue pair ``index``."""
        if host_agent is None:
            host_agent = self.system.new_host_core(f"host-q{index}")
        return CcnicDriver(self, index, host_agent)

    def start(self) -> None:
        """Spawn one NIC agent process per queue pair."""
        if self._started:
            raise NicError("interface already started")
        self._started = True
        for index, pair in sorted(self._pairs.items()):
            agent = NicQueueAgent(self, index)
            agent.faults = self._faults
            pair.agent = agent
            self.system.sim.spawn(agent.run(), name=f"ccnic-agent-q{index}")

    @property
    def queue_count(self) -> int:
        return len(self._pairs)

    @property
    def link(self):
        """The interconnect host-NIC traffic crosses (UPI)."""
        return self.system.link

    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return "ccnic"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "queue_count", fn=lambda: float(self.queue_count))

    def _instrument_children(self, obs: Observability) -> None:
        self.pool.instrument(obs)
        for _index, pair in sorted(self._pairs.items()):
            for queue in (pair.tx, pair.rx, pair.tx_comp, pair.rx_post):
                if queue is not None:
                    queue.instrument(obs)
            if pair.agent is not None:
                pair.agent.instrument(obs)

    def __repr__(self) -> str:
        return f"<CcnicInterface queues={len(self._pairs)} {self.config.desc_layout.value}>"
