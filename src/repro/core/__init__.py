"""CC-NIC: the paper's cache-coherence-optimized host-NIC interface.

The public data-plane API mirrors the paper's Figure 5 (DPDK mempool /
ethdev semantics)::

    from repro.core import CcnicInterface, CcnicConfig
    from repro.core.api import buf_alloc, buf_free, tx_burst, rx_burst

    nic = CcnicInterface(system, CcnicConfig())
    driver = nic.driver(0)
    nic.start()
    alloc = buf_alloc(nic.pool, driver.agent, sizes=[64] * 4)
    tx = tx_burst(driver, [(buf, pkt) for buf in alloc.bufs])
    rx = rx_burst(driver, 32)

Every operation returns a typed result (:class:`~repro.core.results.AllocResult`,
:class:`~repro.core.results.TxResult`, :class:`~repro.core.results.RxResult`)
carrying both the payload and the nanoseconds the call cost the calling
core, which driver processes yield to the simulator.
"""

from repro.core.buffers import Buffer
from repro.core.config import CcnicConfig, DescLayout
from repro.core.interface import CcnicInterface
from repro.core.nic import NicDriver, NicInterface
from repro.core.pool import BufferPool
from repro.core.results import AllocResult, RxResult, TxResult

__all__ = [
    "AllocResult",
    "Buffer",
    "BufferPool",
    "CcnicConfig",
    "CcnicInterface",
    "DescLayout",
    "NicDriver",
    "NicInterface",
    "RxResult",
    "TxResult",
]
