"""Server platform presets: Ice Lake (ICX) and Sapphire Rapids (SPR).

All latency constants are calibrated to the paper's own measurements
(Fig 7 access latencies, §2.2 MMIO latencies, the measured maximum UPI
data throughput of 443Gbps on ICX and 1020Gbps on SPR). Everything the
benchmark suite reports downstream is *derived* from these plus the
protocol mechanics — no end-to-end result is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.coherence.costs import CostModel
from repro.errors import ConfigError
from repro.mem.address import CACHE_LINE_SIZE
from repro.platform.nicspecs import CX6, E810, NicHardwareSpec
from repro.units import gbps_to_bytes_per_ns


@dataclass(frozen=True)
class PlatformSpec:
    """Everything needed to instantiate a two-socket simulated server.

    Attributes:
        name: "icx" or "spr".
        cores_per_socket: Physical cores per CPU.
        freq_ghz: Core frequency (converts per-op cycle costs to ns).
        l2_bytes: Per-core private L2 capacity.
        llc_bytes: Shared last-level cache capacity (per socket).
        cost: Coherence latency cost model.
        upi_latency_ns: One-way UPI message propagation latency.
        upi_data_gbps: Measured maximum UPI *data* throughput (after
            protocol overhead) — the ceiling the paper reports from mlc.
        upi_header_overhead: Protocol header bytes per message; the raw
            wire bandwidth is sized so data throughput peaks at
            ``upi_data_gbps``.
        pcie_gbps: Host PCIe 4.0 x16 data rate (for NIC baselines).
        ht_speedup: Throughput factor from enabling both hyperthreads of
            a core relative to one thread.
        nics: PCIe NICs installed in this server.
    """

    name: str
    cores_per_socket: int
    freq_ghz: float
    l2_bytes: int
    llc_bytes: int
    cost: CostModel
    upi_latency_ns: float
    upi_data_gbps: float
    upi_header_overhead: int = 12
    pcie_gbps: float = 252.0
    ht_speedup: float = 1.3
    mlp: float = 10.0             # per-core miss-level parallelism
    write_pipeline: float = 2.0   # store-buffer overlap on write misses
    ipc: float = 1.0              # relative core width (cycles -> ns scale)
    nics: Tuple[NicHardwareSpec, ...] = field(default=(E810, CX6))

    def __post_init__(self) -> None:
        if self.cores_per_socket <= 0:
            raise ConfigError("cores_per_socket must be positive")
        if self.freq_ghz <= 0:
            raise ConfigError("freq_ghz must be positive")
        if self.l2_bytes < CACHE_LINE_SIZE or self.llc_bytes < self.l2_bytes:
            raise ConfigError("cache sizes are inconsistent")
        if self.upi_data_gbps <= 0 or self.pcie_gbps <= 0:
            raise ConfigError("link rates must be positive")

    # ------------------------------------------------------------------
    @property
    def l2_lines(self) -> int:
        """Per-core L2 capacity in cache lines."""
        return self.l2_bytes // CACHE_LINE_SIZE

    @property
    def llc_lines(self) -> int:
        """Per-socket LLC capacity in cache lines."""
        return self.llc_bytes // CACHE_LINE_SIZE

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a core-cycle count to nanoseconds.

        ``ipc`` captures relative pipeline width across generations, so
        per-descriptor instruction costs are stated once in cycles and
        scale sensibly between platforms.
        """
        return cycles / (self.freq_ghz * self.ipc)

    @property
    def upi_wire_bytes_per_ns(self) -> float:
        """Raw wire rate sized so 64B-line data tops out at upi_data_gbps."""
        data = gbps_to_bytes_per_ns(self.upi_data_gbps)
        return data * (CACHE_LINE_SIZE + self.upi_header_overhead) / CACHE_LINE_SIZE

    @property
    def pcie_wire_bytes_per_ns(self) -> float:
        """PCIe link rate in bytes/ns (TLP headers charged separately)."""
        return gbps_to_bytes_per_ns(self.pcie_gbps)

    def nic(self, name: str) -> NicHardwareSpec:
        """Installed NIC by name (case-insensitive)."""
        for spec in self.nics:
            if spec.name.lower() == name.lower():
                return spec
        raise ConfigError(f"platform {self.name!r} has no NIC named {name!r}")

    def with_cost(self, cost: CostModel) -> "PlatformSpec":
        """Copy of this spec with a different cost model (sensitivity)."""
        return replace(self, cost=cost)


def icx() -> PlatformSpec:
    """Dual Ice Lake Xeon Gold 6346: 16 cores @ 3.1GHz, 3x11.2GT/s UPI.

    Fig 7 calibration (ns): local DRAM 72, remote DRAM 144, local L2 48,
    remote L2 114 (writer-homed) / 119 (reader-homed). Measured UPI data
    ceiling 443Gbps.
    """
    cost = CostModel(
        l2_hit=5.0,
        local_cache=48.0,
        local_dram=72.0,
        remote_dram=144.0,
        remote_cache_writer_homed=114.0,
        remote_cache_reader_homed=119.0,
        local_invalidate=30.0,
        remote_invalidate=100.0,
        store_buffer=1.5,
        clflush=80.0,
        nt_link_efficiency=1.0 / 1.8,
    )
    return PlatformSpec(
        name="icx",
        cores_per_socket=16,
        freq_ghz=3.1,
        l2_bytes=1_310_720,        # 1.25 MiB
        llc_bytes=36 * 1024 * 1024,
        cost=cost,
        upi_latency_ns=50.0,
        upi_data_gbps=443.0,
        mlp=10.0,
    )


def spr() -> PlatformSpec:
    """Dual Sapphire Rapids: 56 cores @ 2.0GHz, 4x16GT/s UPI.

    Fig 7 calibration (ns): local DRAM 108, remote DRAM 191, local L2 82,
    remote L2 171 (writer-homed) / 174 (reader-homed). Measured UPI data
    ceiling 1020Gbps (the paper's terabit interconnect).
    """
    cost = CostModel(
        l2_hit=8.0,
        local_cache=82.0,
        local_dram=108.0,
        remote_dram=191.0,
        remote_cache_writer_homed=171.0,
        remote_cache_reader_homed=174.0,
        local_invalidate=40.0,
        remote_invalidate=150.0,
        store_buffer=2.0,
        clflush=90.0,
        nt_link_efficiency=1.0 / 1.6,
    )
    return PlatformSpec(
        name="spr",
        cores_per_socket=56,
        freq_ghz=2.0,
        l2_bytes=2 * 1024 * 1024,
        llc_bytes=105 * 1024 * 1024,
        cost=cost,
        upi_latency_ns=75.0,
        upi_data_gbps=1020.0,
        mlp=26.0,
        ipc=1.6,
    )


def cxl() -> PlatformSpec:
    """Projected CXL-attached NIC platform (the paper's §5.9 target).

    The paper evaluates CC-NIC on UPI but argues the design carries to
    CXL: the CXL Consortium expects 170-250ns access latency for
    CXL-attached memory, and CXL.mem prototypes measure ~1.5x cross-UPI
    remote-DRAM latency. This preset projects the SPR host onto a CXL
    2.0 x16 device link: remote (device-side) latencies stretched 1.3x
    toward the middle of that range, device-link data bandwidth at the
    Table 1 CXL 2.0 rate (63 GB/s = 504 Gbps).

    Everything local to the host socket is unchanged — only the
    host-device path differs, which is exactly the axis Fig 21 sweeps.
    """
    base = spr()
    factor = 1.3
    cost = CostModel(
        l2_hit=base.cost.l2_hit,
        local_cache=base.cost.local_cache,
        local_dram=base.cost.local_dram,
        remote_dram=base.cost.remote_dram * factor,          # ~248ns
        remote_cache_writer_homed=base.cost.remote_cache_writer_homed * factor,
        remote_cache_reader_homed=base.cost.remote_cache_reader_homed * factor,
        local_invalidate=base.cost.local_invalidate,
        remote_invalidate=base.cost.remote_invalidate * factor,
        store_buffer=base.cost.store_buffer,
        clflush=base.cost.clflush,
        nt_link_efficiency=base.cost.nt_link_efficiency,
    )
    return replace(
        base,
        name="cxl",
        cost=cost,
        upi_latency_ns=base.upi_latency_ns * factor,
        upi_data_gbps=504.0,   # CXL 2.0 x16 (Table 1: 63 GB/s)
    )


#: Preset builders by name: the one lookup every tool shares. Each
#: caller keeps its own allowed subset (the CLI's ``--platform``
#: choices, ``ScenarioSpec``'s ``PLATFORMS``, ``ModelScope``).
PLATFORMS = {"icx": icx, "spr": spr, "cxl": cxl}
