"""Platform presets and system builders (ICX, SPR, PCIe NIC specs)."""

from repro.platform.links import LINK_GENERATIONS, LinkGeneration, table1_rows
from repro.platform.nicspecs import CX6, E810, NicHardwareSpec
from repro.platform.presets import PLATFORMS, PlatformSpec, cxl, icx, spr
from repro.platform.system import System

__all__ = [
    "CX6",
    "E810",
    "LINK_GENERATIONS",
    "LinkGeneration",
    "NicHardwareSpec",
    "PLATFORMS",
    "PlatformSpec",
    "System",
    "cxl",
    "icx",
    "spr",
    "table1_rows",
]
