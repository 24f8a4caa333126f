"""Named memory regions with a home socket and memory type."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressSpaceError
from repro.mem.memtype import MemType


@dataclass(frozen=True)
class Region:
    """A contiguous range of the physical address space.

    Attributes:
        name: Label used in diagnostics ("tx_ring", "pool", ...).
        base: First byte address (cache-line aligned).
        size: Length in bytes.
        home: Socket index whose memory controller owns these addresses.
        memtype: WB / WC / UC data-path selector.
    """

    name: str
    base: int
    size: int
    home: int
    memtype: MemType = field(default=MemType.WRITEBACK)
    #: One past the last byte address; computed in ``__post_init__`` as
    #: a plain attribute because hot prefetch-bound checks read it per
    #: cache-line access and a property call there is measurable.
    end: int = field(init=False, compare=False, repr=False, default=0)
    #: Whether the coherence protocol serves the region (``memtype`` is
    #: write-back); stored like ``end``, because the fabric reads it at
    #: each first touch of a line and the property is a Python call.
    cacheable: bool = field(init=False, compare=False, repr=False, default=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AddressSpaceError(f"region {self.name!r} has non-positive size {self.size}")
        if self.base < 0:
            raise AddressSpaceError(f"region {self.name!r} has negative base {self.base}")
        if self.base % 64 != 0:
            raise AddressSpaceError(
                f"region {self.name!r} base {self.base:#x} is not cache-line aligned"
            )
        object.__setattr__(self, "end", self.base + self.size)
        object.__setattr__(self, "cacheable", self.memtype.is_cacheable)

    def contains(self, addr: int, size: int = 1) -> bool:
        """True if ``[addr, addr+size)`` lies entirely within this region."""
        return self.base <= addr and addr + size <= self.end

    def offset_of(self, addr: int) -> int:
        """Byte offset of ``addr`` from the region base."""
        if not self.contains(addr):
            raise AddressSpaceError(
                f"address {addr:#x} not in region {self.name!r} "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, base={self.base:#x}, size={self.size}, "
            f"home=S{self.home}, {self.memtype.value})"
        )
