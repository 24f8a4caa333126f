"""Packet buffer handles.

A :class:`Buffer` is a handle to a chunk of pool memory. Buffers never
hold payload bytes — only addresses and capacities; payload *accesses*
are what the coherence model charges for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PoolError

#: Next buffer id; a bound C method, so drawing one makes no Python frame.
_next_buffer_id = itertools.count().__next__


@dataclass(init=False)
class Buffer:
    """A packet buffer carved out of the shared pool.

    Attributes:
        addr: Byte address of the payload start (cache-line aligned for
            full buffers; small buffers are 128B-aligned).
        capacity: Usable payload bytes.
        small: True for subdivided 128B small buffers.
        data_len: Length of the payload currently written (set on TX
            submit and on RX delivery).
        seg_next: Optional chained segment for multi-segment TX
            (the KV store's zero-copy gets use header + payload chains).
        external: True for segments that reference application memory
            (DPDK extbuf-style zero-copy); they are not pool-managed and
            are never freed to the pool.

    ``__init__`` is written out, validating as it assigns, so that
    building a handle costs one Python frame. Fields, eq and repr are
    the dataclass's.
    """

    addr: int
    capacity: int
    small: bool = False
    data_len: int = 0
    external: bool = False
    buf_id: int = field(default_factory=_next_buffer_id)
    seg_next: Optional["Buffer"] = None
    _allocated: bool = field(default=False, repr=False)

    def __init__(
        self,
        addr: int,
        capacity: int,
        small: bool = False,
        data_len: int = 0,
        external: bool = False,
        buf_id: Optional[int] = None,
        seg_next: Optional["Buffer"] = None,
        _allocated: bool = False,
    ) -> None:
        if capacity <= 0:
            raise PoolError(f"buffer capacity must be positive, got {capacity}")
        if addr < 0:
            raise PoolError(f"buffer address must be non-negative, got {addr}")
        self.addr = addr
        self.capacity = capacity
        self.small = small
        self.data_len = data_len
        self.external = external
        self.buf_id = _next_buffer_id() if buf_id is None else buf_id
        self.seg_next = seg_next
        self._allocated = _allocated

    def set_payload(self, length: int) -> None:
        """Record the written payload length (must fit the buffer)."""
        if length <= 0 or length > self.capacity:
            raise PoolError(
                f"payload of {length}B does not fit buffer of {self.capacity}B"
            )
        self.data_len = length

    def chain(self, other: "Buffer") -> "Buffer":
        """Append a segment for multi-segment TX; returns self."""
        self.seg_next = other
        return self

    def segments(self):
        """Iterate this buffer and any chained segments.

        The data plane walks ``seg_next`` inline instead: a generator
        costs a frame per buffer.
        """
        node: Optional[Buffer] = self
        while node is not None:
            yield node
            node = node.seg_next

    @property
    def total_len(self) -> int:
        """Payload length across all chained segments."""
        total = self.data_len
        seg = self.seg_next
        while seg is not None:
            total += seg.data_len
            seg = seg.seg_next
        return total
