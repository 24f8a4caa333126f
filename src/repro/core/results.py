"""Typed result objects for the data-plane burst API.

These frozen dataclasses name the fields of a burst's outcome — every
result carries ``count`` and ``ns``, plus the payload (``bufs`` or
``entries``) where one exists. They do not tuple-unpack; read the named
attributes.

These objects are built on every burst call that moves data, so they
are kept deliberately lean: two fields, ``count`` derived lazily, and
the payload sequence stored as passed. Results are immutable and a
driver never mutates a sequence it has handed over, so a result may be
shared: the CC-NIC driver returns one cached empty ``RxResult`` (with
an empty tuple for ``entries``) for every empty poll of the same cost.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro.core.buffers import Buffer

# slots=True (3.10+) makes construction and attribute reads measurably
# cheaper; on 3.9 the classes simply carry an instance dict instead.
_DATACLASS_KW = {"frozen": True}
if sys.version_info >= (3, 10):
    _DATACLASS_KW["slots"] = True


@dataclass(**_DATACLASS_KW)
class AllocResult:
    """Outcome of a buffer allocation.

    ``count`` may be smaller than the number of requested sizes: pool
    exhaustion yields a partial allocation (DPDK mempool semantics),
    never an exception.
    """

    bufs: Sequence[Buffer]
    ns: float

    @property
    def count(self) -> int:
        return len(self.bufs)

    def __bool__(self) -> bool:
        return len(self.bufs) > 0


@dataclass(**_DATACLASS_KW)
class TxResult:
    """Outcome of a TX burst: packets accepted onto the ring."""

    count: int
    ns: float

    def __bool__(self) -> bool:
        return self.count > 0


@dataclass(**_DATACLASS_KW)
class RxResult:
    """Outcome of an RX poll: ``entries`` is (packet, buffer) pairs."""

    entries: Sequence[Tuple[Any, Buffer]]
    ns: float

    @property
    def count(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return len(self.entries) > 0
