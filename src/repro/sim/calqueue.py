"""Bucketed (calendar) event queue for large pending-event counts.

A classic calendar queue maps each event to a "day" ``floor(when /
width)`` and stores days round-robin across a fixed number of buckets.
Popping scans forward from the current day; with a width near the mean
inter-event gap, each pop touches O(1) buckets, beating a binary heap's
O(log n) once tens of thousands of events are pending.

The engine migrates to a :class:`CalendarQueue` past a pending-event
threshold (see :class:`repro.sim.engine.Simulator`); ordering is the
same total order the heap uses — ``(when, seq)`` via list comparison of
the ``[when, seq, kind, payload]`` records — so the schedule is
identical.

Two invariants the engine guarantees make the cursor scan correct:

* pushes never go backwards in time past the last popped record, so no
  record ever lands on a day earlier than the cursor;
* records with equal ``when`` share a day (and therefore a bucket),
  where insertion order is the ``seq`` tie-break.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, List

#: Fallback day width (ns) when the seed records give no usable estimate.
_DEFAULT_WIDTH = 64.0


class CalendarQueue:
    """Priority queue over mutable ``[when, seq, ...]`` event records."""

    #: Bucket-count bounds; the count is a power of two near the seed size.
    MIN_BUCKETS = 64
    MAX_BUCKETS = 1 << 15
    #: Rebuild with more buckets when length exceeds this many per bucket.
    RESIZE_FACTOR = 4

    def __init__(self, records: Iterable[list], width: float = 0.0) -> None:
        records = list(records)
        self._width = width if width > 0.0 else self._estimate_width(records)
        nb = max(1, len(records)).bit_length()
        self._nb = max(self.MIN_BUCKETS, min(self.MAX_BUCKETS, 1 << nb))
        self._buckets: List[list] = [[] for _ in range(self._nb)]
        self._len = 0
        if records:
            earliest = min(records)
            self._day = int(earliest[0] / self._width)
        else:
            self._day = 0
        for rec in records:
            self.push(rec)

    @staticmethod
    def _estimate_width(records: list) -> float:
        """Day width targeting a few events per bucket-day."""
        if len(records) < 2:
            return _DEFAULT_WIDTH
        whens = sorted(rec[0] for rec in records)
        span = whens[-1] - whens[0]
        if span <= 0.0:
            return _DEFAULT_WIDTH
        return max(span / (len(whens) - 1), 1e-6) * 3.0

    # ------------------------------------------------------------------
    def push(self, rec: list) -> None:
        """Insert a record, keeping its bucket sorted by ``(when, seq)``."""
        insort(self._buckets[int(rec[0] / self._width) % self._nb], rec)
        self._len += 1
        if self._len > self._nb * self.RESIZE_FACTOR and self._nb < self.MAX_BUCKETS:
            self._rebuild()

    def pop(self) -> list:
        """Remove and return the globally earliest record."""
        if not self._len:
            raise IndexError(  # repro: allow(error-taxonomy) container contract mirrors list.pop
                "pop from empty CalendarQueue"
            )
        nb = self._nb
        width = self._width
        buckets = self._buckets
        day = self._day
        for offset in range(nb):
            d = day + offset
            bucket = buckets[d % nb]
            # The head's day is computed as push() computed it: a bound
            # test against (d + 1) * width can round the other way and
            # skip a record due today.
            if bucket and int(bucket[0][0] / width) <= d:
                self._day = d
                self._len -= 1
                return bucket.pop(0)
        # Sparse stretch: no event within the next full bucket cycle.
        # Jump the cursor straight to the earliest record.
        best = None
        for bucket in buckets:
            if bucket and (best is None or bucket[0] < best[0]):
                best = bucket
        rec = best.pop(0)
        self._len -= 1
        self._day = int(rec[0] / width)
        return rec

    def peek(self) -> list:
        """The globally earliest record of a non-empty queue, left in place.

        The same scan as :meth:`pop`, but the cursor stays put: a later
        push may still land on a day before the peeked record's.
        """
        nb = self._nb
        width = self._width
        buckets = self._buckets
        for offset in range(nb):
            d = self._day + offset
            bucket = buckets[d % nb]
            if bucket and int(bucket[0][0] / width) <= d:
                return bucket[0]
        return min(bucket[0] for bucket in buckets if bucket)

    def _rebuild(self) -> None:
        """Re-bucket everything with a larger table and fresh width."""
        records = [rec for bucket in self._buckets for rec in bucket]
        self.__init__(records)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __repr__(self) -> str:
        return (
            f"<CalendarQueue len={self._len} buckets={self._nb} "
            f"width={self._width:.3g}ns day={self._day}>"
        )
