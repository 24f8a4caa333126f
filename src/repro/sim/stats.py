"""Statistics primitives used across the simulator.

These are deliberately simple: experiments in this package collect a few
thousand samples each, so histograms keep raw samples and compute exact
quantiles.

Histogram samples live in a stdlib ``array('d')``: appends are
amortized, and a C double round-trips a Python float exactly. Order
statistics come from one ``sorted()`` copy of the samples, kept until
the next sample arrives, so every percentile, minimum and maximum
equals what ``sorted()`` over the same Python floats gives. The mean is
kept as a running total accumulated in recording order (it equals
:func:`ordered_sum` of the samples), and :meth:`Histogram.samples` keeps
the recording-order contract the shard merge layer relies on.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigError


class Counter:
    """A named bag of monotonically increasing counters.

    Values are stored in single-element list *cells* so hot paths can
    resolve a name once via :meth:`cell` and then increment with
    ``cell[0] += x`` — no per-event dict lookup or string formatting.
    :meth:`reset` detaches every cell; callers caching cells must
    re-resolve when :attr:`epoch` changes.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, list] = {}
        #: Bumped by :meth:`reset`; cached cells from older epochs are stale.
        self.epoch = 0

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ConfigError(f"counter increments must be >= 0, got {amount}")
        cell = self._cells.get(name)
        if cell is None:
            self._cells[name] = [0.0 + amount]
        else:
            cell[0] += amount

    def cell(self, name: str) -> list:
        """Mutable ``[value]`` cell for ``name``, created at 0.0.

        The cell is live until the next :meth:`reset`; cache it together
        with :attr:`epoch` and re-resolve when the epoch moves on.
        """
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = [0.0]
        return cell

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        cell = self._cells.get(name)
        return cell[0] if cell is not None else 0.0

    def names(self) -> List[str]:
        """Sorted list of counters that have been touched."""
        return sorted(self._cells)

    def snapshot(self) -> Dict[str, float]:
        """Copy of all counters."""
        return {name: cell[0] for name, cell in self._cells.items()}

    def reset(self) -> None:
        """Forget every counter and invalidate outstanding cells."""
        self._cells.clear()
        self.epoch += 1

    def diff(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Per-counter delta versus an earlier :meth:`snapshot`."""
        out = {}
        for name, cell in self._cells.items():
            out[name] = cell[0] - earlier.get(name, 0.0)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v[0]:g}" for k, v in sorted(self._cells.items()))
        return f"Counter({inner})"


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, the same bits on every Python.

    Since Python 3.12 the builtin ``sum()`` compensates float rounding,
    so its last bits differ across interpreters; pinned fingerprints and
    merged documents use this plain left-to-right order instead. Like
    ``sum()``, it starts from int ``0``, so all-int input stays int.
    """
    total = 0
    for value in values:
        total += value
    return total


class Histogram:
    """Collects raw samples; exact quantiles over what was recorded."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buf = array("d")
        self._total = 0.0
        # Sorted copy of the samples; samples are only ever appended, so
        # it is current exactly while its length equals the sample count.
        self._sorted: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        self._buf.append(value)
        # Accumulated in recording order: equals ordered_sum(samples).
        self._total += value

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples; an ``array('d')`` is appended as raw doubles."""
        if not isinstance(values, array):
            values = array("d", values)
        self._buf.extend(values)
        total = self._total
        for v in values:
            total += v
        self._total = total

    def __len__(self) -> int:
        return len(self._buf)

    def samples(self) -> List[float]:
        """Copy of the raw samples, in recording order.

        This is the exact-merge contract the shard layer relies on:
        concatenating the samples of per-shard histograms and sorting
        reproduces the quantiles a single-process run over the same
        partition would report, independent of shard execution order.
        """
        return self._buf.tolist()

    def sample_array(self) -> array:
        """Copy of the raw samples as an ``array('d')``: 8 bytes per
        sample instead of a boxed float each, and the same values."""
        return array("d", self._buf)

    def _ordered(self) -> List[float]:
        """The samples in ascending order; re-sorted only after new samples."""
        ordered = self._sorted
        if len(ordered) != len(self._buf):
            ordered = self._sorted = sorted(self._buf)
        return ordered

    @property
    def count(self) -> int:
        return len(self._buf)

    @property
    def mean(self) -> float:
        n = len(self._buf)
        if not n:
            return math.nan
        return self._total / n

    @property
    def minimum(self) -> float:
        return self._ordered()[0] if self._buf else math.nan

    @property
    def maximum(self) -> float:
        return self._ordered()[-1] if self._buf else math.nan

    def percentile(self, pct: float) -> float:
        """Exact percentile (nearest-rank with interpolation)."""
        n = len(self._buf)
        if not n:
            return math.nan
        if not 0.0 <= pct <= 100.0:
            raise ConfigError(f"percentile out of range: {pct}")
        ordered = self._ordered()
        rank = (pct / 100.0) * (n - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def summary(self) -> Dict[str, float]:
        """Dict with count/mean/min/median/p99/max."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "median": self.median,
            "p99": self.percentile(99.0),
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        if not len(self):
            return f"Histogram({self.name!r}, empty)"
        return (
            f"Histogram({self.name!r}, n={self.count}, "
            f"median={self.median:.1f}, p99={self.percentile(99):.1f})"
        )


class RateMeter:
    """Counts events/bytes over a window of virtual time."""

    def __init__(self) -> None:
        self.events = 0
        self.byte_count = 0
        self.start_ns: Optional[float] = None
        self.end_ns: Optional[float] = None

    def mark(self, now_ns: float, byte_count: int = 0, events: int = 1) -> None:
        """Record ``events`` events carrying ``byte_count`` bytes at ``now_ns``."""
        if self.start_ns is None:
            self.start_ns = now_ns
        self.end_ns = now_ns
        self.events += events
        self.byte_count += byte_count

    @property
    def elapsed_ns(self) -> float:
        if self.start_ns is None or self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    def events_per_second(self) -> float:
        """Average event rate in events/s over the marked window."""
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.events / elapsed * 1e9

    def gbps(self) -> float:
        """Average data rate in Gbps over the marked window."""
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.byte_count * 8.0 / elapsed

    def __repr__(self) -> str:
        return (
            f"RateMeter(events={self.events}, bytes={self.byte_count}, "
            f"elapsed={self.elapsed_ns:.0f}ns)"
        )
