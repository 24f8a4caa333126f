"""Statistics primitives used across the simulator.

These are deliberately simple: experiments in this package collect a few
thousand samples each, so histograms keep raw samples and compute exact
quantiles.

Sample storage has two interchangeable backends:

* **numpy** (default): samples live in a growable ``float64`` array
  with amortized appends; quantiles come from :func:`numpy.partition`
  over the exact order statistics. float64 round-trips Python floats
  exactly and the mean is kept as a running total accumulated in
  recording order, so every statistic — and the
  :meth:`Histogram.samples` recording-order contract the shard merge
  layer relies on — is bit-identical to the list backend.
* **list** (reference): plain Python lists and ``sorted()``, retained
  as the slowpath twin. Selected when ``REPRO_SIM_SLOWPATH=1`` is set
  (the same switch that selects the reference event loop; stats cannot
  import :func:`repro.sim.engine.slowpath_requested` without creating
  an import cycle through ``repro.obs``, so the env check is mirrored
  here).
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, List, Optional

import numpy as _np

from repro.errors import ConfigError


def _use_numpy_backend() -> bool:
    """True when histograms should store samples in numpy arrays.

    Mirrors ``repro.sim.engine.slowpath_requested()`` — see the module
    docstring for why the env check is duplicated rather than imported.
    """
    return os.environ.get("REPRO_SIM_SLOWPATH", "") != "1"


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


class Histogram:
    """Collects raw samples; exact quantiles over what was recorded.

    Backend selection (numpy array vs reference list) happens per
    instance at construction time — see the module docstring. Every
    public statistic is bit-identical between the two backends.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        if _use_numpy_backend():
            self._samples: Optional[List[float]] = None
            self._buf = _np.empty(256, dtype=_np.float64)
            self._n = 0
            self._total = 0.0
        else:
            self._samples = []
            self._buf = None
            self._n = 0
            self._total = 0.0
        self._sorted: Optional[List[float]] = None

    def _grow(self, need: int):
        """Double the numpy buffer until it holds ``need`` samples."""
        buf = self._buf
        cap = buf.shape[0]
        while cap < need:
            cap *= 2
        bigger = _np.empty(cap, dtype=_np.float64)
        bigger[: self._n] = buf[: self._n]
        self._buf = bigger
        return bigger

    def record(self, value: float) -> None:
        """Add one sample."""
        buf = self._buf
        if buf is None:
            self._samples.append(value)
            self._sorted = None
        else:
            n = self._n
            if n == buf.shape[0]:
                buf = self._grow(n + 1)
            buf[n] = value
            self._n = n + 1
            # Accumulated in recording order, so it equals sum(samples)
            # computed left to right — the reference backend's mean.
            self._total += value

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        buf = self._buf
        if buf is None:
            self._samples.extend(values)
            self._sorted = None
            return
        vals = list(values)
        if not vals:
            return
        n = self._n
        need = n + len(vals)
        if need > buf.shape[0]:
            buf = self._grow(need)
        buf[n:need] = vals
        self._n = need
        total = self._total
        for v in vals:
            total += v
        self._total = total

    def __len__(self) -> int:
        return self._n if self._buf is not None else len(self._samples)

    def samples(self) -> List[float]:
        """Copy of the raw samples, in recording order.

        This is the exact-merge contract the shard layer relies on:
        concatenating the samples of per-shard histograms and sorting
        reproduces the quantiles a single-process run over the same
        partition would report, independent of shard execution order.
        """
        if self._buf is not None:
            return self._buf[: self._n].tolist()
        return list(self._samples)

    @property
    def count(self) -> int:
        return len(self)

    @property
    def mean(self) -> float:
        if self._buf is not None:
            if not self._n:
                return math.nan
            return self._total / self._n
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> float:
        if self._buf is not None:
            return float(self._buf[: self._n].min()) if self._n else math.nan
        return min(self._samples) if self._samples else math.nan

    @property
    def maximum(self) -> float:
        if self._buf is not None:
            return float(self._buf[: self._n].max()) if self._n else math.nan
        return max(self._samples) if self._samples else math.nan

    def percentile(self, pct: float) -> float:
        """Exact percentile (nearest-rank with interpolation)."""
        n = len(self)
        if not n:
            return math.nan
        if not 0.0 <= pct <= 100.0:
            raise ConfigError(f"percentile out of range: {pct}")
        if self._buf is not None:
            arr = self._buf[:n]
            if n == 1:
                return float(arr[0])
            rank = (pct / 100.0) * (n - 1)
            low = int(math.floor(rank))
            high = int(math.ceil(rank))
            if low == high:
                # kth element of a partition is the exact order
                # statistic — same float a full sort would place there.
                return float(_np.partition(arr, low)[low])
            part = _np.partition(arr, (low, high))
            frac = rank - low
            return float(part[low] * (1.0 - frac) + part[high] * frac)
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        data = self._sorted
        if len(data) == 1:
            return data[0]
        rank = (pct / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        return data[low] * (1.0 - frac) + data[high] * frac

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
