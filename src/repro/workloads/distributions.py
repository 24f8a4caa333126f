"""Object-size and key-popularity distributions for application studies.

The paper's key-value store evaluation uses two production object-size
distributions from Google (published in the CliqueMap paper): *Ads*,
skewed toward small objects (61% under 100B), and *Geo*, skewed larger
(13% under 100B). The exact traces are proprietary, so we synthesise
log-normal-ish mixtures matching the published small-object fractions
and the 9600B MTU cap (the paper truncates the largest 0.01% of Ads).
Key popularity follows a Zipf distribution with coefficient 0.75 over
1M objects, exactly as in the paper.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Sequence

from repro.errors import WorkloadError
from repro.sim.stats import ordered_sum


class ObjectSizeDistribution:
    """Piecewise-defined object size sampler.

    Defined by (cumulative_probability, size_upper_bound) breakpoints;
    within a segment sizes are sampled log-uniformly. This gives smooth,
    heavy-tailed distributions whose published percentiles we can pin
    exactly.

    The constructor compiles one row per segment: the segment's log
    lower bound and log width, or its fixed size when the segment is
    empty (its bound is at most the one below it). :meth:`sample_many`
    draws from that table; :meth:`sample` is its one-draw case.
    """

    def __init__(
        self,
        name: str,
        breakpoints: Sequence[tuple],
        max_size: int,
    ) -> None:
        if not breakpoints:
            raise WorkloadError("need at least one breakpoint")
        previous = 0.0
        for cum, size in breakpoints:
            if not 0.0 < cum <= 1.0 or cum < previous:
                raise WorkloadError(f"bad cumulative probability {cum}")
            if size <= 0 or size > max_size:
                raise WorkloadError(f"bad size bound {size}")
            previous = cum
        if abs(breakpoints[-1][0] - 1.0) > 1e-9:
            raise WorkloadError("last breakpoint must have cumulative probability 1")
        self.name = name
        self.max_size = max_size
        self._cums = [cum for cum, _size in breakpoints]
        self._sizes = [size for _cum, size in breakpoints]
        # Per segment: (log_low, log_high - log_low, 0), or (0.0, 0.0,
        # fixed size) for an empty segment, which takes no second draw.
        self._segments: List[tuple] = []
        low = 16
        for high in self._sizes:
            if high <= low:
                self._segments.append((0.0, 0.0, high))
            else:
                log_low = math.log(low)
                self._segments.append((log_low, math.log(high) - log_low, 0))
            low = high

    def sample(self, rng: random.Random) -> int:
        """Draw one object size in bytes."""
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: random.Random, n: int) -> List[int]:
        """Draw ``n`` object sizes in bytes.

        Makes the same ``rng`` calls, in the same order, as ``n`` calls
        of :meth:`sample`: one draw picks the segment, and a second places
        the size log-uniformly inside it unless the segment is empty.
        """
        draw = rng.random
        exp = math.exp
        bisect_left = bisect.bisect_left
        cums = self._cums
        segments = self._segments
        last = len(segments) - 1
        cap = self.max_size
        sizes: List[int] = []
        append = sizes.append
        for _ in range(n):
            seg = bisect_left(cums, draw())
            if seg > last:
                seg = last
            log_low, log_span, fixed = segments[seg]
            if fixed:
                append(fixed)
                continue
            size = int(exp(log_low + log_span * draw()))
            append(cap if size > cap else (1 if size < 1 else size))
        return sizes

    def fraction_below(self, threshold: int, rng: random.Random, n: int = 20000) -> float:
        """Empirical fraction of sampled objects smaller than ``threshold``."""
        hits = sum(1 for size in self.sample_many(rng, n) if size < threshold)
        return hits / n


def AdsObjectSizes() -> ObjectSizeDistribution:
    """Ads distribution: 61% of objects below 100B; capped at 9600B MTU."""
    return ObjectSizeDistribution(
        name="ads",
        breakpoints=[
            (0.61, 100),     # 61% < 100B (paper, CliqueMap)
            (0.85, 512),
            (0.96, 2048),
            (1.00, 9600),
        ],
        max_size=9600,
    )


def GeoObjectSizes() -> ObjectSizeDistribution:
    """Geo distribution: only 13% of objects below 100B; larger payloads."""
    return ObjectSizeDistribution(
        name="geo",
        breakpoints=[
            (0.13, 100),     # 13% < 100B (paper, CliqueMap)
            (0.45, 512),
            (0.80, 2048),
            (0.95, 4096),
            (1.00, 9600),
        ],
        max_size=9600,
    )


class ZipfKeys:
    """Zipf-distributed key sampler over ``n_keys`` items.

    Uses the standard rejection-free inverse-CDF over precomputed
    cumulative weights. The paper's KV workloads use coefficient 0.75
    over 1M objects; we default to a smaller key space for simulation
    speed (the skew, not the cardinality, drives interface behaviour).
    """

    def __init__(self, n_keys: int, coefficient: float = 0.75) -> None:
        if n_keys <= 0:
            raise WorkloadError("n_keys must be positive")
        if coefficient < 0:
            raise WorkloadError("zipf coefficient must be non-negative")
        self.n_keys = n_keys
        self.coefficient = coefficient
        weights = [1.0 / (k ** coefficient) for k in range(1, n_keys + 1)]
        # Left to right, so the table has the same bits on every Python.
        total = ordered_sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for w in weights:
            running += w / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> int:
        """Draw a key index in [0, n_keys)."""
        return bisect.bisect_left(self._cumulative, rng.random())

    def hottest_fraction(self, top: int) -> float:
        """Probability mass of the ``top`` most popular keys."""
        if top <= 0:
            return 0.0
        top = min(top, self.n_keys)
        return self._cumulative[top - 1]
