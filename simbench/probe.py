"""Host-speed probe: a fixed pure-Python workload shaped like a simulator.

Host speed on a shared machine drifts by tens of percent within minutes,
and CPU time tracks wall time, so the drift is host speed rather than
preemption. The benchmark runs this probe before the first shard of a
repetition and after every shard, and scales the repetition's host times
by the probe's mean time: a probe every few hundred milliseconds follows
the drift, where one probe per repetition does not.

The probe belongs to the benchmark, so no change to ``src/repro`` moves
it. It mixes what the simulator's hot path does: generator processes
resumed from a heap of mutable event records, attribute updates on
``__slots__`` objects found through a large dict, and short-lived lists.
"""

from __future__ import annotations

import heapq
import random
import time

#: Probe seconds at the reference host speed: the probe's median on the
#: host that defined the benchmark (a 2-vCPU Intel Xeon container,
#: CPython 3.11). Normalized host times are seconds at that speed.
REFERENCE_S = 0.0070

_LINES = 1 << 14
_PROCESSES = 64
_STEPS = 3000


class _Line:
    __slots__ = ("state", "owner", "hits")

    def __init__(self) -> None:
        self.state = 0
        self.owner = None
        self.hits = 0


class HostProbe:
    """Times one fixed slice of simulator-shaped work per call."""

    def __init__(self) -> None:
        self._lines = {i * 64: _Line() for i in range(_LINES)}

    def _process(self, rng: random.Random, pid: int):
        lines = self._lines
        total = 0.0
        while True:
            line = lines[rng.randrange(_LINES) * 64]
            if line.state == 0:
                line.state = 1
                total += 72.0
            else:
                line.hits += 1
                line.state ^= 2
                total += 48.0
            line.owner = [pid, total]
            yield 1.0 + total % 7.0

    def seconds(self) -> float:
        """Host seconds one slice takes now."""
        rng = random.Random(1)
        heap = [[0.0, pid, self._process(rng, pid)] for pid in range(_PROCESSES)]
        seq = _PROCESSES
        start = time.perf_counter()
        for _ in range(_STEPS):
            rec = heapq.heappop(heap)
            rec[0] += rec[2].send(None)
            seq += 1
            rec[1] = seq
            heapq.heappush(heap, rec)
        return time.perf_counter() - start
