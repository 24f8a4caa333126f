"""Per-packet critical-path waterfalls.

A sampled packet's life on the CC-NIC data path is a chain of causally
ordered events:

    tx_submit -> desc_write -> signal_observed -> nic_fetch
              -> payload_fetch -> wire -> compl_write -> host_reap
              -> rx_read

Each *stage* is named after the event that ends it, and its duration is
the gap since the previous recorded event. Because stage durations are
consecutive differences along one timeline, they telescope: the sum of
all stage durations equals ``rx_read - tx_submit``, i.e. the packet's
end-to-end latency, exactly (up to floating-point rounding). Stages a
packet never hit (e.g. ``compl_write`` under shared buffer management)
are simply absent from its waterfall.

:class:`WaterfallStats` aggregates sampled packets into per-stage
histograms (p50/p99 breakdowns mirroring the paper's latency
decomposition figures) and keeps a bounded number of full per-packet
samples for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.stats import Histogram

#: Causal event order on the data path. ``line_events`` recorded by the
#: flight recorder are a different, line-granular stream; these are the
#: packet-granular checkpoints.
STAGES: Tuple[str, ...] = (
    "tx_submit",
    "desc_write",
    "signal_observed",
    "nic_fetch",
    "payload_fetch",
    "wire",
    "compl_write",
    "host_reap",
    "rx_read",
)

_STAGE_INDEX = {name: i for i, name in enumerate(STAGES)}


@dataclass(frozen=True)
class PacketWaterfall:
    """One sampled packet's full stage breakdown.

    ``stages`` holds ``(stage_name, duration_ns)`` pairs in causal
    order; ``total_ns`` is the end-to-end latency they telescope to.
    """

    pkt_id: int
    t0_ns: float
    total_ns: float
    stages: Tuple[Tuple[str, float], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "pkt_id": self.pkt_id,
            "t0_ns": self.t0_ns,
            "total_ns": self.total_ns,
            "stages": [[name, dur] for name, dur in self.stages],
        }


def build_waterfall(pkt_id: int, events: Dict[str, float]) -> PacketWaterfall:
    """Turn a packet's raw ``{stage: timestamp}`` map into a waterfall.

    Events are ordered by :data:`STAGES` (unknown stages are ignored);
    each stage's duration is the delta from the previous event, so the
    durations sum to last-minus-first by construction.
    """
    ordered = sorted(
        ((name, ts) for name, ts in events.items() if name in _STAGE_INDEX),
        key=lambda pair: _STAGE_INDEX[pair[0]],
    )
    stages: List[Tuple[str, float]] = []
    prev_ts = None
    t0 = ordered[0][1] if ordered else 0.0
    for name, ts in ordered:
        if prev_ts is None:
            prev_ts = ts
            continue
        stages.append((name, ts - prev_ts))
        prev_ts = ts
    total = (prev_ts - t0) if prev_ts is not None else 0.0
    return PacketWaterfall(
        pkt_id=pkt_id, t0_ns=t0, total_ns=total, stages=tuple(stages)
    )


@dataclass
class WaterfallStats:
    """Aggregated stage breakdown over all sampled packets."""

    max_samples: int = 32
    completed: int = 0
    incomplete: int = 0
    #: Packets whose trace closed at a transmit sink (see
    #: :meth:`~repro.obs.flight.FlightRecorder.packet_egress`).
    egressed: int = 0
    samples: List[PacketWaterfall] = field(default_factory=list)
    _stage_hists: Dict[str, Histogram] = field(default_factory=dict)
    _total_hist: Histogram = field(default_factory=lambda: Histogram("total"))

    def add(self, waterfall: PacketWaterfall) -> None:
        self.completed += 1
        for name, duration in waterfall.stages:
            hist = self._stage_hists.get(name)
            if hist is None:
                hist = self._stage_hists[name] = Histogram(name)
            hist.record(duration)
        self._total_hist.record(waterfall.total_ns)
        if len(self.samples) < self.max_samples:
            self.samples.append(waterfall)

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage histogram summaries in causal order, plus total."""
        out: Dict[str, Dict[str, float]] = {}
        for name in STAGES:
            hist = self._stage_hists.get(name)
            if hist is not None and len(hist):
                summary = hist.summary()
                summary["p50"] = hist.median
                out[name] = summary
        if len(self._total_hist):
            summary = self._total_hist.summary()
            summary["p50"] = self._total_hist.median
            out["total"] = summary
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "completed": self.completed,
            "incomplete": self.incomplete,
            "egressed": self.egressed,
            "stages": self.stage_summary(),
            "samples": [sample.as_dict() for sample in self.samples],
        }
