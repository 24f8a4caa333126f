"""Windowed time-series telemetry driven by the **virtual** clock.

End-of-run aggregates (``MetricRegistry.snapshot()``) sum away the
transient phenomena coherent-interface studies actually care about: a
briefly saturating UPI direction, a ring that wedges during a fault
window, Zipf-driven hot-key churn. :class:`TimelineSampler` closes that
gap: it rides an :class:`~repro.obs.Observability` bundle onto the
simulator's ``timeline`` hook (the attach path ``flight``
and ``sanitizer`` share), and every ``interval_ns`` of *simulated*
time it closes a window — snapshotting counter deltas, gauge values,
and per-window latency percentiles into per-series ring buffers.

Contracts:

* **Zero-cost detached.** ``Simulator.timeline`` is a class attribute
  defaulting to ``None``; the engine's only obligation is one attribute
  load and a ``None`` check per clock advance.
* **Fingerprint-invariant attached.** The sampler never schedules
  engine events and never mutates model state: window rolls piggyback
  on clock advances the run performs anyway, and every series read is a
  pure observation. ``events_executed``/``now`` — and therefore the
  merged-document fingerprint — are bit-identical with or without a
  sampler attached.
* **Deterministic merge.** :func:`repro.shard.merge.merge_timelines`
  aligns window boundaries across shards (all shards share one
  ``interval_ns`` and window 0 starts at t=0) and reduces in shard-index
  order, so merged timelines are identical for any worker count.

On top of the series sit :class:`WatchdogRule` checks — link
saturation, latency-window regression against the run median, stalled
progress — whose structured findings land in the run doc, and Perfetto
counter tracks (``export_chrome_trace(..., timeline=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.obs.export import TIMELINE_SCHEMA
from repro.sim.stats import Histogram

#: Default window width: 1 µs of simulated time. Quick scenarios span
#: tens of µs of virtual time (tens of windows); full runs span
#: milliseconds (hundreds to thousands, inside the ring capacity).
DEFAULT_INTERVAL_NS = 1_000.0

#: Default per-series ring capacity (windows retained).
DEFAULT_CAPACITY = 4096


class _CounterSeries:
    """Per-window delta of a cumulative reading, optionally scaled."""

    __slots__ = ("fn", "scale", "prev", "values")

    def __init__(self, fn: Callable[[], float], scale: float) -> None:
        self.fn = fn
        self.scale = scale
        self.prev = float(fn())
        self.values: List[float] = []


class _GaugeSeries:
    """Instantaneous reading at each window close."""

    __slots__ = ("fn", "values")

    def __init__(self, fn: Callable[[], float]) -> None:
        self.fn = fn
        self.values: List[float] = []


class _HistSeries:
    """Per-window sample population, reduced to count/p50/p99 points.

    ``open`` keeps a *stable identity* across window closes (cleared in
    place), so hot paths may cache ``sampler.hist(name).append`` once.
    """

    __slots__ = ("open", "points", "samples")

    def __init__(self) -> None:
        self.open: List[float] = []
        self.points: List[Optional[Dict[str, float]]] = []
        self.samples: List[List[float]] = []


class TimelineSampler:
    """Windowed series over simulated time; see the module docstring.

    The simulator calls :meth:`roll` (through its ``timeline`` hook)
    whenever the clock advances; :meth:`roll` closes every window whose
    right boundary the advance crossed. Window ``w`` therefore holds
    exactly the activity with timestamps in
    ``[w * interval_ns, (w + 1) * interval_ns)`` — cohort members share
    a timestamp, so rolling once per cohort closes windows where a
    per-event roll would.
    """

    def __init__(
        self,
        interval_ns: float = DEFAULT_INTERVAL_NS,
        capacity: Optional[int] = DEFAULT_CAPACITY,
    ) -> None:
        if interval_ns <= 0:
            raise ConfigError(f"timeline interval must be positive, got {interval_ns}")
        if capacity is not None and capacity < 1:
            raise ConfigError(f"timeline capacity must be >= 1, got {capacity}")
        self.interval_ns = float(interval_ns)
        #: Right boundary of the open window; the engine hook compares
        #: the new clock value against this before calling :meth:`roll`.
        self.next_ns = self.interval_ns
        self.capacity = capacity
        #: Absolute index of the first retained window (ring eviction).
        self.start = 0
        #: Number of windows closed so far (absolute, pre-eviction).
        self.windows = 0
        self._counters: Dict[str, _CounterSeries] = {}
        self._gauges: Dict[str, _GaugeSeries] = {}
        self._hists: Dict[str, _HistSeries] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Series registration
    # ------------------------------------------------------------------
    def counter(self, name: str, fn: Callable[[], float], scale: float = 1.0) -> None:
        """Track the per-window delta of cumulative reading ``fn``.

        ``scale`` multiplies each delta — e.g. ``1 / interval_ns`` turns
        a cumulative busy-time reading into a per-window busy fraction.
        """
        if name in self._counters or name in self._gauges or name in self._hists:
            raise ConfigError(f"duplicate timeline series {name!r}")
        self._counters[name] = _CounterSeries(fn, scale)

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Track an instantaneous reading taken at each window close."""
        if name in self._counters or name in self._gauges or name in self._hists:
            raise ConfigError(f"duplicate timeline series {name!r}")
        self._gauges[name] = _GaugeSeries(fn)

    def hist(self, name: str) -> List[float]:
        """The open-window sample list for histogram series ``name``.

        Created on first use. The returned list object is stable for the
        sampler's lifetime — callers may cache its ``append``.
        """
        series = self._hists.get(name)
        if series is None:
            if name in self._counters or name in self._gauges:
                raise ConfigError(f"duplicate timeline series {name!r}")
            series = self._hists[name] = _HistSeries()
        return series.open

    # ------------------------------------------------------------------
    # Window rolling (called from the engine hook)
    # ------------------------------------------------------------------
    def roll(self, now: float) -> None:
        """Close every window whose right boundary ``now`` reached."""
        while now >= self.next_ns:
            self._close()
            self.next_ns += self.interval_ns

    def finish(self, now: float) -> None:
        """Roll to ``now`` and close the trailing partial window.

        Idempotent. The trailing window is always closed — even when
        empty — so activity stamped exactly at the final boundary (which
        the preceding :meth:`roll` left in the then-open window) is
        never dropped.
        """
        if self._finished:
            return
        self.roll(now)
        self._close()
        self.next_ns += self.interval_ns
        self._finished = True

    def _close(self) -> None:
        for counter in self._counters.values():
            current = float(counter.fn())
            counter.values.append((current - counter.prev) * counter.scale)
            counter.prev = current
        for gauge in self._gauges.values():
            gauge.values.append(float(gauge.fn()))
        for series in self._hists.values():
            window = series.open
            if window:
                pooled = Histogram("window")
                pooled.extend(window)
                series.points.append(
                    {
                        "count": pooled.count,
                        "p50": pooled.percentile(50),
                        "p99": pooled.percentile(99),
                    }
                )
                series.samples.append(list(window))
                del window[:]
            else:
                series.points.append(None)
                series.samples.append([])
        self.windows += 1
        if self.capacity is not None:
            excess = (self.windows - self.start) - self.capacity
            if excess > 0:
                self.start += excess
                for counter in self._counters.values():
                    del counter.values[:excess]
                for gauge in self._gauges.values():
                    del gauge.values[:excess]
                for series in self._hists.values():
                    del series.points[:excess]
                    del series.samples[:excess]

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def to_doc(self, include_samples: bool = False) -> Dict[str, Any]:
        """Schema-stamped JSON-safe document of every retained window.

        ``include_samples=True`` additionally carries each histogram
        window's raw sample list — the form shard workers return so the
        merge can recompute pooled percentiles exactly. Exported and
        merged documents omit samples.
        """
        doc: Dict[str, Any] = {
            "schema": TIMELINE_SCHEMA,
            "interval_ns": self.interval_ns,
            "start": self.start,
            "windows": self.windows - self.start,
            "counters": {
                name: list(self._counters[name].values)
                for name in sorted(self._counters)
            },
            "gauges": {
                name: list(self._gauges[name].values) for name in sorted(self._gauges)
            },
            "histograms": {
                name: [dict(p) if p else None for p in self._hists[name].points]
                for name in sorted(self._hists)
            },
        }
        if include_samples:
            doc["samples"] = {
                name: [list(w) for w in self._hists[name].samples]
                for name in sorted(self._hists)
            }
        return doc

    def counter_tracks(self) -> List[Dict[str, Any]]:
        """Perfetto counter (``"C"``) events for every series."""
        return timeline_counter_tracks(self.to_doc())


def timeline_counter_tracks(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Perfetto counter tracks from a timeline document.

    One ``"C"`` event per series per window, timestamped at the window's
    left boundary (µs, matching Chrome trace convention). Histogram
    series surface their per-window p50/p99; empty windows emit zeros so
    the track returns to baseline instead of interpolating across gaps.
    """
    interval_us = doc["interval_ns"] / 1000.0
    start = doc.get("start", 0)
    events: List[Dict[str, Any]] = []

    def emit(name: str, window: int, args: Dict[str, float]) -> None:
        events.append(
            {
                "name": f"timeline:{name}",
                "ph": "C",
                "ts": (start + window) * interval_us,
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )

    for kind in ("counters", "gauges"):
        for name in sorted(doc.get(kind, {})):
            for window, value in enumerate(doc[kind][name]):
                emit(name, window, {"value": value})
    for name in sorted(doc.get("histograms", {})):
        for window, point in enumerate(doc["histograms"][name]):
            if point:
                emit(name, window, {"p50": point["p50"], "p99": point["p99"]})
            else:
                emit(name, window, {"p50": 0.0, "p99": 0.0})
    return events


# ----------------------------------------------------------------------
# Standard wiring
# ----------------------------------------------------------------------
def _attach_link(sampler: TimelineSampler, link, prefix: str) -> None:
    """Per-direction busy-fraction counters and queue-pressure gauges.

    Reads go through ``link.stats[d]`` lazily at window close so a
    mid-run ``reset_stats()`` (which swaps the stat objects) cannot
    leave the series holding stale references.
    """
    inv = 1.0 / sampler.interval_ns
    for direction in (0, 1):
        sampler.counter(
            f"{prefix}.{direction}.busy_frac",
            lambda link=link, d=direction: float(link.stats[d].busy_ns),
            scale=inv,
        )
        sampler.counter(
            f"{prefix}.{direction}.messages",
            lambda link=link, d=direction: float(link.stats[d].messages),
        )
        sampler.gauge(
            f"{prefix}.{direction}.rho",
            lambda link=link, d=direction: float(link.rho(d)),
        )


def register_setup_series(sampler: TimelineSampler, setup) -> None:
    """Register the standard series of a built setup.

    ``setup`` is a :class:`repro.analysis.loopback.LoopbackSetup`;
    :meth:`~repro.analysis.loopback.LoopbackSetup.instrument` calls this
    when its bundle carries a timeline (the same cascade hooks the
    sampler onto the engine). Covers engine events/sec and pending
    depth, per-link busy-fraction and queue pressure, ring occupancy
    (coherent ``_pairs`` and PCIe ``_queues`` alike), and buffer-pool
    residency; apps contribute latency samples through their own
    ``timeline`` hooks.
    """
    system = setup.system
    sim = system.sim
    sampler.counter("sim.events", lambda: float(sim.events_executed))
    sampler.gauge("sim.pending", lambda: float(sim.pending))
    _attach_link(sampler, system.link, "link")
    interface = setup.interface
    lane = getattr(interface, "link", None)
    if lane is not None and lane is not system.link:
        _attach_link(sampler, lane, "lane")
    pool = getattr(interface, "pool", None)
    if pool is not None and hasattr(pool, "free_full_buffers"):
        sampler.gauge("pool.free_full", lambda: float(pool.free_full_buffers))
    pairs = getattr(interface, "_pairs", None)
    if pairs:
        for index in sorted(pairs):
            pair = pairs[index]
            sampler.gauge(
                f"ring.q{index}.tx_depth",
                lambda q=pair.tx: float(q.tail - q.head),
            )
            sampler.gauge(
                f"ring.q{index}.rx_depth",
                lambda q=pair.rx: float(q.tail - q.head),
            )
    queues = getattr(interface, "_queues", None)
    if queues:
        for index in sorted(queues):
            sampler.gauge(
                f"ring.q{index}.tx_depth",
                lambda q=queues[index]: float(q.host_tail - q.device_fetched),
            )


def register_net_series(sampler: TimelineSampler, net) -> None:
    """Register one series triple per edge of a :class:`TopologyNet`."""
    for edge in net.spec.edges:
        _attach_link(sampler, net.links[edge.name], f"edge.{edge.name}")


# ----------------------------------------------------------------------
# Watchdogs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkSaturationRule:
    """Flag windows where a busy-fraction series reaches saturation."""

    threshold: float = 0.9
    suffix: str = ".busy_frac"
    name: str = "link-saturation"

    def check(self, doc: Dict[str, Any]) -> List[Dict[str, Any]]:
        findings = []
        for series, values in doc.get("counters", {}).items():
            if not series.endswith(self.suffix):
                continue
            for window, value in enumerate(values):
                if value >= self.threshold:
                    findings.append(
                        {
                            "rule": self.name,
                            "series": series,
                            "window": doc.get("start", 0) + window,
                            "value": value,
                            "threshold": self.threshold,
                            "detail": f"busy fraction {value:.3f} >= {self.threshold}",
                        }
                    )
        return findings


@dataclass(frozen=True)
class LatencyRegressionRule:
    """Flag windows whose p99 regresses against the run's median p50.

    The baseline is the median of the non-empty windows' p50 values — a
    deterministic function of the document — so a fault window that
    multiplies tail latency stands out without any wall-clock or
    externally supplied reference.
    """

    factor: float = 4.0
    min_windows: int = 4
    name: str = "latency-regression"

    def check(self, doc: Dict[str, Any]) -> List[Dict[str, Any]]:
        findings = []
        for series, points in doc.get("histograms", {}).items():
            populated = [p for p in points if p]
            if len(populated) < self.min_windows:
                continue
            p50s = sorted(p["p50"] for p in populated)
            baseline = p50s[len(p50s) // 2]
            if baseline <= 0:
                continue
            limit = self.factor * baseline
            for window, point in enumerate(points):
                if point and point["p99"] >= limit:
                    findings.append(
                        {
                            "rule": self.name,
                            "series": series,
                            "window": doc.get("start", 0) + window,
                            "value": point["p99"],
                            "threshold": limit,
                            "detail": (
                                f"window p99 {point['p99']:.0f}ns >= "
                                f"{self.factor}x median p50 {baseline:.0f}ns"
                            ),
                        }
                    )
        return findings


@dataclass(frozen=True)
class StalledProgressRule:
    """Flag interior windows where a progress series drops to zero.

    Applies to the engine event counter and to every latency histogram:
    zero windows *between* active windows mean the run wedged (fault
    stalls, drained rings), not that it merely started late (leading
    warmup windows) or ended (trailing windows). A stall must span
    ``min_run`` consecutive windows — a single empty window is usually
    just the batch period beating against the window grid.
    """

    counters: Sequence[str] = ("sim.events",)
    min_run: int = 2
    name: str = "stalled-progress"

    def _stall_runs(self, activity: List[float]) -> List[List[int]]:
        """Interior zero runs of at least ``min_run`` windows."""
        active = [w for w, v in enumerate(activity) if v > 0]
        if len(active) < 2:
            return []
        lo, hi = active[0], active[-1]
        zeros = [w for w in range(lo + 1, hi) if activity[w] <= 0]
        runs: List[List[int]] = []
        for w in zeros:
            if runs and runs[-1][-1] == w - 1:
                runs[-1].append(w)
            else:
                runs.append([w])
        return [run for run in runs if len(run) >= self.min_run]

    def _run_findings(self, series, activity, start, what) -> List[Dict[str, Any]]:
        # One finding per stall *run*, anchored at its first window:
        # per-window findings would drown the report when a long stall
        # spans dozens of windows.
        findings = []
        for run in self._stall_runs(activity):
            findings.append(
                {
                    "rule": self.name,
                    "series": series,
                    "window": start + run[0],
                    "value": float(len(run)),
                    "threshold": float(self.min_run),
                    "detail": f"no {what} for {len(run)} consecutive "
                              f"window(s) [{start + run[0]}.."
                              f"{start + run[-1]}]",
                }
            )
        return findings

    def check(self, doc: Dict[str, Any]) -> List[Dict[str, Any]]:
        findings = []
        start = doc.get("start", 0)
        for series in self.counters:
            values = doc.get("counters", {}).get(series)
            if not values:
                continue
            findings += self._run_findings(series, list(values), start, "progress")
        for series, points in doc.get("histograms", {}).items():
            activity = [float(p["count"]) if p else 0.0 for p in points]
            findings += self._run_findings(series, activity, start, "samples")
        return findings


#: The default rule set ``run_watchdogs`` applies.
DEFAULT_WATCHDOGS = (
    LinkSaturationRule(),
    LatencyRegressionRule(),
    StalledProgressRule(),
)


def run_watchdogs(doc: Dict[str, Any], rules=DEFAULT_WATCHDOGS) -> List[Dict[str, Any]]:
    """Apply watchdog rules to a timeline doc; sorted, structured findings."""
    findings: List[Dict[str, Any]] = []
    for rule in rules:
        findings.extend(rule.check(doc))
    findings.sort(key=lambda f: (f["series"], f["window"], f["rule"]))
    return findings
