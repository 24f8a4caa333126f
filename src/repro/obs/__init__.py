"""Unified observability: metrics, observers, exporters.

``repro.obs`` is the measurement substrate every instrumentable
component registers into. One :class:`Observability` bundle carries
all of it — a metric registry and the observers (flight recorder,
protocol sanitizer, timeline sampler) — and ``obs=`` is the only attach
path: every run function takes it, and the :class:`Instrumented`
cascade sets each component's hooks from it. Observers never change
which code path runs. The pieces:

* :class:`MetricRegistry` — gauges, counter bags and histograms labeled
  by component (``fabric``, ``pool``, ``driver.q0``, ...). Components
  expose metrics through the :class:`Instrumented` mixin as collector
  gauges over attributes they keep anyway, and *adopt* their
  :class:`~repro.sim.stats.Counter` bags (the fabric's transaction
  counters, the pool's stats) and histograms, so the hot paths keep
  their cheap increments and the registry reads them at snapshot time.
* :class:`FlightRecorder` — cache-line lifecycle recording (ping-pong
  counts, region-classified thrash tables, homing audit), one call
  record per driver and NIC burst, and sampled per-packet
  critical-path waterfalls; one ``None`` test per hook site when
  detached, and attached it watches the coherence fabric's plan path,
  so recorded runs stay fingerprint-identical. Its bounded rings build
  the Chrome trace: a track per cache agent, the calls, and the line
  events each call issued, parented under it.
* :class:`TimelineSampler` — windowed series over virtual time, with
  watchdog findings.
* Exporters — one stamped-JSON writer/loader pair for every report
  (:func:`export_doc` / :func:`load_doc`), a CSV form of metric
  snapshots, and the flight recorder's trace in Chrome trace format
  (load via ``chrome://tracing`` or https://ui.perfetto.dev), with
  timeline counter tracks merged in.

Typical wiring (the CLI's ``--metrics-out`` / ``--trace-out`` /
``--flight-out`` flags do exactly this)::

    from repro.obs import FlightRecorder, MetricRegistry, Observability
    from repro.obs import export_chrome_trace, export_doc, metrics_doc

    obs = Observability(metrics=MetricRegistry(), flight=FlightRecorder())
    setup = build_interface(icx(), InterfaceKind.CCNIC, obs=obs)
    run_point(setup, 64, 5000, obs=obs)
    export_doc(metrics_doc(obs.metrics.snapshot()), "metrics.json")
    export_doc(obs.flight.report(), "flight.json")
    export_chrome_trace(obs.flight, "trace.json")

:func:`load_doc` reads any of those reports back, given the stamp it
expects (``load_doc("flight.json", FLIGHT_SCHEMA)``).

By default every component carries the shared no-op
:data:`~repro.obs.instrument.OBS_OFF` bundle: nothing is recorded and
the per-call cost is a single attribute load plus a branch.
"""

from repro.obs.instrument import OBS_OFF, Instrumented, NullRegistry, Observability
from repro.obs.registry import (
    GaugeMetric,
    HistogramMetric,
    MetricRegistry,
    merge_snapshots,
)
from repro.obs.flight import FlightRecorder, classify_region
from repro.obs.waterfall import STAGES, PacketWaterfall, WaterfallStats
from repro.obs.export import (
    FLIGHT_SCHEMA,
    METRICS_SCHEMA,
    TIMELINE_SCHEMA,
    export_chrome_trace,
    export_doc,
    export_metrics_csv,
    load_doc,
    load_metrics_csv,
    metrics_doc,
    metrics_rows,
)
from repro.obs.timeline import (
    DEFAULT_WATCHDOGS,
    LatencyRegressionRule,
    LinkSaturationRule,
    StalledProgressRule,
    TimelineSampler,
    run_watchdogs,
    timeline_counter_tracks,
)
from repro.obs.wire import instrument_all

__all__ = [
    "DEFAULT_WATCHDOGS",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "Instrumented",
    "LatencyRegressionRule",
    "LinkSaturationRule",
    "METRICS_SCHEMA",
    "MetricRegistry",
    "NullRegistry",
    "OBS_OFF",
    "Observability",
    "PacketWaterfall",
    "STAGES",
    "StalledProgressRule",
    "TIMELINE_SCHEMA",
    "TimelineSampler",
    "WaterfallStats",
    "classify_region",
    "merge_snapshots",
    "export_chrome_trace",
    "export_doc",
    "export_metrics_csv",
    "instrument_all",
    "load_doc",
    "load_metrics_csv",
    "metrics_doc",
    "metrics_rows",
    "run_watchdogs",
    "timeline_counter_tracks",
]
