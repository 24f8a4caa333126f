"""Unified observability: metrics, span tracing, observers, exporters.

``repro.obs`` is the measurement substrate every instrumentable
component registers into. One :class:`Observability` bundle carries
all of it — a metric registry, a span tracer, and the observers (flight
recorder, protocol sanitizer, timeline sampler) — and ``obs=`` is the
only attach path: every run function takes it, and the
:class:`Instrumented` cascade sets each component's hooks from it.
Observers never change which code path runs. The pieces:

* :class:`MetricRegistry` — counters, gauges and histograms labeled by
  component (``fabric``, ``pool``, ``driver.q0``, ...). Components
  expose metrics through the :class:`Instrumented` mixin; existing
  :class:`~repro.sim.stats.Counter` bags (the fabric's transaction
  counters, the pool's stats) are *adopted* so the hot paths keep their
  cheap dict increments and the registry reads them lazily at snapshot
  time.
* :class:`SpanTracer` — begin/end spans over **virtual** time with
  parent linkage (a ``tx_burst`` span parents the per-descriptor
  coherence-transaction instants recorded inside it); zero-cost when
  disabled.
* :class:`FlightRecorder` — cache-line lifecycle recording (ping-pong
  counts, region-classified thrash tables, homing audit) plus sampled
  per-packet critical-path waterfalls; one ``None`` test per hook site
  when detached, and attached it watches the coherence fabric's plan
  path, so recorded runs stay fingerprint-identical.
* :class:`TimelineSampler` — windowed series over virtual time, with
  watchdog findings.
* Exporters — serialize a whole run to JSON or CSV, and dump span
  timelines in Chrome trace format (load via ``chrome://tracing`` or
  https://ui.perfetto.dev), with flight counter tracks merged in.

Typical wiring (the CLI's ``--metrics-out`` / ``--trace-out`` /
``--flight-out`` flags do exactly this)::

    from repro.obs import FlightRecorder, MetricRegistry, Observability
    from repro.obs import SpanTracer, export_chrome_trace, export_metrics_json

    obs = Observability(
        metrics=MetricRegistry(), tracer=SpanTracer(), flight=FlightRecorder()
    )
    setup = build_interface(icx(), InterfaceKind.CCNIC, obs=obs)
    run_point(setup, 64, 5000, obs=obs)
    export_metrics_json(obs.metrics, "metrics.json")
    export_chrome_trace(obs.tracer, "trace.json", flight=obs.flight)

By default every component carries the shared no-op
:data:`~repro.obs.instrument.OBS_OFF` bundle: nothing is recorded and
the per-call cost is a single attribute load plus a branch.
"""

from repro.obs.instrument import (
    NULL_METRIC,
    OBS_OFF,
    Instrumented,
    NullMetric,
    NullRegistry,
    NullTracer,
    Observability,
)
from repro.obs.registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricRegistry,
    merge_snapshots,
)
from repro.obs.spans import Span, SpanTracer
from repro.obs.flight import FlightRecorder, classify_region
from repro.obs.waterfall import STAGES, PacketWaterfall, WaterfallStats
from repro.obs.export import (
    TIMELINE_SCHEMA,
    export_chrome_trace,
    export_flight_json,
    export_lint_json,
    export_metrics_csv,
    export_metrics_json,
    export_sanitize_json,
    export_timeline_json,
    load_flight_json,
    load_lint_json,
    load_metrics_csv,
    load_metrics_json,
    load_sanitize_json,
    load_timeline_json,
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
    "CounterMetric",
    "DEFAULT_WATCHDOGS",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "Instrumented",
    "LatencyRegressionRule",
    "LinkSaturationRule",
    "MetricRegistry",
    "NULL_METRIC",
    "NullMetric",
    "NullRegistry",
    "NullTracer",
    "OBS_OFF",
    "Observability",
    "PacketWaterfall",
    "STAGES",
    "Span",
    "SpanTracer",
    "StalledProgressRule",
    "TIMELINE_SCHEMA",
    "TimelineSampler",
    "WaterfallStats",
    "classify_region",
    "merge_snapshots",
    "export_chrome_trace",
    "export_flight_json",
    "export_lint_json",
    "export_metrics_csv",
    "export_metrics_json",
    "export_sanitize_json",
    "export_timeline_json",
    "instrument_all",
    "load_flight_json",
    "load_lint_json",
    "load_metrics_csv",
    "load_metrics_json",
    "load_sanitize_json",
    "load_timeline_json",
    "metrics_rows",
    "run_watchdogs",
    "timeline_counter_tracks",
]
