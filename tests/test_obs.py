"""Unit tests for the repro.obs telemetry subsystem."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_METRIC,
    OBS_OFF,
    Instrumented,
    MetricRegistry,
    NullRegistry,
    NullTracer,
    Observability,
    SpanTracer,
    METRICS_SCHEMA,
    export_chrome_trace,
    export_doc,
    export_metrics_csv,
    instrument_all,
    load_doc,
    load_metrics_csv,
    metrics_doc,
    metrics_rows,
)
from repro.errors import ConfigError
from repro.sim.stats import Counter, Histogram


class TestMetricRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricRegistry()
        reg.counter("comp", "hits").inc()
        reg.counter("comp", "hits").inc(2)
        reg.gauge("comp", "level").set(7.5)
        hist = reg.histogram("comp", "lat")
        hist.record(10.0)
        hist.record(30.0)
        snap = reg.snapshot()
        assert snap["comp"]["hits"] == 3.0
        assert snap["comp"]["level"] == 7.5
        assert snap["comp"]["lat.count"] == 2.0
        assert snap["comp"]["lat.min"] == 10.0
        assert snap["comp"]["lat.max"] == 30.0

    def test_counter_rejects_negative(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.counter("c", "n").inc(-1)

    def test_collector_gauge_reads_lazily(self):
        reg = MetricRegistry()
        state = {"v": 1.0}
        reg.gauge("c", "live", fn=lambda: state["v"])
        assert reg.snapshot()["c"]["live"] == 1.0
        state["v"] = 42.0
        assert reg.snapshot()["c"]["live"] == 42.0

    def test_get_or_create_returns_same_metric(self):
        reg = MetricRegistry()
        assert reg.counter("c", "n") is reg.counter("c", "n")
        with pytest.raises(ValueError):
            reg.gauge("c", "n")  # same name, different type

    def test_empty_histogram_omitted_from_snapshot(self):
        reg = MetricRegistry()
        reg.histogram("c", "lat")
        assert reg.snapshot().get("c", {}) == {}

    def test_adopt_counters_mirrors_bag(self):
        reg = MetricRegistry()
        bag = Counter()
        reg.adopt_counters("fabric", bag)
        reg.adopt_counters("fabric", bag)  # idempotent
        bag.add("s1.read", 5)
        snap = reg.snapshot()
        assert snap["fabric"] == {"s1.read": 5.0}
        assert snap["fabric"] == bag.snapshot()

    def test_adopt_histogram(self):
        reg = MetricRegistry()
        hist = Histogram("lat")
        reg.adopt_histogram("app", "lat", hist)
        hist.record(4.0)
        assert reg.snapshot()["app"]["lat.count"] == 1.0

    def test_reset_zeroes_owned_and_adopted(self):
        reg = MetricRegistry()
        reg.counter("c", "n").inc(3)
        bag = Counter()
        bag.add("x", 2)
        reg.adopt_counters("c", bag)
        reg.reset()
        snap = reg.snapshot()
        assert snap["c"]["n"] == 0.0
        assert bag.get("x") == 0.0

    def test_unique_component_dedupes(self):
        reg = MetricRegistry()
        assert reg.unique_component("fabric") == "fabric"
        assert reg.unique_component("fabric") == "fabric#2"
        assert reg.unique_component("fabric") == "fabric#3"

    def test_components_listing(self):
        reg = MetricRegistry()
        reg.counter("b", "n")
        reg.adopt_counters("a", Counter())
        assert reg.components() == ["a", "b"]


class TestSpanTracer:
    def test_span_nesting_and_parent_linkage(self):
        tr = SpanTracer()
        outer = tr.begin("tx_burst", actor="host", start_ns=100.0)
        inner = tr.instant("read", actor="host", ts=110.0, size=64)
        tr.end(outer, 150.0)
        after = tr.begin("rx_burst", actor="host", start_ns=200.0)
        tr.end(after, 210.0)
        assert inner.parent == outer.sid
        assert after.parent is None
        assert outer.duration_ns == 50.0
        assert tr.children_of(outer) == [inner]
        assert tr.roots() == [outer, after]

    def test_context_manager_scoping(self):
        tr = SpanTracer()
        with tr.span("op", start_ns=10.0, end_ns=30.0) as span:
            tr.instant("tick", ts=15.0)
        assert span.end_ns == 30.0
        assert tr.spans()[1].parent == span.sid

    def test_end_clamps_to_start(self):
        tr = SpanTracer()
        span = tr.begin("op", start_ns=100.0)
        tr.end(span, 50.0)
        assert span.end_ns == 100.0

    def test_capacity_bound(self):
        tr = SpanTracer(capacity=4)
        for i in range(6):
            span = tr.begin("s", start_ns=float(i))
            tr.end(span, float(i))
        assert len(tr) == 4
        assert tr.dropped == 2
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_to_chrome_shape(self):
        tr = SpanTracer()
        span = tr.begin("tx_burst", actor="host", category="driver",
                        start_ns=1000.0, packets=3)
        tr.instant("read", actor="host", ts=1200.0)
        tr.end(span, 2000.0)
        doc = tr.to_chrome()
        assert doc["displayTimeUnit"] == "ns"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert meta and complete and instants
        assert complete[0]["ts"] == 1.0 and complete[0]["dur"] == 1.0  # µs
        assert complete[0]["args"]["packets"] == 3
        assert instants[0]["args"]["parent"] == span.sid
        assert "_instant" not in instants[0]["args"]


class TestSpanTracerOverflow:
    def test_oldest_evicted_and_drop_count(self):
        tr = SpanTracer(capacity=3)
        for i in range(5):
            tr.instant("e", ts=float(i))
        assert len(tr) == 3
        assert tr.dropped == 2
        assert [s.start_ns for s in tr.spans()] == [2.0, 3.0, 4.0]

    def test_dropped_stays_zero_under_capacity(self):
        tr = SpanTracer(capacity=3)
        tr.instant("e", ts=0.0)
        tr.instant("e", ts=1.0)
        assert tr.dropped == 0

    def test_to_chrome_well_formed_after_overflow(self):
        tr = SpanTracer(capacity=2)
        outer = tr.begin("op", start_ns=0.0)
        for i in range(4):
            # Instants nested in ``outer``, which itself gets evicted.
            tr.instant("tick", ts=float(10 + i))
        tr.end(outer, 100.0)
        doc = tr.to_chrome()
        json.dumps(doc)  # must serialize even with evicted parents
        events = doc["traceEvents"]
        assert len([e for e in events if e["ph"] in ("i", "X")]) == 2
        assert all("ts" in e for e in events if e["ph"] != "M")
        assert tr.dropped == 3


class TestDisabledMode:
    def test_obs_off_is_fully_inert(self):
        assert not OBS_OFF.enabled
        assert isinstance(OBS_OFF.metrics, NullRegistry)
        assert isinstance(OBS_OFF.tracer, NullTracer)
        assert OBS_OFF.metrics.counter("c", "n") is NULL_METRIC
        assert OBS_OFF.metrics.gauge("c", "g") is NULL_METRIC
        assert OBS_OFF.metrics.snapshot() == {}
        assert OBS_OFF.tracer.begin("x") is None
        assert OBS_OFF.tracer.spans() == ()

    def test_uninstrumented_component_shares_obs_off(self):
        class Thing(Instrumented):
            pass

        a, b = Thing(), Thing()
        # Class-attribute default: no per-instance state until instrumented.
        assert a.obs is OBS_OFF and b.obs is OBS_OFF
        assert "obs" not in a.__dict__

    def test_null_metric_noops(self):
        NULL_METRIC.inc()
        NULL_METRIC.set(3.0)
        NULL_METRIC.record(1.0)
        assert NULL_METRIC.value == 0.0

    def test_instrument_registers_and_cascades(self):
        class Child(Instrumented):
            def _register_metrics(self, registry):
                registry.counter(self.obs_name, "n").inc()

        class Parent(Instrumented):
            def __init__(self):
                self.child = Child()

            def _instrument_children(self, obs):
                self.child.instrument(obs)

        obs = Observability(metrics=MetricRegistry())
        parent = Parent()
        parent.instrument(obs)
        snap = obs.metrics.snapshot()
        assert parent.obs_name == "parent"
        assert parent.child.obs_name == "child"
        assert snap["child"]["n"] == 1.0

    def test_instrument_all_skips_none(self):
        obs = Observability(metrics=MetricRegistry())

        class Thing(Instrumented):
            pass

        thing = Thing()
        attached = instrument_all(obs, None, thing, object())
        assert attached == [thing]
        assert thing.obs is obs


class TestExporters:
    def _populated(self):
        reg = MetricRegistry()
        reg.counter("fabric", "s1.read").inc(12)
        reg.gauge("sim", "now_ns").set(99.0)
        return reg

    def test_json_round_trip(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "m.json")
        doc = export_doc(metrics_doc(reg.snapshot()), path)
        assert doc["schema"] == "repro.obs/metrics-v1"
        assert load_doc(path, METRICS_SCHEMA)["metrics"] == reg.snapshot()

    def test_json_rejects_foreign_schema(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"schema": "nope", "metrics": {}}, fh)
        with pytest.raises(ValueError):
            load_doc(path, METRICS_SCHEMA)

    def test_load_rejects_non_json_as_config_error(self, tmp_path):
        path = tmp_path / "notes.md"
        path.write_text("# not a report\n")
        with pytest.raises(ConfigError, match="not a JSON report"):
            load_doc(str(path), METRICS_SCHEMA)
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match="schema=None"):
            load_doc(str(path), METRICS_SCHEMA)

    def test_export_rejects_unknown_stamp(self, tmp_path):
        with pytest.raises(ConfigError, match="no known schema stamp"):
            export_doc({"schema": "some/other-v1"}, str(tmp_path / "x.json"))
        with pytest.raises(ConfigError):
            export_doc({"metrics": {}}, str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()

    def test_csv_round_trip(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "m.csv")
        rows = export_metrics_csv(reg.snapshot(), path)
        assert rows == 2
        assert load_metrics_csv(path) == reg.snapshot()

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_metrics_csv(path)

    def test_metrics_rows_sorted(self):
        reg = self._populated()
        rows = metrics_rows(reg.snapshot())
        assert rows == sorted(rows)
        assert ("fabric", "s1.read", 12.0) in rows

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        tr = SpanTracer()
        span = tr.begin("op", actor="a", start_ns=10.0)
        tr.end(span, 20.0)
        path = str(tmp_path / "t.json")
        count = export_chrome_trace(tr, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == count
        assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X"}


def _registries():
    """Hypothesis strategy: registries mixing metric kinds and components.

    Covers the S6 regression surface: ``#``-suffixed deduplicated
    components, dotted metric names, histogram keys that flatten to
    ``name.count``/``name.p99``..., and empty histograms that must not
    materialize a section.
    """
    value = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

    @st.composite
    def build(draw):
        reg = MetricRegistry()
        for _ in range(draw(st.integers(1, 3))):
            comp = reg.unique_component(
                draw(st.sampled_from(["fabric", "driver.q0", "pool"]))
            )
            for i in range(draw(st.integers(0, 2))):
                reg.counter(comp, f"c{i}.events").inc(draw(value))
            for i in range(draw(st.integers(0, 2))):
                reg.gauge(comp, f"g{i}.level").set(draw(value))
            for i in range(draw(st.integers(0, 2))):
                hist = reg.histogram(comp, f"h{i}.lat.ns")
                for sample in draw(st.lists(value, max_size=4)):
                    hist.record(sample)
        return reg

    return build()


class TestExportRoundTripProperties:
    @given(reg=_registries())
    @settings(max_examples=30, deadline=None)
    def test_csv_and_json_round_trips_equal_snapshot(self, reg):
        snap = reg.snapshot()
        with tempfile.TemporaryDirectory() as td:
            jpath = os.path.join(td, "m.json")
            cpath = os.path.join(td, "m.csv")
            export_doc(metrics_doc(reg.snapshot()), jpath)
            export_metrics_csv(reg.snapshot(), cpath)
            assert load_doc(jpath, METRICS_SCHEMA)["metrics"] == snap
            assert load_metrics_csv(cpath) == snap
        rows = metrics_rows(reg.snapshot())
        assert rows == sorted(rows)
        assert {comp for comp, _name, _value in rows} == set(snap)

    def test_dedup_component_histogram_regression(self, tmp_path):
        # The original bug: an empty histogram under "fabric" made
        # snapshot() emit an empty section that JSON kept and CSV
        # dropped, so the two loaders disagreed.
        reg = MetricRegistry()
        first = reg.unique_component("fabric")
        second = reg.unique_component("fabric")
        assert second == "fabric#2"
        reg.histogram(first, "lat.ns")  # never recorded into
        reg.histogram(second, "lat.ns").record(5.0)
        snap = reg.snapshot()
        assert "fabric" not in snap
        assert snap["fabric#2"]["lat.ns.count"] == 1.0
        jpath = str(tmp_path / "m.json")
        cpath = str(tmp_path / "m.csv")
        export_doc(metrics_doc(reg.snapshot()), jpath)
        export_metrics_csv(reg.snapshot(), cpath)
        assert load_doc(jpath, METRICS_SCHEMA)["metrics"] == load_metrics_csv(cpath) == snap


class TestEndToEnd:
    def test_loopback_registry_matches_fabric_counters(self):
        from repro.analysis.loopback import InterfaceKind, build_interface, run_point
        from repro.platform import icx

        obs = Observability(metrics=MetricRegistry(), tracer=SpanTracer())
        setup = build_interface(icx(), InterfaceKind.CCNIC, obs=obs)
        with obs.tracer.attach_fabric(setup.system.fabric):
            result = run_point(setup, 64, 400, inflight=32, obs=obs)
        assert result.received == 400
        snap = obs.metrics.snapshot()
        # Acceptance criterion: the registry's fabric section is exactly
        # the fabric's own counter snapshot.
        assert snap["fabric"] == setup.system.fabric.snapshot_counters()
        for component in ("sim", "pool", "ccnic", "driver.q0",
                          "nic_agent.q0", "trafficgen"):
            assert component in snap, component
        assert snap["trafficgen"]["received"] == 400.0
        # Spans recorded with descriptor-level instants nested inside.
        spans = obs.tracer.spans()
        by_sid = {s.sid: s for s in spans}
        tx = [s for s in spans if s.name == "tx_burst"]
        assert tx, "expected tx_burst spans"
        nested = [s for s in spans
                  if s.is_instant and s.parent is not None
                  and by_sid[s.parent].name in ("tx_burst", "rx_burst",
                                                "nic_tx", "nic_rx")]
        assert nested, "expected coherence instants under burst spans"

    def test_disabled_mode_records_nothing(self):
        from repro.analysis.loopback import InterfaceKind, build_interface, run_point
        from repro.platform import icx

        setup = build_interface(icx(), InterfaceKind.CCNIC)  # no obs
        result = run_point(setup, 64, 200, inflight=16)
        assert result.received == 200
        assert setup.driver.obs is OBS_OFF
        assert setup.interface.obs is OBS_OFF
