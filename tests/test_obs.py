"""Unit tests for the repro.obs telemetry subsystem."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    OBS_OFF,
    FlightRecorder,
    Instrumented,
    MetricRegistry,
    NullRegistry,
    Observability,
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
        bag = Counter()
        reg.adopt_counters("comp", bag)
        bag.add("hits")
        bag.add("hits", 2)
        reg.gauge("comp", "level", fn=lambda: 7.5)
        hist = Histogram("lat")
        reg.adopt_histogram("comp", "lat", hist)
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
        bag = Counter()
        reg.adopt_counters("c", bag)
        with pytest.raises(ValueError):
            bag.add("n", -1)

    def test_collector_gauge_reads_lazily(self):
        reg = MetricRegistry()
        state = {"v": 1.0}
        reg.gauge("c", "live", fn=lambda: state["v"])
        assert reg.snapshot()["c"]["live"] == 1.0
        state["v"] = 42.0
        assert reg.snapshot()["c"]["live"] == 42.0

    def test_get_or_create_returns_same_metric(self):
        reg = MetricRegistry()
        reg.gauge("c", "n", fn=lambda: 1.0)
        reg.gauge("c", "n", fn=lambda: 2.0)  # re-registering replaces fn
        assert reg.snapshot() == {"c": {"n": 2.0}}
        reg.adopt_histogram("c", "lat", Histogram("lat"))
        with pytest.raises(ValueError):
            reg.gauge("c", "lat", fn=lambda: 0.0)  # same name, different type

    def test_empty_histogram_omitted_from_snapshot(self):
        reg = MetricRegistry()
        reg.adopt_histogram("c", "lat", Histogram("lat"))
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

    def test_unique_component_dedupes(self):
        reg = MetricRegistry()
        assert reg.unique_component("fabric") == "fabric"
        assert reg.unique_component("fabric") == "fabric#2"
        assert reg.unique_component("fabric") == "fabric#3"


class TestDisabledMode:
    def test_obs_off_is_fully_inert(self):
        assert isinstance(OBS_OFF.metrics, NullRegistry)
        assert not OBS_OFF.metrics.enabled
        OBS_OFF.metrics.gauge("c", "g", fn=lambda: 1.0)
        OBS_OFF.metrics.adopt_counters("c", Counter())
        OBS_OFF.metrics.adopt_histogram("c", "h", Histogram("h"))
        assert OBS_OFF.metrics.snapshot() == {}
        assert OBS_OFF.flight is OBS_OFF.sanitizer is OBS_OFF.timeline is None

    def test_uninstrumented_component_shares_obs_off(self):
        class Thing(Instrumented):
            pass

        a, b = Thing(), Thing()
        # Class-attribute default: no per-instance state until instrumented.
        assert a.obs is OBS_OFF and b.obs is OBS_OFF
        assert "obs" not in a.__dict__

    def test_hooks_start_on_the_instance(self):
        class Hooked(Instrumented):
            flight = None
            _obs_hooks = ("flight",)

        a = Hooked()
        assert vars(a) == {"flight": None}
        recorder = object()
        a.instrument(Observability(flight=recorder))
        assert a.flight is recorder and Hooked.flight is None
        a.instrument(OBS_OFF)
        assert vars(a)["flight"] is None

    def test_instrument_registers_and_cascades(self):
        class Child(Instrumented):
            def _register_metrics(self, registry):
                registry.gauge(self.obs_name, "n", fn=lambda: 1.0)

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
        bag = Counter()
        bag.add("s1.read", 12)
        reg.adopt_counters("fabric", bag)
        reg.gauge("sim", "now_ns", fn=lambda: 99.0)
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
        rec = FlightRecorder()
        rec.call("a", "op", 10.0, 20.0, rec.events_seen, packets=1)
        path = str(tmp_path / "t.json")
        count = export_chrome_trace(rec, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == count
        assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X"}
        call = doc["traceEvents"][1]
        assert (call["ts"], call["dur"], call["args"]) == (0.01, 0.01, {"packets": 1})


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
            bag = Counter()
            reg.adopt_counters(comp, bag)
            for i in range(draw(st.integers(0, 2))):
                bag.add(f"c{i}.events", draw(value))
            for i in range(draw(st.integers(0, 2))):
                level = draw(value)
                reg.gauge(comp, f"g{i}.level", fn=lambda level=level: level)
            for i in range(draw(st.integers(0, 2))):
                hist = Histogram(f"h{i}.lat.ns")
                reg.adopt_histogram(comp, f"h{i}.lat.ns", hist)
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
        reg.adopt_histogram(first, "lat.ns", Histogram("lat.ns"))  # never recorded into
        hist = Histogram("lat.ns")
        reg.adopt_histogram(second, "lat.ns", hist)
        hist.record(5.0)
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

        obs = Observability(metrics=MetricRegistry(), flight=FlightRecorder())
        setup = build_interface(icx(), InterfaceKind.CCNIC, obs=obs)
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
        # Call records, with the line events each call issued inside it.
        events = obs.flight.to_chrome()["traceEvents"]
        calls = {e["id"]: e for e in events if e["ph"] == "X"}
        assert any(e["name"] == "tx_burst" for e in calls.values())
        nested = [e for e in events if e["ph"] == "i" and "parent" in e["args"]]
        assert {calls[e["args"]["parent"]]["name"] for e in nested} == {
            "tx_burst", "rx_burst", "nic_tx", "nic_rx"}

    def test_disabled_mode_records_nothing(self):
        from repro.analysis.loopback import InterfaceKind, build_interface, run_point
        from repro.platform import icx

        setup = build_interface(icx(), InterfaceKind.CCNIC)  # no obs
        result = run_point(setup, 64, 200, inflight=16)
        assert result.received == 200
        assert setup.driver.obs is OBS_OFF
        assert setup.interface.obs is OBS_OFF
