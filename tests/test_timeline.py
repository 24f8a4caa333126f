"""Windowed timeline telemetry: sampler, merge, watchdogs, exports.

The load-bearing contracts live in ``TestFingerprintInvariance`` (an
attached sampler must not perturb a run's merged fingerprint) and
``TestMergedTimelineDeterminism`` (merged timelines are bit-identical
for any worker count) — the same guarantees the metric merge already
makes, extended to the windowed series.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.export import (
    FLIGHT_SCHEMA,
    TIMELINE_SCHEMA,
    export_doc,
    load_doc,
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
from repro.shard import run_sharded
from repro.shard.merge import merge_timelines
from repro.sim.stats import Histogram

import repro.topology  # noqa: F401  registers the rack scenarios


# ----------------------------------------------------------------------
# Sampler unit behavior
# ----------------------------------------------------------------------
class TestSampler:
    def test_counter_windows_hold_deltas(self):
        reading = {"v": 0.0}
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.counter("c", lambda: reading["v"])
        reading["v"] = 3.0
        sampler.roll(100.0)  # closes window 0
        reading["v"] = 10.0
        sampler.roll(250.0)  # closes windows 1 (delta 7) and nothing else
        doc = sampler.to_doc()
        assert doc["counters"]["c"] == [3.0, 7.0]

    def test_counter_scale(self):
        reading = {"v": 0.0}
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.counter("busy", lambda: reading["v"], scale=1 / 100.0)
        reading["v"] = 50.0
        sampler.roll(100.0)
        assert sampler.to_doc()["counters"]["busy"] == [0.5]

    def test_gauge_reads_at_close(self):
        reading = {"v": 1.0}
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.gauge("g", lambda: reading["v"])
        sampler.roll(100.0)
        reading["v"] = 9.0
        sampler.roll(200.0)
        assert sampler.to_doc()["gauges"]["g"] == [1.0, 9.0]

    def test_roll_closes_every_crossed_window(self):
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.gauge("g", lambda: 0.0)
        sampler.roll(499.0)  # crosses boundaries 100..400
        assert sampler.windows == 4
        assert sampler.next_ns == 500.0

    def test_hist_open_list_identity_stable(self):
        sampler = TimelineSampler(interval_ns=100.0)
        window = sampler.hist("lat")
        append = window.append
        append(5.0)
        sampler.roll(100.0)
        append(7.0)  # cached append still feeds the (cleared) open list
        sampler.finish(150.0)
        doc = sampler.to_doc()
        points = doc["histograms"]["lat"]
        assert points[0]["count"] == 1 and points[0]["p50"] == 5.0
        assert points[1]["count"] == 1 and points[1]["p50"] == 7.0
        assert sampler.hist("lat") is window

    def test_empty_hist_window_is_none(self):
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.hist("lat").append(4.0)
        sampler.roll(300.0)
        doc = sampler.to_doc()
        assert doc["histograms"]["lat"][0]["count"] == 1
        assert doc["histograms"]["lat"][1] is None

    def test_finish_closes_trailing_window_and_is_idempotent(self):
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.hist("lat").append(1.0)
        sampler.finish(100.0)  # sample sits exactly at the boundary
        assert sampler.windows == 2  # rolled window 0, closed trailing 1
        sampler.finish(100.0)
        assert sampler.windows == 2

    def test_duplicate_series_rejected(self):
        sampler = TimelineSampler()
        sampler.counter("x", lambda: 0.0)
        with pytest.raises(ConfigError):
            sampler.gauge("x", lambda: 0.0)
        with pytest.raises(ConfigError):
            sampler.hist("x")
        sampler.hist("h")
        with pytest.raises(ConfigError):
            sampler.counter("h", lambda: 0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TimelineSampler(interval_ns=0.0)
        with pytest.raises(ConfigError):
            TimelineSampler(capacity=0)

    def test_ring_eviction_advances_start(self):
        sampler = TimelineSampler(interval_ns=10.0, capacity=3)
        reading = {"v": 0.0}
        sampler.counter("c", lambda: reading["v"])
        sampler.hist("lat")
        for w in range(5):
            reading["v"] = float(w + 1)
            sampler.roll((w + 1) * 10.0)
        doc = sampler.to_doc(include_samples=True)
        assert sampler.start == 2
        assert doc["start"] == 2
        assert doc["windows"] == 3
        assert doc["counters"]["c"] == [1.0, 1.0, 1.0]
        assert len(doc["samples"]["lat"]) == 3

    def test_to_doc_is_json_safe_and_stamped(self):
        sampler = TimelineSampler(interval_ns=100.0)
        sampler.gauge("g", lambda: 2.0)
        sampler.hist("lat").append(3.0)
        sampler.finish(90.0)
        doc = sampler.to_doc(include_samples=True)
        assert doc["schema"] == TIMELINE_SCHEMA
        json.dumps(doc)


class TestCounterTracks:
    def test_tracks_shape(self):
        sampler = TimelineSampler(interval_ns=1000.0)
        reading = {"v": 0.0}
        sampler.counter("c", lambda: reading["v"])
        sampler.hist("lat").append(5.0)
        reading["v"] = 4.0
        sampler.roll(1000.0)
        sampler.finish(1500.0)
        tracks = sampler.counter_tracks()
        names = {e["name"] for e in tracks}
        assert names == {"timeline:c", "timeline:lat"}
        for event in tracks:
            assert event["ph"] == "C"
            assert event["pid"] == 0 and event["tid"] == 0
        c0 = [e for e in tracks if e["name"] == "timeline:c"][0]
        assert c0["ts"] == 0.0 and c0["args"] == {"value": 4.0}
        lat = [e for e in tracks if e["name"] == "timeline:lat"]
        assert lat[0]["args"]["p50"] == 5.0
        assert lat[1]["args"] == {"p50": 0.0, "p99": 0.0}  # empty window

    def test_tracks_from_merged_doc(self):
        run = run_sharded("loopback_64b", workers=1, quick=True,
                          timeline_interval=1000.0)
        tracks = timeline_counter_tracks(run.timeline)
        assert tracks
        assert all(e["ph"] == "C" for e in tracks)


# ----------------------------------------------------------------------
# Fingerprint invariance: attached == detached, on every scenario
# ----------------------------------------------------------------------
ALL_SCENARIOS = [
    "loopback_64b", "kv_zipf", "faults_canned", "kv_zipf_1m",
    "kv_rack_zipf", "mesh_2x2_loopback",
]


class TestFingerprintInvariance:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_attached_timeline_does_not_change_fingerprint(self, name):
        bare = run_sharded(name, workers=1, quick=True)
        timed = run_sharded(name, workers=1, quick=True,
                            timeline_interval=1000.0)
        assert bare.fingerprint == timed.fingerprint
        assert bare.doc == timed.doc
        assert timed.timeline is not None
        assert timed.timeline["schema"] == TIMELINE_SCHEMA
        assert bare.timeline is None

    def test_detach_restores_zero_cost_hook(self):
        from repro.analysis.loopback import InterfaceKind, build_interface
        from repro.obs import Observability
        from repro.platform import icx

        sampler = TimelineSampler()
        setup = build_interface(
            icx(), InterfaceKind.CCNIC, obs=Observability(timeline=sampler)
        )
        assert setup.system.sim.timeline is sampler
        assert "sim.events" in sampler.to_doc()["counters"]
        # A bundle without a timeline replaces the one with it.
        setup.instrument(Observability())
        assert setup.system.sim.timeline is None
        assert type(setup.system.sim).timeline is None


# ----------------------------------------------------------------------
# Merged-timeline determinism across worker counts
# ----------------------------------------------------------------------
class TestMergedTimelineDeterminism:
    @pytest.mark.parametrize("name", ["loopback_64b", "kv_zipf", "faults_canned"])
    def test_workers_do_not_change_merged_timeline(self, name):
        one = run_sharded(name, workers=1, quick=True, timeline_interval=1000.0)
        two = run_sharded(name, workers=2, quick=True, timeline_interval=1000.0)
        assert one.timeline == two.timeline
        assert one.fingerprint == two.fingerprint

    def test_four_workers_loopback(self):
        base = run_sharded("loopback_64b", workers=1, quick=True,
                           timeline_interval=1000.0)
        wide = run_sharded("loopback_64b", workers=4, quick=True,
                           timeline_interval=1000.0)
        assert base.timeline == wide.timeline

    def test_merged_doc_is_json_safe(self):
        run = run_sharded("kv_zipf", workers=2, quick=True,
                          timeline_interval=1000.0)
        json.dumps(run.timeline)
        assert run.timeline["n_shards"] == run.n_shards
        assert "findings" in run.timeline
        assert "samples" not in run.timeline  # merged docs drop raw samples

    def test_fault_scenario_produces_findings(self):
        run = run_sharded("faults_canned", workers=2, quick=True,
                          timeline_interval=1000.0)
        assert run.timeline["findings"]
        rules = {f["rule"] for f in run.timeline["findings"]}
        assert rules & {"link-saturation", "stalled-progress",
                        "latency-regression"}


# ----------------------------------------------------------------------
# merge_timelines mechanics (S4): empty/single windows, pooled
# percentiles, order independence
# ----------------------------------------------------------------------
def _shard_doc(index, counters=None, hists=None, interval=100.0, start=0):
    names = sorted(hists or {})
    windows = max(
        [len(v) for v in (counters or {}).values()]
        + [len(v) for v in (hists or {}).values()]
        + [0]
    )
    points = {}
    for name in names:
        pts = []
        for window in hists[name]:
            if window:
                h = Histogram(name)
                h.extend(window)
                pts.append({"count": h.count, "p50": h.percentile(50),
                            "p99": h.percentile(99)})
            else:
                pts.append(None)
        points[name] = pts
    return {
        "index": index,
        "timeline": {
            "schema": TIMELINE_SCHEMA,
            "interval_ns": interval,
            "start": start,
            "windows": windows,
            "counters": counters or {},
            "gauges": {},
            "histograms": points,
            "samples": {name: [list(w) for w in hists[name]] for name in names},
        },
    }


class TestMergeTimelines:
    def test_no_timeline_shards_merge_to_none(self):
        assert merge_timelines([{"index": 0}, {"index": 1}]) is None

    def test_counters_sum_with_ragged_lengths(self):
        a = _shard_doc(0, counters={"c": [1.0, 2.0, 3.0]}, hists={})
        b = _shard_doc(1, counters={"c": [10.0]}, hists={})
        merged = merge_timelines([a, b])
        assert merged["counters"]["c"] == [11.0, 2.0, 3.0]
        assert merged["windows"] == 3

    def test_empty_windows_stay_empty(self):
        a = _shard_doc(0, hists={"lat": [[], [], []]})
        b = _shard_doc(1, hists={"lat": [[], [], []]})
        merged = merge_timelines([a, b])
        assert merged["histograms"]["lat"] == [None, None, None]

    def test_single_sample_window(self):
        a = _shard_doc(0, hists={"lat": [[7.0]]})
        b = _shard_doc(1, hists={"lat": [[]]})
        merged = merge_timelines([a, b])
        point = merged["histograms"]["lat"][0]
        assert point == {"count": 1, "p50": 7.0, "p99": 7.0}

    def test_pooling_differs_from_averaging_percentiles(self):
        # Percentiles of pooled samples, not means of per-shard
        # percentiles: an asymmetric split makes the two disagree.
        a = _shard_doc(0, hists={"lat": [[1.0, 1.0, 1.0]]})
        b = _shard_doc(1, hists={"lat": [[100.0]]})
        merged = merge_timelines([a, b])
        pooled = Histogram("ref")
        pooled.extend([1.0, 1.0, 1.0, 100.0])
        assert merged["histograms"]["lat"][0]["p50"] == pooled.percentile(50)

    def test_interval_mismatch_rejected(self):
        a = _shard_doc(0, counters={"c": [1.0]}, hists={})
        b = _shard_doc(1, counters={"c": [1.0]}, hists={}, interval=50.0)
        with pytest.raises(ConfigError):
            merge_timelines([a, b])

    def test_evicted_shard_rejected(self):
        a = _shard_doc(0, counters={"c": [1.0]}, hists={}, start=2)
        with pytest.raises(ConfigError):
            merge_timelines([a])

    @settings(max_examples=25, deadline=None)
    @given(
        windows=st.lists(
            st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    max_size=8,
                ),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_merge_order_independence(self, windows, seed):
        # Pooled per-window percentiles are a function of the sample
        # multiset, so shard input order cannot matter (the merge sorts
        # by shard index internally; this also shuffles which *index*
        # holds which samples).
        import random

        width = max(len(shard) for shard in windows)
        padded = [shard + [[]] * (width - len(shard)) for shard in windows]
        docs = [_shard_doc(i, hists={"lat": shard})
                for i, shard in enumerate(padded)]
        merged = merge_timelines(docs)
        rng = random.Random(seed)
        permuted = padded[:]
        rng.shuffle(permuted)
        redocs = [_shard_doc(i, hists={"lat": shard})
                  for i, shard in enumerate(permuted)]
        remerged = merge_timelines(redocs)
        assert merged["histograms"] == remerged["histograms"]

    def test_histogram_samples_roundtrip_through_extend(self):
        # Histogram.samples() feeds the shard doc; pooling via extend()
        # must reproduce the same order statistics.
        h = Histogram("lat")
        values = [float(v) for v in range(199, -1, -1)]
        h.extend(values)
        assert sorted(h.samples()) == sorted(values)
        pooled = Histogram("pool")
        pooled.extend(h.samples())
        assert pooled.percentile(50) == h.percentile(50)
        assert pooled.percentile(99) == h.percentile(99)


# ----------------------------------------------------------------------
# Watchdogs
# ----------------------------------------------------------------------
def _doc(counters=None, histograms=None, start=0):
    return {
        "schema": TIMELINE_SCHEMA,
        "interval_ns": 100.0,
        "start": start,
        "windows": 0,
        "counters": counters or {},
        "gauges": {},
        "histograms": histograms or {},
    }


class TestWatchdogs:
    def test_link_saturation_flags_busy_windows(self):
        doc = _doc(counters={"link.0.busy_frac": [0.2, 0.95, 0.5],
                             "link.0.messages": [100.0, 100.0, 100.0]})
        findings = LinkSaturationRule().check(doc)
        assert len(findings) == 1
        assert findings[0]["window"] == 1
        assert findings[0]["series"] == "link.0.busy_frac"

    def test_latency_regression_vs_run_median(self):
        points = [{"count": 10, "p50": 100.0, "p99": 120.0}] * 5
        points.append({"count": 10, "p50": 100.0, "p99": 900.0})
        doc = _doc(histograms={"latency_ns": points})
        findings = LatencyRegressionRule().check(doc)
        assert len(findings) == 1
        assert findings[0]["window"] == 5
        assert findings[0]["value"] == 900.0

    def test_latency_regression_needs_min_windows(self):
        points = [{"count": 1, "p50": 10.0, "p99": 999.0}]
        doc = _doc(histograms={"latency_ns": points})
        assert LatencyRegressionRule().check(doc) == []

    def test_stalled_progress_interior_run_only(self):
        doc = _doc(counters={"sim.events": [5.0, 0.0, 0.0, 0.0, 5.0]})
        findings = StalledProgressRule().check(doc)
        assert len(findings) == 1
        assert findings[0]["window"] == 1
        assert findings[0]["value"] == 3.0  # run length

    def test_stalled_progress_ignores_short_gaps_and_edges(self):
        # Leading/trailing zeros are warmup/teardown; a single interior
        # zero window is the batch period beating against the grid.
        doc = _doc(counters={"sim.events": [0.0, 5.0, 0.0, 5.0, 0.0]})
        assert StalledProgressRule().check(doc) == []

    def test_stalled_progress_covers_histograms(self):
        points = [{"count": 3, "p50": 1.0, "p99": 1.0}, None, None,
                  {"count": 3, "p50": 1.0, "p99": 1.0}]
        doc = _doc(histograms={"latency_ns": points})
        findings = StalledProgressRule().check(doc)
        assert len(findings) == 1
        assert findings[0]["series"] == "latency_ns"

    def test_run_watchdogs_sorted_and_windows_absolute(self):
        doc = _doc(counters={"link.0.busy_frac": [0.95],
                             "sim.events": [1.0, 0.0, 0.0, 1.0]}, start=7)
        findings = run_watchdogs(doc)
        assert findings == sorted(
            findings, key=lambda f: (f["series"], f["window"], f["rule"]))
        stalled = [f for f in findings if f["rule"] == "stalled-progress"]
        assert stalled[0]["window"] == 8  # 7 (start) + interior window 1
        saturated = [f for f in findings if f["rule"] == "link-saturation"]
        assert saturated[0]["window"] == 7

    def test_default_ruleset_composition(self):
        names = {rule.name for rule in DEFAULT_WATCHDOGS}
        assert names == {"link-saturation", "latency-regression",
                         "stalled-progress"}


# ----------------------------------------------------------------------
# Export / load / stamping (incl. S3 backward compatibility)
# ----------------------------------------------------------------------
class TestExports:
    def test_timeline_roundtrip(self, tmp_path):
        run = run_sharded("loopback_64b", workers=1, quick=True,
                          timeline_interval=1000.0)
        path = str(tmp_path / "tl.json")
        export_doc(run.timeline, path)
        assert load_doc(path, TIMELINE_SCHEMA) == run.timeline

    def test_foreign_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.json")
        with open(path, "w") as fh:
            json.dump({"schema": "repro.obs/flight-v1"}, fh)
        with pytest.raises(ValueError):
            load_doc(path, TIMELINE_SCHEMA)
        sampler = TimelineSampler()
        with pytest.raises(ValueError):
            export_doc({"windows": 3}, path)  # missing stamp

    def test_flight_report_stamped_with_scenario(self, tmp_path):
        from repro.obs import FlightRecorder

        report = FlightRecorder().report(
            config={"x": 1}, scenario="loopback_cli_64b",
            spec_fingerprint="abc123",
        )
        assert report["scenario"] == "loopback_cli_64b"
        assert report["spec_fingerprint"] == "abc123"
        path = str(tmp_path / "f.json")
        export_doc(report, path)
        assert load_doc(path, FLIGHT_SCHEMA)["scenario"] == "loopback_cli_64b"

    def test_flight_loader_accepts_unstamped_docs(self, tmp_path):
        # Pre-stamp documents (no scenario/spec_fingerprint) keep
        # loading: the fields are additive.
        from repro.obs import FlightRecorder

        report = FlightRecorder().report()
        assert "scenario" not in report
        path = str(tmp_path / "f.json")
        export_doc(report, path)
        loaded = load_doc(path, FLIGHT_SCHEMA)
        assert loaded.get("scenario") is None

    def test_sanitizer_report_stamped(self):
        from repro.check import Sanitizer

        report = Sanitizer().report(
            config={"x": 1}, scenario="kv_cli_ads", spec_fingerprint="def456")
        assert report["scenario"] == "kv_cli_ads"
        assert report["spec_fingerprint"] == "def456"
        bare = Sanitizer().report(config={"x": 1})
        assert "scenario" not in bare and "spec_fingerprint" not in bare

    def test_chrome_trace_merges_timeline_tracks(self, tmp_path):
        from repro.obs import FlightRecorder, export_chrome_trace

        sampler = TimelineSampler(interval_ns=100.0)
        sampler.gauge("g", lambda: 1.0)
        sampler.finish(50.0)
        path = str(tmp_path / "trace.json")
        export_chrome_trace(FlightRecorder(), path, timeline=sampler)
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        assert any(e.get("name") == "timeline:g" for e in events
                   if isinstance(e, dict))


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_timeline_command_renders_findings(self, capsys, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "tl.json")
        assert main(["timeline", "--scenario", "faults_canned", "--quick",
                     "--workers", "2", "--out", path]) == 0
        out = capsys.readouterr().out
        assert "watchdog findings" in out
        assert "sim.events" in out
        doc = load_doc(path, TIMELINE_SCHEMA)
        assert doc["scenario"] == "faults_canned"
        assert doc["findings"]

    def test_timeline_command_load(self, capsys, tmp_path):
        from repro.cli import main

        sampler = TimelineSampler(interval_ns=100.0)
        sampler.gauge("g", lambda: 2.0)
        sampler.finish(250.0)
        path = str(tmp_path / "tl.json")
        export_doc(sampler.to_doc(), path)
        assert main(["timeline", "--load", path]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "g" in out

    def test_timeline_command_unknown_scenario(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["timeline", "--scenario", "nope"])

    def test_loopback_timeline_out(self, capsys, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "tl.json")
        assert main(["loopback", "--packets", "300", "--inflight", "8",
                     "--timeline-out", path]) == 0
        doc = load_doc(path, TIMELINE_SCHEMA)
        assert doc["scenario"] == "loopback_cli_64b"
        assert "sim.events" in doc["counters"]
        assert "wrote timeline" in capsys.readouterr().out

    def test_sharded_loopback_timeline_out(self, capsys, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "tl.json")
        assert main(["loopback", "--packets", "400", "--shards", "2",
                     "--timeline-out", path]) == 0
        doc = load_doc(path, TIMELINE_SCHEMA)
        assert doc["n_shards"] == 2
        assert "wrote merged timeline" in capsys.readouterr().out

    def test_run_flags_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        lb = parser.parse_args(["loopback"])
        assert lb.timeline_out is None and lb.timeline_interval == 1000.0
        fl = parser.parse_args(["faults"])
        assert fl.timeline_interval == 2000.0  # per-command override
        kv = parser.parse_args(["kv"])
        assert kv.timeline_interval == 500.0


# ----------------------------------------------------------------------
# Heartbeat (operator-side; must not touch results)
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_heartbeat_does_not_change_fingerprint(self, capsys):
        quiet = run_sharded("loopback_64b", workers=2, quick=True)
        noisy = run_sharded("loopback_64b", workers=2, quick=True,
                            heartbeat_s=0.001)
        assert quiet.fingerprint == noisy.fingerprint
        assert quiet.doc == noisy.doc
        err = capsys.readouterr().err
        assert "shard(s) done" in err

    def test_heartbeat_prints_progress_to_stderr_only(self, capsys):
        run_sharded("kv_zipf", workers=1, quick=True, heartbeat_s=0.001)
        captured = capsys.readouterr()
        assert "shard(s) done" not in captured.out
