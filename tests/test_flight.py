"""Cache-line flight recorder + per-packet critical-path profiler."""

import json

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.analysis.perf import _fingerprint
from repro.shard.runner import _system_snapshot
from repro.analysis.profile import run_profile
from repro.obs import (
    STAGES,
    FlightRecorder,
    Observability,
    SpanTracer,
    classify_region,
    export_chrome_trace,
    export_flight_json,
    load_flight_json,
)
from repro.obs.flight import REGION_CLASSES
from repro.obs.waterfall import WaterfallStats, build_waterfall
from repro.platform import icx


class FakeRegion:
    def __init__(self, name, home):
        self.name = name
        self.home = home


class TestClassifyRegion:
    def test_known_regions(self):
        assert classify_region("txq0_ring") == "descriptor"
        assert classify_region("rxq1_ring") == "descriptor"
        assert classify_region("e810_txr0") == "descriptor"
        assert classify_region("txq0_tailreg") == "signal"
        assert classify_region("rxq0_headreg") == "signal"
        assert classify_region("e810_txh0") == "signal"
        assert classify_region("pool") == "payload"
        assert classify_region("pool_meta") == "pool_meta"
        assert classify_region("tas_flows") == "other"


class TestWaterfall:
    def test_durations_telescope_to_total(self):
        events = {
            "tx_submit": 100.0,
            "desc_write": 130.0,
            "signal_observed": 150.0,
            "nic_fetch": 180.0,
            "rx_read": 400.0,
        }
        wf = build_waterfall(7, events)
        assert wf.pkt_id == 7
        assert wf.t0_ns == 100.0
        assert wf.total_ns == 300.0
        assert sum(d for _, d in wf.stages) == pytest.approx(wf.total_ns)

    def test_stage_order_is_causal_not_insertion(self):
        events = {"rx_read": 50.0, "tx_submit": 10.0, "wire": 30.0}
        wf = build_waterfall(1, events)
        assert [name for name, _ in wf.stages] == ["wire", "rx_read"]
        assert wf.total_ns == 40.0

    def test_unknown_stages_ignored(self):
        wf = build_waterfall(1, {"tx_submit": 0.0, "bogus": 5.0, "rx_read": 9.0})
        assert wf.total_ns == 9.0
        assert [name for name, _ in wf.stages] == ["rx_read"]

    def test_stats_bound_samples_and_add_p50(self):
        stats = WaterfallStats(max_samples=2)
        for i in range(5):
            stats.add(build_waterfall(i, {"tx_submit": 0.0, "rx_read": 10.0 + i}))
        assert stats.completed == 5
        assert len(stats.samples) == 2
        summary = stats.stage_summary()
        assert "p50" in summary["rx_read"]
        assert summary["total"]["count"] == 5


class TestFlightRecorderUnit:
    def test_ctor_validates(self):
        with pytest.raises(ValueError):
            FlightRecorder(line_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(sample_every=0)

    def test_line_event_ring_bounded(self):
        rec = FlightRecorder(line_capacity=4)
        region = FakeRegion("pool", 0)
        for i in range(6):
            rec.line_event(float(i), 0x40 + i, region, 1, False, "dram_remote", 50.0)
        assert rec.events_seen == 6
        assert rec.events_dropped == 2
        assert len(rec.events) == 4
        # Oldest evicted: retained ring starts at event 2.
        assert rec.events[0][0] == 2.0
        # Aggregates keep counting past the ring bound.
        assert len(rec.lines) == 6

    def test_pingpong_and_spec_accounting(self):
        rec = FlightRecorder()
        region = FakeRegion("pool", 0)
        rec.line_event(0.0, 0x80, region, 0, True, "cache_remote_hitm", 100.0)
        rec.line_event(1.0, 0x80, region, 1, False, "cache_remote_spec", 120.0)
        rec.line_event(2.0, 0x80, region, 0, True, "cache_remote_hitm", 100.0)
        rec.line_event(3.0, 0x80, region, 0, False, "hit", 1.0)
        stats = rec.lines[0x80]
        assert stats.xfers == 3
        assert stats.pingpongs == 2  # 0 -> 1 -> 0
        assert stats.spec_reads == 1
        assert stats.hits == 1
        assert stats.reads == 2 and stats.writes == 2
        audit = rec.audits["pool"]
        assert audit.cross_fetches == 3
        assert audit.reader_homed_specs == 1
        assert audit.flagged

    def test_unmapped_region_classified_other(self):
        rec = FlightRecorder()
        rec.line_event(0.0, 0x10, None, 0, False, "dram_local", 60.0)
        stats = rec.lines[0x10]
        assert stats.region == "<unmapped>"
        assert stats.cls == "other"
        assert stats.home == -1

    def test_line_drop(self):
        rec = FlightRecorder()
        rec.line_drop(0x99, 0, dirty=True)  # unseen line: no-op
        assert 0x99 not in rec.lines
        rec.line_event(0.0, 0x99, FakeRegion("pool", 0), 0, True, "dram_local", 10.0)
        rec.line_drop(0x99, 0, dirty=True)
        rec.line_drop(0x99, 1, dirty=False)
        stats = rec.lines[0x99]
        assert stats.drops == 2
        assert stats.dirty_drops == 1

    def test_packet_sampling_and_caps(self):
        rec = FlightRecorder(sample_every=3, max_packets=2)
        assert rec.want(0) and not rec.want(1) and rec.want(3)
        assert rec.packet_begin(0, 10.0)
        assert not rec.packet_begin(0, 11.0)  # duplicate
        assert rec.packet_begin(3, 12.0)
        assert not rec.packet_begin(6, 13.0)  # past max_packets
        assert rec.tracked(3) and not rec.tracked(6)
        rec.packet_event(3, "rx_read", 99.0)  # overwritten by finish
        rec.packet_finish(3, 50.0)
        assert not rec.tracked(3)
        rec.packet_finish(3, 60.0)  # double finish: no-op
        assert rec.waterfalls.completed == 1
        assert rec.waterfalls.samples[0].total_ns == 38.0

    def test_report_enumerates_all_classes(self):
        rec = FlightRecorder()
        report = rec.report()
        assert report["schema"] == "repro.obs/flight-v1"
        assert set(report["classes"]) == set(REGION_CLASSES)
        assert report["thrash"] == []
        assert report["homing_audit"] == []


@pytest.fixture(scope="module")
def profile_run():
    return run_profile(icx(), InterfaceKind.CCNIC, n_packets=800, keep_waterfalls=16)


class TestProfileEndToEnd:
    def test_run_completes_and_samples(self, profile_run):
        assert profile_run.result.received == 800
        report = profile_run.report
        assert report["config"]["interface"] == "ccnic"
        assert report["waterfall"]["completed"] == 800
        assert report["waterfall"]["incomplete"] == 0

    def test_thrash_table_distinguishes_regions(self, profile_run):
        classes = profile_run.report["classes"]
        assert set(classes) == set(REGION_CLASSES)
        # CC-NIC loopback thrashes descriptor rings and the payload pool.
        assert classes["descriptor"]["lines"] > 0
        assert classes["descriptor"]["xfers"] > 0
        assert classes["payload"]["lines"] > 0
        assert classes["payload"]["xfers"] > 0
        regions = {entry["region"] for entry in profile_run.report["thrash"]}
        assert regions, "expected thrashing lines"

    def test_homing_audit_present(self, profile_run):
        audit = profile_run.report["homing_audit"]
        assert audit, "cross-socket traffic must produce audit entries"
        by_region = {entry["region"]: entry for entry in audit}
        # The payload pool sees reader-homed speculative reads in loopback.
        assert by_region["pool"]["flagged"]
        assert by_region["pool"]["reader_homed_specs"] > 0

    def test_waterfall_stage_sums_match_latency(self, profile_run):
        samples = profile_run.report["waterfall"]["samples"]
        assert samples
        for sample in samples:
            stage_sum = sum(duration for _name, duration in sample["stages"])
            assert stage_sum == pytest.approx(sample["total_ns"], abs=1e-6)
            assert sample["total_ns"] > 0
        # Sampled totals live inside the measured latency envelope.
        lat = profile_run.result.latency
        stats = profile_run.recorder.waterfalls
        assert stats._total_hist.minimum <= lat.maximum
        assert stats._total_hist.maximum >= lat.minimum

    def test_waterfall_stages_are_causal(self, profile_run):
        order = {name: i for i, name in enumerate(STAGES)}
        for sample in profile_run.report["waterfall"]["samples"]:
            indices = [order[name] for name, _ in sample["stages"]]
            assert indices == sorted(indices)

    def test_report_round_trips_and_rejects_foreign(self, profile_run, tmp_path):
        path = str(tmp_path / "flight.json")
        export_flight_json(profile_run.report, path)
        assert load_flight_json(path) == json.loads(json.dumps(profile_run.report))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"schema": "some/other-v1"}, fh)
        with pytest.raises(ValueError):
            load_flight_json(bad)
        with pytest.raises(ValueError):
            export_flight_json({"classes": {}}, str(tmp_path / "x.json"))

    def test_chrome_trace_merges_counter_tracks(self, profile_run, tmp_path):
        tracer = SpanTracer()
        span = tracer.begin("op", start_ns=10.0)
        tracer.end(span, 20.0)
        path = str(tmp_path / "trace.json")
        export_chrome_trace(tracer, path, flight=profile_run.recorder)
        with open(path) as fh:
            doc = json.load(fh)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "expected merged cross_socket_xfers counter track"
        assert counters[0]["name"] == "cross_socket_xfers"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


def _loopback_fingerprint(flight=None, tracer=None, n_packets=300):
    obs = Observability(flight=flight) if flight is not None else None
    setup = build_interface(icx(), InterfaceKind.CCNIC, obs=obs)
    if tracer is not None:
        with tracer.attach_fabric(setup.system.fabric):
            result = run_point(setup, 64, n_packets, inflight=32, obs=obs)
    else:
        result = run_point(setup, 64, n_packets, inflight=32, obs=obs)
    assert result.received == n_packets
    if flight is not None:
        assert flight.events_seen > 0
    return _fingerprint(_system_snapshot(setup.system))


class TestFingerprintInvariance:
    """Instrumented runs must be bit-identical to uninstrumented ones."""

    def test_recorder_attached_vs_detached(self):
        assert _loopback_fingerprint() == _loopback_fingerprint(
            flight=FlightRecorder()
        )


class TestSpanTracerFabricAudit:
    """S1: traced runs keep their fingerprints."""

    def test_traced_vs_untraced_fastpath(self):
        assert _loopback_fingerprint() == _loopback_fingerprint(tracer=SpanTracer())
