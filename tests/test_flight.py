"""Cache-line flight recorder + per-packet critical-path profiler."""

import json

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.analysis.perf import _fingerprint
from repro.shard.runner import _system_snapshot
from repro.analysis.profile import run_profile
from repro.obs import (
    FLIGHT_SCHEMA,
    STAGES,
    FlightRecorder,
    Observability,
    classify_region,
    export_chrome_trace,
    export_doc,
    load_doc,
)
from repro.obs.flight import REGION_CLASSES, transition_kinds
from repro.obs.waterfall import WaterfallStats, build_waterfall
from repro.platform import icx


class FakeRegion:
    def __init__(self, name, home):
        self.name = name
        self.home = home


class FakeAgent:
    def __init__(self, socket):
        self.socket = socket
        self.name = f"core{socket}"


S0, S1 = FakeAgent(0), FakeAgent(1)


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
            rec.line_event(float(i), 0x40 + i, region, S1, False, "dram_remote", 50.0)
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
        rec.line_event(0.0, 0x80, region, S0, True, "cache_remote_hitm", 100.0)
        rec.line_event(1.0, 0x80, region, S1, False, "cache_remote_spec", 120.0)
        rec.line_event(2.0, 0x80, region, S0, True, "cache_remote_hitm", 100.0)
        rec.line_event(3.0, 0x80, region, S0, False, "hit", 1.0)
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

    def test_transition_kinds_come_from_the_rule_table(self):
        cross, spec = transition_kinds()
        assert cross == {
            "upgrade_remote", "dram_remote", "cache_remote",
            "cache_remote_hitm", "cache_remote_spec", "cache_remote_spec_hitm",
        }
        assert spec == {"cache_remote_spec", "cache_remote_spec_hitm"}

    def test_unmapped_region_classified_other(self):
        rec = FlightRecorder()
        rec.line_event(0.0, 0x10, None, S0, False, "dram_local", 60.0)
        stats = rec.lines[0x10]
        assert stats.region == "<unmapped>"
        assert stats.cls == "other"
        assert stats.home == -1

    def test_line_drop(self):
        rec = FlightRecorder()
        rec.line_drop(0x99, 0, dirty=True)  # unseen line: no-op
        assert 0x99 not in rec.lines
        rec.line_event(0.0, 0x99, FakeRegion("pool", 0), S0, True, "dram_local", 10.0)
        rec.line_drop(0x99, 0, dirty=True)
        rec.line_drop(0x99, 1, dirty=False)
        stats = rec.lines[0x99]
        assert stats.drops == 2
        assert stats.dirty_drops == 1

    def test_packet_sampling_and_caps(self):
        # Packets are numbered in submission order, whatever their ids.
        rec = FlightRecorder(sample_every=3, max_packets=2)
        assert rec.packet_begin(500, 10.0)  # number 0: sampled
        assert not rec.packet_begin(500, 11.0)  # duplicate
        assert not rec.packet_begin(501, 11.0)  # number 1
        assert not rec.packet_begin(502, 11.0)  # number 2
        assert rec.packet_begin(503, 12.0)  # number 3: sampled
        for pkt_id in (504, 505):
            assert not rec.packet_begin(pkt_id, 12.5)
        assert not rec.packet_begin(506, 13.0)  # number 6: past max_packets
        assert rec.tracked(503) and not rec.tracked(506)
        rec.packet_event(503, "rx_read", 99.0)  # overwritten by finish
        rec.packet_finish(503, 50.0)
        assert not rec.tracked(503)
        rec.packet_finish(503, 60.0)  # double finish: no-op
        assert rec.waterfalls.completed == 1
        assert rec.waterfalls.samples[0].total_ns == 38.0
        assert rec.waterfalls.samples[0].pkt_id == 3

    def test_egress_closes_a_record_without_a_waterfall(self):
        rec = FlightRecorder()
        assert rec.packet_begin(7, 1.0) and rec.packet_begin(8, 2.0)
        rec.packet_event(7, "desc_write", 3.0)
        rec.packet_egress(7)
        rec.packet_egress(7)  # already closed: no-op
        rec.packet_egress(99)  # never tracked: no-op
        assert not rec.tracked(7) and rec.tracked(8)
        waterfall = rec.report()["waterfall"]
        assert (waterfall["completed"], waterfall["incomplete"], waterfall["egressed"]) == (0, 1, 1)
        assert waterfall["stages"] == {} and waterfall["samples"] == []

    def test_call_parents_only_its_own_agents_events(self):
        rec = FlightRecorder()
        region = FakeRegion("pool", 0)
        rec.line_event(0.0, 0x40, region, S0, False, "dram_local", 10.0)  # before
        first = rec.events_seen
        rec.line_event(1.0, 0x41, region, S0, True, "hit", 1.0)
        rec.line_event(2.0, 0x42, region, S1, False, "hit", 1.0)  # other agent
        rec.call(S0.name, "tx_burst", 5.0, 9.0, first, packets=2, accepted=2)
        rec.line_event(3.0, 0x43, region, S0, False, "hit", 1.0)  # after
        events = rec.to_chrome()["traceEvents"]
        call = next(e for e in events if e["ph"] == "X")
        assert (call["id"], call["ts"], call["dur"]) == (0, 0.005, 0.004)
        assert call["args"] == {"packets": 2, "accepted": 2}
        parents = [e["args"].get("parent") for e in events if e["ph"] == "i"]
        assert parents == [None, 0, None, None]
        kinds = [(e["name"], e["args"]["region"], e["args"]["op"])
                 for e in events if e["ph"] == "i"]
        assert kinds[:2] == [("dram_local", "pool", "read"), ("hit", "pool", "write")]

    def test_evicted_call_leaves_its_events_unparented(self):
        rec = FlightRecorder(line_capacity=2)
        region = FakeRegion("pool", 0)
        first = rec.events_seen
        for i in range(4):
            rec.line_event(float(i), 0x40 + i, region, S0, False, "hit", 1.0)
        rec.call(S0.name, "rx_burst", 0.0, 4.0, first, received=0)
        for _ in range(2):
            rec.call(S0.name, "rx_burst", 5.0, 6.0, rec.events_seen, received=0)
        events = rec.to_chrome()["traceEvents"]
        assert [e["id"] for e in events if e["ph"] == "X"] == [1, 2]
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["ts"] for e in instants] == [0.002, 0.003]
        assert all("parent" not in e["args"] for e in instants)

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
        export_doc(profile_run.report, path)
        assert load_doc(path, FLIGHT_SCHEMA) == json.loads(json.dumps(profile_run.report))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"schema": "some/other-v1"}, fh)
        with pytest.raises(ValueError):
            load_doc(bad, FLIGHT_SCHEMA)
        with pytest.raises(ValueError):
            export_doc({"classes": {}}, str(tmp_path / "x.json"))

    def test_chrome_trace_merges_counter_tracks(self, profile_run, tmp_path):
        path = str(tmp_path / "trace.json")
        export_chrome_trace(profile_run.recorder, path)
        with open(path) as fh:
            doc = json.load(fh)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "expected merged cross_socket_xfers counter track"
        assert counters[0]["name"] == "cross_socket_xfers"
        assert counters == profile_run.recorder.counter_tracks()
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


def _loopback_fingerprint(flight=None, n_packets=300):
    obs = Observability(flight=flight) if flight is not None else None
    setup = build_interface(icx(), InterfaceKind.CCNIC, obs=obs)
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


def _cli_trace(tmp_path, capsys, *argv):
    """Run one CLI command with ``--trace-out`` and load the trace."""
    from repro.cli import main

    path = tmp_path / "trace.json"
    assert main([*argv, "--trace-out", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())["traceEvents"]


def _tracks(events):
    """(pid, tid) -> track name, and the call events keyed by (pid, id)."""
    names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    calls = {(e["pid"], e["id"]): e for e in events if e["ph"] == "X"}
    return names, calls


def _calls_by_track(events):
    names, calls = _tracks(events)
    out = {}
    for call in calls.values():
        out.setdefault(names[(call["pid"], call["tid"])], set()).add(call["name"])
    return out


class TestChromeTrace:
    """The trace ``--trace-out`` builds from the flight recorder's rings."""

    @pytest.fixture(scope="class")
    def loopback_trace(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("trace") / "trace.json"
        assert main(["loopback", "--packets", "300", "--trace-out", str(path)]) == 0
        return json.loads(path.read_text())["traceEvents"]

    def test_calls_sit_on_their_agent_tracks(self, loopback_trace):
        assert _calls_by_track(loopback_trace) == {
            "host-q0": {"tx_burst", "rx_burst"},
            "nic-q0": {"nic_tx", "nic_rx"},
        }

    def test_instants_are_parented_by_calls_on_their_track(self, loopback_trace):
        names, calls = _tracks(loopback_trace)
        instants = [e for e in loopback_trace if e["ph"] == "i"]
        assert {names[(e["pid"], e["tid"])] for e in instants} == {"host-q0", "nic-q0"}
        parented = [e for e in instants if "parent" in e["args"]]
        assert parented
        for event in parented:
            call = calls[(event["pid"], event["args"]["parent"])]
            assert call["tid"] == event["tid"]
        # The NIC's payload bursts (access_burst) are traced line by line
        # under the calls that issued them.
        payload_parents = {
            calls[(e["pid"], e["args"]["parent"])]["name"]
            for e in parented if e["args"]["region"] == "pool"
        }
        assert {"nic_tx", "nic_rx"} <= payload_parents

    def test_pcie_driver_calls(self, tmp_path, capsys):
        events = _cli_trace(
            tmp_path, capsys, "loopback", "--interface", "e810", "--packets", "200"
        )
        tracks = _calls_by_track(events)
        assert tracks == {"host-E810-q0": {"tx_burst", "rx_burst"}}
        rx = [e for e in events if e["ph"] == "X" and e["name"] == "rx_burst"]
        assert set(rx[0]["args"]) == {"max_packets", "received"}

    def test_two_point_study_traces_each_point_as_a_process(self, tmp_path, capsys):
        events = _cli_trace(tmp_path, capsys, "kv", "--ops", "300")
        names, calls = _tracks(events)
        pids = {}
        for call in calls.values():
            track = names[(call["pid"], call["tid"])]
            if call["name"] in ("tx_burst", "rx_burst"):
                pids.setdefault(track, set()).add(call["pid"])
        assert set(pids) == {"host-CX6-q0", "host-q0"}
        assert len(pids["host-CX6-q0"] | pids["host-q0"]) == 2
        assert all(len(p) == 1 for p in pids.values())

    def test_overflowing_rings_still_export(self, tmp_path):
        recorder = FlightRecorder(line_capacity=64)
        _loopback_fingerprint(flight=recorder)
        assert recorder.events_dropped > 0 and recorder.calls_seen > 64
        doc = recorder.to_chrome()
        json.dumps(doc)
        events = doc["traceEvents"]
        assert sum(e["ph"] == "i" for e in events) == 64
        assert sum(e["ph"] == "X" for e in events) == 64
        ids = {e["id"] for e in events if e["ph"] == "X"}
        assert all(
            e["args"]["parent"] in ids
            for e in events if e["ph"] == "i" and "parent" in e["args"]
        )
        path = str(tmp_path / "trace.json")
        assert export_chrome_trace(recorder, path) == len(events)


class TestRunLocalIds:
    def test_same_command_twice_in_one_process(self, tmp_path, capsys):
        # The ids a report carries are the run's own: a second run in the
        # same interpreter writes the same files byte for byte.
        from repro.cli import main

        outputs = []
        for run in range(2):
            flight = tmp_path / f"flight{run}.json"
            trace = tmp_path / f"trace{run}.json"
            assert main([
                "loopback", "--packets", "1200",
                "--flight-out", str(flight), "--trace-out", str(trace),
            ]) == 0
            outputs.append((flight.read_bytes(), trace.read_bytes()))
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestApplicationStudies:
    @pytest.mark.parametrize("command", ["kv", "rpc"])
    def test_every_response_record_closes_at_egress(self, tmp_path, capsys, command):
        # Responses leave through the NIC's transmit sink to modelled
        # clients; none comes back to a host rx_read.
        from repro.cli import main

        path = tmp_path / "flight.json"
        assert main([command, "--ops", "300", "--flight-out", str(path)]) == 0
        capsys.readouterr()
        waterfall = load_doc(str(path), FLIGHT_SCHEMA)["waterfall"]
        assert waterfall["incomplete"] == 0
        assert waterfall["egressed"] == 300
        assert waterfall["completed"] == 0 and waterfall["stages"] == {}
