"""Smoke coverage for the self-benchmarking harness.

CI's perf-smoke job runs ``python -m repro perf --quick`` directly;
these tests cover the same plumbing from pytest so a broken harness
fails fast locally too.
"""

import json

import repro.topology  # noqa: F401  registers the rack topology scenarios
from repro.analysis import perf


def test_quick_loopback_meets_committed_floor(tmp_path):
    doc = perf.run_suite(["loopback_64b"], quick=True, repeat=2)
    entry = doc["scenarios"]["loopback_64b"]
    # A single-process run has no rerun to compare against.
    assert "deterministic" not in entry and "single_process" not in entry
    assert entry["events"] > 0
    path = perf.write_bench(doc, str(tmp_path / "BENCH_sim_perf.json"))
    reread = json.load(open(path))
    assert reread["scenarios"]["loopback_64b"]["fingerprint"] == entry["fingerprint"]
    baseline = perf.load_baseline()
    assert baseline is not None, "benchmarks/perf/baseline.json must be committed"
    assert perf.check_regression(doc, baseline) == []


def test_check_regression_flags_slowdowns_and_divergence():
    doc = {
        "scenarios": {
            "loopback_64b": {
                "events_per_sec": 100.0,
                "deterministic": False,
                "fingerprint": "aaaa",
                "single_process": {"fingerprint": "bbbb"},
            }
        }
    }
    baseline = {"scenarios": {"loopback_64b": {"events_per_sec": 1000.0}}}
    failures = perf.check_regression(doc, baseline, tolerance=0.30)
    assert len(failures) == 2
    assert any("below the regression floor" in msg for msg in failures)
    assert any("different metric fingerprints" in msg for msg in failures)
    # At-tolerance throughput with matching fingerprints passes.
    ok = {
        "scenarios": {
            "loopback_64b": {"events_per_sec": 701.0, "deterministic": True}
        }
    }
    assert perf.check_regression(ok, baseline, tolerance=0.30) == []


def test_quick_sharded_run_matches_single_process():
    doc = perf.run_suite(
        ["loopback_64b"], quick=True, compare=("loopback_64b",), shards=2
    )
    entry = doc["scenarios"]["loopback_64b"]
    assert doc["shards"] == 2
    assert entry["n_shards"] == 8  # partition is fixed by the scenario
    assert entry["deterministic"] is True
    assert entry["single_process"]["fingerprint"] == entry["fingerprint"]
    baseline = perf.load_baseline()
    assert baseline is not None
    assert perf.check_regression(doc, baseline) == []


def test_quick_rack_kv_sharded_matches_single_process():
    doc = perf.run_suite(
        ["kv_rack_zipf"], quick=True, compare=("kv_rack_zipf",), shards=2
    )
    entry = doc["scenarios"]["kv_rack_zipf"]
    assert entry["n_shards"] == 8  # one shard per rack host
    assert entry["deterministic"] is True
    assert entry["single_process"]["fingerprint"] == entry["fingerprint"]
    # Per-edge fabric counters ride along in the BENCH document.
    assert entry["topology"]["h0~tor0:0:messages"] > 0
    baseline = perf.load_baseline()
    assert baseline is not None
    assert perf.check_regression(doc, baseline) == []


def test_check_regression_prefers_sharded_floor():
    baseline = {
        "scenarios": {
            "loopback_64b": {
                "events_per_sec": 1000.0,
                "sharded": {"events_per_sec": 400.0},
            }
        }
    }
    sharded = {"shards": 2, "scenarios": {"loopback_64b": {"events_per_sec": 350.0}}}
    assert perf.check_regression(sharded, baseline, tolerance=0.30) == []
    single = {"shards": 1, "scenarios": {"loopback_64b": {"events_per_sec": 350.0}}}
    assert len(perf.check_regression(single, baseline, tolerance=0.30)) == 1
