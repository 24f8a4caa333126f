"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("loopback", "microbench", "counters", "kv", "rpc", "table1"):
            args = parser.parse_args([command] if command != "loopback"
                                     else ["loopback", "--packets", "10"])
            assert args.command == command

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["loopback", "--platform", "haswell"])

    def test_unknown_interface_rejected(self):
        with pytest.raises(SystemExit):
            main(["loopback", "--interface", "rdma"])


#: Bad input that ended in a traceback, or was silently accepted.
BAD_ARGV = [
    pytest.param(["loopback", "--packets", "0"], id="loopback-packets-0"),
    pytest.param(["loopback", "--inflight", "0"], id="loopback-inflight-0"),
    pytest.param(["loopback", "--rate", "-1"], id="loopback-rate-negative"),
    pytest.param(["loopback", "--size", "0"], id="loopback-size-0"),
    pytest.param(["loopback", "--batch", "0"], id="loopback-batch-0"),
    pytest.param(["loopback", "--latency-factor", "0"], id="loopback-latency-factor-0"),
    pytest.param(["profile", "--sample-every", "0"], id="profile-sample-every-0"),
    pytest.param(["timeline", "--quick", "--workers", "0"], id="timeline-workers-0"),
    pytest.param(["timeline", "--quick", "--workers", "1", "--interval", "0"],
                 id="timeline-interval-0"),
    pytest.param(["loopback", "--packets", "50", "--fault-plan", "README.md"],
                 id="loopback-malformed-fault-plan"),
    pytest.param(["timeline", "--load", "missing.json"], id="timeline-load-missing"),
    pytest.param(["timeline", "--load", "README.md"], id="timeline-load-not-json"),
    pytest.param(["timeline", "--load", "metrics.json"], id="timeline-load-foreign-schema"),
    pytest.param(["perf", "--quick", "--repeat", "0", "--scenario", "loopback_64b",
                  "--compare", "none", "--out", "bench.json"], id="perf-repeat-0"),
    pytest.param(["loopback", "--packets", "50", "--shards", "0"], id="loopback-shards-0"),
]


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_ARGV)
    def test_ends_in_one_error_line(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "README.md").write_text("# not JSON\n")
        (tmp_path / "metrics.json").write_text(
            '{"schema": "repro.obs/metrics-v1", "metrics": {}}\n'
        )
        with pytest.raises(SystemExit) as info:
            main(argv)
        code = info.value.code
        if isinstance(code, str):
            # The main() boundary: one "error: ..." message.
            assert code.startswith("error: ")
        else:
            # argparse: a usage line, then one "error:" line.
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err[0].startswith("usage:")
            assert "error: argument" in err[-1]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Sapphire Rapids UPI" in out
        assert "192" in out

    def test_loopback_small(self, capsys):
        assert main(["loopback", "--packets", "300", "--inflight", "8",
                     "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "min latency" in out
        assert "ccnic" in out

    def test_loopback_open_loop(self, capsys):
        assert main(["loopback", "--packets", "400", "--rate", "2.0",
                     "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "throughput [Mpps]" in out

    def test_counters(self, capsys):
        assert main(["counters", "--packets", "600"]) == 0
        out = capsys.readouterr().out
        assert "read" in out

    def test_loopback_same_socket(self, capsys):
        assert main(["loopback", "--packets", "300", "--inflight", "4",
                     "--batch", "4", "--same-socket"]) == 0
        assert "loopback" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, title", [
        pytest.param(["rpc", "--ops", "300"], "TCP echo RPC (TAS-like) on icx", id="rpc"),
        pytest.param(["forwarding", "--packets", "400"],
                     "Middlebox forwarding over CC-NIC (1500B, icx)", id="forwarding"),
        pytest.param(["microbench"], "Fig 7 access latency (icx)", id="microbench"),
    ])
    def test_study_command_runs_and_repeats(self, capsys, argv, title):
        # Each drives an app loop (TAS echo, forwarding, pingpong)
        # through the engine; a rerun must print the same table.
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert title in outs[0].splitlines()
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("interface", ["ccnic", "e810"])
    def test_faults_conserves_packets_and_repeats(self, capsys, tmp_path, interface):
        # The canned plan on a small run. E810 charges its PCIe link
        # through Link.one_way and Link.occupy, CC-NIC its UPI link
        # through the fabric's plans.
        from repro.obs import METRICS_SCHEMA, load_doc

        path = str(tmp_path / "faults.json")
        runs = []
        for _ in range(2):
            assert main(["faults", "--packets", "400", "--interface", interface,
                         "--metrics-out", path]) == 0
            with open(path, "rb") as fh:
                runs.append((capsys.readouterr().out, fh.read()))
        assert runs[0] == runs[1]
        metrics = load_doc(path, METRICS_SCHEMA)["metrics"]
        traffic = metrics["trafficgen"]
        assert traffic["received"] + traffic["dropped"] == traffic["sent"] == 400
        assert metrics["faults"]["injected_link_delay"] > 0
        # Fault counts print as integers, like the other count rows.
        counts = [
            line.split() for line in runs[0][0].splitlines()
            if line.startswith(("injected_", "degraded_messages"))
        ]
        assert counts
        for row in counts:
            assert "." not in row[-1], row


class TestTelemetryFlags:
    def test_loopback_metrics_and_trace_out(self, capsys, tmp_path):
        from repro.obs import METRICS_SCHEMA, load_doc

        metrics_path = str(tmp_path / "m.json")
        trace_path = str(tmp_path / "t.json")
        assert main(["loopback", "--packets", "300", "--inflight", "8",
                     "--batch", "4", "--metrics-out", metrics_path,
                     "--trace-out", trace_path]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        metrics = load_doc(metrics_path, METRICS_SCHEMA)["metrics"]
        assert "fabric" in metrics and "trafficgen" in metrics
        assert metrics["trafficgen"]["received"] == 300.0
        import json
        with open(trace_path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"], "trace should contain events"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_loopback_metrics_csv(self, capsys, tmp_path):
        from repro.obs import load_metrics_csv

        path = str(tmp_path / "m.csv")
        assert main(["loopback", "--packets", "200", "--inflight", "4",
                     "--batch", "4", "--metrics-out", path]) == 0
        metrics = load_metrics_csv(path)
        assert "fabric" in metrics

    def test_counters_reads_registry(self, capsys, tmp_path):
        path = str(tmp_path / "c.json")
        assert main(["counters", "--packets", "400",
                     "--metrics-out", path]) == 0
        out = capsys.readouterr().out
        assert "read" in out
        from repro.obs import METRICS_SCHEMA, load_doc
        assert "fabric" in load_doc(path, METRICS_SCHEMA)["metrics"]


    def test_strict_violation_writes_only_the_sanitizer_report(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli
        from repro.errors import SanitizerError
        from repro.obs.export import SANITIZE_SCHEMA, load_doc

        def violate(*_args, **_kwargs):
            raise SanitizerError("consumed before its signal", rule="read-before-signal",
                                 addr=0x40, agents=("nic",), sim_time=12.0)

        monkeypatch.setattr(repro.cli, "run_point", violate)
        sanitize_path = tmp_path / "s.json"
        metrics_path = tmp_path / "m.json"
        assert main(["loopback", "--packets", "50", "--sanitize", "strict",
                     "--sanitize-out", str(sanitize_path),
                     "--metrics-out", str(metrics_path)]) == 2
        out = capsys.readouterr().out
        assert "SANITIZER: consumed before its signal" in out
        assert "addr:     0x40" in out
        report = load_doc(str(sanitize_path), SANITIZE_SCHEMA)
        assert report["strict"] and report["scenario"] == "loopback_cli_64b"
        assert not metrics_path.exists()


class TestProfileCommand:
    def test_profile_prints_tables(self, capsys):
        assert main(["profile", "--packets", "400", "--inflight", "16",
                     "--batch", "8", "--sample-every", "2", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Packet critical path" in out
        assert "Region-class thrash summary" in out
        assert "Top thrashing lines" in out
        assert "Homing audit" in out
        assert "Sample waterfall" in out

    def test_profile_flight_out(self, capsys, tmp_path):
        from repro.obs import FLIGHT_SCHEMA, load_doc

        path = str(tmp_path / "flight.json")
        assert main(["profile", "--packets", "300", "--inflight", "8",
                     "--batch", "4", "--flight-out", path]) == 0
        report = load_doc(path, FLIGHT_SCHEMA)
        assert report["config"]["interface"] == "ccnic"
        assert set(report["classes"]) == {
            "descriptor", "signal", "payload", "pool_meta", "other"}
        assert report["waterfall"]["completed"] == 300

    def test_loopback_flight_out(self, capsys, tmp_path):
        from repro.obs import FLIGHT_SCHEMA, load_doc

        path = str(tmp_path / "flight.json")
        assert main(["loopback", "--packets", "300", "--inflight", "8",
                     "--batch", "4", "--flight-out", path]) == 0
        report = load_doc(path, FLIGHT_SCHEMA)
        assert report["config"]["command"] == "loopback"
        assert report["line_events"]["seen"] > 0


class TestValidateCommand:
    def test_fast_validate(self, capsys):
        assert main(["validate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "calibration OK" in out
        assert "fig7" in out


class TestShardedCli:
    def test_loopback_sharded(self, capsys):
        assert main(["loopback", "--packets", "400", "--inflight", "8",
                     "--batch", "4", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded loopback" in out
        assert "merged fingerprint" in out
        assert "received packets" in out

    def test_loopback_sharded_rejects_per_process_flags(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["loopback", "--packets", "400", "--shards", "2",
                  "--trace-out", str(tmp_path / "trace.json")])
        with pytest.raises(SystemExit):
            main(["loopback", "--packets", "400", "--shards", "2",
                  "--same-socket"])

    def test_loopback_sharded_metrics_out(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "metrics.json")
        assert main(["loopback", "--packets", "400", "--inflight", "8",
                     "--batch", "4", "--shards", "2",
                     "--metrics-out", path]) == 0
        doc = json.loads(open(path).read())
        assert "fabric" in doc["metrics"]

    def test_kv_sharded_requires_single_interface(self, capsys):
        # The default --interface both compares interfaces in one process;
        # a sharded run needs a single concrete interface.
        with pytest.raises(SystemExit):
            main(["kv", "--shards", "2", "--ops", "200"])

    def test_kv_sharded_with_ops_alias(self, capsys):
        assert main(["kv", "--shards", "2", "--interface", "ccnic",
                     "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "merged fingerprint" in out

    def test_perf_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["perf", "--quick", "--scenario", "bogus"])

    def test_perf_unknown_register_module_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["perf", "--quick", "--register", "no.such.module"])

    def test_perf_runs_registered_scenario(self, capsys, tmp_path, monkeypatch):
        import sys

        from repro.shard import scenario_names, unregister_scenario

        (tmp_path / "cli_custom_scn.py").write_text(
            "from repro.shard import ScenarioSpec, register_scenario\n"
            "register_scenario(ScenarioSpec(\n"
            "    name='cli_custom', n_packets=240, n_packets_quick=120,\n"
            "    shards=2))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            assert main(["perf", "--quick", "--register", "cli_custom_scn",
                         "--scenario", "cli_custom", "--compare", "none",
                         "--out", str(tmp_path / "bench.json")]) == 0
            out = capsys.readouterr().out
            assert "cli_custom" in out
        finally:
            unregister_scenario("cli_custom")
            sys.modules.pop("cli_custom_scn", None)
        assert "cli_custom" not in scenario_names()


class TestCheckCommand:
    def test_lint_self_host_clean(self, capsys):
        assert main(["check"]) == 0
        assert "Lint summary" in capsys.readouterr().out

    def test_model_full_coverage_and_report(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        assert main(["check", "--model", "--model-out", path]) == 0
        out = capsys.readouterr().out
        assert "RESULT: ok" in out
        from repro.obs.export import MODEL_SCHEMA, load_doc

        report = load_doc(path, MODEL_SCHEMA)
        assert report["kind"] == "model"
        assert report["coverage"]["reached"] == report["coverage"]["total"]

    def test_mutation_must_be_caught(self, capsys):
        assert main(["check", "--mutate", "skip-hitm-forward"]) == 0
        out = capsys.readouterr().out
        assert "caught" in out
        assert "reproduces on replay" in out

    def test_unknown_mutation_rejected(self, capsys):
        assert main(["check", "--mutate", "grow-extra-cache"]) == 2
        assert "unknown mutation" in capsys.readouterr().out

    def test_explore_smoke(self, capsys):
        assert main(["check", "--explore",
                     "--explore-scenario", "loopback_64b",
                     "--explore-ops", "16"]) == 0
        out = capsys.readouterr().out
        assert "schedule exploration" in out
        assert "RESULT: ok" in out
