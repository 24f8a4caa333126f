"""Command-line interface: ``python -m repro <command>``.

Commands mirror the measurement tooling used throughout the evaluation:

``loopback``
    Run a loopback measurement on one interface and print latency and
    throughput (closed-loop or offered-rate).
``microbench``
    Print the §2.2/§3.2 microbenchmark tables (Figs 2, 3, 7, 8).
``counters``
    Run a batched loopback and print per-packet coherence-transaction
    counts (Fig 17 style).
``kv`` / ``rpc``
    Run the application studies and print thread-count results.
``profile``
    Run an instrumented loopback with the cache-line flight recorder
    attached and print the per-packet critical-path waterfall plus the
    region-classified thrash tables.
``table1``
    Print the interconnect bandwidth comparison.
``faults``
    Run a fault-injection loopback (canned or file-supplied plan) and
    print the injection and recovery summary.
``timeline``
    Run a registered scenario sharded (or load an exported document)
    and render every windowed series as a sparkline table plus the
    watchdog findings. Run-shaped commands grow the same telemetry via
    ``--timeline-out``/``--timeline-interval``.
``check``
    Run the static determinism/protocol-hygiene linter over the source
    tree (``repro.check``). The runtime half of the suite attaches to
    loopback/kv/rpc runs via ``--sanitize`` / ``--sanitize strict``.
"""


from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro.analysis import InterfaceKind, format_table
from repro.analysis.loopback import build_interface, run_point, wire_bytes_per_packet
from repro.core.recovery import RecoveryPolicy
from repro.errors import ConfigError, FaultError, SanitizerError, WorkloadError
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.obs import (
    OBS_OFF,
    TIMELINE_SCHEMA,
    FlightRecorder,
    MetricRegistry,
    Observability,
    SpanTracer,
    export_chrome_trace,
    export_doc,
    export_metrics_csv,
    load_doc,
    metrics_doc,
)
from repro.obs.timeline import DEFAULT_INTERVAL_NS
from repro.analysis.microbench import (
    PINGPONG_CASES,
    access_latency_cases,
    mmio_read_latency,
    pingpong,
    wc_store_latency,
    wc_write_throughput,
)
from repro.platform import PLATFORMS, table1_rows


def _positive(convert):
    """An argparse type: a number parsed by ``convert`` that must be > 0.

    argparse turns the ``ValueError`` of a malformed or non-positive
    value into a usage error naming the flag ("invalid positive int
    value: '0'").
    """

    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise ConfigError(f"{text} is not positive")
        return value

    parse.__name__ = f"positive {convert.__name__}"
    return parse


#: Types of every count, size, rate, factor and interval flag.
_COUNT = _positive(int)
_AMOUNT = _positive(float)


def _kind(name: str) -> InterfaceKind:
    try:
        return InterfaceKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in InterfaceKind)
        raise ConfigError(f"unknown interface {name!r} (use one of: {choices})") from None


def _check_writable(path: Optional[str]) -> None:
    """Fail fast on an unwritable destination rather than after the run."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise SystemExit(f"error: cannot write {path!r}: no such directory {parent!r}")


# ----------------------------------------------------------------------
# Observability bundle and reports (shared by every run command)
# ----------------------------------------------------------------------
def _make_obs(
    args: argparse.Namespace, force_metrics: bool = False
) -> Optional[Observability]:
    """Build the command's one observability bundle, or None when disabled.

    Metrics, tracer, flight recorder, sanitizer and timeline all ride
    this bundle (``--metrics-out``, ``--trace-out``, ``--flight-out``,
    ``--sanitize``/``--sanitize-out``, ``--timeline-out``); it is the
    ``obs=`` every run function takes.
    """
    flight_out = getattr(args, "flight_out", None)
    sanitize = getattr(args, "sanitize", None)
    sanitize_out = getattr(args, "sanitize_out", None)
    for path in (args.metrics_out, args.trace_out, flight_out, sanitize_out,
                 args.timeline_out):
        _check_writable(path)
    members = {}
    if force_metrics or args.metrics_out is not None:
        members["metrics"] = MetricRegistry()
    if args.trace_out is not None:
        members["tracer"] = SpanTracer()
    if flight_out is not None:
        members["flight"] = FlightRecorder()
    if sanitize is not None or sanitize_out is not None:
        from repro.check import Sanitizer

        members["sanitizer"] = Sanitizer(strict=sanitize == "strict")
    if args.timeline_out is not None:
        from repro.obs.timeline import TimelineSampler

        members["timeline"] = TimelineSampler(interval_ns=args.timeline_interval)
    return Observability(**members) if members else None


def _write_reports(
    args: argparse.Namespace,
    obs: Optional[Observability],
    config: dict,
    scenario: str,
    metrics: Optional[dict] = None,
    timeline: Optional[dict] = None,
    flight: Optional[dict] = None,
) -> int:
    """Write every report the run's flags ask for and print the sanitizer's.

    In-process runs pass their bundle and each report is read from it;
    ``--shards`` runs pass no bundle but the merged ``metrics`` snapshot
    and ``timeline`` document, and ``profile`` passes its finished
    ``flight`` report. ``config`` and ``scenario``, with the spec
    fingerprint of ``config``, are the run identity that stamps the
    flight and sanitizer reports. Returns 1 when the sanitizer found
    violations, else 0.
    """
    from repro.obs.timeline import run_watchdogs
    from repro.shard.merge import fingerprint

    merged = "merged " if obs is None else ""
    obs = obs or OBS_OFF
    stamp = {"config": config, "scenario": scenario,
             "spec_fingerprint": fingerprint(config)}
    if args.metrics_out and (metrics is not None or obs.metrics.enabled):
        if metrics is None:
            metrics = obs.metrics.snapshot()
        if args.metrics_out.endswith(".csv"):
            export_metrics_csv(metrics, args.metrics_out)
        else:
            export_doc(metrics_doc(metrics), args.metrics_out)
        count = sum(len(section) for section in metrics.values())
        print(f"wrote {count} {merged}metrics to {args.metrics_out}")
    if args.trace_out and obs.tracer.enabled:
        events = export_chrome_trace(
            obs.tracer, args.trace_out, flight=obs.flight, timeline=obs.timeline
        )
        print(f"wrote {events} trace events to {args.trace_out}")
    flight_out = getattr(args, "flight_out", None)
    if flight_out and (flight is not None or obs.flight is not None):
        export_doc(flight or obs.flight.report(**stamp), flight_out)
        print(f"wrote flight report to {flight_out}")
    if args.timeline_out and (timeline is not None or obs.timeline is not None):
        if timeline is None:
            timeline = obs.timeline.to_doc()
            timeline["scenario"] = scenario
            timeline["findings"] = run_watchdogs(timeline)
        export_doc(timeline, args.timeline_out)
        print(f"wrote {merged}timeline ({timeline['windows']} window(s), "
              f"{len(timeline['findings'])} finding(s)) to {args.timeline_out}")
    if obs.sanitizer is None:
        return 0
    from repro.analysis.checks import format_rule_summary, format_violation_table

    report = obs.sanitizer.report(**stamp)
    print()
    print(format_rule_summary(report))
    if report["findings"]:
        print()
        print(format_violation_table(report))
    if args.sanitize_out:
        export_doc(report, args.sanitize_out)
        print(f"wrote sanitizer report to {args.sanitize_out}")
    return 1 if report["total"] else 0


def _sanitizer_failed(exc, args, obs, config: dict, scenario: str) -> int:
    """A strict run stopped at its first violation: print it, write the
    sanitizer report alone, and exit 2."""
    print(f"SANITIZER: {exc}")
    print(f"  rule:     {exc.rule}")
    if exc.addr is not None:
        print(f"  addr:     {exc.addr:#x}")
    if exc.agents:
        print(f"  agents:   {', '.join(exc.agents)}")
    if exc.sim_time is not None:
        print(f"  sim time: {exc.sim_time:.1f} ns")
    _write_reports(args, Observability(sanitizer=obs.sanitizer), config, scenario)
    return 2


#: Sparkline ramp: blank for zero, full block for the series maximum.
_SPARK = " ▁▂▃▄▅▆▇█"


def _sparkline(values: list, width: int = 60) -> str:
    """One series as a unicode sparkline, bucket-averaged down to width."""
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        buckets = []
        for i in range(width):
            lo = int(i * step)
            hi = max(lo + 1, int((i + 1) * step))
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        values = buckets
    top = max(values)
    if top <= 0:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / top
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int(v * scale + 0.5))] for v in values
    )


def _timeline_rows(doc: dict) -> list:
    """``(series, last, max, sparkline)`` rows for every timeline series.

    Histogram series expand to ``.count`` and ``.p99`` rows (empty
    windows render as zero so the sparkline keeps its time axis).
    """
    def fmt(value):
        return f"{value:.4g}"

    rows = []
    for kind in ("counters", "gauges"):
        for name, values in sorted(doc.get(kind, {}).items()):
            if not values:
                continue
            rows.append((name, fmt(values[-1]), fmt(max(values)),
                         _sparkline(values)))
    for name, points in sorted(doc.get("histograms", {}).items()):
        counts = [p["count"] if p else 0 for p in points]
        p99s = [p["p99"] if p else 0.0 for p in points]
        if not counts:
            continue
        rows.append((f"{name}.count", fmt(counts[-1]), fmt(max(counts)),
                     _sparkline(counts)))
        rows.append((f"{name}.p99", fmt(p99s[-1]), fmt(max(p99s)),
                     _sparkline(p99s)))
    return rows


def _findings_rows(findings: list) -> list:
    return [
        (f["rule"], f["series"], f["window"],
         f"{f['value']:.4g}", f"{f['threshold']:.4g}", f["detail"])
        for f in findings
    ]


# ----------------------------------------------------------------------
# Fault injection (shared by loopback / faults / kv / rpc)
# ----------------------------------------------------------------------
def _make_faults(args: argparse.Namespace):
    """Build (injector, recovery) from the fault args, or (None, None)."""
    if args.fault_plan is None:
        return None, None
    plan = FaultPlan.load(args.fault_plan)
    only = getattr(args, "only", None)
    if only:
        plan = plan.restricted(only)
        if not len(plan):
            raise SystemExit(f"error: plan has no events of kind(s) {only}")
    return FaultInjector(plan, seed=args.fault_seed), RecoveryPolicy()


def _fault_summary_rows(setup, result, faults) -> list:
    rows = [
        ("dropped packets", result.dropped),
        ("faults injected", faults.total_injected()),
    ]
    for kind, value in sorted(faults.counters.snapshot().items()):
        rows.append((kind, value))
    driver = setup.driver
    rows += [
        ("tx retries", driver.tx_retries),
        ("tx timeouts", driver.tx_timeouts),
        ("watchdog resets", driver.watchdog_resets),
    ]
    return rows


# ----------------------------------------------------------------------
# Run bodies: one loopback point (loopback / faults / counters), one
# sharded run (loopback / kv --shards), one thread study (kv / rpc)
# ----------------------------------------------------------------------
def _point_config(args: argparse.Namespace) -> dict:
    """The run identity of one loopback point (stamps its reports)."""
    return {
        "command": args.command, "platform": args.platform,
        "interface": args.interface, "pkt_size": args.size,
        "n_packets": args.packets,
    }


def _loopback_point(args: argparse.Namespace, obs, faults=None, recovery=None,
                    **build_kwargs):
    """Build ``--interface`` on ``--platform`` and run one loopback point.

    The fabric's coherence instants are traced while ``--trace-out`` is
    on, and the timeline's trailing window closes at the run's end.
    Returns ``(setup, result)``.
    """
    setup = build_interface(
        PLATFORMS[args.platform](), _kind(args.interface), obs=obs,
        faults=faults, **build_kwargs,
    )
    rate = getattr(args, "rate", None)
    tracing = (
        obs.tracer.attach_fabric(setup.system.fabric)
        if obs is not None and obs.tracer.enabled else contextlib.nullcontext()
    )
    with tracing:
        result = run_point(
            setup,
            pkt_size=args.size,
            n_packets=args.packets,
            inflight=None if rate else args.inflight,
            offered_mpps=rate,
            tx_batch=args.batch,
            rx_batch=args.batch,
            obs=obs,
            recovery=recovery,
        )
    if obs is not None and obs.timeline is not None:
        obs.timeline.finish(setup.system.sim.now)
    return setup, result


#: Per-process flags a ``--shards`` run cannot carry into its worker
#: processes: flag -> (argparse dest, the default it must keep).
_PER_PROCESS_FLAGS = {
    "--same-socket": ("same_socket", False),
    "--latency-factor": ("latency_factor", 1.0),
    "--bandwidth-factor": ("bandwidth_factor", 1.0),
    "--trace-out": ("trace_out", None),
    "--flight-out": ("flight_out", None),
    "--sanitize": ("sanitize", None),
    "--sanitize-out": ("sanitize_out", None),
}


def _run_sharded(args: argparse.Namespace, title: str, head: tuple,
                 tail: tuple = (), **fields) -> int:
    """Run one ``ScenarioSpec`` over ``--shards`` worker processes.

    ``fields`` complete the spec from the command's flags; ``head`` and
    ``tail`` are ``(label, key)`` rows of the merged document printed
    around the shared sharding summary.
    """
    from repro.shard import ScenarioSpec, run_sharded

    _kind(args.interface)  # validate before the spec does
    for flag, (dest, default) in _PER_PROCESS_FLAGS.items():
        if getattr(args, dest, default) != default:
            raise SystemExit(f"error: {flag} is not supported with --shards")
    _check_writable(args.metrics_out)
    _check_writable(args.timeline_out)
    spec = ScenarioSpec(
        platform=args.platform,
        interface=args.interface,
        tx_batch=args.batch,
        fault_plan=args.fault_plan,
        fault_seed=args.fault_seed,
        shards=args.shards,
        **fields,
    ).validate()
    run = run_sharded(
        spec, with_metrics=args.metrics_out is not None, progress=print,
        timeline_interval=(
            args.timeline_interval if args.timeline_out is not None else None
        ),
        heartbeat_s=args.heartbeat,
    )
    merged = run.doc["merged"]
    rows = [(label, merged[key]) for label, key in head] + [
        ("shards", run.n_shards),
        ("workers", run.workers),
        ("lookahead [ns]", run.lookahead_ns),
        ("events", run.events),
        ("sim time [ns]", run.sim_ns),
        ("median latency [ns]", merged.get("median_ns", float("nan"))),
        ("p99 latency [ns]", merged.get("p99_ns", float("nan"))),
        ("merged fingerprint", run.fingerprint),
    ] + [(label, merged.get(key, 0)) for label, key in tail]
    print(format_table(["Metric", "Value"], rows, title=title))
    return _write_reports(args, None, spec.to_doc(), spec.name,
                          metrics=run.metrics, timeline=run.timeline)


def _thread_study(args: argparse.Namespace, study, threads_header: str,
                  title: str, config: dict, scenario: str) -> int:
    """Run ``study(kind, obs, faults)`` per comparison point (kv / rpc).

    ``--interface both`` runs the CX6 and CC-NIC points; ``study``
    returns each point's (per-thread Mops, peak Mops, threads) row.
    """
    obs = _make_obs(args)
    if args.interface == "both":
        kinds = (InterfaceKind.CX6, InterfaceKind.CCNIC)
    else:
        kinds = (_kind(args.interface),)
    rows = []
    for kind in kinds:
        point_obs = obs
        if obs is not None and not kind.is_coherent and len(kinds) > 1:
            # Observers cover one system only (the coherent point):
            # mixing line addresses or windowed series from two systems
            # would corrupt the thrash table, the happens-before state
            # and the per-series rings. Metrics and the tracer cover both.
            point_obs = obs.replace(flight=None, sanitizer=None, timeline=None)
        # Fresh injector per comparison point: one-shot NIC events and
        # the RNG stream must not be shared between the two systems.
        faults, _recovery = _make_faults(args)
        try:
            rows.append((kind.value, *study(kind, point_obs, faults)))
        except SanitizerError as exc:
            return _sanitizer_failed(exc, args, obs, config, scenario)
    print(format_table(
        ["Interface", "Per-thread [Mops]", "Peak [Mops]", threads_header],
        rows,
        title=title,
    ))
    return _write_reports(args, obs, config, scenario)


# ----------------------------------------------------------------------
def cmd_loopback(args: argparse.Namespace) -> int:
    if args.shards is not None and args.shards > 1:
        return _run_sharded(
            args,
            f"{args.interface} sharded loopback, {args.size}B packets "
            f"on {args.platform}",
            head=(("received packets", "received"),
                  ("dropped packets", "dropped"),
                  ("throughput [Mpps]", "mpps")),
            tail=(
                (("faults injected", "injected"),)
                if args.fault_plan is not None else ()
            ),
            name=f"loopback_cli_{args.size}b",
            workload="loopback",
            pkt_size=args.size,
            n_packets=args.packets,
            inflight=None if args.rate else args.inflight,
            offered_mpps=args.rate,
            rx_batch=args.batch,
        )
    obs = _make_obs(args)
    faults, recovery = _make_faults(args)
    config = _point_config(args)
    scenario = f"loopback_cli_{args.size}b"
    try:
        setup, result = _loopback_point(
            args, obs, faults, recovery,
            same_socket=args.same_socket,
            link_latency_factor=args.latency_factor,
            link_bandwidth_factor=args.bandwidth_factor,
        )
    except SanitizerError as exc:
        return _sanitizer_failed(exc, args, obs, config, scenario)
    d0, d1 = wire_bytes_per_packet(setup, result)
    rows = [
        ("received packets", result.received),
        ("throughput [Mpps]", result.mpps),
        ("throughput [Gbps]", result.gbps),
        ("min latency [ns]", result.latency.minimum),
        ("median latency [ns]", result.latency.median),
        ("p99 latency [ns]", result.latency.percentile(99)),
        ("wire bytes/pkt (dir0)", d0),
        ("wire bytes/pkt (dir1)", d1),
    ]
    if faults is not None:
        rows += _fault_summary_rows(setup, result, faults)
    print(format_table(
        ["Metric", "Value"],
        rows,
        title=f"{args.interface} loopback, {args.size}B packets on {args.platform}",
    ))
    return _write_reports(args, obs, config, scenario)


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection smoke run: canned plan, loopback, full summary."""
    obs = _make_obs(args)
    if args.fault_plan is None:
        args.fault_plan = "canned"
    faults, recovery = _make_faults(args)
    setup, result = _loopback_point(args, obs, faults, recovery)
    completed = result.received + result.dropped
    rows = [
        ("plan", faults.plan.name),
        ("fault seed", args.fault_seed),
        ("offered packets", args.packets),
        ("completed (rx+dropped)", completed),
        ("received packets", result.received),
        ("goodput [Mpps]", result.mpps),
        ("median latency [ns]", result.latency.median),
    ]
    rows += _fault_summary_rows(setup, result, faults)
    print(format_table(
        ["Metric", "Value"],
        rows,
        title=f"{args.interface} fault injection on {args.platform}",
    ))
    _write_reports(args, obs, _point_config(args), f"faults_cli_{faults.plan.name}")
    if completed < args.packets or result.received == 0:
        print("FAIL: run did not recover (incomplete window or zero goodput)")
        return 1
    return 0


def cmd_microbench(args: argparse.Namespace) -> int:
    spec = PLATFORMS[args.platform]()
    print(format_table(
        ["Access target", "Latency [ns]"],
        list(access_latency_cases(spec).items()),
        title=f"Fig 7 access latency ({spec.name})",
    ))
    print()
    print(format_table(
        ["Layout", "RTT [ns]"],
        [(case, pingpong(spec, case, 120).median) for case in PINGPONG_CASES],
        title="Fig 8 pingpong",
    ))
    print()
    print(format_table(
        ["Bytes/barrier", "WC MMIO", "WC DRAM", "WB DRAM"],
        [
            (size,
             wc_write_throughput(spec, "wc_mmio", size),
             wc_write_throughput(spec, "wc_dram", size),
             wc_write_throughput(spec, "wb_dram", size))
            for size in (64, 512, 4096)
        ],
        title="Fig 2 streaming-write throughput [Gbps]",
    ))
    print()
    points = dict(wc_store_latency(spec, "e810"))
    print(format_table(
        ["Stores", "Cumulative ns"],
        [(n, points[n]) for n in (8, 24, 32, 64)],
        title="Fig 3 WC store latency (E810)",
    ))
    print()
    lat = mmio_read_latency(spec)
    print(format_table(
        ["Load", "Latency [ns]"], list(lat.items()), title="MMIO reads"
    ))
    return 0


def cmd_counters(args: argparse.Namespace) -> int:
    # This command always runs with a live registry: the table below is
    # read from the registry's "fabric" section, not the fabric object.
    obs = _make_obs(args, force_metrics=True)
    setup, result = _loopback_point(args, obs)
    counters = obs.metrics.snapshot().get("fabric", {})
    nic = setup.system.nic_socket
    rows = [
        (name.split(".", 1)[1], counters[name] / result.received)
        for name in sorted(counters)
        if name.startswith(f"s{nic}.")
    ]
    print(format_table(
        ["NIC-socket transaction", "per packet"],
        rows,
        title=f"{args.interface} batched {args.size}B loopback "
              f"({result.received} packets)",
    ))
    return _write_reports(args, obs, _point_config(args),
                          f"counters_cli_{args.size}b")


def cmd_kv(args: argparse.Namespace) -> int:
    if args.shards is not None and args.shards > 1:
        if args.interface == "both":
            raise SystemExit(
                "error: --shards runs one comparison point; pick --interface "
                "ccnic/unopt/e810/cx6"
            )
        return _run_sharded(
            args,
            f"{args.interface} sharded KV store ({args.distribution}) "
            f"on {args.platform}",
            head=(("completed ops", "ops"), ("throughput [Mops]", "mops")),
            name=f"kv_cli_{args.distribution}",
            workload="kv",
            distribution=args.distribution,
            n_ops=args.packets,
        )
    from repro.apps.kvstore import KvWorkload, kv_thread_study

    spec = PLATFORMS[args.platform]()
    workload = KvWorkload.ads() if args.distribution == "ads" else KvWorkload.geo()

    def study(kind, obs, faults):
        point = kv_thread_study(
            spec, kind, workload, n_ops=args.packets, batch=args.batch,
            obs=obs, faults=faults,
        )
        return point.per_thread_mops, point.peak_mops, point.threads_to_saturate(spec)

    config = {
        "command": "kv", "platform": spec.name, "interface": args.interface,
        "distribution": args.distribution, "n_ops": args.packets,
    }
    return _thread_study(
        args, study, "Threads to saturate",
        f"KV store ({args.distribution}) on {spec.name}",
        config, f"kv_cli_{args.distribution}",
    )


def cmd_rpc(args: argparse.Namespace) -> int:
    from repro.apps.tas import rpc_thread_study

    spec = PLATFORMS[args.platform]()

    def study(kind, obs, faults):
        point = rpc_thread_study(
            spec, kind, n_ops=args.packets, batch=args.batch, obs=obs,
            faults=faults,
        )
        return point.per_thread_mops, point.peak_mops, point.threads_to_saturate()

    config = {
        "command": "rpc", "platform": spec.name, "interface": args.interface,
        "n_ops": args.packets,
    }
    return _thread_study(
        args, study, "Threads for 95%", f"TCP echo RPC (TAS-like) on {spec.name}",
        config, "rpc_cli",
    )


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.profile import (
        format_class_table,
        format_homing_audit,
        format_sample_waterfall,
        format_thrash_table,
        format_waterfall_table,
        run_profile,
    )

    kind = _kind(args.interface)
    obs = _make_obs(args)
    scenario = f"profile_cli_{kind.value}"
    run = run_profile(
        PLATFORMS[args.platform](),
        kind,
        pkt_size=args.size,
        n_packets=args.packets,
        inflight=args.inflight,
        tx_batch=args.batch,
        rx_batch=args.batch,
        sample_every=args.sample_every,
        top=args.top,
        obs=obs,
        scenario=scenario,
    )
    report = run.report
    print(
        f"{kind.value} profile on {args.platform}: {run.result.received} packets, "
        f"{run.result.mpps:.2f} Mpps, median latency "
        f"{run.result.latency.median:.0f} ns\n"
    )
    print(format_waterfall_table(report))
    print()
    print(format_class_table(report))
    print()
    print(format_thrash_table(report))
    print()
    print(format_homing_audit(report))
    print()
    print(format_sample_waterfall(report))
    # The trace's flight counter tracks come from the run's own recorder.
    obs = (obs or OBS_OFF).replace(flight=run.recorder)
    return _write_reports(args, obs, report["config"], scenario, flight=report)


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validate import validate_calibration

    report = validate_calibration(include_end_to_end=not args.fast)
    print(report.summary())
    if report.ok:
        print("\ncalibration OK")
        return 0
    print(f"\n{len(report.failures())} anchor(s) drifted")
    return 1


def cmd_forwarding(args: argparse.Namespace) -> int:
    from repro.apps.forwarding import forwarding_study

    spec = PLATFORMS[args.platform]()
    results = forwarding_study(spec, pkt_size=args.size, n_packets=args.packets)
    rows = [
        (mode, r.mpps, r.wire_bytes_per_pkt, r.latency.median)
        for mode, r in results.items()
    ]
    print(format_table(
        ["Mode", "Rate [Mpps]", "Wire bytes/pkt", "Median lat [ns]"],
        rows,
        title=f"Middlebox forwarding over CC-NIC ({args.size}B, {spec.name})",
    ))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    import importlib

    import repro.topology  # noqa: F401  registers the rack topology scenarios
    from repro.analysis import perf
    from repro.shard import scenario, scenario_names

    for module in args.register or ():
        # Imported for its register_scenario() side effects: the module's
        # scenarios become runnable by name like the built-ins.
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise SystemExit(f"error: cannot import --register {module!r}: {exc}")
    registered = scenario_names()
    scenarios = args.scenario or registered
    for name in scenarios:
        if name not in registered:
            raise SystemExit(
                f"error: unknown scenario {name!r} "
                f"(registered: {', '.join(registered)})"
            )
    if args.profile:
        # Profile mode replaces the suite: one sequential scenario under
        # cProfile, artifacts written next to the BENCH document.
        name = scenarios[0] if args.scenario else "loopback_64b"
        if name not in registered:
            raise SystemExit(f"error: unknown scenario {name!r}")
        print(f"profiling {name}{' (quick)' if args.quick else ''} ...")
        doc = perf.profile_scenario(name, quick=args.quick)
        print(perf.format_profile(doc))
        for path in perf.write_profile(doc, bench_path=args.out):
            print(f"wrote {path}")
        return 0
    if args.compare == "none":
        compare = ()
    elif args.compare == "all":
        compare = tuple(scenarios)
    else:
        compare = ("loopback_64b",) if "loopback_64b" in scenarios else ()
    if args.shards is not None:
        # Fail before any scenario runs: a worker count wider than a
        # scenario's fixed partition cannot be satisfied, only silently
        # clamped — which would misreport the benchmark configuration.
        for name in scenarios:
            width = scenario(name).shards
            if args.shards > width:
                raise SystemExit(
                    f"error: --shards {args.shards} exceeds the fixed "
                    f"partition of scenario {name!r} ({width} shard(s))"
                )
    doc = perf.run_suite(
        scenarios, quick=args.quick, compare=compare, repeat=args.repeat,
        progress=print, shards=args.shards,
    )
    rows = []
    for name, entry in doc["scenarios"].items():
        speedup = entry.get("speedup")
        rows.append((
            name,
            f"{entry['wall_s']:.3f}",
            entry["events"],
            f"{entry['events_per_sec']:.0f}",
            entry.get("n_shards", 1),
            entry["peak_rss_kb"],
            f"{speedup:.2f}x" if speedup else "-",
        ))
    workers = doc.get("shards")
    mode = "quick" if args.quick else "full"
    if workers:
        mode += f", {workers} worker(s)"
    print(format_table(
        ["Scenario", "Wall [s]", "Events", "Events/sec", "Shards",
         "Peak RSS [KB]", "Speedup"],
        rows,
        title=f"Simulator self-benchmark ({mode})",
    ))
    # Diff against the *committed* trajectory document before
    # write_bench overwrites it below.
    committed = perf.load_bench(args.out) if compare else None
    if committed is not None:
        delta_rows = perf.bench_delta_rows(doc, committed)
        if delta_rows:
            print()
            print(format_table(
                ["Scenario", "Committed ev/s", "This run ev/s", "Delta"],
                delta_rows,
                title=f"events/sec vs committed {args.out}",
            ))
    path = perf.write_bench(doc, args.out)
    print(f"wrote {path}")
    status = 0
    baseline = perf.load_baseline(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline}; regression check skipped")
        # Still fail on a parallel/single-process fingerprint divergence.
        failures = perf.check_regression(doc, {"scenarios": {}})
    else:
        failures = perf.check_regression(doc, baseline, tolerance=args.tolerance)
    for msg in failures:
        print(f"FAIL: {msg}")
        status = 1
    if not failures and baseline is not None:
        print(f"regression check OK (tolerance {args.tolerance:.0%})")
    return status


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render a run's windowed timeline as sparkline tables + findings."""
    from repro.obs.timeline import run_watchdogs

    if args.load is not None:
        doc = load_doc(args.load, TIMELINE_SCHEMA)
        title = doc.get("scenario") or args.load
    else:
        import repro.topology  # noqa: F401  registers the rack scenarios

        from repro.shard import run_sharded, scenario, scenario_names

        _check_writable(args.out)
        registered = scenario_names()
        if args.scenario not in registered:
            raise SystemExit(
                f"error: unknown scenario {args.scenario!r} "
                f"(registered: {', '.join(registered)})"
            )
        run = run_sharded(
            scenario(args.scenario),
            workers=args.workers,
            quick=args.quick,
            timeline_interval=args.interval,
            heartbeat_s=args.heartbeat,
            progress=print,
        )
        # Copy before stamping: the run object keeps its merged doc
        # pristine (and the hook-guard lint tracks `.timeline` reads).
        doc = dict(run.timeline)
        doc["scenario"] = args.scenario
        title = (f"{args.scenario}, {run.n_shards} shard(s), "
                 f"fingerprint {run.fingerprint}")
    findings = doc.get("findings")
    if findings is None:
        findings = run_watchdogs(doc)
        doc["findings"] = findings
    print(format_table(
        ["Series", "Last", "Max", "Sparkline"],
        _timeline_rows(doc),
        title=f"timeline: {title} — {doc['windows']} window(s) of "
              f"{doc['interval_ns']:.0f} ns",
    ))
    print()
    if findings:
        print(format_table(
            ["Rule", "Series", "Window", "Value", "Threshold", "Detail"],
            _findings_rows(findings),
            title=f"watchdog findings ({len(findings)})",
        ))
    else:
        print("watchdogs: no findings")
    if args.out:
        export_doc(doc, args.out)
        print(f"wrote timeline to {args.out}")
    return 0


def _cmd_check_model(args: argparse.Namespace) -> int:
    from repro.check import (
        MUTATIONS,
        check_model,
        format_model_summary,
        replay_counterexample,
    )
    from repro.errors import ModelCheckError

    if args.mutate is not None and args.mutate not in MUTATIONS:
        known = ", ".join(sorted(MUTATIONS))
        print(f"unknown mutation {args.mutate!r} (known: {known})")
        return 2
    _check_writable(args.model_out)
    report = check_model(mutation=args.mutate)
    print(format_model_summary(report))
    if args.model_out:
        export_doc(report, args.model_out)
        print(f"wrote model report to {args.model_out}")
    if args.mutate is None:
        return 0 if report["ok"] else 1
    # A mutation run passes iff the checker caught the seeded bug and
    # the shrunk counterexample still reproduces on replay.
    if not report["counterexamples"]:
        print(f"mutation {args.mutate!r} NOT caught by the model checker")
        return 1
    try:
        violation = replay_counterexample(report, 0)
    except ModelCheckError as exc:
        print(f"counterexample did not replay: {exc}")
        return 1
    print(
        f"mutation {args.mutate!r} caught: {violation['invariant']} "
        "counterexample reproduces on replay"
    )
    return 0


def _cmd_check_explore(args: argparse.Namespace) -> int:
    from repro.check import check_explore, format_explore_summary

    kwargs = {}
    if args.explore_scenario:
        kwargs["scenarios"] = tuple(args.explore_scenario)
    if args.explore_ops is not None:
        kwargs["ops"] = args.explore_ops
    if args.explore_deviations is not None:
        kwargs["max_deviations"] = args.explore_deviations
    if args.explore_max_schedules is not None:
        kwargs["max_schedules"] = args.explore_max_schedules
    report = check_explore(**kwargs)
    print(format_explore_summary(report))
    return 0 if report["ok"] else 1


def cmd_check(args: argparse.Namespace) -> int:
    import repro
    from repro.check import (
        format_lint_findings,
        format_lint_summary,
        run_lint,
    )

    status = 0
    ran_subcheck = False
    if args.model or args.mutate is not None:
        status = max(status, _cmd_check_model(args))
        ran_subcheck = True
    if args.explore:
        status = max(status, _cmd_check_explore(args))
        ran_subcheck = True
    if ran_subcheck:
        return status

    root = args.root or os.path.dirname(os.path.abspath(repro.__file__))
    _check_writable(args.json)
    report = run_lint(root=root)
    print(format_lint_summary(report))
    if report.findings:
        print()
        print(format_lint_findings(report, limit=args.limit))
    if args.json:
        export_doc(report.as_report(config={"root": root}), args.json)
        print(f"wrote lint report to {args.json}")
    return 0 if report.ok else 1


def cmd_table1(_args: argparse.Namespace) -> int:
    print(format_table(
        ["Protocol", "GT/s", "1 Link GB/s", "Max Total GB/s"],
        table1_rows(),
        title="Table 1. PCIe, CXL and UPI bandwidth",
    ))
    return 0


# ----------------------------------------------------------------------
# Flag blocks shared by the run commands
# ----------------------------------------------------------------------
def _run_flags(**overrides) -> argparse.ArgumentParser:
    """The flag block every run command shares, defined once.

    Returned as an argparse *parent* parser: loopback, profile, faults,
    counters, kv and rpc inherit identical spellings and defaults for
    the platform, interface, counts, batch and report destinations.
    Per-command defaults are overridden via ``set_defaults`` — argparse
    gives a parent's ``set_defaults`` precedence over the inherited
    ``add_argument`` defaults, so e.g. ``faults`` keeps its 256B/6000-
    packet shape without re-declaring any flag.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--platform", default="icx", choices=["icx", "spr"])
    parent.add_argument("--interface", default="ccnic",
                        help="comparison point (ccnic/unopt/e810/cx6)")
    parent.add_argument("--packets", type=_COUNT, default=5000, metavar="N",
                        help="packets (or RPC ops) to run")
    parent.add_argument("--batch", type=_COUNT, default=32, metavar="N",
                        help="tx/rx burst size")
    parent.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write a metric-registry snapshot (CSV if FILE ends in .csv, else JSON)",
    )
    parent.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the span timeline in Chrome trace format",
    )
    parent.add_argument(
        "--timeline-out", default=None, metavar="FILE",
        help="write the windowed timeline document "
             "(JSON, repro.obs/timeline-v1)",
    )
    parent.add_argument(
        "--timeline-interval", type=_AMOUNT, default=DEFAULT_INTERVAL_NS,
        metavar="NS",
        help="timeline window width in simulated nanoseconds "
             f"(default {DEFAULT_INTERVAL_NS:.0f})",
    )
    parent.set_defaults(**overrides)
    return parent


def _packet_flags(**overrides) -> argparse.ArgumentParser:
    """:func:`_run_flags` plus the packet shape of the loopback runs."""
    parent = argparse.ArgumentParser(add_help=False, parents=[_run_flags()])
    parent.add_argument("--size", type=_COUNT, default=64, metavar="BYTES",
                        help="packet size in bytes")
    parent.add_argument("--inflight", type=_COUNT, default=64, metavar="N",
                        help="closed-loop window depth")
    parent.set_defaults(**overrides)
    return parent


def _add_shard_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--shards", type=_COUNT, default=None, metavar="N",
        help="partition the run into N per-queue-pair shards and execute "
             "them across worker processes (merged metrics are bit-identical "
             "for any worker count)",
    )


def _add_heartbeat_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--heartbeat", type=_AMOUNT, default=None, metavar="SEC",
        help="print a wall-clock progress line to stderr every SEC seconds "
             "while shards run (operator-only; never touches results)",
    )


def _add_flight_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--flight-out", default=None, metavar="FILE",
        help="write the cache-line flight-recorder report (JSON)",
    )


def _add_sanitize_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--sanitize", nargs="?", const="on", choices=["on", "strict"],
        default=None,
        help="attach the protocol sanitizer "
             "('strict' raises on the first violation)",
    )
    sub.add_argument(
        "--sanitize-out", default=None, metavar="FILE",
        help="write the sanitizer report (JSON, repro.check/sanitize-v1)",
    )


def _add_fault_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="inject faults from a JSON/TOML plan ('canned' for the built-in)",
    )
    sub.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for the fault injector's RNG stream",
    )


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CC-NIC reproduction measurement tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lb = sub.add_parser("loopback", help="loopback latency/throughput",
                        parents=[_packet_flags()])
    lb.add_argument("--rate", type=_AMOUNT, default=None,
                    help="offered rate in Mpps (open loop)")
    lb.add_argument("--same-socket", action="store_true")
    lb.add_argument("--latency-factor", type=_AMOUNT, default=1.0)
    lb.add_argument("--bandwidth-factor", type=_AMOUNT, default=1.0)
    _add_shard_args(lb)
    _add_heartbeat_arg(lb)
    _add_fault_args(lb)
    _add_flight_args(lb)
    _add_sanitize_args(lb)
    lb.set_defaults(func=cmd_loopback)

    pr = sub.add_parser("profile", help="flight-recorder critical-path profile",
                        parents=[_packet_flags(packets=3000)])
    pr.add_argument("--sample-every", type=_COUNT, default=1, metavar="N",
                    help="trace every Nth packet's critical path")
    pr.add_argument("--top", type=_COUNT, default=10, metavar="N",
                    help="rows in the thrashing-lines table")
    _add_flight_args(pr)
    pr.set_defaults(func=cmd_profile)

    # Fault runs span the recovery windows (~10x a clean loopback's
    # simulated time), so their default window is coarser.
    fl = sub.add_parser("faults", help="fault-injection loopback study",
                        parents=[_packet_flags(size=256, packets=6000,
                                               timeline_interval=2000.0)])
    fl.add_argument(
        "--only", action="append", metavar="KIND", choices=list(FAULT_KINDS),
        help="restrict the plan to these fault kinds (repeatable)",
    )
    _add_fault_args(fl)
    fl.set_defaults(func=cmd_faults)

    mb = sub.add_parser("microbench", help="Figs 2/3/7/8 microbenchmarks")
    mb.add_argument("--platform", default="icx", choices=["icx", "spr"])
    mb.set_defaults(func=cmd_microbench)

    ct = sub.add_parser("counters", help="Fig 17 coherence counters",
                        parents=[_packet_flags(packets=4000, inflight=128)])
    ct.set_defaults(func=cmd_counters)

    # The app studies probe a single fast-path thread for a few tens of
    # microseconds of simulated time; halve the window to keep the
    # latency series populated.
    kv = sub.add_parser("kv", help="KV store thread study",
                        parents=[_run_flags(interface="both", packets=2000,
                                            timeline_interval=500.0)])
    kv.add_argument("--distribution", default="ads", choices=["ads", "geo"])
    kv.add_argument("--ops", dest="packets", type=_COUNT, metavar="N",
                    help="alias for --packets (RPC op count)")
    _add_shard_args(kv)
    _add_heartbeat_arg(kv)
    _add_fault_args(kv)
    _add_flight_args(kv)
    _add_sanitize_args(kv)
    kv.set_defaults(func=cmd_kv)

    rpc = sub.add_parser("rpc", help="TCP RPC thread study",
                         parents=[_run_flags(interface="both", packets=2000,
                                             timeline_interval=500.0)])
    rpc.add_argument("--ops", dest="packets", type=_COUNT, metavar="N",
                     help="alias for --packets (RPC op count)")
    _add_fault_args(rpc)
    _add_flight_args(rpc)
    _add_sanitize_args(rpc)
    rpc.set_defaults(func=cmd_rpc)

    pf = sub.add_parser("perf", help="simulator self-benchmark (events/sec)")
    pf.add_argument("--quick", action="store_true",
                    help="small scenario sizes (CI smoke)")
    pf.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only these scenarios (repeatable; default: every "
             "registered scenario — see --register)",
    )
    pf.add_argument(
        "--register", action="append", metavar="MODULE",
        help="import MODULE before running so its register_scenario() "
             "calls add user scenarios to the registry (repeatable)",
    )
    _add_shard_args(pf)
    pf.add_argument(
        "--compare", nargs="?", const="all", default="loopback",
        choices=["none", "loopback", "all"],
        help="with --shards, which scenarios re-run single-process and "
             "must match its fingerprint; any choice but none also prints "
             "events/sec deltas against the committed --out document "
             "(default: loopback; bare --compare means all)",
    )
    pf.add_argument("--out", default="BENCH_sim_perf.json", metavar="FILE")
    pf.add_argument("--baseline", default="benchmarks/perf/baseline.json",
                    metavar="FILE")
    pf.add_argument("--repeat", type=_COUNT, default=1, metavar="N",
                    help="time each scenario N times, keep the fastest "
                         "(repeats must fingerprint identically)")
    pf.add_argument("--tolerance", type=float, default=0.30, metavar="FRAC",
                    help="allowed events/sec drop vs. baseline (default 0.30)")
    pf.add_argument(
        "--profile", action="store_true",
        help="instead of the suite, run one scenario (first --scenario, "
             "default loopback_64b) under cProfile and write top-25 "
             "cumulative JSON/text artifacts next to --out",
    )
    pf.set_defaults(func=cmd_perf)

    tm = sub.add_parser(
        "timeline",
        help="windowed timeline sparklines + watchdog findings",
    )
    tm.add_argument("--scenario", default="faults_canned", metavar="NAME",
                    help="registered scenario to run (default: faults_canned)")
    tm.add_argument("--workers", type=_COUNT, default=None, metavar="N",
                    help="worker processes for the sharded run")
    tm.add_argument("--quick", action="store_true",
                    help="small scenario sizes (CI smoke)")
    tm.add_argument("--interval", type=_AMOUNT, default=DEFAULT_INTERVAL_NS,
                    metavar="NS",
                    help="window width in simulated nanoseconds "
                         f"(default {DEFAULT_INTERVAL_NS:.0f})")
    tm.add_argument("--load", default=None, metavar="FILE",
                    help="render an exported timeline document instead of "
                         "running a scenario")
    tm.add_argument("--out", default=None, metavar="FILE",
                    help="write the merged timeline document "
                         "(JSON, repro.obs/timeline-v1)")
    _add_heartbeat_arg(tm)
    tm.set_defaults(func=cmd_timeline)

    ck = sub.add_parser(
        "check", help="static lint, protocol model check, schedule explore"
    )
    ck.add_argument("--root", default=None, metavar="DIR",
                    help="package root to lint (default: installed repro)")
    ck.add_argument("--json", default=None, metavar="FILE",
                    help="write the lint report (JSON, repro.check/lint-v1)")
    ck.add_argument("--limit", type=_COUNT, default=50, metavar="N",
                    help="max findings rows to print (default 50)")
    ck.add_argument("--model", action="store_true",
                    help="run the small-scope protocol model checker")
    ck.add_argument("--model-out", default=None, metavar="FILE",
                    help="write the model report (JSON, repro.check/model-v1)")
    ck.add_argument("--mutate", default=None, metavar="NAME",
                    help="run the model checker against a seeded protocol "
                         "mutation; passes iff a counterexample is found "
                         "and replays (see repro.check.MUTATIONS)")
    ck.add_argument("--explore", action="store_true",
                    help="explore intra-cohort dispatch schedules on small "
                         "scenarios and check fingerprint stability")
    ck.add_argument("--explore-scenario", action="append", default=None,
                    metavar="NAME",
                    help="scenario to explore (repeatable; default "
                         "loopback_64b and kv_zipf)")
    ck.add_argument("--explore-ops", type=_COUNT, default=None, metavar="N",
                    help="operations per explored scenario run")
    ck.add_argument("--explore-deviations", type=int, default=None,
                    metavar="N",
                    help="max deviations from the canonical schedule")
    ck.add_argument("--explore-max-schedules", type=_COUNT, default=None,
                    metavar="N",
                    help="cap on explored schedules per scenario")
    ck.set_defaults(func=cmd_check)

    t1 = sub.add_parser("table1", help="interconnect bandwidth table")
    t1.set_defaults(func=cmd_table1)

    val = sub.add_parser("validate", help="calibration self-check")
    val.add_argument("--fast", action="store_true",
                     help="skip the end-to-end loopback anchors")
    val.set_defaults(func=cmd_validate)

    fwd = sub.add_parser("forwarding", help="§6 network-function study")
    fwd.add_argument("--platform", default="icx", choices=["icx", "spr"])
    fwd.add_argument("--size", type=_COUNT, default=1500)
    fwd.add_argument("--packets", type=_COUNT, default=2000)
    fwd.set_defaults(func=cmd_forwarding)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
    except (ConfigError, WorkloadError, FaultError, OSError) as exc:
        # Bad specs, plans and files end in one error line, not a traceback.
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
