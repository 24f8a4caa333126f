"""Flight-recorder profiling runs and report rendering.

``run_profile`` builds one comparison point with a
:class:`~repro.obs.flight.FlightRecorder` in its
:class:`~repro.obs.Observability` bundle, so the recorder reaches every
layer that records (coherence fabric, cache agents, host driver, NIC
queue agents, application), runs a closed-loop loopback measurement,
and returns the setup, the loopback result, and the recorder. The
``format_*`` helpers render the recorder's report as the text tables
behind ``python -m repro profile``; its ``--trace-out`` is built from
the same recorder's call and line-event rings.

The recorder observes the fabric's plan path, the same code an
unprofiled run executes, so a profiled run is bit-identical in
simulated metrics to an unprofiled one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.loopback import (
    InterfaceKind,
    LoopbackSetup,
    build_interface,
    run_point,
)
from repro.analysis.tables import format_table
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import Observability
from repro.platform.presets import PlatformSpec
from repro.workloads.trafficgen import LoopbackResult


@dataclass
class ProfileRun:
    """Everything ``python -m repro profile`` needs from one run."""

    setup: LoopbackSetup
    result: LoopbackResult
    recorder: FlightRecorder
    report: Dict


def run_profile(
    spec: PlatformSpec,
    kind: InterfaceKind,
    pkt_size: int = 64,
    n_packets: int = 3000,
    inflight: int = 64,
    tx_batch: int = 32,
    rx_batch: int = 32,
    sample_every: int = 1,
    line_capacity: int = 65536,
    max_packets: int = 4096,
    keep_waterfalls: int = 32,
    top: int = 10,
    obs: Optional[Observability] = None,
    scenario: Optional[str] = None,
    **build_kwargs,
) -> ProfileRun:
    """One instrumented loopback run with a full flight report.

    The recorder built from the keyword arguments joins ``obs`` (in
    place of any flight recorder it carries); the bundle's other
    members — metrics, sanitizer, timeline — attach alongside. The
    recorder's rings also hold the run's call records, so
    ``export_chrome_trace(run.recorder, path)`` writes its trace.
    ``scenario`` stamps the flight report with a run name and the spec
    fingerprint of its config block.
    """
    recorder = FlightRecorder(
        line_capacity=line_capacity,
        sample_every=sample_every,
        max_packets=max_packets,
        keep_waterfalls=keep_waterfalls,
    )
    obs = (obs or Observability()).replace(flight=recorder)
    setup = build_interface(spec, kind, obs=obs, **build_kwargs)
    result = run_point(
        setup,
        pkt_size,
        n_packets,
        inflight=inflight,
        tx_batch=tx_batch,
        rx_batch=rx_batch,
        obs=obs,
    )
    if obs.timeline is not None:
        obs.timeline.finish(setup.system.sim.now)
    config = {
        "platform": spec.name,
        "interface": kind.value,
        "pkt_size": pkt_size,
        "n_packets": n_packets,
        "inflight": inflight,
        "sample_every": sample_every,
    }
    spec_fingerprint = None
    if scenario is not None:
        from repro.shard.merge import fingerprint

        spec_fingerprint = fingerprint(config)
    report = recorder.report(
        top=top,
        config=config,
        scenario=scenario,
        spec_fingerprint=spec_fingerprint,
    )
    return ProfileRun(setup=setup, result=result, recorder=recorder, report=report)


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def format_waterfall_table(report: Dict) -> str:
    """Per-stage latency breakdown (p50/p99) over sampled packets."""
    stages = report["waterfall"]["stages"]
    rows = [
        (
            name,
            int(summary["count"]),
            f"{summary['p50']:.1f}",
            f"{summary['mean']:.1f}",
            f"{summary['p99']:.1f}",
            f"{summary['max']:.1f}",
        )
        for name, summary in stages.items()
    ]
    title = (
        f"Packet critical path ({report['waterfall']['completed']} sampled, "
        f"{report['waterfall']['incomplete']} in flight at stop)"
    )
    return format_table(
        ["stage", "n", "p50 ns", "mean ns", "p99 ns", "max ns"], rows, title=title
    )


def format_thrash_table(report: Dict) -> str:
    """Top thrashing cache lines (most cross-socket transfers first)."""
    rows = [
        (
            f"{entry['line']:#x}",
            entry["region"],
            entry["class"],
            f"S{entry['home']}",
            entry["xfers"],
            entry["pingpongs"],
            entry["spec_reads"],
            entry["drops"],
            f"{entry['latency_ns']:.0f}",
        )
        for entry in report["thrash"]
    ]
    return format_table(
        [
            "line", "region", "class", "home", "xfers", "pingpong",
            "spec_rd", "drops", "latency ns",
        ],
        rows,
        title="Top thrashing lines",
    )


def format_class_table(report: Dict) -> str:
    """Cross-socket traffic per region class (all classes enumerated)."""
    rows = [
        (
            cls,
            row["lines"],
            row["reads"],
            row["writes"],
            row["xfers"],
            row["pingpongs"],
            row["spec_reads"],
            f"{row['latency_ns']:.0f}",
        )
        for cls, row in report["classes"].items()
    ]
    return format_table(
        [
            "class", "lines", "reads", "writes", "xfers", "pingpong",
            "spec_rd", "latency ns",
        ],
        rows,
        title="Region-class thrash summary",
    )


def format_homing_audit(report: Dict) -> str:
    """Regions whose homing triggered reader-side speculative reads."""
    rows = [
        (
            entry["region"],
            entry["class"],
            f"S{entry['home']}",
            entry["cross_fetches"],
            entry["reader_homed_specs"],
            "FLAG" if entry["flagged"] else "ok",
        )
        for entry in report["homing_audit"]
    ]
    if not rows:
        rows = [("(no cross-socket cache fetches recorded)", "", "", "", "", "")]
    return format_table(
        ["region", "class", "home", "cross_fetch", "reader_spec", "verdict"],
        rows,
        title="Homing audit (reader-homed speculative reads)",
    )


def format_sample_waterfall(report: Dict) -> str:
    """One fully traced packet, stage by stage."""
    samples = report["waterfall"]["samples"]
    if not samples:
        return "No complete packet samples recorded."
    sample = samples[0]
    rows = [(name, f"{duration:.1f}") for name, duration in sample["stages"]]
    rows.append(("total", f"{sample['total_ns']:.1f}"))
    return format_table(
        ["stage", "ns"],
        rows,
        title=f"Sample waterfall: packet {sample['pkt_id']}",
    )
