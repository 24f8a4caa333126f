"""Drive the registered scenarios the way ``run_sharded(workers=1)`` does.

One measured repetition runs the scenario's fixed shard partition
sequentially in this process: ``execute_spec`` per shard, then
``merge_results`` with the scenario's lookahead. The ``attach`` hook of
``execute_spec`` fires once the shard's platform, interface, topology
and workload are built and before the simulation starts, which splits
each shard's host time into set-up and run. The cyclic GC is paused
across the repetition and the deferred collection runs after the clock
stops, as in ``run_sharded``. Untraced runs interleave the host-speed
probe (``probe.py``) with the shards and report host times scaled to the
reference host speed.

Everything here is importable without side effects; ``run.py`` is the
command line.
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import repro.topology  # noqa: F401  registers kv_rack_zipf
from repro.analysis.loopback import InterfaceKind
from repro.analysis.profile import run_profile
from repro.analysis.validate import validate_calibration
from repro.obs import STAGES
from repro.platform import icx
from repro.shard import (
    ScenarioSpec,
    execute_spec,
    fingerprint,
    lookahead_ns,
    merge_results,
    run_sharded,
    scenario,
)

from layers import LAYERS, LayerTracer
from probe import REFERENCE_S, HostProbe

#: The benchmark's workloads: registered scenario names.
WORKLOADS = ("loopback_64b", "faults_canned", "kv_rack_zipf")

#: The eight packet-waterfall stages after ``tx_submit``.
WATERFALL_STAGES = STAGES[1:]

#: Seed at which the committed ``BENCH_sim_perf.json`` fingerprints hold.
COMMITTED_SEED = 7

#: Full repetitions per run at least, however short ``--seconds`` is.
MIN_REPS = 3

clock = time.perf_counter


def workload_spec(name: str, seed: int) -> ScenarioSpec:
    """The registered scenario with its workload and fault seeds set."""
    return scenario(name).replace(seed=seed, fault_seed=seed)


def offered(spec: ScenarioSpec) -> int:
    """Packets (loopback) or requests (KV) the scenario offers."""
    return spec.count()


def completed(merged: Dict) -> int:
    """Packets received or KV requests answered."""
    return int(merged["received"] if "received" in merged else merged["ops"])


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """Host times and merged document of one repetition."""

    wall_s: float
    setup_s: float
    run_s: float
    doc: Dict
    fingerprint: str
    tracer: Optional[LayerTracer] = None
    #: Mean probe time around the shards, when the probe ran.
    probe_s: Optional[float] = None

    @property
    def speed(self) -> float:
        """Factor that scales this repetition's host times to reference speed."""
        return REFERENCE_S / self.probe_s


def _call(tracer: Optional[LayerTracer], fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call("shard", fn, *args, **kwargs)


def run_rep(
    spec: ScenarioSpec,
    tracer: Optional[LayerTracer] = None,
    probe: Optional[HostProbe] = None,
) -> Rep:
    """Run every shard of ``spec`` in order and merge; time each phase.

    With ``probe``, the probe runs before the first shard and after each
    one; its time is taken out of ``wall_s``.
    """
    shards = spec.shard_specs()
    lookahead = lookahead_ns(spec)
    stamps: List[float] = []
    attach = lambda _setup: stamps.append(clock())  # noqa: E731
    setup_s = run_s = 0.0
    results = []
    probes: List[float] = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if probe is not None:
            probes.append(probe.seconds())
        start = clock()
        for index, shard in enumerate(shards):
            shard_start = clock()
            result = _call(tracer, execute_spec, shard, attach=attach)
            shard_end = clock()
            setup_s += stamps[-1] - shard_start
            run_s += shard_end - stamps[-1]
            result["index"] = index
            results.append(result)
            if probe is not None:
                probes.append(probe.seconds())
        doc = _call(tracer, merge_results, results, spec.name, lookahead)
        wall = clock() - start - sum(probes[1:])
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()
    probe_s = sum(probes) / len(probes) if probes else None
    return Rep(wall, setup_s, run_s, doc, fingerprint(doc), tracer, probe_s)


def run_traced(spec: ScenarioSpec) -> Rep:
    """One repetition with every layer's entry points wrapped."""
    tracer = LayerTracer()
    with tracer.installed():
        return run_rep(spec, tracer)


# ----------------------------------------------------------------------
# Measurement loops
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """All repetitions of one run."""

    spec: ScenarioSpec
    reps: List[Rep] = field(default_factory=list)
    traced: List[Rep] = field(default_factory=list)

    @property
    def doc(self) -> Dict:
        return self.reps[0].doc


def measure(spec: ScenarioSpec, seconds: float, trace: bool) -> Measurement:
    """Repeat the workload for about ``seconds`` of host time.

    Untraced runs interleave the host-speed probe with the shards. Traced
    runs alternate untraced and traced repetitions, so both see
    the same host speed and their ratio is the tracing overhead. A
    repetition starts only if the previous one's length still fits
    before the deadline, so a run does not overshoot by a whole
    repetition.
    """
    out = Measurement(spec)
    probe = None if trace else HostProbe()
    deadline = clock() + seconds
    last = 0.0
    while len(out.reps) < MIN_REPS or clock() + last < deadline:
        start = clock()
        out.reps.append(run_rep(spec, probe=probe))
        if trace:
            out.traced.append(run_traced(spec))
        last = clock() - start
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(m: Measurement, peak_rss_mb: float) -> Dict[str, float]:
    """Host times at reference speed, peak RSS and the model's results."""
    merged = m.doc["merged"]
    return {
        "wall_s": median(r.wall_s * r.speed for r in m.reps),
        "setup_s": median(r.setup_s * r.speed for r in m.reps),
        "peak_rss_mb": peak_rss_mb,
        "model_mops": merged["mpps"] if "mpps" in merged else merged["mops"],
        "model_p50_ns": merged["median_ns"],
        "model_p99_ns": merged["p99_ns"],
        "completed_frac": completed(merged) / offered(m.spec),
    }


def per_layer(m: Measurement) -> Dict[str, float]:
    """Per-layer host-time split (traced) and simulated-time counters."""
    spec = m.spec
    ops = offered(spec)
    merged = m.doc["merged"]
    out: Dict[str, float] = {}

    first = m.traced[0].tracer
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median(r.tracer.self_s[layer] for r in m.traced)
        out[f"{layer}.share"] = median(r.tracer.self_s[layer] / r.wall_s for r in m.traced)
        out[f"{layer}.calls_per_op"] = first.calls[layer] / ops

    events = merged["events"]
    out["sim.events"] = float(events)
    out["sim.events_per_sec"] = events / median(r.run_s for r in m.reps)

    counters = merged["counters"]
    for kind in ("read", "rfo", "spec_mem_read", "prefetch"):
        total = sum(v for k, v in counters.items() if k.split(".", 1)[1].startswith(kind))
        out[f"coherence.{kind}_per_op"] = total / ops

    shard_ns = [shard["now"] for shard in m.doc["shards"].values()]
    link = merged["link"]
    out["interconnect.wire_bytes_per_op"] = sum(row["wire"] for row in link) / ops
    out["interconnect.busy_frac"] = sum(row["busy"] for row in link) / (
        len(link) * sum(shard_ns)
    )
    edges = merged.get("topology", {})
    out["topology.edge_busy_frac_max"] = max(
        (v / sum(shard_ns) for k, v in edges.items() if k.endswith(":busy")),
        default=0.0,
    )

    counts = first.counts
    out["core.driver.tx_accept_ratio"] = counts["tx_accepted"] / counts["tx_offered"]
    out["core.driver.rx_poll_yield"] = counts["rx_packets"] / counts["rx_polls"]
    out["core.driver.tx_retries"] = float(merged.get("tx_retries", 0))
    out["core.driver.watchdog_resets"] = float(merged.get("watchdog_resets", 0))
    out["faults.injected_per_op"] = merged.get("injected", 0) / ops

    traced_wall = median(r.wall_s for r in m.traced)
    out["trace.overhead_frac"] = traced_wall / median(r.wall_s for r in m.reps) - 1.0
    out["trace.unattributed_frac"] = median(
        1.0 - sum(r.tracer.self_s.values()) / r.wall_s for r in m.traced
    )
    return out


# ----------------------------------------------------------------------
# Output checks (outside every timed window)
# ----------------------------------------------------------------------
def check_outputs(m: Measurement, reference: str, committed: Optional[str]) -> List[str]:
    """Conservation and fingerprint checks; returns the failures."""
    spec = m.spec
    merged = m.doc["merged"]
    failures = []
    if "received" in merged:
        got = merged["received"] + merged["dropped"]
        if got != offered(spec):
            failures.append(
                f"packets not conserved: received + dropped = {got}, offered {offered(spec)}"
            )
    elif merged["ops"] != offered(spec):
        failures.append(f"KV ops not conserved: completed {merged['ops']} of {offered(spec)}")
    prints = {rep.fingerprint for rep in m.reps}
    if prints != {reference}:
        failures.append(
            f"merged fingerprint(s) {sorted(prints)} != run_sharded(workers=1) {reference}"
        )
    traced = {rep.fingerprint for rep in m.traced}
    if traced and traced != {reference}:
        failures.append(f"traced fingerprint(s) {sorted(traced)} != untraced {reference}")
    calls = {tuple(sorted(rep.tracer.calls.items())) for rep in m.traced}
    if len(calls) > 1:
        failures.append("per-layer call counts differ between traced repetitions")
    if committed is not None and reference != committed:
        failures.append(
            f"model changed: seed-{COMMITTED_SEED} fingerprint {reference} != "
            f"committed {committed} (BENCH_sim_perf.json)"
        )
    return failures


def committed_fingerprint(root: Path, name: str) -> Optional[str]:
    """The scenario's fingerprint in the committed ``BENCH_sim_perf.json``."""
    path = root / "BENCH_sim_perf.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text()).get("scenarios", {}).get(name)
    return entry.get("fingerprint") if entry else None


def reference_fingerprint(spec: ScenarioSpec) -> str:
    """``run_sharded(spec, workers=1)``; also warms caches before timing."""
    return run_sharded(spec, workers=1).fingerprint


def calibration():
    """(anchor rows, failures) of ``validate_calibration()``."""
    report = validate_calibration()
    rows = [(c.name, c.paper, c.measured, c.error, c.tolerance) for c in report.checks]
    failures = [f"calibration drift: {c}" for c in report.failures()]
    return rows, failures


def waterfall():
    """Stage p50/p99 of one ``loopback_64b`` shard under the flight recorder.

    Returns (metrics, sample count, failures). Every kept packet's stage
    durations must telescope to its end-to-end latency.
    """
    shard = scenario("loopback_64b").shard_specs()[0]
    run = run_profile(
        icx(),
        InterfaceKind(shard.interface),
        pkt_size=shard.pkt_size,
        n_packets=shard.n_packets,
        inflight=shard.inflight,
        tx_batch=shard.tx_batch,
        rx_batch=shard.rx_batch,
    )
    report = run.report["waterfall"]
    stages = {k: v for k, v in report["stages"].items() if k != "total"}
    failures = []
    if tuple(stages) != WATERFALL_STAGES:
        failures.append(f"waterfall stages {tuple(stages)} != {WATERFALL_STAGES}")
    for sample in report["samples"]:
        total = math.fsum(d for _name, d in sample["stages"])
        if not math.isclose(total, sample["total_ns"], rel_tol=1e-9):
            failures.append(
                f"packet {sample['pkt_id']}: stages sum to {total}, total {sample['total_ns']}"
            )
    if not report["samples"]:
        failures.append("waterfall kept no packet samples")
    metrics = {}
    for name in WATERFALL_STAGES:
        summary = stages.get(name, {"p50": 0.0, "p99": 0.0})
        metrics[f"stage.{name}.p50_ns"] = summary["p50"]
        metrics[f"stage.{name}.p99_ns"] = summary["p99"]
    return metrics, report["completed"], failures
