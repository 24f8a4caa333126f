"""Execute :class:`~repro.shard.spec.ScenarioSpec` partitions.

Three layers, each usable on its own:

* :func:`execute_spec` — run ONE spec (a whole scenario or a single
  shard of one) in this process and return a plain-dict result:
  counts, simulation snapshot, raw latency samples, and optionally a
  metric-registry snapshot. Everything in the dict is picklable, so
  results cross process boundaries untouched. The latency samples are
  an ``array('d')`` (8 bytes per sample, where a list would box each
  one); everything else is JSON-safe.
* :func:`run_shard` — the multiprocessing entry point: rebuilds a spec
  from its ``to_doc`` form and runs it. Top-level by design so it
  pickles under both ``fork`` and ``spawn`` start methods.
* :func:`run_sharded` — partition a scenario with
  :meth:`~repro.shard.spec.ScenarioSpec.shard_specs`, execute the
  shards across a process pool (or sequentially for ``workers=1``),
  and fold the results with :mod:`repro.shard.merge`.

Lookahead
---------

The partition is conservative parallel DES in its degenerate best
case: CC-NIC queue pairs share no simulation state, so shards exchange
no events at all, and cross-QP coupling (shared interconnect bandwidth,
LLC contention) is modeled analytically after the fact by
:mod:`repro.analysis.scaling`. The lookahead bound recorded in the
:class:`ShardPlan` — the one-way latency of the host-NIC interconnect —
is the earliest any cross-shard event *could* arrive if one existed;
since none does, every shard may safely run its full virtual-time
window without synchronizing. The bound is recorded, not enforced:
it documents why the parallel run is exactly equivalent to the
sequential one.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.core.recovery import RecoveryPolicy
from repro.errors import ConfigError
from repro.platform import PLATFORMS
from repro.shard.merge import (
    fingerprint,
    merge_metrics,
    merge_results,
    merge_timelines,
)
from repro.shard.spec import ScenarioSpec, scenario


# ----------------------------------------------------------------------
# Spec execution (one process)
# ----------------------------------------------------------------------
def _make_faults(spec: ScenarioSpec):
    if spec.fault_plan is None:
        return None
    from repro.faults import FaultInjector, FaultPlan

    return FaultInjector(FaultPlan.load(spec.fault_plan), seed=spec.fault_seed)


def lookahead_ns(spec: ScenarioSpec) -> float:
    """Conservative-DES lookahead: the earliest cross-shard arrival.

    For single-box scenarios that is the host-NIC interconnect's one-way
    latency. A topology scenario's shards are whole hosts, so the bound
    tightens to the fastest rack edge when one is faster — the soonest
    any cross-host message *could* arrive (none does: per-host fabric
    occupancy is charged shard-locally, see ``docs/TOPOLOGY.md``).
    """
    platform = PLATFORMS[spec.platform]()
    kind = InterfaceKind(spec.interface)
    if kind.is_coherent:
        base = platform.upi_latency_ns
    else:
        base = platform.nic(kind.value).pcie_one_way_ns
    if spec.topology is not None:
        from repro.topology.registry import topology

        edge_min = min(e.latency_ns for e in topology(spec.topology).edges)
        base = min(base, edge_min)
    return base


def _attach_topology(spec: ScenarioSpec, setup, faults, obs):
    """Build the shard's rack fabric, or None for single-box specs.

    Each shard instantiates its own :class:`TopologyNet` on its own
    simulator: the per-edge occupancy a shard observes is the traffic it
    charges itself, which is what keeps shards independent (and the
    merged per-edge stats are the element-wise sums over hosts).
    """
    if spec.topology is None:
        return None
    from repro.topology.net import TopologyNet
    from repro.topology.registry import topology

    net = TopologyNet(setup.system.sim, topology(spec.topology))
    if faults is not None:
        net.attach_faults(faults)
    if obs is not None:
        if obs.metrics.enabled:
            net.publish_metrics(obs.metrics)
        if obs.timeline is not None:
            from repro.obs.timeline import register_net_series

            register_net_series(obs.timeline, net)
    return net


def _topology_endpoints(spec: ScenarioSpec, net) -> tuple:
    """(host, tor) node names this shard's traffic terminates on."""
    hosts = net.spec.host_names()
    index = spec.host_index if spec.host_index is not None else 0
    return hosts[index], net.spec.tor_name()


def _loopback_route(net, host: str, tor: str):
    """Per-packet rack round trip: host -> ToR -> host, charge-at-RX."""
    from repro.interconnect.messages import MessageClass

    charge = net.router.charge

    def route(pkt) -> float:
        out = charge(host, tor, MessageClass.DMA_WRITE, pkt.size, actor=host)
        back = charge(tor, host, MessageClass.DMA_WRITE, pkt.size, actor=tor)
        return out + back

    return route


def _finish_timeline(obs, result, system) -> None:
    """Close the trailing window; attach the samples-bearing doc.

    The timeline rides *alongside* the fingerprint snapshot (like
    ``metrics``), never inside it, so attached runs stay
    fingerprint-identical to detached ones.
    """
    if obs is None or obs.timeline is None:
        return
    obs.timeline.finish(system.sim.now)
    result["timeline"] = obs.timeline.to_doc(include_samples=True)


def _execute_loopback(spec: ScenarioSpec, quick: bool, obs, attach=None) -> Dict:
    faults = _make_faults(spec)
    setup = build_interface(
        PLATFORMS[spec.platform](),
        InterfaceKind(spec.interface),
        obs=obs,
        faults=faults,
    )
    recovery = RecoveryPolicy() if faults is not None else None
    net = _attach_topology(spec, setup, faults, obs)
    route = None
    if net is not None:
        host, tor = _topology_endpoints(spec, net)
        route = _loopback_route(net, host, tor)
    if attach is not None:
        attach(setup)
    start = time.perf_counter()  # repro: allow(wall-clock) host benchmark timing
    result = run_point(
        setup,
        pkt_size=spec.pkt_size,
        n_packets=spec.count(quick),
        inflight=spec.inflight,
        offered_mpps=spec.offered_mpps,
        tx_batch=spec.tx_batch,
        rx_batch=spec.rx_batch,
        obs=obs,
        recovery=recovery,
        route=route,
    )
    wall = time.perf_counter() - start  # repro: allow(wall-clock) host benchmark timing
    system = setup.system
    snapshot = {
        "received": result.received,
        "dropped": result.dropped,
        "mpps": result.mpps,
        "median_ns": result.latency.percentile(50),
        "p99_ns": result.latency.percentile(99),
        **_system_snapshot(system),
    }
    if net is not None:
        snapshot["topology"] = net.stats_flat()
    extra = {"packets": float(result.received), "mpps": result.mpps}
    if faults is not None:
        snapshot["faults"] = faults.counters.snapshot()
        snapshot["injected"] = faults.total_injected()
        snapshot["tx_retries"] = setup.driver.tx_retries
        snapshot["watchdog_resets"] = setup.driver.watchdog_resets
        extra["dropped"] = float(result.dropped)
        extra["injected"] = float(faults.total_injected())
    doc = _result_doc(spec, wall, system, snapshot, result.latency.sample_array(), extra)
    _finish_timeline(obs, doc, system)
    system.sim.close()
    return doc


def _execute_kv(spec: ScenarioSpec, quick: bool, obs, attach=None) -> Dict:
    from repro.apps.kvstore import KvServerApp, KvWorkload

    faults = _make_faults(spec)
    setup = build_interface(
        PLATFORMS[spec.platform](),
        InterfaceKind(spec.interface),
        obs=obs,
        faults=faults,
    )
    maker = KvWorkload.ads if spec.distribution == "ads" else KvWorkload.geo
    workload = maker(
        n_keys=spec.n_keys,
        zipf_coefficient=spec.zipf_coefficient,
        seed=spec.seed,
        key_base=spec.key_base,
    )
    net = _attach_topology(spec, setup, faults, obs)
    if net is not None:
        from repro.apps.rack import RackKvApp

        host, tor = _topology_endpoints(spec, net)
        app = RackKvApp(
            setup,
            workload,
            offered_mops=spec.offered_mops,
            n_ops=spec.count(quick),
            batch=spec.tx_batch,
            router=net.router,
            host=host,
            tor=tor,
            n_clients=spec.n_clients,
            seed=spec.seed,
        )
    else:
        app = KvServerApp(
            setup,
            workload,
            offered_mops=spec.offered_mops,
            n_ops=spec.count(quick),
            batch=spec.tx_batch,
        )
    if obs is not None:
        app.instrument(obs)
    if attach is not None:
        attach(setup)
    start = time.perf_counter()  # repro: allow(wall-clock) host benchmark timing
    result = app.run()
    wall = time.perf_counter() - start  # repro: allow(wall-clock) host benchmark timing
    system = setup.system
    snapshot = {
        "ops": result.ops,
        "mops": result.mops,
        "median_ns": result.latency.percentile(50),
        "p99_ns": result.latency.percentile(99),
        **_system_snapshot(system),
    }
    if net is not None:
        snapshot["topology"] = net.stats_flat()
        snapshot["clients"] = app.clients_seen()
    extra = {"ops": float(result.ops), "mops": result.mops}
    doc = _result_doc(spec, wall, system, snapshot, result.latency.sample_array(), extra)
    _finish_timeline(obs, doc, system)
    system.sim.close()
    return doc


def _system_snapshot(system) -> Dict:
    """The simulation-state half of every shard fingerprint."""
    return {
        "counters": system.fabric.snapshot_counters(),
        "events": system.sim.events_executed,
        "now": system.sim.now,
        "link": [st.snapshot() for st in system.link.stats],
    }


def _result_doc(spec, wall, system, snapshot, latency_samples, extra) -> Dict:
    return {
        "spec": spec.to_doc(),
        "wall_s": wall,
        "events": system.sim.events_executed,
        "sim_ns": system.sim.now,
        "snapshot": snapshot,
        "latency_ns": latency_samples,
        "extra": extra,
        "metrics": None,
        "timeline": None,
    }


def execute_spec(
    spec: ScenarioSpec,
    quick: bool = False,
    with_metrics: bool = False,
    timeline_interval: Optional[float] = None,
    attach: Optional[Callable] = None,
) -> Dict:
    """Run one spec in this process; returns the shard-result dict.

    ``attach`` is called with the built interface setup after every
    observer (topology, timeline) is wired but before the workload
    runs; ``repro.check`` uses it to attach a sanitizer or flight
    recorder (``setup.instrument(Observability(...))``) to a scenario
    run it does not otherwise control. In-process callers only — the
    hook does not cross the ``run_shard`` pickle boundary. Once the
    shard's document is built its simulator is closed
    (:meth:`~repro.sim.engine.Simulator.close`), so a setup the hook
    keeps can be inspected but not run further.

    ``with_metrics`` wires a fresh :class:`~repro.obs.MetricRegistry`
    into the run and attaches its snapshot under ``"metrics"`` (merged
    across shards by :func:`repro.shard.merge.merge_metrics`). Metric
    snapshots ride alongside the fingerprint snapshot; they never enter
    it, so metric-instrumented and bare runs stay comparable.

    ``timeline_interval`` (simulated ns) attaches a
    :class:`~repro.obs.timeline.TimelineSampler` with the standard
    series and returns its samples-bearing doc under ``"timeline"`` —
    also alongside the snapshot, for the same reason (merged across
    shards by :func:`repro.shard.merge.merge_timelines`).
    """
    spec.validate()
    obs = None
    if with_metrics or timeline_interval is not None:
        from repro.obs import MetricRegistry, Observability, TimelineSampler

        obs = Observability(
            metrics=MetricRegistry() if with_metrics else None,
            timeline=(
                TimelineSampler(interval_ns=timeline_interval)
                if timeline_interval is not None else None
            ),
        )
    # Pause the cyclic GC for the simulation proper: a shard allocates
    # millions of short-lived containers (event records, span lists,
    # work items) whose reference counting already reclaims them, and
    # generational collections in the middle of the hot loop cost
    # 10-20% of wall time. Pure host-side: simulated time and
    # fingerprints are unaffected. Nothing needs collecting afterwards:
    # a shard's object graph holds no reference cycle once
    # Simulator.close() has closed its suspended processes, so reference
    # counting frees the whole shard as this function returns, with the
    # GC paused or not (tests/test_footprint.py). Runs with metrics
    # or a timeline attached are the exception: registry gauges close
    # over the components they read, and those cycles are left to the
    # collector.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        if spec.workload == "kv":
            result = _execute_kv(spec, quick, obs, attach)
        else:
            result = _execute_loopback(spec, quick, obs, attach)
    finally:
        if was_enabled:
            gc.enable()
    if with_metrics:
        result["metrics"] = obs.metrics.snapshot()
    return result


def run_shard(
    index: int,
    spec_doc: Dict,
    quick: bool = False,
    with_metrics: bool = False,
    timeline_interval: Optional[float] = None,
) -> Dict:
    """Process-pool entry point: run shard ``index`` from its doc form."""
    spec = ScenarioSpec.from_doc(spec_doc)
    result = execute_spec(
        spec,
        quick=quick,
        with_metrics=with_metrics,
        timeline_interval=timeline_interval,
    )
    result["index"] = index
    return result


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """The partition a sharded run will execute."""

    scenario: str
    n_shards: int
    lookahead_ns: float
    specs: List[ScenarioSpec] = field(repr=False)

    @classmethod
    def for_spec(cls, spec: ScenarioSpec) -> "ShardPlan":
        return cls(
            scenario=spec.name,
            n_shards=spec.shards,
            lookahead_ns=lookahead_ns(spec),
            specs=spec.shard_specs(),
        )


@dataclass
class ShardRun:
    """Outcome of one sharded execution, merged."""

    scenario: str
    n_shards: int
    workers: int
    wall_s: float
    events: int
    sim_ns: float
    fingerprint: str
    doc: Dict
    extra: Dict[str, float]
    lookahead_ns: float
    metrics: Optional[Dict] = None
    timeline: Optional[Dict] = None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def default_workers() -> int:
    """Worker-count default: one per available CPU."""
    return max(1, os.cpu_count() or 1)


class _Heartbeat:
    """Wall-clock progress heartbeat for long sharded runs.

    Strictly runner-side: it prints ``scenario: done/total shard(s)``
    lines to stderr from a daemon thread and leaves no trace in any
    result document, so the fingerprint path never sees it. Wall-clock
    reads are confined here and waived — this is operator feedback, not
    simulation state.
    """

    def __init__(self, scenario: str, total: int, interval_s: float) -> None:
        self.scenario = scenario
        self.total = total
        self.interval_s = interval_s
        self.start = time.perf_counter()  # repro: allow(wall-clock) operator heartbeat
        self._done = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, name="shard-heartbeat", daemon=True
        )
        self._thread.start()

    def shard_done(self, _future=None) -> None:
        """Completion callback; accepts a future for add_done_callback."""
        with self._lock:
            self._done += 1

    def _beat(self) -> None:
        while not self._stop.wait(self.interval_s):
            elapsed = time.perf_counter() - self.start  # repro: allow(wall-clock) operator heartbeat
            with self._lock:
                done = self._done
            print(
                f"[{self.scenario}] {done}/{self.total} shard(s) done, "
                f"{elapsed:.0f}s elapsed",
                file=sys.stderr,
                flush=True,
            )

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def run_sharded(
    spec: Union[str, ScenarioSpec],
    workers: Optional[int] = None,
    quick: bool = False,
    with_metrics: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    timeline_interval: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
) -> ShardRun:
    """Run a scenario's partition and merge the per-shard results.

    ``spec`` is a registered scenario name or a spec object. ``workers``
    chooses how many processes execute the (fixed) partition —
    ``workers=1`` runs every shard sequentially in this process, which
    is both the determinism baseline and the speedup denominator. The
    merged fingerprint is identical for every worker count because the
    partition, the per-shard seeds, and the merge order never depend
    on it.

    ``timeline_interval`` attaches a per-shard
    :class:`~repro.obs.timeline.TimelineSampler` and folds the shard
    timelines with :func:`~repro.shard.merge.merge_timelines` into
    :attr:`ShardRun.timeline`; the merged timeline is identical for any
    worker count, for the same reasons the fingerprint is.
    ``heartbeat_s`` prints wall-clock progress lines to stderr at that
    period (operator feedback only — never enters any document).
    """
    if isinstance(spec, str):
        spec = scenario(spec)
    plan = ShardPlan.for_spec(spec)
    n = plan.n_shards
    requested = default_workers() if workers is None else workers
    if requested < 1:
        raise ConfigError("workers must be >= 1")
    use_workers = min(requested, n)
    if progress is not None:
        progress(
            f"{plan.scenario}: {n} shard(s) on {use_workers} worker(s), "
            f"lookahead {plan.lookahead_ns:g} ns"
        )
    docs = [s.to_doc() for s in plan.specs]
    # One GC pause across the whole sequential run (execute_spec skips
    # its own nested pause when the collector is already off). Bare
    # shards free themselves as they return; the gauge cycles of
    # observer-attached shards are collected once, outside the timed
    # region.
    was_enabled = use_workers == 1 and gc.isenabled()
    if was_enabled:
        gc.disable()
    heartbeat = (
        _Heartbeat(plan.scenario, n, heartbeat_s) if heartbeat_s is not None else None
    )
    try:
        start = time.perf_counter()  # repro: allow(wall-clock) host benchmark timing
        if use_workers == 1:
            results = []
            for index, doc in enumerate(docs):
                results.append(
                    run_shard(
                        index,
                        doc,
                        quick=quick,
                        with_metrics=with_metrics,
                        timeline_interval=timeline_interval,
                    )
                )
                if heartbeat is not None:
                    heartbeat.shard_done()
        else:
            with ProcessPoolExecutor(
                max_workers=use_workers, mp_context=_pool_context()
            ) as pool:
                futures = [
                    pool.submit(
                        run_shard, index, doc, quick, with_metrics, timeline_interval
                    )
                    for index, doc in enumerate(docs)
                ]
                if heartbeat is not None:
                    for future in futures:
                        future.add_done_callback(heartbeat.shard_done)
                results = [f.result() for f in futures]
        wall = time.perf_counter() - start  # repro: allow(wall-clock) host benchmark timing
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if was_enabled:
            gc.enable()
            gc.collect()

    merged_doc = merge_results(results, plan.scenario, plan.lookahead_ns)
    extras = sorted(
        (result["index"], result["extra"]) for result in results
    )
    extra: Dict[str, float] = {}
    for _, shard_extra in extras:
        for key in sorted(shard_extra):
            extra[key] = extra.get(key, 0.0) + shard_extra[key]
    metrics = merge_metrics(results) if with_metrics else None
    timeline = merge_timelines(results) if timeline_interval is not None else None
    return ShardRun(
        scenario=plan.scenario,
        n_shards=n,
        workers=use_workers,
        wall_s=wall,
        events=int(merged_doc["merged"]["events"]),
        sim_ns=merged_doc["merged"]["now"],
        fingerprint=fingerprint(merged_doc),
        doc=merged_doc,
        extra=extra,
        lookahead_ns=plan.lookahead_ns,
        metrics=metrics,
        timeline=timeline,
    )
