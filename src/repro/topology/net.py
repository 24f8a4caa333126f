"""Runtime topology: one Link per edge, plus a hop-by-hop Router.

:class:`TopologyNet` instantiates the fabric a
:class:`~repro.topology.graph.TopologySpec` describes on a live
simulator: every edge becomes a real
:class:`~repro.interconnect.link.Link` (named ``edge:<a>~<b>``), so
cross-host traffic gets the same serialization, M/D/1 queueing,
per-edge :class:`~repro.interconnect.link.LinkStats`, and fault-injector
hooks intra-host coherence traffic gets today — nothing about the cost
model is topology-specific.

:class:`Router` walks the build-time
:class:`~repro.topology.routing.RouteTables` and charges a message
hop-by-hop through each edge's :meth:`Link.one_way` accounting. The
timing contract is **charge-at-send**: every hop's wait + serialization
+ propagation is resolved against the sender's current window state, so
the returned delay is a pure function of simulator state at the call —
this is what keeps sharded runs bit-identical across worker counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.interconnect.link import Link
from repro.interconnect.messages import MessageClass
from repro.topology.graph import TopologySpec
from repro.topology.routing import RouteTables
from repro.units import gbps_to_bytes_per_ns


class TopologyNet:
    """A topology spec instantiated on one simulator."""

    def __init__(self, sim, spec: TopologySpec) -> None:
        spec.validate()
        self.sim = sim
        self.spec = spec
        self.tables = RouteTables.build(spec)
        #: Edge label ("<a>~<b>") -> runtime Link ("edge:<a>~<b>").
        self.links: Dict[str, Link] = {}
        #: (src, dst) node pair -> (Link, direction) for one hop.
        self._hop: Dict[Tuple[str, str], Tuple[Link, int]] = {}
        for edge in spec.edges:
            link = Link(
                sim,
                name=f"edge:{edge.name}",
                latency_ns=edge.latency_ns,
                bandwidth_bytes_per_ns=gbps_to_bytes_per_ns(edge.gbps),
                header_overhead=edge.header_overhead,
            )
            self.links[edge.name] = link
            self._hop[(edge.a, edge.b)] = (link, 0)
            self._hop[(edge.b, edge.a)] = (link, 1)
        self.router = Router(self)

    # ------------------------------------------------------------------
    def hop(self, src: str, dst: str) -> Tuple[Link, int]:
        """The (link, direction) carrying one ``src -> dst`` hop."""
        try:
            return self._hop[(src, dst)]
        except KeyError:
            raise ConfigError(
                f"topology {self.spec.name!r}: no edge between "
                f"{src!r} and {dst!r}"
            )

    def attach_faults(self, faults) -> None:
        """Attach one fault injector to every edge link.

        Plan events with ``target="edge:<a>~<b>"`` hit one edge;
        untargeted link events hit the whole fabric.
        """
        for edge in self.spec.edges:
            self.links[edge.name].faults = faults

    def reset_stats(self) -> None:
        for edge in self.spec.edges:
            self.links[edge.name].reset_stats()

    # ------------------------------------------------------------------
    # Snapshots and export
    # ------------------------------------------------------------------
    def stats_flat(self) -> Dict[str, float]:
        """Flat ``{"<edge>:<dir>:<field>": value}`` per-edge counters.

        Flat by contract: a sharded run's snapshot merges this dict with
        the key-wise-sum reduction of
        :func:`repro.shard.merge._merge_scalar_maps`, so the values must
        be plain numbers and the keys stable strings.
        """
        flat: Dict[str, float] = {}
        for edge in self.spec.edges:
            link = self.links[edge.name]
            for direction in (0, 1):
                stats = link.stats[direction]
                prefix = f"{edge.name}:{direction}"
                flat[f"{prefix}:messages"] = stats.messages
                flat[f"{prefix}:wire"] = stats.wire_bytes
                flat[f"{prefix}:busy"] = stats.busy_ns
        return flat

    def publish_metrics(self, registry) -> None:
        """Register per-edge collector gauges under ``topology.*``.

        Collector gauges read the live :class:`LinkStats` lazily at
        snapshot time, so publishing adds zero cost to the per-message
        hot path.
        """
        for edge in self.spec.edges:
            link = self.links[edge.name]
            for direction in (0, 1):
                stats = link.stats[direction]
                prefix = f"{edge.name}.{direction}"
                registry.gauge(
                    "topology", f"{prefix}.messages",
                    fn=lambda s=stats: float(s.messages),
                )
                registry.gauge(
                    "topology", f"{prefix}.wire_bytes",
                    fn=lambda s=stats: float(s.wire_bytes),
                )
                registry.gauge(
                    "topology", f"{prefix}.busy_ns",
                    fn=lambda s=stats: s.busy_ns,
                )


class Router:
    """Charges messages along shortest paths, one Link hop at a time.

    The per-hop :meth:`Link.one_way` accounting is replayed from
    memoized *charge plans*: one flat row per hop (built by
    :meth:`Link.plan_one_way`) carrying
    the resolved payload/wire/serialization figures plus the live
    statistics and utilization-window cells, so :meth:`charge` runs the
    window accounting straight-line with no per-hop validation, payload
    resolution, or class-cell dict lookup. Plans embed state that
    :meth:`Link.scaled` and :meth:`Link.reset_stats` replace, so the
    Router claims every edge link's ``on_scaled`` slot (edge links have
    no other consumer — the coherence fabric only owns the intra-host
    links) and drops all plans when any edge is rescaled or reset,
    mirroring the epoch invalidation of the fabric's transition plans.
    A fault injector attached to an edge is honoured per charge: any
    hop whose link carries ``faults`` falls back to :meth:`Link.one_way`
    so fault draws keep their order. The sum of :meth:`Link.one_way`
    over :meth:`path_hops` is the test oracle for :meth:`charge`.
    """

    def __init__(self, net: TopologyNet) -> None:
        self.net = net
        # (src, dst) -> tuple of (link, direction) hops; filled lazily,
        # pure derivation from the route tables so caching is safe.
        self._paths: Dict[Tuple[str, str], Tuple[Tuple[Link, int], ...]] = {}
        # (src, dst, cls, payload_bytes) -> tuple of plan_one_way rows.
        self._plans: Dict[tuple, tuple] = {}
        for link in net.links.values():
            link.on_scaled = self._invalidate_plans

    def _invalidate_plans(self) -> None:
        """Drop every memoized charge plan (an edge was rescaled/reset)."""
        self._plans.clear()

    def path_hops(self, src: str, dst: str) -> Tuple[Tuple[Link, int], ...]:
        """The (link, direction) sequence of the ``src -> dst`` route."""
        key = (src, dst)
        hops = self._paths.get(key)
        if hops is None:
            nodes = self.net.tables.path(src, dst)
            hops = tuple(
                self.net.hop(a, b) for a, b in zip(nodes, nodes[1:])
            )
            self._paths[key] = hops
        return hops

    def hop_count(self, src: str, dst: str) -> int:
        return len(self.path_hops(src, dst))

    def charge(
        self,
        src: str,
        dst: str,
        cls: MessageClass,
        payload_bytes: Optional[int] = None,
        actor: str = "net",
    ) -> float:
        """Deliver one message ``src -> dst``; return the total delay.

        Every hop books wait + serialization + propagation against its
        edge at the *current* simulator time (charge-at-send): per-edge
        occupancy, per-class stats, and any attached fault injector all
        see the message exactly as intra-host link traffic would. Each
        hop replays :meth:`Link.one_way`'s accounting from a memoized
        plan — same window rolls, same per-actor demand updates, same
        wait arithmetic in the same evaluation order — so the total is
        bit-identical to summing :meth:`Link.one_way` over the hops.
        """
        key = (src, dst, cls, payload_bytes)
        plan = self._plans.get(key)
        if plan is None:
            plan = tuple(
                link.plan_one_way(cls, direction, payload_bytes)
                for link, direction in self.path_hops(src, dst)
            )
            self._plans[key] = plan
        t = self.net.sim.now
        window = Link.WINDOW_NS
        cap = Link.RHO_CAP
        live_floor = window / 4
        total = 0.0
        for (link, d, payload, wire, ser, lat, ser_lat, agg, cell,
             win_busy, win_by, win_start, rho_settled, rho_by) in plan:
            if link.faults is not None:
                # Fault draws must keep their per-message order; let
                # Link.one_way book this hop.
                total += link.one_way(
                    cls, d, payload_bytes=payload_bytes, actor=actor
                )
                continue
            elapsed = t - win_start[d]
            if elapsed >= window:
                rho_settled[d] = min(cap, win_busy[d] / elapsed)
                rho_by[d] = {
                    a: min(cap, busy / elapsed)
                    for a, busy in win_by[d].items()
                }
                win_start[d] = t
                win_busy[d] = 0.0
                win_by[d] = {}
            busy = win_busy[d] + ser
            win_busy[d] = busy
            by = win_by[d]
            try:
                mine = by[actor] + ser
            except KeyError:
                mine = ser
            by[actor] = mine
            agg[0] += 1
            agg[1] += payload
            agg[2] += wire
            agg[3] += ser
            cell[0] += 1
            cell[1] += wire
            try:
                settled_others = rho_settled[d] - rho_by[d][actor]
            except KeyError:
                settled_others = rho_settled[d]
            if busy == mine and settled_others <= 0.0:
                # Sole actor in the window and nothing settled: the wait
                # is exactly 0.0, so the hop contributes its precomputed
                # (ser + latency) — identical to (0.0 + ser) + latency.
                total += ser_lat
                continue
            if settled_others < 0.0:
                settled_others = 0.0
            live_elapsed = t - win_start[d] + ser
            if live_elapsed < live_floor:
                live_elapsed = live_floor
            live_others = (busy - mine) / live_elapsed
            rho_others = settled_others if settled_others >= live_others else live_others
            if rho_others > cap:
                rho_others = cap
            if rho_others <= 0.0:
                total += ser_lat
                continue
            mm1 = ser * rho_others / (1.0 - rho_others)
            own = mine if mine >= ser else ser
            settled_total = rho_settled[d]
            live_total = busy / live_elapsed
            rho_total = settled_total if settled_total >= live_total else live_total
            if rho_total > 1.0:
                rho_total = 1.0
            over = busy / own - 1.0
            if over < 0.0:
                over = 0.0
            fair = ser * over * rho_total * rho_total
            wait = mm1 if mm1 <= fair else fair
            total += wait + ser + lat
        return total
