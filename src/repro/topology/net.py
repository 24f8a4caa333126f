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
from repro.interconnect.link import RHO_CAP, WINDOW_NS, Link
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
        for edge in spec.edges:
            self.links[edge.name] = Link(
                sim,
                name=f"edge:{edge.name}",
                latency_ns=edge.latency_ns,
                bandwidth_bytes_per_ns=gbps_to_bytes_per_ns(edge.gbps),
                header_overhead=edge.header_overhead,
            )
        self.router = Router(sim, spec, self.tables, self.links)

    # ------------------------------------------------------------------
    def hop(self, src: str, dst: str) -> Tuple[Link, int]:
        """The (link, direction) carrying one ``src -> dst`` hop."""
        return self.router.hop(src, dst)

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

        Collector gauges look up the link's current :class:`LinkStats`
        at snapshot time, so publishing adds zero cost to the
        per-message hot path and a :meth:`reset_stats` (which replaces
        the stats objects) leaves them reading the live counts.
        """
        for edge in self.spec.edges:
            link = self.links[edge.name]
            for direction in (0, 1):
                prefix = f"{edge.name}.{direction}"
                registry.gauge(
                    "topology", f"{prefix}.messages",
                    fn=lambda link=link, d=direction: float(link.stats[d].messages),
                )
                registry.gauge(
                    "topology", f"{prefix}.wire_bytes",
                    fn=lambda link=link, d=direction: float(link.stats[d].wire_bytes),
                )
                registry.gauge(
                    "topology", f"{prefix}.busy_ns",
                    fn=lambda link=link, d=direction: link.stats[d].busy_ns,
                )


class Router:
    """Charges messages along shortest paths, one Link hop at a time.

    The per-hop :meth:`Link.one_way` accounting is replayed from
    memoized *charge plans*: one flat row per hop (built by
    :meth:`Link.plan_one_way`) carrying
    the resolved wire/serialization figures plus the live
    statistics and utilization-window cells, so :meth:`charge` runs the
    window accounting straight-line with no per-hop validation, payload
    resolution, or shape lookup. Plans embed state that
    :meth:`Link.scaled` and :meth:`Link.reset_stats` replace, so the
    Router registers its plan dict with every edge link
    (:meth:`Link.register_plans`), which empties it when any edge is
    rescaled or reset, as the coherent link does for the fabric's
    transition plans. A hop row names its link by index into the
    Router's edge list, not by reference, and the Router keeps the
    simulator, spec, route tables and links it reads rather than its
    :class:`TopologyNet`, so a finished net holds no reference cycle.
    A hop on an edge with a fault injector runs the link's fault hooks
    in :meth:`Link.one_way`'s order. The sum of :meth:`Link.one_way` over
    :meth:`path_hops` is the test oracle for :meth:`charge`.
    """

    def __init__(
        self,
        sim,
        spec: TopologySpec,
        tables: RouteTables,
        links: Dict[str, Link],
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.tables = tables
        #: Edge links in spec order; hop rows name them by index.
        self._links: Tuple[Link, ...] = tuple(links[edge.name] for edge in spec.edges)
        #: (src, dst) node pair -> (link index, direction) for one hop.
        self._hop: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for index, edge in enumerate(spec.edges):
            self._hop[(edge.a, edge.b)] = (index, 0)
            self._hop[(edge.b, edge.a)] = (index, 1)
        # (src, dst) -> the route's (link index, direction) hops; routes
        # do not depend on link figures, so a rescale keeps them.
        self._routes: Dict[Tuple[str, str], Tuple[Tuple[int, int], ...]] = {}
        # (src, dst, class value, payload_bytes) -> tuple of hop rows:
        # the link index, then its plan_one_way row. The class enters by
        # value: a member's hash is Python code, a string's is cached.
        self._plans: Dict[tuple, tuple] = {}
        for link in self._links:
            link.register_plans(self._plans)

    def _hop_index(self, src: str, dst: str) -> Tuple[int, int]:
        try:
            return self._hop[(src, dst)]
        except KeyError:
            raise ConfigError(
                f"topology {self.spec.name!r}: no edge between "
                f"{src!r} and {dst!r}"
            )

    def hop(self, src: str, dst: str) -> Tuple[Link, int]:
        """The (link, direction) carrying one ``src -> dst`` hop."""
        index, direction = self._hop_index(src, dst)
        return self._links[index], direction

    def _route(self, src: str, dst: str) -> Tuple[Tuple[int, int], ...]:
        """(link index, direction) of each hop of the ``src -> dst`` route."""
        nodes = self.tables.path(src, dst)
        return tuple(self._hop_index(a, b) for a, b in zip(nodes, nodes[1:]))

    def path_hops(self, src: str, dst: str) -> Tuple[Tuple[Link, int], ...]:
        """The (link, direction) sequence of the ``src -> dst`` route."""
        links = self._links
        return tuple((links[index], direction) for index, direction in self._route(src, dst))

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
        bit-identical to summing :meth:`Link.one_way` over the hops. On
        an edge with an injector the hop runs the link's fault hooks
        first, as :meth:`Link.one_way` does (the edge's compiled fault
        segment scales its serialization and draws; a fired draw's
        wasted copy books ahead of the hop), then does its own
        accounting with the draw's extra delay added beside the wait.
        """
        key = (src, dst, cls._value_, payload_bytes)
        links = self._links
        plan = self._plans.get(key)
        if plan is None:
            route = self._routes.get((src, dst))
            if route is None:
                route = self._routes[(src, dst)] = self._route(src, dst)
            plan = self._plans[key] = tuple(
                (index,) + links[index].plan_one_way(cls, direction, payload_bytes)
                for index, direction in route
            )
        t = self.sim.now
        window = WINDOW_NS
        cap = RHO_CAP
        live_floor = window / 4
        total = 0.0
        for (index, d, wire, ser, lat, ser_lat, busy_cell, count,
             win_busy, win_by, win_start, rho_settled, rho_by) in plan:
            faults = links[index].faults
            if faults is None:
                disrupt = 0.0
            else:
                ser, disrupt = links[index]._fault_hooks(faults, cls, d, ser, wire, actor)
                ser_lat = ser + lat
            if t - win_start[d] >= window:
                links[index]._roll(d, t)
            busy = win_busy[d] = win_busy[d] + ser
            by = win_by[d]
            mine = by[actor] = by.get(actor, 0.0) + ser
            count[0] += 1
            busy_cell[0] += ser
            if busy == mine:
                # Sole actor in the live window: the wait is exactly 0.0
                # whatever others settled (see Link._enqueue), so the hop
                # contributes its precomputed (ser + latency) — identical
                # to (0.0 + ser) + latency.
                total += ser_lat + disrupt
                continue
            settled_others = rho_settled[d] - rho_by[d].get(actor, 0.0)
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
                total += ser_lat + disrupt
                continue
            mm1 = ser * rho_others / (1.0 - rho_others)
            settled_total = rho_settled[d]
            live_total = busy / live_elapsed
            rho_total = settled_total if settled_total >= live_total else live_total
            if rho_total > 1.0:
                rho_total = 1.0
            # max(own, ser) is mine: ser is booked in it.
            over = busy / mine - 1.0
            if over < 0.0:
                over = 0.0
            fair = ser * over * rho_total * rho_total
            wait = mm1 if mm1 <= fair else fair
            total += wait + ser + lat + disrupt
        return total
