"""Cache-line flight recorder: line lifecycles, calls and packet paths.

The :class:`FlightRecorder` answers the questions CC-NIC's design is
built around — *which cache lines bounce between sockets, and where does
a packet's latency go?* It has three recording surfaces:

* **Line events** from the coherence fabric: every
  access records its transition kind, requester socket, and latency
  into a bounded ring, and is folded into per-line statistics
  (ping-pong counts, cross-socket transfer totals), a region-classified
  thrash table, and a homing audit flagging reader-homed speculative
  memory reads that writer-homing is supposed to eliminate.
* **Call records** from the drivers and NIC queue agents: each
  ``tx_burst``/``rx_burst``/``nic_tx``/``nic_rx`` call notes its actor,
  virtual-time interval, arguments and the line-event ring's position
  when it began, so the line events it issued keep it as their parent.
  :meth:`FlightRecorder.to_chrome` turns both rings into a Chrome trace.
* **Packet events** from the driver/agent data path: sampled packets
  accumulate ``{stage: timestamp}`` checkpoints that become
  :class:`~repro.obs.waterfall.PacketWaterfall` breakdowns.

Attach it through an :class:`~repro.obs.Observability` bundle
(``Observability(flight=recorder)``, passed as ``obs=`` to
``build_interface`` and the run functions): the instrument cascade sets
the ``flight`` hook of the fabric, its cache agents, the driver, the NIC
queue agents and the loopback app.

Cost model:

* Detached, the recorder costs one ``None`` test per hook site —
  components carry a ``flight = None`` class attribute.
* Attached, it observes the path the run takes anyway: the fabric's
  memoized plan path records line events and drops in place, so
  recorded runs stay bit-identical to unrecorded ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.export import FLIGHT_SCHEMA
from repro.obs.waterfall import WaterfallStats, build_waterfall

#: Region classes the thrash table is keyed by. The report enumerates
#: all of them even when empty: with CC-NIC's inlined signals the
#: ``signal`` class legitimately shows zero traffic because signal bits
#:  travel inside descriptor lines.
REGION_CLASSES: Tuple[str, ...] = (
    "descriptor",
    "signal",
    "payload",
    "pool_meta",
    "other",
)


def classify_region(name: str) -> str:
    """Map a :class:`~repro.mem.region.Region` name to a thrash class.

    Covers both interface families: CC-NIC rings (``txq0_ring``...),
    doorbell/head registers (``*_tailreg``/``*_headreg``), the shared
    payload ``pool`` and its ``pool_meta``, and the PCIe NIC's BAR rings
    (``e810_txr0``/``e810_rxr0``) and head writeback lines.
    """
    if name.endswith("_tailreg") or name.endswith("_headreg"):
        return "signal"
    if name.endswith("_ring") or "_txr" in name or "_rxr" in name:
        return "descriptor"
    if "_txh" in name or "_rxh" in name:
        return "signal"
    if name == "pool":
        return "payload"
    if name == "pool_meta":
        return "pool_meta"
    return "other"


class LineStats:
    """Aggregated lifecycle statistics for one cache line."""

    __slots__ = (
        "line",
        "region",
        "cls",
        "home",
        "reads",
        "writes",
        "hits",
        "xfers",
        "pingpongs",
        "spec_reads",
        "drops",
        "dirty_drops",
        "last_xfer_socket",
        "latency_ns",
    )

    def __init__(self, line: int, region: str, cls: str, home: int) -> None:
        self.line = line
        self.region = region
        self.cls = cls
        self.home = home
        self.reads = 0
        self.writes = 0
        self.hits = 0
        self.xfers = 0  # cross-socket transfers
        self.pingpongs = 0  # alternating-socket cross-socket transfers
        self.spec_reads = 0  # reader-homed speculative memory reads
        self.drops = 0  # times some agent lost this line
        self.dirty_drops = 0  # ... while it was MODIFIED
        self.last_xfer_socket: Optional[int] = None
        self.latency_ns = 0.0  # total coherence latency charged to this line

    def as_dict(self) -> Dict[str, object]:
        return {
            "line": self.line,
            "region": self.region,
            "class": self.cls,
            "home": self.home,
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "xfers": self.xfers,
            "pingpongs": self.pingpongs,
            "spec_reads": self.spec_reads,
            "drops": self.drops,
            "dirty_drops": self.dirty_drops,
            "latency_ns": self.latency_ns,
        }


@dataclass
class RegionAudit:
    """Homing audit entry for one region."""

    region: str
    cls: str
    home: int
    cross_fetches: int = 0
    reader_homed_specs: int = 0
    flagged: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "region": self.region,
            "class": self.cls,
            "home": self.home,
            "cross_fetches": self.cross_fetches,
            "reader_homed_specs": self.reader_homed_specs,
            "flagged": self.flagged,
        }


def transition_kinds() -> Tuple[frozenset, frozenset]:
    """Transition kinds (flight labels) from the fabric's rule table.

    Returns the kinds whose rule sends link messages (the fill crossed
    the inter-socket link) and, among them, the kinds whose rule counts
    a speculative memory read (reader-homed remote fetches).
    """
    # Imported here: repro.coherence imports repro.obs.
    from repro.coherence.transitions import TRANSITIONS

    rules = TRANSITIONS.values()
    cross = frozenset(rule.observable[2:] for rule in rules if rule.messages)
    spec = frozenset(
        rule.observable[2:] for rule in rules if "spec_mem_read" in rule.counters
    )
    return cross, spec


class FlightRecorder:
    """Bounded-memory recorder for line lifecycles, calls and packet paths.

    Args:
        line_capacity: Ring size for raw line events and for call
            records; older entries are evicted (``events_dropped``
            counts line-event evictions) while the per-line aggregates
            keep counting.
        sample_every: Record every Nth submitted packet, numbered in
            submission order from 0; 1 samples everything.
        max_packets: Cap on concurrently + cumulatively tracked packets,
            bounding the per-packet event maps.
        keep_waterfalls: Full per-packet samples retained in the report.
    """

    def __init__(
        self,
        line_capacity: int = 200_000,
        sample_every: int = 1,
        max_packets: int = 4096,
        keep_waterfalls: int = 32,
    ) -> None:
        if line_capacity <= 0:
            raise ConfigError(f"line_capacity must be positive, got {line_capacity}")
        if sample_every <= 0:
            raise ConfigError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = sample_every
        self.max_packets = max_packets
        # Raw line-event ring: (ts, line, socket, write, kind, latency),
        # and in step with it the name of each event's cache agent.
        self.events: deque = deque(maxlen=line_capacity)
        self._event_agents: deque = deque(maxlen=line_capacity)
        self.events_seen = 0
        self.events_dropped = 0
        # Call ring: (actor, name, start_ns, end_ns, first, last, args),
        # where line events first..last-1 are the ones the call issued.
        self.calls: deque = deque(maxlen=line_capacity)
        self.calls_seen = 0
        self.lines: Dict[int, LineStats] = {}
        self.audits: Dict[str, RegionAudit] = {}
        # Packet tracking: pkt_id -> (run-local number, {stage: ts}).
        self._active: Dict[int, Tuple[int, Dict[str, float]]] = {}
        self._submitted = 0
        self._started = 0
        self.waterfalls = WaterfallStats(max_samples=keep_waterfalls)
        self._cross_kinds, self._spec_kinds = transition_kinds()

    # ------------------------------------------------------------------
    # Line-event surface (called from the coherence fabric)
    # ------------------------------------------------------------------
    def line_event(
        self,
        ts: float,
        line: int,
        region,
        agent,
        write: bool,
        kind: str,
        latency_ns: float,
    ) -> None:
        """Record one coherence transition of ``agent`` for ``line``.

        ``region`` is the owning :class:`~repro.mem.region.Region` (or
        None for unmapped addresses); ``agent`` is the requesting
        :class:`~repro.coherence.cache.CacheAgent`; ``kind`` names the
        transition the fabric resolved (``hit``, ``dram_local``,
        ``cache_remote_hitm``, ...).
        """
        socket = agent.socket
        self.events_seen += 1
        if len(self.events) == self.events.maxlen:
            self.events_dropped += 1
        self.events.append((ts, line, socket, write, kind, latency_ns))
        self._event_agents.append(agent.name)
        stats = self.lines.get(line)
        if stats is None:
            if region is not None:
                name, home = region.name, region.home
            else:
                name, home = "<unmapped>", -1
            stats = self.lines[line] = LineStats(
                line, name, classify_region(name), home
            )
        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.latency_ns += latency_ns
        if kind == "hit":
            stats.hits += 1
            return
        if kind in self._cross_kinds:
            stats.xfers += 1
            if (
                stats.last_xfer_socket is not None
                and stats.last_xfer_socket != socket
            ):
                stats.pingpongs += 1
            stats.last_xfer_socket = socket
            audit = self._audit(stats)
            audit.cross_fetches += 1
            if kind in self._spec_kinds:
                stats.spec_reads += 1
                audit.reader_homed_specs += 1
                audit.flagged = True

    def line_drop(self, line: int, socket: int, dirty: bool) -> None:
        """Record a holder losing ``line`` (invalidation or migration)."""
        stats = self.lines.get(line)
        if stats is None:
            return  # never saw an access for it; nothing to attribute
        stats.drops += 1
        if dirty:
            stats.dirty_drops += 1

    def _audit(self, stats: LineStats) -> RegionAudit:
        audit = self.audits.get(stats.region)
        if audit is None:
            audit = self.audits[stats.region] = RegionAudit(
                region=stats.region, cls=stats.cls, home=stats.home
            )
        return audit

    # ------------------------------------------------------------------
    # Call surface (called from the drivers and NIC queue agents)
    # ------------------------------------------------------------------
    def call(
        self, actor: str, name: str, start_ns: float, end_ns: float, first: int,
        **args: Any,
    ) -> None:
        """Record that ``actor`` ran call ``name`` over [start_ns, end_ns].

        ``first`` is :attr:`events_seen` when the call began: the line
        events recorded since then are the ones the call issued, which
        the trace parents under it. ``args`` are the call's trace args
        (``packets``, ``accepted``, ``received``, ...).
        """
        self.calls_seen += 1
        self.calls.append(
            (actor, name, start_ns, end_ns, first, self.events_seen, args)
        )

    # ------------------------------------------------------------------
    # Packet surface (called from driver/agent/app checkpoints)
    # ------------------------------------------------------------------
    def packet_begin(self, pkt_id: int, ts: float) -> bool:
        """Number a submitted packet and track it from ``tx_submit``.

        Packets are numbered in submission order from 0, and the number
        is the id the report carries, so two same-seed runs in one
        process report the same samples. Every ``sample_every``-th
        number is tracked. Returns False (and records nothing) for a
        packet already tracked, an unsampled number, or once
        ``max_packets`` packets have ever been started, bounding memory
        on long runs.
        """
        if pkt_id in self._active:
            return False
        number = self._submitted
        self._submitted += 1
        if number % self.sample_every or self._started >= self.max_packets:
            return False
        self._started += 1
        self._active[pkt_id] = (number, {"tx_submit": ts})
        return True

    def tracked(self, pkt_id: int) -> bool:
        """Whether ``pkt_id`` is currently being traced."""
        return pkt_id in self._active

    def packet_event(self, pkt_id: int, stage: str, ts: float) -> None:
        """Record a stage checkpoint; last write wins for repeated stages."""
        entry = self._active.get(pkt_id)
        if entry is not None:
            entry[1][stage] = ts

    def packet_finish(self, pkt_id: int, ts: float) -> None:
        """Close a packet's trace at host ``rx_read`` and aggregate it."""
        entry = self._active.pop(pkt_id, None)
        if entry is None:
            return
        number, events = entry
        events["rx_read"] = ts
        self.waterfalls.add(build_waterfall(number, events))

    def packet_egress(self, pkt_id: int) -> None:
        """Close a packet's trace as it leaves through a transmit sink.

        A response an application hands to a modelled peer never comes
        back to a host ``rx_read``: it counts in the waterfall's
        ``egressed`` and adds no partial waterfall to the stage stats.
        """
        if self._active.pop(pkt_id, None) is not None:
            self.waterfalls.egressed += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def top_lines(self, top: int = 10) -> List[LineStats]:
        """Worst thrashing lines: most cross-socket transfers first."""
        return sorted(
            self.lines.values(),
            key=lambda s: (s.xfers, s.pingpongs, s.latency_ns),
            reverse=True,
        )[:top]

    def class_summary(self) -> Dict[str, Dict[str, float]]:
        """Thrash totals per region class; all classes always present."""
        out: Dict[str, Dict[str, float]] = {
            cls: {
                "lines": 0,
                "reads": 0,
                "writes": 0,
                "xfers": 0,
                "pingpongs": 0,
                "spec_reads": 0,
                "latency_ns": 0.0,
            }
            for cls in REGION_CLASSES
        }
        for stats in self.lines.values():
            row = out.setdefault(
                stats.cls,
                {
                    "lines": 0,
                    "reads": 0,
                    "writes": 0,
                    "xfers": 0,
                    "pingpongs": 0,
                    "spec_reads": 0,
                    "latency_ns": 0.0,
                },
            )
            row["lines"] += 1
            row["reads"] += stats.reads
            row["writes"] += stats.writes
            row["xfers"] += stats.xfers
            row["pingpongs"] += stats.pingpongs
            row["spec_reads"] += stats.spec_reads
            row["latency_ns"] += stats.latency_ns
        return out

    def report(
        self,
        top: int = 10,
        config: Optional[Dict[str, Any]] = None,
        scenario: Optional[str] = None,
        spec_fingerprint: Optional[str] = None,
    ) -> Dict:
        """Full flight report (see ``repro.obs/flight-v1`` schema docs).

        ``scenario`` and ``spec_fingerprint`` stamp the report with the
        run it came from; loaders ignore the fields when absent, so
        pre-stamp documents keep loading.
        """
        incomplete = len(self._active)
        self.waterfalls.incomplete = incomplete
        doc: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "line_events": {
                "seen": self.events_seen,
                "dropped": self.events_dropped,
                "retained": len(self.events),
            },
            "classes": self.class_summary(),
            "thrash": [stats.as_dict() for stats in self.top_lines(top)],
            "homing_audit": [
                audit.as_dict()
                for audit in sorted(self.audits.values(), key=lambda a: a.region)
            ],
            "waterfall": self.waterfalls.as_dict(),
        }
        if config:
            doc["config"] = dict(config)
        if scenario is not None:
            doc["scenario"] = scenario
        if spec_fingerprint is not None:
            doc["spec_fingerprint"] = spec_fingerprint
        return doc

    def counter_tracks(self, buckets: int = 64, pid: int = 0) -> List[Dict[str, Any]]:
        """Chrome/Perfetto counter events: cross-socket xfers per kind.

        Buckets the retained line-event ring into ``buckets`` time bins
        and emits one ``"ph": "C"`` sample per bin, under Chrome process
        ``pid``, so the thrash rate shows up as a counter track beside
        the calls.
        """
        cross = [
            (ts, kind) for ts, _l, _s, _w, kind, _n in self.events
            if kind in self._cross_kinds
        ]
        if not cross:
            return []
        t0 = cross[0][0]
        t1 = cross[-1][0]
        width = max((t1 - t0) / buckets, 1.0)
        bins: List[Dict[str, int]] = [dict() for _ in range(buckets)]
        classes_seen = set()
        for ts, kind in cross:
            idx = min(int((ts - t0) / width), buckets - 1)
            # Attribute the event to a class via its per-line stats kind
            # is coarse; counter tracks report transition kinds instead.
            bins[idx][kind] = bins[idx].get(kind, 0) + 1
            classes_seen.add(kind)
        events = []
        for idx, bag in enumerate(bins):
            if not bag:
                continue
            ts_us = (t0 + idx * width) / 1000.0
            events.append(
                {
                    "name": "cross_socket_xfers",
                    "ph": "C",
                    "ts": ts_us,
                    "pid": pid,
                    "tid": 0,
                    "args": {kind: bag.get(kind, 0) for kind in sorted(classes_seen)},
                }
            )
        return events

    def chrome_events(self, pid: int = 0) -> Iterator[Dict[str, Any]]:
        """The retained calls and line events as Chrome trace events.

        Every cache agent gets a thread track (a ``thread_name``
        metadata row) under Chrome process ``pid``. Each retained call
        becomes a complete (``"X"``) event whose top-level ``id`` is its
        call number; each retained line event becomes an instant
        (``"i"``) named by its transition kind, with its region, and,
        when a retained call on the same track issued it, that call's
        number as ``parent``. The cross-socket counter track follows.
        Virtual ns map to trace µs. Events are built as they are
        consumed, so a writer holds one at a time.
        """
        actors = sorted(set(self._event_agents).union(call[0] for call in self.calls))
        tids = {actor: tid for tid, actor in enumerate(actors, 1)}
        for actor, tid in tids.items():
            yield {
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": actor},
            }

        def call_event(call, number: int) -> Dict[str, Any]:
            actor, name, start_ns, end_ns, _first, _last, args = call
            return {
                "name": name, "cat": "call", "ph": "X", "pid": pid,
                "tid": tids[actor], "id": number, "ts": start_ns / 1000.0,
                "dur": (end_ns - start_ns) / 1000.0, "args": args,
            }

        calls = iter(self.calls)
        number = self.calls_seen - len(self.calls)
        pending = next(calls, None)
        # (number, actor, end position) of the latest call begun so far.
        parent = None
        position = self.events_seen - len(self.events)
        lines = self.lines
        for event, actor in zip(self.events, self._event_agents):
            while pending is not None and pending[4] <= position:
                yield call_event(pending, number)
                parent = (number, pending[0], pending[5])
                number += 1
                pending = next(calls, None)
            ts, line, _socket, write, kind, latency_ns = event
            args: Dict[str, Any] = {
                "region": lines[line].region,
                "op": "write" if write else "read",
                "latency_ns": latency_ns,
            }
            if parent is not None and position < parent[2] and parent[1] == actor:
                args["parent"] = parent[0]
            yield {
                "name": kind, "cat": "line", "ph": "i", "s": "t", "pid": pid,
                "tid": tids[actor], "ts": ts / 1000.0, "args": args,
            }
            position += 1
        while pending is not None:
            yield call_event(pending, number)
            number += 1
            pending = next(calls, None)
        yield from self.counter_tracks(pid=pid)

    def to_chrome(self, pid: int = 0) -> Dict[str, Any]:
        """:meth:`chrome_events` as one Chrome trace dict."""
        return {"traceEvents": list(self.chrome_events(pid)), "displayTimeUnit": "ns"}
