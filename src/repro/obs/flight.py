"""Cache-line flight recorder: line lifecycles + packet critical paths.

The :class:`FlightRecorder` answers the questions CC-NIC's design is
built around — *which cache lines bounce between sockets, and where does
a packet's latency go?* It has two independent recording surfaces:

* **Line events** from the coherence fabric: every
  access records its transition kind, requester socket, and latency
  into a bounded ring, and is folded into per-line statistics
  (ping-pong counts, cross-socket transfer totals), a region-classified
  thrash table, and a homing audit flagging reader-homed speculative
  memory reads that writer-homing is supposed to eliminate.
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
from typing import Any, Dict, List, Optional, Tuple

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
    """Bounded-memory recorder for line lifecycles and packet paths.

    Args:
        line_capacity: Ring size for raw line events; older events are
            evicted (``events_dropped`` counts evictions) while the
            per-line aggregates keep counting.
        sample_every: Record every Nth packet (by ``pkt_id``); 1 samples
            everything.
        max_packets: Cap on concurrently + cumulatively tracked packets,
            bounding the per-packet event maps.
        keep_waterfalls: Full per-packet samples retained in the report.
    """

    def __init__(
        self,
        line_capacity: int = 65536,
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
        # Raw line-event ring: (ts, line, socket, write, kind, latency).
        self.events: deque = deque(maxlen=line_capacity)
        self.events_seen = 0
        self.events_dropped = 0
        self.lines: Dict[int, LineStats] = {}
        self.audits: Dict[str, RegionAudit] = {}
        # Packet tracking.
        self._active: Dict[int, Dict[str, float]] = {}
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
        socket: int,
        write: bool,
        kind: str,
        latency_ns: float,
    ) -> None:
        """Record one coherence transition for ``line``.

        ``region`` is the owning :class:`~repro.mem.region.Region` (or
        None for unmapped addresses); ``kind`` names the transition the
        fabric resolved (``hit``, ``dram_local``, ``cache_remote_hitm``,
        ...).
        """
        self.events_seen += 1
        if len(self.events) == self.events.maxlen:
            self.events_dropped += 1
        self.events.append((ts, line, socket, write, kind, latency_ns))
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
    # Packet surface (called from driver/agent/app checkpoints)
    # ------------------------------------------------------------------
    def want(self, pkt_id: int) -> bool:
        """Sampling decision for ``pkt_id`` (deterministic, id-based)."""
        return pkt_id % self.sample_every == 0

    def packet_begin(self, pkt_id: int, ts: float) -> bool:
        """Start tracking a packet at its ``tx_submit`` checkpoint.

        Returns False (and records nothing) once ``max_packets`` packets
        have ever been started, bounding memory on long runs.
        """
        if self._started >= self.max_packets or pkt_id in self._active:
            return False
        self._started += 1
        self._active[pkt_id] = {"tx_submit": ts}
        return True

    def tracked(self, pkt_id: int) -> bool:
        """Whether ``pkt_id`` is currently being traced."""
        return pkt_id in self._active

    def packet_event(self, pkt_id: int, stage: str, ts: float) -> None:
        """Record a stage checkpoint; last write wins for repeated stages."""
        events = self._active.get(pkt_id)
        if events is not None:
            events[stage] = ts

    def packet_finish(self, pkt_id: int, ts: float) -> None:
        """Close a packet's trace at host ``rx_read`` and aggregate it."""
        events = self._active.pop(pkt_id, None)
        if events is None:
            return
        events["rx_read"] = ts
        self.waterfalls.add(build_waterfall(pkt_id, events))

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

    def counter_tracks(self, buckets: int = 64) -> List[Dict[str, Any]]:
        """Chrome/Perfetto counter events: cross-socket xfers per class.

        Buckets the retained line-event ring into ``buckets`` time bins
        and emits one ``"ph": "C"`` sample per bin so the thrash rate
        shows up as counter tracks alongside the span trace.
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
                    "pid": 0,
                    "tid": 0,
                    "args": {kind: bag.get(kind, 0) for kind in sorted(classes_seen)},
                }
            )
        return events
