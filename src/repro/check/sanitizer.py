"""Runtime happens-before sanitizer for the simulated CC-NIC protocol.

The :class:`Sanitizer` attaches like the flight recorder, in the
:class:`~repro.obs.Observability` bundle passed as ``obs=``: every
hooked component keeps a class-level ``sanitizer = None`` attribute,
so detached runs pay one attribute test per burst and allocate nothing.
Attached, it watches the fabric's memoized plan path — the fabric calls
:meth:`Sanitizer.spec_read` on every reader-homed remote-cache fetch —
so sanitized runs stay bit-identical in simulated metrics to unsanitized ones (the
flight-recorder contract).

Checked contracts, one rule id each:

``read-before-signal``
    A descriptor was consumed before its inlined signal was observable:
    the slot was never published, the producer's store had not retired
    (``visible_at`` in the future), the consume was not happens-before
    ordered after the publish, or (register mode) the slot lay beyond
    the tail value the consumer had actually read.
``torn-group-read``
    The grouped (OPT) layout was consumed at sub-line granularity: a
    poll gated on a non-group-aligned position, or moved on while a
    group line was only partially consumed.
``double-reap``
    A descriptor slot was consumed twice.
``blank-skip``
    A zero-padded blank descriptor was emitted as a work item instead
    of being skipped (the paper's blank-skip rule).
``use-after-free``
    Pool buffer payload touched after being freed, or while its
    ownership was in flight on a descriptor ring.
``double-free``
    Pool buffer freed while already free.
``writer-homing``
    A reader-side speculative read fetched writer-homed metadata
    (descriptor/signal region classes) from a remote cache — the same
    event class the flight recorder's homing audit counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.check.hb import HBTracker
from repro.errors import SanitizerError
from repro.obs.export import SANITIZE_SCHEMA
from repro.obs.flight import classify_region

#: Region classes whose lines are single-writer, writer-homed metadata
#: under CC-NIC's homing contract. Payload buffers are deliberately
#: host-homed and may be speculatively read (§3.1), and pool metadata
#: is multi-writer by design (per-side recycling stacks with cross-side
#: buffer handoff), so neither is flagged.
METADATA_CLASSES = frozenset({"descriptor", "signal"})

#: Descriptors per grouped line (mirrors repro.core.ring.GROUP).
_GROUP = 4


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding."""

    rule: str
    message: str
    addr: Optional[int]
    agents: Tuple[str, ...]
    sim_time: float
    location: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "message": self.message,
            "addr": self.addr,
            "agents": list(self.agents),
            "sim_time": self.sim_time,
            "location": self.location,
        }


class _QueueState:
    """Per-ring sanitizer bookkeeping (slots are monotonic positions)."""

    __slots__ = (
        "published", "reaped", "reap_floor", "open_group", "open_seen",
        "signal_tail", "signal_visible", "acquired_tail",
    )

    def __init__(self) -> None:
        # position -> (visible_at, has_item); popped on consume.
        self.published: Dict[int, Tuple[float, bool]] = {}
        self.reaped: Set[int] = set()
        self.reap_floor = 0
        self.open_group: Optional[int] = None
        self.open_seen = 0
        self.signal_tail = 0
        self.signal_visible = 0.0
        # Register mode: tail value each consumer has actually observed.
        self.acquired_tail: Dict[str, int] = {}


class Sanitizer:
    """Happens-before race and ownership checker for one simulated system.

    Args:
        strict: Fail fast — the first violation raises
            :class:`~repro.errors.SanitizerError` instead of recording.
        max_findings: Cap on retained :class:`Violation` records; the
            per-rule counters keep counting past it.
    """

    def __init__(self, strict: bool = False, max_findings: int = 10000) -> None:
        self.strict = strict
        self.max_findings = max_findings
        self.hb = HBTracker()
        self.violations: List[Violation] = []
        self.counts: Dict[str, int] = {}
        self.events = 0
        self._sim = None
        self._queues: Dict[str, _QueueState] = {}
        # buf_id -> ("owned", agent) | ("inflight", queue) | ("free", agent)
        self._bufs: Dict[int, Tuple[str, str]] = {}
        self._spec_lines: Set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Bind the simulator whose clock stamps pool/payload findings."""
        self._sim = sim

    def _now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    def _queue_state(self, queue) -> _QueueState:
        state = self._queues.get(queue.name)
        if state is None:
            state = self._queues[queue.name] = _QueueState()
        return state

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _flag(
        self,
        rule: str,
        message: str,
        addr: Optional[int],
        agents: Tuple[str, ...],
        sim_time: float,
        location: str,
    ) -> None:
        self.counts[rule] = self.counts.get(rule, 0) + 1
        if len(self.violations) < self.max_findings:
            self.violations.append(
                Violation(rule, message, addr, agents, sim_time, location)
            )
        if self.strict:
            where = f" at {addr:#x}" if addr is not None else ""
            raise SanitizerError(
                f"[{rule}] {message}{where} (t={sim_time:.1f}ns, "
                f"agents={','.join(agents)}, {location})",
                rule=rule,
                addr=addr,
                agents=agents,
                sim_time=sim_time,
            )

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def report(
        self,
        config: Optional[Dict[str, Any]] = None,
        scenario: Optional[str] = None,
        spec_fingerprint: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Schema-stamped report for :func:`repro.obs.export.export_doc`.

        ``scenario`` and ``spec_fingerprint`` stamp the report with the
        run it came from; loaders ignore the fields when absent.
        """
        doc = {
            "schema": SANITIZE_SCHEMA,
            "strict": self.strict,
            "events": self.events,
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "truncated": self.total > len(self.violations),
            "findings": [v.as_dict() for v in self.violations],
            "config": dict(config or {}),
        }
        if scenario is not None:
            doc["scenario"] = scenario
        if spec_fingerprint is not None:
            doc["spec_fingerprint"] = spec_fingerprint
        return doc

    # ------------------------------------------------------------------
    # Ring hooks (called by repro.core.ring.CoherentQueue when attached)
    # ------------------------------------------------------------------
    def group_publish(self, queue, agent, base: int, group, visible: float) -> None:
        """A whole grouped (OPT) line published; blanks pad to GROUP."""
        self.events += 1
        state = self._queue_state(queue)
        published = state.published
        for offset in range(_GROUP):
            published[base + offset] = (visible, offset < len(group))
        self.hb.release(agent.name, (queue.name, base))
        for item in group:
            self._item_inflight(item, queue)

    def slot_publish(self, queue, agent, index: int, item, visible: float) -> None:
        """One per-descriptor or register-mode slot published."""
        self.events += 1
        state = self._queue_state(queue)
        state.published[index] = (visible, True)
        if queue.inline_signals:
            # Each padded/packed descriptor carries its own signal.
            self.hb.release(agent.name, (queue.name, index))
        self._item_inflight(item, queue)

    def signal_publish(self, queue, agent, tail: int, visible: float) -> None:
        """Register mode: the producer's tail-register store."""
        self.events += 1
        state = self._queue_state(queue)
        state.signal_tail = tail
        state.signal_visible = visible
        self.hb.release(agent.name, (queue.name, "tail"))

    def signal_observe(self, queue, agent, base, now: float) -> None:
        """The consumer's poll passed the signal gate for ``base``.

        ``base`` is the group base (grouped), the slot position
        (per-descriptor), or the string ``"tail"`` (register mode).
        """
        self.events += 1
        state = self._queue_state(queue)
        self.hb.acquire(agent.name, (queue.name, base))
        if base == "tail":
            if now < state.signal_visible:
                self._flag(
                    "read-before-signal",
                    "tail register observed before the producer's store retired "
                    f"(retires at t={state.signal_visible:.1f}ns)",
                    queue.tail_reg.base if queue.tail_reg is not None else None,
                    (agent.name,),
                    now,
                    f"queue {queue.name}",
                )
            state.acquired_tail[agent.name] = state.signal_tail
        elif queue.grouped and base % _GROUP:
            self._flag(
                "torn-group-read",
                f"poll gated on non-group-aligned position {base} "
                f"(groups of {_GROUP})",
                queue.line_addr(base),
                (agent.name,),
                now,
                f"queue {queue.name}",
            )

    def slot_consume(
        self,
        queue,
        agent,
        index: int,
        item,
        now: float,
        emitted: bool,
        blank: bool = False,
    ) -> None:
        """One descriptor slot consumed (blanks included, ``item=None``)."""
        self.events += 1
        state = self._queue_state(queue)
        name = agent.name
        addr = queue.line_addr(index)
        where = f"queue {queue.name}"

        if index < state.reap_floor or index in state.reaped:
            self._flag(
                "double-reap",
                f"descriptor slot {index} consumed twice",
                addr, (name,), now, where,
            )
        pub = state.published.pop(index, None)
        if pub is None:
            if index >= state.reap_floor and index not in state.reaped:
                self._flag(
                    "read-before-signal",
                    f"descriptor slot {index} consumed but never published",
                    addr, (name,), now, where,
                )
        elif pub[0] > now:
            self._flag(
                "read-before-signal",
                f"descriptor slot {index} consumed at t={now:.1f}ns before the "
                f"producer's store retires at t={pub[0]:.1f}ns",
                addr, (name,), now, where,
            )
        elif queue.inline_signals:
            key = (
                (queue.name, index - index % _GROUP)
                if queue.grouped
                else (queue.name, index)
            )
            if not self.hb.ordered(name, key):
                self._flag(
                    "read-before-signal",
                    f"consume of slot {index} is not happens-before ordered "
                    "after its publish (signal never observed)",
                    addr, (name,), now, where,
                )
            if not queue.grouped:
                self.hb.forget(key)
            elif index % _GROUP == _GROUP - 1:
                # Last slot of the line: the group's release key is dead.
                self.hb.forget(key)
        else:
            if index >= state.acquired_tail.get(name, 0):
                self._flag(
                    "read-before-signal",
                    f"slot {index} consumed beyond the observed tail "
                    f"({state.acquired_tail.get(name, 0)})",
                    addr, (name,), now, where,
                )
        if blank and emitted:
            self._flag(
                "blank-skip",
                f"zero-padded blank at slot {index} emitted as a work item",
                addr, (name,), now, where,
            )
        if queue.grouped:
            group_base = index - index % _GROUP
            if state.open_group is not None and group_base != state.open_group:
                if state.open_seen < _GROUP:
                    self._flag(
                        "torn-group-read",
                        f"group at {state.open_group} left partially consumed "
                        f"({state.open_seen}/{_GROUP} slots) before moving on",
                        queue.line_addr(state.open_group), (name,), now, where,
                    )
                state.open_seen = 0
            if group_base != state.open_group:
                state.open_group = group_base
            state.open_seen += 1
        state.reaped.add(index)
        reaped = state.reaped
        floor = state.reap_floor
        while floor in reaped:
            reaped.discard(floor)
            floor += 1
        state.reap_floor = floor
        if item is not None:
            self._item_consumed(item, agent)

    def queue_reset(self, queue) -> None:
        """Ring reinitialized (watchdog recovery): drop stale state."""
        self.events += 1
        state = self._queue_state(queue)
        state.published.clear()
        state.reaped.clear()
        state.reap_floor = queue.tail
        state.open_group = None
        state.open_seen = 0
        state.acquired_tail.clear()

    # ------------------------------------------------------------------
    # Buffer-ownership hooks (pool + payload accessors)
    # ------------------------------------------------------------------
    def _item_inflight(self, item, queue) -> None:
        """Descriptor published: its buffer's ownership rides the ring."""
        buf = getattr(item, "buf", None)
        if buf is None or _is_continuation(item):
            # Continuation descriptors alias the head buffer; the head
            # descriptor governs the chain's ownership.
            return
        bufs = self._bufs
        for seg in buf.segments():
            if not seg.external:
                bufs[seg.buf_id] = ("inflight", queue.name)

    def _item_consumed(self, item, agent) -> None:
        """Descriptor consumed: the consumer now owns the buffer."""
        buf = getattr(item, "buf", None)
        if buf is None or _is_continuation(item):
            return
        bufs = self._bufs
        for seg in buf.segments():
            if not seg.external:
                bufs[seg.buf_id] = ("owned", agent.name)

    def pool_alloc(self, pool, agent, bufs) -> None:
        """Buffers handed out by the pool; the allocator owns them."""
        self.events += 1
        table = self._bufs
        for buf in bufs:
            table[buf.buf_id] = ("owned", agent.name)

    def pool_free(self, pool, agent, buf) -> None:
        """One buffer returned to the pool (called before the state flip,
        so a double free is recorded even though the pool then raises)."""
        self.events += 1
        state = self._bufs.get(buf.buf_id)
        already_free = (state is not None and state[0] == "free") or not buf._allocated
        if already_free:
            self._flag(
                "double-free",
                f"buffer {buf.buf_id} freed while already free",
                buf.addr, (agent.name,), self._now(), "pool",
            )
        self._bufs[buf.buf_id] = ("free", agent.name)

    def buf_access(self, agent, buf, write: bool) -> None:
        """Payload bytes touched by ``agent`` (host driver or NIC)."""
        self.events += 1
        bufs = self._bufs
        now = self._now()
        verb = "written" if write else "read"
        for seg in buf.segments():
            if seg.external:
                continue
            state = bufs.get(seg.buf_id)
            if state is None:
                continue
            if state[0] == "free":
                self._flag(
                    "use-after-free",
                    f"buffer {seg.buf_id} payload {verb} after being freed "
                    f"(freed by {state[1]})",
                    seg.addr, (agent.name,), now, "pool",
                )
            elif state[0] == "inflight":
                self._flag(
                    "use-after-free",
                    f"buffer {seg.buf_id} payload {verb} while its ownership "
                    f"is in flight on {state[1]}",
                    seg.addr, (agent.name,), now, f"queue {state[1]}",
                )

    # ------------------------------------------------------------------
    # Fabric hook
    # ------------------------------------------------------------------
    def spec_read(self, now: float, line: int, region, agent, write: bool) -> None:
        """A reader-homed speculative remote-cache fetch happened.

        Cross-checks the flight recorder's homing audit: the same
        ``cache_remote_spec`` events it counts per region are flagged
        here when a *read* hits writer-homed metadata classes. Writer
        accesses take the same fabric path when the reader has pulled
        the line to its cache — that is the intended HitM publish
        pattern, not a homing violation, so writes are exempt.
        """
        self.events += 1
        if write:
            return
        cls = classify_region(region.name)
        if cls not in METADATA_CLASSES:
            return
        if line in self._spec_lines and not self.strict:
            # One retained finding per line; the counter keeps counting.
            self.counts["writer-homing"] += 1
            return
        self._spec_lines.add(line)
        self._flag(
            "writer-homing",
            f"reader-side speculative read of {cls} metadata in region "
            f"{region.name!r} (homed on socket {region.home})",
            line * 64,
            (agent.name,),
            now,
            f"region {region.name}",
        )


def _is_continuation(item) -> bool:
    """True for multi-segment continuation descriptors (driver marker)."""
    pkt = getattr(item, "pkt", None)
    return isinstance(pkt, str) and pkt == "cont"
