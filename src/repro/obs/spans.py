"""Simulated-time span tracing with parent linkage.

A :class:`Span` covers an interval of **virtual** time (ns) and may be
nested: while a span is open, newly begun spans and recorded instants
become its children. Besides "what happened around t=X" (zero-length
instants), spans answer "what did this ``tx_burst`` spend its 840ns
on" by parenting the per-descriptor coherence transactions under the
burst that issued them.

Nesting uses an explicit open-span stack, which is sound here because
instrumented driver calls are synchronous within one simulator process
step — a span must never stay open across a generator ``yield``, or it
would interleave with other processes.

:meth:`SpanTracer.to_chrome` serializes the timeline as Chrome trace
format (complete ``"X"`` events in µs), loadable in ``chrome://tracing``
or https://ui.perfetto.dev.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.errors import ConfigError


@dataclass
class Span:
    """One interval of virtual time, possibly nested under a parent."""

    sid: int
    name: str
    actor: str = ""
    category: str = ""
    start_ns: float = 0.0
    end_ns: Optional[float] = None
    parent: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        """Span length; 0 while still open or for instants."""
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    @property
    def is_instant(self) -> bool:
        """True for zero-duration point events recorded via ``instant``."""
        return bool(self.args.get("_instant"))

    def __str__(self) -> str:
        return (
            f"[{self.start_ns:12.1f}ns +{self.duration_ns:8.1f}] "
            f"{self.actor:<14} {self.name}"
        )


class SpanTracer:
    """Bounded recorder of nested virtual-time spans."""

    enabled = True

    #: The fabric whose accesses :meth:`attach_fabric` records, or None.
    fabric = None

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        self.capacity = capacity
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._next_sid = 0
        self.dropped = 0

    # -- recording -------------------------------------------------------

    def begin(
        self,
        name: str,
        actor: str = "",
        category: str = "",
        start_ns: float = 0.0,
        **args: Any,
    ) -> Span:
        """Open a span at virtual time ``start_ns`` and push it.

        Spans begun before this one ends become its children. Pair
        with :meth:`end`, or use :meth:`span` to scope automatically.
        """
        parent = self._stack[-1].sid if self._stack else None
        span = Span(
            sid=self._next_sid,
            name=name,
            actor=actor,
            category=category,
            start_ns=start_ns,
            parent=parent,
            args=dict(args),
        )
        self._next_sid += 1
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, end_ns: float = 0.0) -> None:
        """Close ``span`` at ``end_ns`` and pop it off the open stack."""
        span.end_ns = max(end_ns, span.start_ns)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        actor: str = "",
        category: str = "",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        **args: Any,
    ) -> Iterator[Span]:
        """Scoped begin/end. ``end_ns`` defaults to the span's own
        ``end_ns`` attribute if the body set one, else ``start_ns`` —
        virtual time is advanced by the caller, not a wall clock, so
        the closing stamp must be stated explicitly."""
        span = self.begin(name, actor, category, start_ns, **args)
        try:
            yield span
        finally:
            close = span.end_ns if span.end_ns is not None else end_ns
            self.end(span, close if close is not None else start_ns)

    def instant(self, name: str, actor: str = "", ts: float = 0.0, **args: Any) -> Span:
        """Record a zero-duration point event under the open span."""
        parent = self._stack[-1].sid if self._stack else None
        args["_instant"] = True
        span = Span(
            sid=self._next_sid,
            name=name,
            actor=actor,
            category="instant",
            start_ns=ts,
            end_ns=ts,
            parent=parent,
            args=args,
        )
        self._next_sid += 1
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        return span

    # -- queries ---------------------------------------------------------

    def spans(self) -> List[Span]:
        """All retained spans, in begin order."""
        return list(self._spans)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``."""
        return [s for s in self._spans if s.parent == span.sid]

    def roots(self) -> List[Span]:
        """Spans with no parent."""
        return [s for s in self._spans if s.parent is None]

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.dropped = 0

    # -- fabric hook -----------------------------------------------------

    @contextlib.contextmanager
    def attach_fabric(self, fabric) -> Iterator["SpanTracer"]:
        """Record each coherence access as an instant while active.

        Instants land under whatever span is open at the time — inside
        a traced ``tx_burst`` they become that burst's children, which
        is exactly the descriptor-to-transaction linkage the trace
        viewer shows. Wraps ``fabric.access`` and restores it on exit.

        Fabric audit: the wrapper is *pure* with respect to the
        fabric — it calls the original bound method (plan path intact
        underneath) and only appends to this tracer — so traced and
        untraced runs produce identical metric fingerprints (regression
        test: ``test_flight.py::TestSpanTracerFabricAudit``). The
        memoized transition plans are invalidated on attach and detach:
        rebuilt plans are deterministic, so this costs one rebuild and
        buys the invariant that the traced region starts from a clean
        plan table. Note the fabric's
        ``access_burst`` does not route through ``access``, so burst
        payload traffic is invisible to this debug hook
        — the flight recorder's per-line events cover bursts instead.
        """
        original = fabric.access
        invalidate = getattr(fabric, "invalidate_plans", None)

        def traced(agent, addr, size, write):
            latency = original(agent, addr, size, write)
            self.record_access(fabric, agent, addr, size, write, latency, fabric.sim.now)
            return latency

        if invalidate is not None:
            invalidate()
        fabric.access = traced
        previous, self.fabric = self.fabric, fabric
        try:
            yield self
        finally:
            fabric.access = original
            self.fabric = previous
            if invalidate is not None:
                invalidate()

    def record_access(
        self, fabric, agent, addr: int, size: int, write: bool, latency: float, ts: float
    ) -> None:
        """The instant :meth:`attach_fabric` records for one access.

        Also called for the accesses of polls a poller skipped (see
        :meth:`repro.core.driver.CcnicDriver.skip_idle_polls`).
        """
        region = fabric.space.try_region_of(addr)
        self.instant(
            "write" if write else "read",
            actor=agent.name,
            ts=ts,
            region=region.name if region is not None else "?",
            size=size,
            latency_ns=latency,
        )

    # -- export ----------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome-trace-format dict (``{"traceEvents": [...]}``).

        Virtual ns map to trace µs. Each actor becomes a "thread" with
        a metadata name event; closed spans become complete (``"X"``)
        events and instants become ``"i"`` events.
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[str, int] = {}
        for span in self._spans:
            actor = span.actor or "sim"
            tid = tids.get(actor)
            if tid is None:
                tid = len(tids) + 1
                tids[actor] = tid
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": actor},
                    }
                )
            args = {k: v for k, v in span.args.items() if not k.startswith("_")}
            if span.parent is not None:
                args["parent"] = span.parent
            common = {
                "name": span.name,
                "cat": span.category or "span",
                "pid": 1,
                "tid": tid,
                "ts": span.start_ns / 1000.0,
                "args": args,
            }
            if span.is_instant:
                events.append({**common, "ph": "i", "s": "t"})
            elif span.end_ns is not None:
                events.append({**common, "ph": "X", "dur": span.duration_ns / 1000.0})
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def __repr__(self) -> str:
        return f"SpanTracer({len(self._spans)} spans, {len(self._stack)} open)"
