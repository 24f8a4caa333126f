"""A small discrete-event simulation engine.

The engine advances a virtual nanosecond clock and interleaves *processes*.
A process is a Python generator that yields the number of nanoseconds it
wants to sleep before its next step::

    def poller(sim):
        while True:
            work_ns = do_poll()
            yield work_ns

    sim = Simulator()
    sim.spawn(poller(sim), name="poller")
    sim.run(until=10_000)

Yielding ``0`` (or any non-negative float) reschedules the process after
that much virtual time; other processes scheduled earlier run first.
Processes end by returning. The engine is deterministic: ties in time are
broken by spawn order, then scheduling order.

The loop drains same-timestamp events as one *cohort*, reuses one
mutable event record per process step instead of allocating a fresh
tuple, dispatches a rescheduled step directly when it is strictly
earlier than every queued event (the dominant single-runnable-process
case), and switches to a bucketed
:class:`~repro.sim.calqueue.CalendarQueue` when the pending event count
grows large. Its schedule is the one a plain heap-per-event loop gives;
``tests/test_engine_twin_property.py`` keeps such a loop as the oracle.

``events_executed`` counts an event as executed the moment it is taken
off the queue, *before* its handler runs. If a process step raises, the
failing event is therefore included in the count, ``now`` holds its
timestamp, and ``stop_when`` is not consulted for it — the exception
propagates out of :meth:`Simulator.run` with the simulator in that
consistent state.

A process whose next steps would repeat its current one exactly may
skip them instead of being dispatched for each: it asks
:meth:`Simulator.horizon` how far it may go, accounts what the skipped
steps would have left behind, and yields a :class:`Resume` naming the
first step it did not skip and how many it skipped. The engine counts
the skipped steps as executed events (in ``events_executed`` and
against ``max_events``) and advances the scheduling sequence as their
reschedules would have, so ``now``, the event count, the dispatch order
and every run fingerprint are those of the step-by-step run. Only two
things differ: events/sec counts model steps, not host dispatches, and
a skipped step is not offered to ``stop_when`` — every caller in
``repro`` passes a pure read of a done flag, which a skipped step
cannot change.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Generator, Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.instrument import Instrumented
from repro.sim.calqueue import CalendarQueue

#: Type of the generators the engine runs.
ProcessBody = Generator[float, None, None]

#: Event-record kind codes. Records are mutable lists
#: ``[when, seq, kind, payload]``; ``seq`` is unique per simulator so
#: record comparison never reaches the payload.
_STEP = 0
_CALL = 1


class Delay(float):
    """Explicit wrapper for a yielded delay; plain floats work too."""


class Resume:
    """Yielded instead of a delay by a process that skipped steps.

    ``steps`` of the process's own steps were skipped, each strictly
    earlier than the ``when`` :meth:`Simulator.horizon` returned and
    within its step budget, and the process resumes at the absolute
    time ``when`` — computed by the process the way the engine would
    have, one ``when + delay`` per skipped step.
    """

    __slots__ = ("when", "steps")

    def __init__(self, when: float, steps: int) -> None:
        self.when = when
        self.steps = steps

    def __lt__(self, other) -> bool:
        # The engine's delay check (``delay < 0``) routes a Resume off
        # the plain-delay path without a type test on every step.
        return True

    def __repr__(self) -> str:
        return f"Resume(when={self.when!r}, steps={self.steps})"


class Process:
    """Handle to a spawned process.

    Attributes:
        name: Human-readable label, used in error messages.
        done: True once the generator has returned or was stopped.
        pid: Per-simulator id (spawn order, starting at 1), assigned by
            :meth:`Simulator.spawn`. There is deliberately no global
            fallback counter: pids are a per-simulator namespace, and a
            shared class-level counter would leak spawn history between
            simulators living in one interpreter.
        footprint: Optional frozenset of opaque tokens naming the state
            this process touches. Two same-timestamp steps whose
            footprints are disjoint commute, which lets the cohort
            explorer (:mod:`repro.check.explore`) prune redundant
            dispatch orders. ``None`` (the default) means "unknown" and
            is never treated as disjoint from anything.
    """

    __slots__ = ("body", "name", "done", "pid", "footprint")

    def __init__(
        self,
        body: ProcessBody,
        name: str,
        pid: Optional[int] = None,
        footprint: Optional[frozenset] = None,
    ):
        if not hasattr(body, "send"):
            raise SimulationError(
                f"process {name!r} must be a generator, got {type(body).__name__}"
            )
        if pid is None:
            raise SimulationError(
                f"process {name!r} constructed without a pid; create processes "
                "through Simulator.spawn(), which assigns per-simulator ids"
            )
        self.body = body
        self.name = name
        self.done = False
        self.pid = pid
        self.footprint = None if footprint is None else frozenset(footprint)

    def stop(self) -> None:
        """Prevent any further steps of this process."""
        self.done = True
        self.body.close()

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} pid={self.pid} {state}>"


class Simulator(Instrumented):
    """Event loop owning the virtual clock.

    The clock starts at 0.0 ns and only moves forward. All model objects
    that need the current time should hold a reference to the simulator
    and read :attr:`now`.
    """

    #: Pending-event count at which the heap migrates into a bucketed
    #: calendar queue (O(1)-ish hold/pop under heavy load).
    CALENDAR_THRESHOLD = 4096

    #: Optional :class:`repro.obs.timeline.TimelineSampler`; when
    #: attached, window rolls piggyback on clock advances. Never
    #: scheduled as an event, so ``events_executed``/``now`` — and run
    #: fingerprints — are identical with or without it.
    timeline = None

    #: Optional cohort-dispatch chooser ``(when, records) -> index``,
    #: used by :mod:`repro.check.explore` to permute intra-cohort
    #: dispatch order. Class-level ``None`` so unexplored runs pay one
    #: ``None`` test per event. The ``records`` argument is the
    #: seq-ordered list of every pending ``[when, seq, kind, payload]``
    #: record tied at ``when``; returning ``0`` everywhere reproduces
    #: the canonical schedule exactly. While a chooser is attached the
    #: pending set stays in the heap (no calendar queue), where tied
    #: records pop together.
    chooser = None

    _obs_hooks = ("timeline",)

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._cal: Optional[CalendarQueue] = None
        self._held: Optional[list] = None
        self._seq = 0
        self._processes: list[Process] = []
        self._done_count = 0
        self._pid_counter = 0
        self.events_executed = 0
        # The running run()'s bounds, for horizon(): its ``until`` and
        # the event count at which its ``max_events`` budget ends.
        self._until: Optional[float] = None
        self._stop_at: Optional[int] = None

    def _obs_component(self) -> str:
        return "sim"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "now_ns", fn=lambda: self.now)
        registry.gauge(
            self.obs_name, "events_executed", fn=lambda: float(self.events_executed)
        )
        registry.gauge(self.obs_name, "pending_events", fn=lambda: float(self.pending))
        # Non-mutating by contract: alive_processes() compacts the
        # process table, and a metrics read must never perturb the
        # simulator's compaction bookkeeping.
        registry.gauge(
            self.obs_name,
            "alive_processes",
            fn=lambda: float(sum(1 for p in self._processes if not p.done)),
        )

    def _instrument_children(self, obs) -> None:
        # The sanitizer stamps pool and payload findings with this clock.
        if obs.sanitizer is not None:
            obs.sanitizer.bind(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def spawn(
        self,
        body: ProcessBody,
        name: str = "proc",
        delay: float = 0.0,
        footprint: Optional[frozenset] = None,
    ) -> Process:
        """Register a generator as a process; first step runs after ``delay``.

        ``footprint`` optionally names the state the process touches
        (see :class:`Process`); it only matters to the cohort explorer.
        """
        self._pid_counter += 1
        proc = Process(body, name, pid=self._pid_counter, footprint=footprint)
        self._processes.append(proc)
        self._schedule(self.now + delay, _STEP, proc)
        return proc

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        self._schedule(when, _CALL, fn)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._schedule(self.now + delay, _CALL, fn)

    def _schedule(self, when: float, kind: int, payload) -> None:
        self._seq += 1
        rec = [when, self._seq, kind, payload]
        cal = self._cal
        if cal is not None:
            cal.push(rec)
            return
        heap = self._heap
        heapq.heappush(heap, rec)
        if len(heap) >= self.CALENDAR_THRESHOLD and self.chooser is None:
            self._cal = CalendarQueue(heap)
            # Emptied in place: a running loop holds this list too.
            heap.clear()

    def horizon(self) -> Tuple[float, int]:
        """How far the running process may skip its own steps.

        Returns ``(when, steps)``. ``when`` is the earliest instant at
        which anything but the running process can act: the head of the
        event queue, the attached timeline's next window roll, or the
        running :meth:`run`'s ``until``. ``steps`` is how many events the
        run's ``max_events`` budget still allows before the one that
        ends it (``sys.maxsize`` without a budget). A step strictly
        earlier than ``when`` has no queued event tied with it, so
        skipping it (see :class:`Resume`) cannot reorder the schedule.
        """
        cal = self._cal
        if cal is not None:
            when = cal.peek()[0] if len(cal) else math.inf
        elif self._heap:
            when = self._heap[0][0]
        else:
            when = math.inf
        tl = self.timeline
        if tl is not None and tl.next_ns < when:
            when = tl.next_ns
        until = self._until
        if until is not None and until < when:
            when = until
        stop_at = self._stop_at
        if stop_at is None:
            return when, sys.maxsize
        return when, max(0, stop_at - self.events_executed - 1)

    def _requeue(self, rec: list) -> None:
        """Return a popped-but-unexecuted record to the pending set."""
        cal = self._cal
        if cal is not None:
            cal.push(rec)
        else:
            heapq.heappush(self._heap, rec)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains or a bound is hit.

        Args:
            until: Stop once the clock would pass this absolute time.
            max_events: Stop after this many events (safety valve).
            stop_when: Checked after every dispatched event (not after
                the steps a process skipped, see :class:`Resume`); True
                stops the run.

        Returns:
            The virtual time at which the run stopped.

        ``events_executed`` is incremented when an event is dequeued,
        before its handler runs: if the handler raises, the failing
        event is counted, ``now`` is its timestamp, and ``stop_when``
        is not called for it.
        """
        chooser = self.chooser
        if chooser is not None and self._cal is not None:
            # A chooser attached after the pending set migrated to the
            # calendar queue: fold it back into the heap, where records
            # tied at one timestamp pop together.
            cal = self._cal
            self._cal = None
            heap = self._heap
            while len(cal):
                heapq.heappush(heap, cal.pop())
        return self._run_cohorts(until, max_events, stop_when, chooser)

    def _run_cohorts(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
        chooser,
    ) -> float:
        """The event loop: cohort draining, record reuse, direct dispatch.

        Produces the event order of a heap-per-event loop (one pop, one
        handler call, one ``until`` and ``stop_when`` check per event):

        * Same-timestamp records drain as one *cohort* per outer
          iteration: the clock is written once and ``until`` compared
          once per cohort instead of per event. Both are exact — every
          member shares the timestamp those checks saw. Dispatch stays
          seq-ordered because members are taken off the queue one at a
          time, so an event a handler schedules *at the cohort's
          timestamp* joins the live cohort at its seq position.
        * ``stop_when`` is still consulted after every event: it may
          have side effects (it is allowed to schedule), so a
          per-cohort check would diverge from the per-event loop.
        * A record is only held for direct dispatch when it is
          *strictly* earlier than every queued event, so seq
          tie-breaking is preserved, and any event a ``stop_when``
          callback schedules ahead of the held record demotes it back
          onto the queue.
        * With a ``chooser``, each dispatch whose record has tied
          successors in the heap is a choice point (see
          :meth:`_choose`).
        """
        executed = 0
        events = self.events_executed
        self._until = until
        self._stop_at = None if max_events is None else events + max_events
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        rec: Optional[list] = None
        try:
            while True:
                if rec is None:
                    cal = self._cal
                    if cal is not None:
                        if not len(cal):
                            self._cal = None
                            continue
                        rec = cal.pop()
                    elif heap:
                        rec = heappop(heap)
                    else:
                        break
                when = rec[0]
                if until is not None and when > until:
                    self._requeue(rec)
                    rec = None
                    self.now = until
                    break
                self.now = when
                tl = self.timeline
                if tl is not None and when >= tl.next_ns:
                    tl.roll(when)
                # ---- cohort at `when`: dispatch rec and every queued
                # same-timestamp successor without re-checking `until`
                # or rewriting the clock.
                while True:
                    if chooser is not None and heap and heap[0][0] == when:
                        rec = self._choose(chooser, when, rec)
                    events += 1
                    self.events_executed = events
                    executed += 1
                    cur = rec
                    rec = None
                    if cur[2] == _STEP:
                        proc = cur[3]
                        if proc.done:
                            self._note_done()
                        else:
                            try:
                                delay = proc.body.send(None)
                            except StopIteration:
                                proc.done = True
                                self._note_done()
                            else:
                                try:
                                    invalid = delay is None or delay < 0
                                except TypeError:
                                    invalid = True
                                if not invalid:
                                    nxt = when + delay
                                elif (
                                    delay.__class__ is Resume
                                    and delay.when >= when
                                    and delay.steps >= 0
                                ):
                                    # The skipped steps count as executed
                                    # and advance the sequence as their
                                    # reschedules would have.
                                    nxt = delay.when
                                    events += delay.steps
                                    self.events_executed = events
                                    executed += delay.steps
                                    self._seq += delay.steps
                                else:
                                    proc.done = True
                                    self._note_done()
                                    raise SimulationError(
                                        f"process {proc.name!r} yielded invalid "
                                        f"delay {delay!r}"
                                    )
                                self._seq += 1
                                cur[0] = nxt
                                cur[1] = self._seq
                                cal = self._cal
                                if cal is not None:
                                    cal.push(cur)
                                elif heap and nxt >= heap[0][0]:
                                    heappush(heap, cur)
                                else:
                                    rec = cur
                    else:
                        cur[3]()
                    if stop_when is not None:
                        self._held = rec
                        stopped = stop_when()
                        self._held = None
                        if stopped:
                            return self.now
                        if rec is not None and (
                            self._cal is not None or (heap and heap[0] < rec)
                        ):
                            self._requeue(rec)
                            rec = None
                    if max_events is not None and executed >= max_events:
                        return self.now
                    if rec is None:
                        # Pull the next record; a non-tie is carried to
                        # the outer loop as the next cohort's head (no
                        # extra peek or requeue on the common path).
                        cal = self._cal
                        if cal is not None:
                            if not len(cal):
                                self._cal = None
                                break
                            rec = cal.pop()
                        elif heap:
                            rec = heappop(heap)
                        else:
                            break
                    if rec[0] != when:
                        break
            return self.now
        finally:
            self._held = None
            self._until = self._stop_at = None
            if rec is not None:
                self._requeue(rec)

    def _choose(self, chooser, when: float, rec: list) -> list:
        """The record the chooser dispatches among those tied at ``when``.

        ``rec`` is the earliest of them; the rest are popped in seq
        order, and every record the chooser does not pick is requeued
        with its seq unchanged, so the survivors keep their relative
        order.
        """
        heap = self._heap
        tied = [rec]
        while heap and heap[0][0] == when:
            tied.append(heapq.heappop(heap))
        index = chooser(when, tied)
        if not isinstance(index, int) or not 0 <= index < len(tied):
            raise SimulationError(
                f"chooser returned invalid cohort index {index!r} "
                f"for {len(tied)} tied records at t={when}"
            )
        chosen = tied.pop(index)
        for other in tied:
            heapq.heappush(heap, other)
        return chosen

    def close(self) -> None:
        """End the simulation: close every unfinished process, drop every event.

        A suspended process's generator frame holds what the process
        works on — usually the model that owns this simulator — and the
        queue holds the generator, so a finished run whose processes
        never returned is a reference cycle. Closing the generators
        (each gets ``GeneratorExit`` at its ``yield``) and emptying the
        queue ends it, and reference counting frees the model as soon
        as its last outside reference goes. The clock and
        ``events_executed`` keep their final values; a later :meth:`run`
        finds nothing to do.
        """
        for proc in self._processes:
            if not proc.done:
                proc.stop()
        self._processes = []
        self._done_count = 0
        self._heap.clear()
        self._cal = None

    def _note_done(self) -> None:
        """Account one finished process; compact the table when mostly dead."""
        self._done_count += 1
        if self._done_count >= 64 and self._done_count * 2 >= len(self._processes):
            self._processes = [p for p in self._processes if not p.done]
            self._done_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events currently queued (including any held record)."""
        n = len(self._heap)
        if self._cal is not None:
            n += len(self._cal)
        if self._held is not None:
            n += 1
        return n

    def alive_processes(self) -> Iterable[Process]:
        """Processes that have not finished (compacts the table)."""
        alive = [p for p in self._processes if not p.done]
        self._processes = list(alive)
        self._done_count = 0
        return alive

    def __repr__(self) -> str:
        return f"<Simulator now={self.now:.1f}ns pending={self.pending}>"
