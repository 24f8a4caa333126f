"""The engine's cohort loop against a heap-per-event reference loop.

:meth:`Simulator.run` drains same-timestamp cohorts, reuses event
records and dispatches a rescheduled step directly when nothing queued
is earlier. :func:`reference_run` below is the loop the engine
originally shipped with: one heap pop, one handler call, one ``until``
and ``stop_when`` check per event. Both must give the same final
``now``, the same ``events_executed`` and the same execution trace.
Hypothesis drives randomly generated process populations through both —
mixed delays, same-timestamp ties, mid-run spawns,
``call_at``/``call_after`` callbacks, bounded ``until`` runs, and
``stop_when`` predicates that themselves schedule work (the case the
cohort loop must re-merge into its drained cohort). With a seeded
random cohort chooser attached, both must also offer the chooser the
same tied records at every choice point.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.shard.merge import fingerprint
from repro.sim import Simulator
from repro.sim.engine import _STEP


def reference_run(sim, until=None, stop_when=None, chooser=None):
    """Run ``sim``'s pending events with a heap-per-event loop.

    ``sim`` only supplies the clock, the counters and the scheduling
    calls its processes make; dispatch happens here. The pending set
    must stay in the heap: below ``CALENDAR_THRESHOLD`` events, or with
    a chooser attached to the simulator.
    """
    heap = sim._heap
    while heap:
        when = heap[0][0]
        if until is not None and when > until:
            sim.now = until
            break
        if chooser is None:
            rec = heapq.heappop(heap)
        else:
            tied = []
            while heap and heap[0][0] == when:
                tied.append(heapq.heappop(heap))
            rec = tied.pop(chooser(when, tied)) if len(tied) > 1 else tied.pop()
            for other in tied:
                heapq.heappush(heap, other)
        sim.now = when
        sim.events_executed += 1
        _when, _seq, kind, payload = rec
        if kind != _STEP:
            payload()
        elif not payload.done:
            try:
                delay = next(payload.body)
            except StopIteration:
                payload.done = True
            else:
                if delay is None or delay < 0:
                    raise SimulationError(f"invalid delay {delay!r}")
                sim._schedule(when + delay, _STEP, payload)
        if stop_when is not None and stop_when():
            break
    return sim.now


# A small value pool forces same-timestamp cohorts: with only a few
# distinct delays, independently scheduled events collide constantly.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])

_action = st.deferred(
    lambda: st.one_of(
        st.tuples(st.just("delay"), _DELAYS),
        st.tuples(st.just("call_after"), _DELAYS),
        st.tuples(st.just("call_at"), _DELAYS),
        st.tuples(st.just("spawn"), st.lists(
            st.tuples(st.just("delay"), _DELAYS), min_size=1, max_size=3,
        )),
    )
)

_program = st.fixed_dictionaries({
    "procs": st.lists(
        st.lists(_action, min_size=1, max_size=6), min_size=1, max_size=4,
    ),
    # stop_when configuration: fire a scheduling side effect on call K,
    # return True from call M on (None = never stop).
    "stop_schedule_at": st.one_of(st.none(), st.integers(1, 20)),
    "stop_after_calls": st.one_of(st.none(), st.integers(1, 30)),
    "until": st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 6.0])),
})


class _RandomChooser:
    """Seeded random cohort choice that logs what it was offered."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.offered = []

    def __call__(self, when, records):
        self.offered.append([
            when, [[r[0], r[1], r[2], getattr(r[3], "name", None)] for r in records],
        ])
        return self.rng.randrange(len(records))


def _run_program(program, reference, chooser=None):
    sim = Simulator()
    if chooser is not None:
        sim.chooser = chooser
    trace = []

    def make_body(label, actions):
        def body():
            for kind, arg in actions:
                if kind == "delay":
                    trace.append(["step", label, sim.now])
                    yield arg
                elif kind == "call_after":
                    sim.call_after(
                        arg,
                        lambda label=label: trace.append(["cb", label, sim.now]),
                    )
                elif kind == "call_at":
                    sim.call_at(
                        sim.now + arg,
                        lambda label=label: trace.append(["cb@", label, sim.now]),
                    )
                else:  # mid-run spawn
                    child = f"{label}+{len(trace)}"
                    sim.spawn(make_body(child, arg), child)
                    trace.append(["spawned", child, sim.now])
            trace.append(["end", label, sim.now])
        return body()

    for index, actions in enumerate(program["procs"]):
        label = f"p{index}"
        sim.spawn(make_body(label, actions), label)

    calls = [0]
    schedule_at = program["stop_schedule_at"]
    stop_after = program["stop_after_calls"]

    def stop_when():
        calls[0] += 1
        trace.append(["stop?", calls[0], sim.now])
        if calls[0] == schedule_at:
            # The adversarial case: the predicate schedules new work at
            # the current timestamp, growing the cohort mid-drain.
            sim.call_after(0.0, lambda: trace.append(["stopcb", sim.now]))
        return stop_after is not None and calls[0] >= stop_after

    if reference:
        end = reference_run(sim, program["until"], stop_when, chooser)
    else:
        end = sim.run(until=program["until"], stop_when=stop_when)
    return end, sim.events_executed, fingerprint({"trace": trace})


@settings(max_examples=60, deadline=None)
@given(program=_program)
def test_fast_and_slow_paths_are_twins(program):
    # The engine's cohort loop (fast) against reference_run (slow).
    engine = _run_program(program, reference=False)
    assert engine == _run_program(program, reference=True)


@settings(max_examples=60, deadline=None)
@given(program=_program, seed=st.integers(0, 2**16))
def test_chooser_sees_the_reference_choice_points(program, seed):
    engine_chooser = _RandomChooser(seed)
    engine = _run_program(program, reference=False, chooser=engine_chooser)
    reference_chooser = _RandomChooser(seed)
    reference = _run_program(program, reference=True, chooser=reference_chooser)
    assert engine == reference
    assert engine_chooser.offered == reference_chooser.offered


@pytest.mark.parametrize("trigger", ["callback", "stop_when"])
def test_mid_run_calendar_migration_fires_each_event_once(trigger):
    """Scheduling past CALENDAR_THRESHOLD from a callback, or from a
    ``stop_when`` predicate while a rescheduled step is held for direct
    dispatch, migrates the pending set to the calendar queue while the
    loop runs; every event must still fire exactly once, in heap order."""
    n = Simulator.CALENDAR_THRESHOLD + 100

    def run(reference):
        sim = Simulator()
        fired = []
        migrated = []

        def burst():
            for i in range(n):
                sim.call_at(1.0 + i % 97, lambda i=i: fired.append((sim.now, i)))
            migrated.append(sim._cal is not None)

        def ticker():
            for _ in range(3):
                fired.append((sim.now, "tick"))
                yield 50.0

        sim.spawn(ticker(), "ticker")
        stop_when = None
        if trigger == "callback":
            sim.call_at(0.5, burst)
        else:
            def stop_when():
                if not migrated:
                    burst()
                return False
        if reference:
            # Keep the reference's pending set in the heap.
            sim.chooser = lambda when, records: 0
            reference_run(sim, stop_when=stop_when, chooser=sim.chooser)
        else:
            sim.run(stop_when=stop_when)
            assert migrated == [True] and sim._cal is None
        return fired, sim.events_executed

    engine = run(reference=False)
    assert engine == run(reference=True)
    assert len(engine[0]) == n + 3
