"""Discrete-event engine behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0


def test_single_process_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield 10.0
        log.append(sim.now)
        yield 5.0
        log.append(sim.now)

    sim.spawn(proc(), "p")
    sim.run()
    assert log == [0.0, 10.0, 15.0]


def test_two_processes_interleave_by_time():
    sim = Simulator()
    log = []

    def proc(name, delay):
        for _ in range(3):
            log.append((sim.now, name))
            yield delay

    sim.spawn(proc("fast", 1.0), "fast")
    sim.spawn(proc("slow", 2.5), "slow")
    sim.run()
    assert log[0] == (0.0, "fast")
    assert (2.0, "fast") in log
    assert (2.5, "slow") in log


def test_tie_break_is_spawn_order():
    sim = Simulator()
    log = []

    def proc(name):
        log.append(name)
        yield 1.0
        log.append(name)

    sim.spawn(proc("a"), "a")
    sim.spawn(proc("b"), "b")
    sim.run()
    assert log == ["a", "b", "a", "b"]


def test_run_until_bound():
    sim = Simulator()

    def forever():
        while True:
            yield 10.0

    sim.spawn(forever(), "loop")
    end = sim.run(until=55.0)
    assert end == 55.0
    assert sim.pending > 0  # the process is still queued


def test_stop_when_predicate():
    sim = Simulator()
    counter = {"n": 0}

    def proc():
        while True:
            counter["n"] += 1
            yield 1.0

    sim.spawn(proc(), "p")
    sim.run(stop_when=lambda: counter["n"] >= 5)
    assert counter["n"] == 5


def test_max_events():
    sim = Simulator()

    def proc():
        while True:
            yield 1.0

    sim.spawn(proc(), "p")
    sim.run(max_events=7)
    assert sim.events_executed == 7


def test_process_stop():
    sim = Simulator()
    log = []

    def proc():
        while True:
            log.append(sim.now)
            yield 1.0

    handle = sim.spawn(proc(), "p")
    sim.run(max_events=3)
    handle.stop()
    sim.run()
    assert handle.done
    assert len(log) == 3


def test_call_at_and_after():
    sim = Simulator()
    log = []
    sim.call_at(5.0, lambda: log.append(("at", sim.now)))
    sim.call_after(2.0, lambda: log.append(("after", sim.now)))
    sim.run()
    assert log == [("after", 2.0), ("at", 5.0)]


def test_call_in_past_rejected():
    sim = Simulator()

    def proc():
        yield 10.0

    sim.spawn(proc(), "p")
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_is_error():
    sim = Simulator()

    def proc():
        yield -1.0

    sim.spawn(proc(), "bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None, "notgen")  # type: ignore[arg-type]


def test_alive_processes():
    sim = Simulator()

    def short():
        yield 1.0

    def long():
        while True:
            yield 1.0

    sim.spawn(short(), "short")
    sim.spawn(long(), "long")
    sim.run(until=10.0)
    alive = [p.name for p in sim.alive_processes()]
    assert alive == ["long"]


def test_pids_are_per_simulator():
    def proc():
        yield 1.0

    a = Simulator()
    b = Simulator()
    assert [a.spawn(proc(), "x").pid for _ in range(3)] == [1, 2, 3]
    # A second simulator restarts at 1: pids are reproducible per run,
    # not per interpreter.
    assert b.spawn(proc(), "y").pid == 1


def test_done_processes_are_pruned():
    sim = Simulator()

    def short():
        yield 1.0

    for _ in range(500):
        sim.spawn(short(), "s")
    sim.run()
    # The process table compacts as processes finish instead of
    # retaining every process ever spawned.
    assert len(sim._processes) < 500
    assert list(sim.alive_processes()) == []
    assert sim._processes == []


def test_failed_step_counts_event_and_skips_stop_when():
    """The documented contract: a failing event is included in
    events_executed, now holds its timestamp, and stop_when is not
    consulted for it."""
    sim = Simulator()
    stop_calls = []

    def ok():
        yield 1.0
        yield 1.0

    def bad():
        yield 5.0
        raise RuntimeError("boom")

    sim.spawn(ok(), "ok")
    sim.spawn(bad(), "bad")

    def stop_when():
        stop_calls.append(sim.now)
        return False

    with pytest.raises(RuntimeError):
        sim.run(stop_when=stop_when)
    # Events: ok@0, bad@0, ok@1, ok@2, bad@5 (raises).
    assert sim.events_executed == 5
    assert sim.now == 5.0
    # stop_when saw every completed event but not the failing one.
    assert stop_calls == [0.0, 0.0, 1.0, 2.0]


def test_events_executed_counts_steps_and_returns():
    sim = Simulator()

    def proc():
        for _ in range(10):
            yield 2.0

    sim.spawn(proc(), "p")
    sim.spawn(proc(), "q")
    sim.run()
    assert sim.events_executed == 22  # 2 procs x (10 steps + final return)
    assert sim.now == 20.0


def test_calendar_queue_engaged_past_threshold():
    sim = Simulator()
    fired = []
    n = Simulator.CALENDAR_THRESHOLD + 100
    for i in range(n):
        sim.call_at(float(i), lambda i=i: fired.append(i))
    assert sim._cal is not None  # heap migrated to the calendar queue
    assert sim.pending == n
    sim.run()
    assert fired == list(range(n))
    assert sim.events_executed == n


def test_direct_process_construction_requires_pid():
    from repro.sim import Process

    def proc():
        yield 1.0

    with pytest.raises(SimulationError, match="without a pid"):
        Process(proc(), "orphan")
    # pids are a per-simulator namespace: there is no class-level
    # fallback counter to leak spawn history between simulators.
    assert not hasattr(Process, "_ids")
    p = Process(proc(), "ok", pid=3)
    assert p.pid == 3


def test_alive_processes_gauge_does_not_mutate_process_table():
    from repro.obs import MetricRegistry, Observability

    obs = Observability(metrics=MetricRegistry())
    sim = Simulator()
    sim.instrument(obs)

    def short():
        yield 1.0

    def forever():
        while True:
            yield 1.0

    for i in range(10):
        sim.spawn(short(), f"s{i}")
    sim.spawn(forever(), "alive")
    sim.run(until=5.0)

    table_before = list(sim._processes)
    done_before = sim._done_count
    snap = obs.metrics.snapshot()
    assert snap[sim.obs_name]["alive_processes"] == 1.0
    # Reading the gauge twice must not compact or reset anything.
    obs.metrics.snapshot()
    assert list(sim._processes) == table_before
    assert sim._done_count == done_before
    # The compacting accessor still works and is the mutating one.
    assert [p.name for p in sim.alive_processes()] == ["alive"]


# ----------------------------------------------------------------------
# Cohort-dispatch chooser hook (repro.check.explore's engine surface)
# ----------------------------------------------------------------------
class _Chooser:
    """Callable object for class-level ``Simulator.chooser`` assignment.

    A plain function assigned to the class attribute would be
    descriptor-bound (``self`` prepended) on instance lookup; a callable
    instance is looked up unchanged.
    """

    def __init__(self, pick=None):
        self.pick = pick  # None means "last index"
        self.calls = []

    def __call__(self, when, records):
        self.calls.append((when, len(records)))
        return len(records) - 1 if self.pick is None else self.pick


@pytest.fixture
def restore_chooser():
    previous = Simulator.chooser
    yield
    Simulator.chooser = previous


def _append_proc(order, name):
    order.append(name)
    return
    yield  # pragma: no cover - makes this a generator function


class TestChooser:
    def test_default_is_none(self):
        assert Simulator.chooser is None

    def test_chooser_called_only_for_ties(self, restore_chooser):
        chooser = _Chooser(pick=0)
        Simulator.chooser = chooser
        sim = Simulator()
        order = []
        sim.spawn(_append_proc(order, "a"), "a", delay=1.0)
        sim.spawn(_append_proc(order, "b"), "b", delay=1.0)
        sim.spawn(_append_proc(order, "c"), "c", delay=2.0)
        sim.run()
        # One choice point: the t=1.0 pair; the lone t=2.0 record is
        # not a cohort.
        assert chooser.calls == [(1.0, 2)]
        assert order == ["a", "b", "c"]

    def test_always_zero_reproduces_canonical_order(self, restore_chooser):
        def run(with_chooser):
            Simulator.chooser = _Chooser(pick=0) if with_chooser else None
            sim = Simulator()
            order = []
            for name in ("a", "b", "c", "d"):
                sim.spawn(_append_proc(order, name), name, delay=1.0)
            sim.run()
            return order

        assert run(True) == run(False)

    def test_last_index_reverses_cohort(self, restore_chooser):
        # Picking the last tied record each round cascades: survivors
        # are requeued with unchanged seq and re-cohorted, so the full
        # cohort dispatches in reverse registration order.
        Simulator.chooser = _Chooser(pick=None)
        sim = Simulator()
        order = []
        for name in ("a", "b", "c"):
            sim.spawn(_append_proc(order, name), name, delay=1.0)
        sim.run()
        assert order == ["c", "b", "a"]

    def test_invalid_index_raises(self, restore_chooser):
        Simulator.chooser = _Chooser(pick=99)
        sim = Simulator()
        order = []
        sim.spawn(_append_proc(order, "a"), "a", delay=1.0)
        sim.spawn(_append_proc(order, "b"), "b", delay=1.0)
        with pytest.raises(SimulationError):
            sim.run()

    def test_non_int_index_raises(self, restore_chooser):
        Simulator.chooser = _Chooser(pick="0")
        sim = Simulator()
        order = []
        sim.spawn(_append_proc(order, "a"), "a", delay=1.0)
        sim.spawn(_append_proc(order, "b"), "b", delay=1.0)
        with pytest.raises(SimulationError):
            sim.run()

    def test_calendar_queue_drained_for_late_chooser(self, restore_chooser):
        # Load enough events to migrate onto the calendar queue, then
        # attach a chooser: run() must fold the pending set back into
        # the heap, where tied records pop together.
        sim = Simulator()
        hits = []
        n = Simulator.CALENDAR_THRESHOLD + 16
        for i in range(n):
            sim.call_at(float(i + 1), lambda i=i: hits.append(i))
        assert sim._cal is not None
        chooser = _Chooser(pick=0)
        Simulator.chooser = chooser
        sim.run()
        assert sim._cal is None
        assert len(hits) == n
        assert hits == sorted(hits)

    def test_footprint_stored_frozen(self):
        sim = Simulator()
        proc = sim.spawn(_append_proc([], "a"), "a", footprint={"ring", "pool"})
        assert proc.footprint == frozenset({"ring", "pool"})
        assert isinstance(proc.footprint, frozenset)
        bare = sim.spawn(_append_proc([], "b"), "b")
        assert bare.footprint is None
