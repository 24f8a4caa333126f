"""Idle-poll elision: the loopback app skips its steady-state empty polls.

The oracle is the step-by-step run. With :meth:`Simulator.horizon`
patched to return the current time no poll can be skipped, and every
output — shard documents, printed tables, metrics, flight, trace and
timeline files — must match the normal run byte for byte.
"""

import json
import math
import random
import sys
from array import array

import pytest

import repro.topology  # noqa: F401  (registers the rack scenarios)
from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.cli import main
from repro.core import CcnicConfig, CcnicInterface
from repro.core.recovery import RecoveryPolicy, RingWatchdog, first_instant
from repro.faults import FaultInjector, FaultPlan
from repro.platform import System, icx
from repro.shard.runner import execute_spec
from repro.shard.spec import scenario
from repro.sim import Simulator
from repro.sim.calqueue import CalendarQueue
from repro.sim.engine import Resume
from repro.workloads import trafficgen


def _step_by_step(self):
    return self.now, 0


def _both(monkeypatch, run):
    """``run()`` normally, then with no step skippable."""
    outputs = []
    for skip in (True, False):
        with monkeypatch.context() as patch:
            if not skip:
                patch.setattr(Simulator, "horizon", _step_by_step)
            outputs.append(run())
    return outputs


def _doc_bytes(doc) -> str:
    """A shard document as canonical JSON, host time left out."""
    doc = dict(doc)
    doc.pop("wall_s")

    def plain(value):
        if isinstance(value, array):
            return value.tolist()
        return repr(value)

    return json.dumps(doc, sort_keys=True, default=plain)


class _CountingBody:
    """A process body counting its resumptions and skipped steps."""

    def __init__(self, body, tally):
        self.body = body
        self.tally = tally

    def send(self, value):
        self.tally["executed"] += 1
        out = self.body.send(value)
        if out.__class__ is Resume:
            self.tally["skipped"] += out.steps
        return out

    def close(self):
        self.body.close()


class TestOracle:
    @pytest.mark.parametrize("name, quick, interval", [
        ("loopback_64b", True, None),
        ("faults_canned", True, 500.0),
        ("mesh_2x2_loopback", False, None),
    ])
    def test_shard_document_matches_step_by_step(self, monkeypatch, name, quick, interval):
        spec = scenario(name).shard_specs()[0]
        normal, oracle = _both(monkeypatch, lambda: _doc_bytes(execute_spec(
            spec, quick=quick, with_metrics=True, timeline_interval=interval,
        )))
        assert normal == oracle

    @pytest.mark.parametrize("argv, outs", [
        pytest.param(["faults", "--packets", "6000"], ("metrics", "trace", "timeline"),
                     id="faults-recovery"),
        # No timeline here: its 1 µs rolls would bound every skip before
        # the open loop's 8 µs send times could.
        pytest.param(["loopback", "--packets", "2000", "--rate", "4"], ("metrics", "flight"),
                     id="open-loop"),
        pytest.param(["loopback", "--packets", "1200", "--inflight", "16"],
                     ("metrics", "trace", "timeline", "flight"), id="observers"),
    ])
    def test_cli_outputs_match_step_by_step(self, monkeypatch, capsys, tmp_path, argv, outs):
        outputs = {f"--{name}-out": tmp_path / f"{name}.json" for name in outs}
        full = list(argv)
        for flag, path in outputs.items():
            full += [flag, str(path)]

        def run():
            assert main(full) == 0
            return capsys.readouterr().out, {
                flag: path.read_bytes() for flag, path in outputs.items()
            }

        normal, oracle = _both(monkeypatch, run)
        assert normal == oracle
        if argv[0] == "faults":
            # The only run here whose app reaches the recovery deadlines:
            # one watchdog reset and 64 packets written off in flight.
            rows = dict(
                line.rsplit(None, 1) for line in normal[0].splitlines()
                if line.startswith(("watchdog resets", "dropped packets"))
            )
            assert rows == {"watchdog resets": "1", "dropped packets": "64"}

    @pytest.mark.parametrize("inflight, rate, watchdog_ns, timeout_ns", [
        (8, None, 9_000.0, 4_000.0),
        (32, None, 5_000.0, 15_000.0),
        (None, 6.0, 9_000.0, 4_000.0),
    ], ids=["write-offs-first", "resets-first", "open-loop"])
    def test_recovery_deadlines_match_step_by_step(
        self, monkeypatch, inflight, rate, watchdog_ns, timeout_ns
    ):
        # A long stall and a reset with budgets short enough that both
        # the watchdog and the in-flight write-off fall inside stretches
        # of idle polls, which the canned plan's runs never do.
        plan = FaultPlan.from_dict({"name": "wedge", "events": [
            {"kind": "nic_stall", "start_ns": 6_000, "duration_ns": 30_000},
            {"kind": "nic_reset", "start_ns": 50_000, "duration_ns": 20_000},
        ]})

        def run():
            faults = FaultInjector(plan, seed=1)
            setup = build_interface(icx(), InterfaceKind.CCNIC, faults=faults)
            result = run_point(
                setup, 64, 3000, inflight=inflight, offered_mpps=rate,
                tx_batch=8, rx_batch=8,
                recovery=RecoveryPolicy(watchdog_ns=watchdog_ns, inflight_timeout_ns=timeout_ns),
            )
            driver = setup.driver
            system = setup.system
            return {
                "result": (result.received, result.dropped, result.latency.samples()),
                "driver": (driver.watchdog_resets, driver.reset_dropped, driver.rx_ns,
                           driver.agent.hits, driver.agent.misses),
                "counters": system.fabric.snapshot_counters(),
                "links": [st.snapshot() for st in system.link.stats],
                "injections": faults.injection_log,
                "clock": (system.sim.events_executed, system.sim.now),
            }

        normal, oracle = _both(monkeypatch, run)
        assert normal["driver"][0] >= 1 and normal["result"][1] > 0
        assert normal == oracle

    def test_apps_sharing_one_simulator_match_step_by_step(self, monkeypatch):
        # Three app threads on one interface: each skips only up to the
        # others' next steps, and all share one fabric, link and pool.
        def run():
            system = System(icx())
            nic = CcnicInterface(system, CcnicConfig(ring_slots=256, pool_buffers=2048))
            drivers = [nic.driver(i) for i in range(3)]
            nic.start()
            apps = [
                trafficgen.LoopbackApp(driver, 64, 600, tx_batch=8, rx_batch=8, inflight=16)
                for driver in drivers
            ]
            for app in apps:
                system.sim.spawn(app.run(), "app")
            system.sim.run(stop_when=lambda: all(app.done for app in apps))
            return (
                [app.result.latency.samples() for app in apps],
                [driver.rx_ns for driver in drivers],
                system.fabric.snapshot_counters(),
                [st.snapshot() for st in system.link.stats],
                system.sim.events_executed,
                system.sim.now,
            )

        normal, oracle = _both(monkeypatch, run)
        assert normal == oracle

    def test_most_app_steps_are_skipped(self, monkeypatch):
        # The step-by-step run of this shard takes 9,516 app steps, all
        # but a few hundred of them empty polls between NIC steps.
        tally = {"executed": 0, "skipped": 0}
        run = trafficgen.LoopbackApp.run
        monkeypatch.setattr(
            trafficgen.LoopbackApp, "run", lambda app: _CountingBody(run(app), tally)
        )
        doc = execute_spec(scenario("loopback_64b").shard_specs()[0])
        assert doc["events"] == 9774
        assert tally["executed"] + tally["skipped"] == 9516
        assert tally["executed"] * 5 < 9516


class TestEngineContract:
    def test_skipped_steps_count_as_events(self):
        sim = Simulator()
        log = []

        def skipper():
            log.append(sim.now)
            yield 1.0
            log.append(sim.now)
            # Skip the steps at 2.0 and 3.0, resume at 4.0.
            yield Resume(4.0, 2)
            log.append(sim.now)

        sim.spawn(skipper(), "p")
        sim.run()
        assert log == [0.0, 1.0, 4.0]
        assert sim.events_executed == 5  # 3 dispatched + 2 skipped

    def test_sequence_advances_as_reschedules_would(self):
        sim = Simulator()

        def skipper():
            yield Resume(10.0, 3)

        sim.spawn(skipper(), "p")
        seq0 = sim._seq
        sim.run(until=5.0)
        assert sim._seq == seq0 + 4
        assert sim.events_executed == 4
        assert sim.now == 5.0

    @pytest.mark.parametrize("until, max_events, crowd", [
        (None, None, 0), (1000.0, None, 0), (None, 150, 0), (None, 37, 0), (640.0, 200, 0),
        (None, None, Simulator.CALENDAR_THRESHOLD),  # the calendar queue's head
    ])
    def test_skipping_poller_matches_stepping_poller(self, until, max_events, crowd):
        def run(skip):
            sim = Simulator()
            seen = []
            for i in range(crowd):
                sim.call_at(3.0 + 0.37 * i, lambda: None)

            def poller(step, end=900.0):
                while sim.now < end:
                    if skip:
                        limit, budget = sim.horizon()
                        limit = min(limit, end)
                        t = sim.now + step
                        count = 0
                        while t < limit and count < budget:
                            count += 1
                            t += step
                        if count:
                            yield Resume(t, count)
                            continue
                    yield step

            def ticker():
                for gap in (7.0, 30.5, 0.25, 91.0, 13.0) * 4:
                    seen.append((sim.now, sim.events_executed))
                    yield gap

            sim.spawn(poller(1.1), "poller")
            sim.spawn(ticker(), "ticker")
            sim.call_at(33.3, lambda: seen.append(("call", sim.now, sim.events_executed)))
            end = sim.run(until=until, max_events=max_events)
            return seen, end, sim.events_executed, sim._seq

        assert run(True) == run(False)

    def test_resume_in_the_past_rejected(self):
        from repro.errors import SimulationError

        sim = Simulator()

        def bad():
            yield 5.0
            yield Resume(1.0, 0)

        sim.spawn(bad(), "p")
        with pytest.raises(SimulationError):
            sim.run()

    def test_horizon_bounds(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.horizon())
            yield 1.0
            seen.append(sim.horizon())

        sim.call_at(7.0, lambda: None)
        sim.spawn(probe(), "p")
        sim.run(until=5.0, max_events=10)
        # The run's until bounds the first probe; the budget counts the
        # events left before the one that ends the run.
        assert seen[0] == (5.0, 8)
        assert seen[1] == (5.0, 7)
        seen.clear()
        sim.run()
        assert seen == []  # the probe had finished
        sim.spawn(probe(), "q")
        sim.run(until=100.0)
        assert seen[0] == (100.0, seen[0][1])
        assert seen[0][1] > 10**9

    def test_horizon_sees_the_queue_head_and_timeline(self):
        class Roll:
            next_ns = 3.5

            def roll(self, when):
                self.next_ns = math.inf

        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.horizon()[0])
            yield 0.5
            seen.append(sim.horizon()[0])

        sim.call_at(2.0, lambda: None)
        sim.spawn(probe(), "p")
        sim.timeline = Roll()
        sim.run()
        assert seen == [2.0, 2.0]
        sim.call_at(9.0, lambda: None)
        sim.timeline = Roll()
        sim.spawn(probe(), "q")
        sim.run(until=8.0)
        assert seen[2:] == [3.5, 3.5]

    def test_calendar_peek_matches_pop(self):
        rng = random.Random(5)
        records = [[rng.uniform(0, 1e4), seq, 0, None] for seq in range(500)]
        cal = CalendarQueue(records)
        while len(cal):
            head = cal.peek()
            assert cal.peek() is head
            assert cal.pop() is head
            if rng.random() < 0.3:
                cal.push([head[0] + rng.uniform(0, 50), 1000 + len(cal), 0, None])


class TestFirstInstant:
    def test_exact_boundary(self):
        rng = random.Random(11)
        for _ in range(2000):
            since = rng.choice([0.0, rng.uniform(0, 1e6), rng.uniform(0, 1e3)])
            span = rng.choice([60_000.0, 120_000.0, rng.uniform(1e-3, 1e5)])
            t = first_instant(since, span)
            assert t - since >= span
            assert math.nextafter(t, -math.inf) - since < span


class _HorizonSim:
    """The two things ``LoopbackApp._skip_idle`` asks of the engine."""

    def __init__(self, now, limit, budget=sys.maxsize):
        self.now = now
        self._horizon = (limit, budget)

    def horizon(self):
        return self._horizon


class _IdleDriver:
    """A driver whose idle poll pass can be skipped until ``wake``."""

    def __init__(self, wake=math.inf):
        self.wake = wake
        self.skipped = None

    def configure_recovery(self, policy):
        pass

    def idle_wake(self):
        return self.wake

    def skip_idle_polls(self, poll_ns, start, step, count, last):
        self.skipped = (start, step, count, last)

    def take_reset_losses(self):
        return 0


class TestSkipBounds:
    """Which steps ``_skip_idle`` skips, against each bound alone."""

    @staticmethod
    def _skip(limit=math.inf, budget=sys.maxsize, wake=math.inf, send_at=math.inf, **app):
        driver = _IdleDriver(wake)
        loop = trafficgen.LoopbackApp(driver, 64, 100, inflight=4, **app)
        resume = loop._skip_idle(_HorizonSim(0.0, limit, budget), 0.5, 0.25, send_at)
        return resume, driver.skipped, loop

    @pytest.mark.parametrize("bound", ["limit", "wake", "send_at"])
    def test_a_step_at_the_horizon_is_not_skipped(self, bound):
        # Steps fall at 0.5, 1.0, 1.5, ...: the one at 1.0 ties with the
        # bound and must run (a queued event there has the lower seq).
        resume, skipped, _ = self._skip(**{bound: 1.0})
        assert (resume.when, resume.steps) == (1.0, 1)
        assert skipped == (0.0, 0.5, 1, 0.5)

    def test_budget_caps_the_skipped_steps(self):
        resume, skipped, _ = self._skip(limit=100.0, budget=3)
        assert (resume.when, resume.steps) == (2.0, 3)
        assert skipped == (0.0, 0.5, 3, 1.5)

    def test_nothing_to_skip(self):
        assert self._skip(limit=0.5)[0] is None
        assert self._skip(wake=0.25)[0] is None
        assert self._skip(limit=10.0, budget=0)[0] is None

    def test_write_off_clock_restarts_at_the_last_skipped_step(self):
        # Nothing outstanding: each skipped pass would have restarted the
        # app's stall clock, as _write_off_losses does.
        policy = RecoveryPolicy(inflight_timeout_ns=4.0)
        resume, _, loop = self._skip(limit=2.2, recovery=policy)
        twin = trafficgen.LoopbackApp(_IdleDriver(), 64, 100, inflight=4, recovery=policy)
        for t in (0.5, 1.0, 1.5, 2.0):
            twin._write_off_losses(t)
        assert resume.steps == 4
        assert loop._rx_stall_since == twin._rx_stall_since == 2.0

    def test_write_off_deadline_bounds_the_skip(self):
        policy = RecoveryPolicy(inflight_timeout_ns=1.25)
        driver = _IdleDriver()
        loop = trafficgen.LoopbackApp(driver, 64, 100, inflight=4, recovery=policy)
        loop.result.sent = 4  # all outstanding, none received since t = 0
        resume = loop._skip_idle(_HorizonSim(0.0, 100.0), 0.5, 0.25, math.inf)
        # _write_off_losses would fire at 1.5, the first step 1.25 after 0.
        assert (resume.when, resume.steps) == (1.5, 2)


class TestWatchdogSkip:
    @pytest.mark.parametrize("depth", [0, 3])
    def test_skip_matches_stalled_calls(self, depth):
        policy = RecoveryPolicy(watchdog_ns=100.0)
        stepped, skipped = RingWatchdog(policy), RingWatchdog(policy)
        for dog in (stepped, skipped):
            assert not dog.stalled(40.0, depth, 7)
        deadline = stepped.quiet_until(depth)
        times = [40.0 + 12.5 * i for i in range(1, 8)]
        for t in times:
            assert t < deadline
            assert not stepped.stalled(t, depth, 7)
        skipped.skip(times[-1], depth)
        assert vars(stepped) == vars(skipped)
        if depth:
            assert deadline == 140.0 and stepped.stalled(deadline, depth, 7)
        else:
            assert deadline == math.inf
