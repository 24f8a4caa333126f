"""Idle-poll elision: the loopback app and the NIC agent skip their
steady-state empty polls.

The oracle is the step-by-step run. With :meth:`Simulator.horizon`
patched to return the current time no poll can be skipped, and every
output — shard documents, printed tables, metrics, flight, trace and
timeline files, and every cache agent's hit, miss and eviction counts —
must match the normal run byte for byte.
"""

import json
import math
import random
import sys
from array import array
from dataclasses import replace

import pytest

import repro.topology  # noqa: F401  (registers the rack scenarios)
from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.cli import main
from repro.coherence.cache import CacheAgent
from repro.core import CcnicConfig, CcnicInterface
from repro.core.agent import IDLE_GAP_NS, NicQueueAgent
from repro.core.recovery import RecoveryPolicy, RingWatchdog, first_instant
from repro.core.ring import WorkItem
from repro.faults import FaultInjector, FaultPlan
from repro.nicmodels.unopt import unoptimized_upi_config
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.platform import System, icx
from repro.shard.runner import execute_spec
from repro.shard.spec import scenario
from repro.sim import Simulator
from repro.sim.calqueue import CalendarQueue
from repro.sim.engine import Resume
from repro.workloads import trafficgen
from repro.workloads.packets import Packet


def _step_by_step(self):
    return self.now, 0


def _both(monkeypatch, run):
    """``run()`` normally, then with no step skippable.

    Each output comes paired with the ``(name, hits, misses,
    evictions)`` of every cache agent the run made, in the order made:
    no shard document or report carries them, and a skipped poll must
    still count its hit.
    """
    outputs = []
    init = CacheAgent.__init__
    for skip in (True, False):
        agents = []

        def tracked_init(agent, *args, **kwargs):
            init(agent, *args, **kwargs)
            agents.append(agent)

        with monkeypatch.context() as patch:
            patch.setattr(CacheAgent, "__init__", tracked_init)
            if not skip:
                patch.setattr(Simulator, "horizon", _step_by_step)
            out = run()
        counts = [(a.name, a.hits, a.misses, a.evictions) for a in agents]
        assert any(hits for _name, hits, _misses, _evictions in counts)
        outputs.append((out, counts))
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
        ("kv_rack_zipf", False, None),
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
        # Register signalling: the NIC polls the TX tail register line.
        pytest.param(["loopback", "--interface", "unopt", "--packets", "600"],
                     ("metrics", "trace", "flight"), id="unopt"),
        pytest.param(["kv", "--ops", "300"], ("metrics", "trace", "flight"), id="kv"),
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
                line.rsplit(None, 1) for line in normal[0][0].splitlines()
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
        assert normal[0]["driver"][0] >= 1 and normal[0]["result"][1] > 0
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

    @pytest.mark.parametrize("plan, platform", [
        (None, icx()),
        ({"name": "one-shots", "events": [
            {"kind": "nic_stall", "start_ns": 6_000, "duration_ns": 700},
            {"kind": "nic_reset", "start_ns": 13_000, "duration_ns": 500},
        ]}, icx()),
        # A free hit makes an empty poll no step of its own.
        (None, replace(icx(), cost=replace(icx().cost, l2_hit=0.0))),
    ], ids=["arrivals", "one-shots", "free-hits"])
    def test_sparse_host_matches_step_by_step(self, monkeypatch, plan, platform):
        # Long NIC idle stretches, each ended by an injected arrival or
        # the host's next wake-up; with the plan, NIC one-shots fall
        # inside them too.
        normal, oracle = _both(monkeypatch, lambda: _sparse_host(platform, plan))
        assert normal == oracle
        if plan is not None:
            assert [kind for _t, kind in normal[0]["injections"]] == [
                "nic_stall", "nic_reset"
            ]

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

    def test_most_nic_steps_are_skipped(self, monkeypatch):
        # The step-by-step run of this shard takes 1,293 NIC steps,
        # nearly all of them idle polls and gaps while the KV server
        # works through a batch.
        tally = {"executed": 0, "skipped": 0}
        run = NicQueueAgent.run
        monkeypatch.setattr(
            NicQueueAgent, "run", lambda agent: _CountingBody(run(agent), tally)
        )
        doc = execute_spec(scenario("kv_rack_zipf").shard_specs()[0])
        assert doc["events"] == 1368
        assert tally["executed"] + tally["skipped"] == 1293
        assert tally["executed"] * 10 < 1293


def _sparse_host(platform, plan=None, period_ns=4_000.0, arrive_ns=1_500.0, rounds=5):
    """A host waking every ``period_ns`` beside an idle NIC.

    Each wake-up submits one packet for the NIC to loop back, has the
    NIC's wire deliver a second one ``arrive_ns`` later
    (:meth:`NicQueueAgent.inject`, as the KV clients do) and reads back
    what has arrived. Returns everything the run leaves behind.
    """
    system = System(platform)
    nic = CcnicInterface(system, CcnicConfig(ring_slots=64, pool_buffers=256))
    driver = nic.driver(0)
    faults = None
    if plan is not None:
        faults = nic.faults = FaultInjector(FaultPlan.from_dict(plan), seed=1)
    nic.start()
    agent = nic.pair(0).agent
    sim = system.sim
    seen = []

    def host():
        for _ in range(rounds):
            alloc = driver.alloc([64])
            ns = alloc.ns
            buf = alloc.bufs[0]
            ns += driver.write_payload(buf, 64)
            ns += driver.tx_burst([(buf, Packet(64, tx_ns=sim.now))], base_ns=ns).ns
            agent.inject(Packet(128, tx_ns=sim.now), sim.now + ns + arrive_ns)
            yield ns + period_ns
            rx = driver.rx_burst(8)
            seen.append((sim.now, [(pkt.size, pkt.tx_ns) for pkt, _buf in rx.entries]))
            yield rx.ns + driver.free([buf for _pkt, buf in rx.entries])

    sim.spawn(host(), "host")
    sim.run(until=rounds * period_ns + 3_000.0)
    return {
        "seen": seen,
        "nic": (agent.tx_packets, agent.rx_packets, agent.busy_ns, agent.lost_packets),
        "injections": faults.injection_log if faults is not None else None,
        "counters": system.fabric.snapshot_counters(),
        "links": [st.snapshot() for st in system.link.stats],
        "clock": (sim.events_executed, sim.now),
    }


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


class TestNicSkipBounds:
    """Which steps ``NicQueueAgent._skip_idle`` skips, against each bound alone.

    The idle poll at 0.0 costs 1.0 ns, so the skippable steps are its
    gap step at 1.0, then polls at 13.0, 26.0, 39.0, ... each ending
    (and taking its gap step) 1.0 ns later. The step budget is finite,
    so a skip that ignored the bound under test still ends.
    """

    @staticmethod
    def _agent(config=None, limit=math.inf, budget=1_000, wake=math.inf,
               arrival=None, flight=None):
        system = System(icx())
        nic = CcnicInterface(system, config or CcnicConfig(ring_slots=64, pool_buffers=256))
        if flight is not None:
            system.fabric.instrument(Observability(flight=flight))
        agent = NicQueueAgent(nic, 0)
        agent.sim = _HorizonSim(0.0, limit, budget)
        if wake != math.inf:
            tx = agent.tx
            tx._slots[tx.head % tx.n_slots] = WorkItem(None, 64, None, visible_at=wake)
        if arrival is not None:
            agent.inject(Packet(64), arrival)
        return agent

    def _skip(self, due=math.inf, **bounds):
        agent = self._agent(**bounds)
        resume = agent._skip_idle(1.0, due)
        return resume, agent.agent.hits

    @pytest.mark.parametrize("bound, at", [
        # A poll ending at the horizon or the arrival would tie with it.
        ("limit", 27.0), ("arrival", 27.0),
        # A poll starting when the head slot turns visible or a one-shot
        # is due would see it.
        ("wake", 26.0), ("due", 26.0),
    ])
    def test_a_step_at_a_bound_is_not_skipped(self, bound, at):
        resume, hits = self._skip(**{bound: at})
        assert (resume.when, resume.steps) == (26.0, 3)
        assert hits == 1

    def test_budget_caps_the_skipped_steps(self):
        for budget, expected in ((1, (13.0, 1)), (2, (13.0, 1)), (4, (26.0, 3)),
                                 (5, (39.0, 5)), (6, (39.0, 5))):
            resume, _ = self._skip(limit=100.0, budget=budget)
            assert (resume.when, resume.steps) == expected

    @pytest.mark.parametrize("bounds", [
        {"limit": 14.0}, {"arrival": 14.0}, {"wake": 13.0}, {"due": 13.0},
        # The gap step waits for no arrival.
        {"limit": 14.0, "arrival": 1.0},
    ], ids=["limit", "arrival", "wake", "due", "gap-takes-no-arrival"])
    def test_only_the_gap_step(self, bounds):
        resume, hits = self._skip(**bounds)
        assert (resume.when, resume.steps, hits) == (13.0, 1, 0)

    @pytest.mark.parametrize("bounds", [
        {"limit": 1.0}, {"limit": 0.5}, {"limit": 100.0, "budget": 0},
    ], ids=["gap-at-horizon", "gap-past-horizon", "no-budget"])
    def test_nothing_to_skip(self, bounds):
        assert self._skip(**bounds) == (None, 0)

    @pytest.mark.parametrize("config, region", [
        (None, "txq0_ring"),
        (unoptimized_upi_config(ring_slots=64, pool_buffers=256), "txq0_tailreg"),
    ], ids=["inline", "register"])
    def test_replayed_hits_land_at_each_poll(self, config, region):
        flight = FlightRecorder()
        agent = self._agent(config, limit=40.5, flight=flight)
        resume = agent._skip_idle(1.0, math.inf)
        assert (resume.when, resume.steps) == (52.0, 7)
        assert agent.agent.hits == 3
        assert [event[0] for event in flight.events] == [13.0, 26.0, 39.0]
        assert {event[4] for event in flight.events} == {"hit"}
        line = agent.tx.poll_addr() // 64
        assert {event[1] for event in flight.events} == {line}
        assert flight.lines[line].region == region

    def test_cycle_is_the_engines_float_adds(self):
        # 0.1 + 12.0 and friends round: each replayed poll time must be
        # the engine's running sum, not a product.
        flight = FlightRecorder()
        agent = self._agent(limit=1e4, flight=flight)
        resume = agent._skip_idle(0.1, math.inf)
        t, times = 0.0, []
        for _ in range(resume.steps // 2):
            t += 0.1
            t += IDLE_GAP_NS
            times.append(t)
        assert [event[0] for event in flight.events] == times
        assert resume.when == t + 0.1 + IDLE_GAP_NS


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
