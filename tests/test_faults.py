"""Fault plans, the deterministic injector, and the recovery machinery."""

import json

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.check.model import ModelScope, _World
from repro.core.recovery import RecoverableDriver, RecoveryPolicy, RingWatchdog
from repro.core.results import TxResult
from repro.errors import FaultError, RingTimeoutError
from repro.faults import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from repro.interconnect import Link, MessageClass
from repro.platform import icx
from repro.shard.merge import fingerprint
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Plan parsing and validation
# ----------------------------------------------------------------------
class TestFaultEvent:
    def test_unknown_kind(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="cosmic_ray")

    def test_probability_bounds(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="link_drop", probability=0.0)
        with pytest.raises(FaultError):
            FaultEvent(kind="link_drop", probability=1.5)
        FaultEvent(kind="link_drop", probability=1.0)  # inclusive upper bound

    def test_window_ordering(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="link_delay", start_ns=100.0, end_ns=50.0)
        with pytest.raises(FaultError):
            FaultEvent(kind="link_delay", start_ns=-1.0)

    def test_degrade_factor_bounds(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="link_degrade", factor=1.0)
        with pytest.raises(FaultError):
            FaultEvent(kind="link_degrade", factor=0.0)
        FaultEvent(kind="link_degrade", factor=0.5)

    def test_nic_kinds_need_duration(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="nic_reset")
        FaultEvent(kind="nic_reset", duration_ns=1000.0)

    def test_active_window(self):
        ev = FaultEvent(kind="link_delay", start_ns=10.0, end_ns=20.0)
        assert not ev.active(9.9)
        assert ev.active(10.0)
        assert ev.active(19.9)
        assert not ev.active(20.0)

    def test_target_and_queue_matching(self):
        ev = FaultEvent(kind="link_drop", target="upi")
        assert ev.matches_link("upi")
        assert not ev.matches_link("pcie-e810")
        anyq = FaultEvent(kind="nic_stall", duration_ns=1.0)
        assert anyq.matches_queue(0) and anyq.matches_queue(7)
        q3 = FaultEvent(kind="nic_stall", duration_ns=1.0, queue=3)
        assert q3.matches_queue(3) and not q3.matches_queue(0)


class TestFaultPlan:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"events": [], "bogus": 1})
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"events": [{"kind": "link_drop", "zap": 1}]})
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"events": [{"probability": 0.5}]})  # no kind

    def test_json_round_trip(self):
        plan = FaultPlan.canned()
        again = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert again.to_dict() == plan.to_dict()

    def test_bad_json(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("{not json")

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FaultPlan.canned().to_dict()))
        assert FaultPlan.load(str(path)).kinds() == FaultPlan.canned().kinds()

    def test_load_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "plan.toml"
        path.write_text(
            'name = "t"\n'
            "[[events]]\n"
            'kind = "link_delay"\n'
            "probability = 0.5\n"
            "extra_ns = 100.0\n"
        )
        plan = FaultPlan.load(str(path))
        assert plan.name == "t"
        assert plan.events[0].kind == "link_delay"
        assert plan.events[0].extra_ns == 100.0

    def test_load_missing_file(self):
        with pytest.raises(FaultError):
            FaultPlan.load("/nonexistent/plan.json")

    def test_restricted(self):
        plan = FaultPlan.canned()
        sub = plan.restricted(["nic_reset"])
        assert sub.kinds() == ("nic_reset",)
        with pytest.raises(FaultError):
            plan.restricted(["bogus_kind"])

    def test_canned_covers_every_kind(self):
        assert FaultPlan.canned().kinds() == FAULT_KINDS

    def test_events_of(self):
        plan = FaultPlan.canned()
        assert all(ev.kind == "link_drop" for ev in plan.events_of("link_drop"))
        assert len(plan.events_of("nic_stall", "nic_reset")) == 2


# ----------------------------------------------------------------------
# Injector decisions
# ----------------------------------------------------------------------
def _always(kind, probability=1.0, **kw):
    return FaultPlan(events=(FaultEvent(kind=kind, probability=probability, **kw),))


class TestFaultInjector:
    def test_requires_a_plan(self):
        with pytest.raises(FaultError):
            FaultInjector({"events": []})  # dict, not FaultPlan

    def test_deterministic_replay(self):
        plan = FaultPlan.canned()
        logs = []
        for _ in range(2):
            inj = FaultInjector(plan, seed=11)
            for i in range(400):
                now = i * 1000.0
                inj.link_decide("upi", now)
                inj.snoop_decide(now)
                inj.nic_decide(0, now)
            logs.append(inj.injection_log)
        assert logs[0] == logs[1]
        assert FaultInjector(plan, seed=12) is not None  # different seed builds fine

    def test_seed_changes_the_draw_sequence(self):
        plan = _always("link_drop", probability=0.5)

        def draws(seed):
            inj = FaultInjector(plan, seed=seed)
            return tuple(
                inj.link_decide("upi", float(i)) is not None for i in range(64)
            )

        assert draws(1) != draws(2)

    def test_link_decide_respects_window_and_target(self):
        plan = _always("link_delay", start_ns=100.0, end_ns=200.0,
                       extra_ns=50.0, target="upi")
        inj = FaultInjector(plan)
        assert inj.link_decide("upi", 50.0) is None
        assert inj.link_decide("pcie-e810", 150.0) is None
        fault = inj.link_decide("upi", 150.0)
        assert fault.kind == "link_delay" and fault.extra_ns == 50.0
        assert inj.total_injected() == 1

    def test_link_drop_and_duplicate_flags(self):
        drop = FaultInjector(_always("link_drop", extra_ns=400.0)).link_decide("l", 0.0)
        assert drop.retransmit and not drop.duplicate and drop.extra_ns == 400.0
        dup = FaultInjector(_always("link_duplicate")).link_decide("l", 0.0)
        assert dup.duplicate and not dup.retransmit and dup.extra_ns == 0.0

    def test_ser_scale_compounds_and_is_pure(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="link_degrade", factor=0.5, end_ns=100.0),
            FaultEvent(kind="link_degrade", factor=0.5, end_ns=100.0),
        ))
        inj = FaultInjector(plan)
        assert inj.link_ser_scale("upi", 50.0) == pytest.approx(4.0)
        assert inj.link_ser_scale("upi", 200.0) == 1.0
        # Pure: no RNG consumed, so a later draw is unaffected by calls.
        assert inj.total_injected() == 0

    def test_snoop_decide(self):
        nack = FaultInjector(_always("snoop_nack", extra_ns=90.0)).snoop_decide(0.0)
        assert nack.reissue and nack.extra_ns == 90.0
        delay = FaultInjector(_always("snoop_delay", extra_ns=10.0)).snoop_decide(0.0)
        assert not delay.reissue and delay.extra_ns == 10.0

    def test_nic_events_fire_once_per_queue(self):
        plan = _always("nic_reset", start_ns=100.0, duration_ns=1000.0)
        inj = FaultInjector(plan)
        assert inj.nic_decide(0, 50.0) is None  # not due yet
        fault = inj.nic_decide(0, 150.0)
        assert fault.kind == "nic_reset" and fault.duration_ns == 1000.0
        assert inj.nic_decide(0, 200.0) is None  # one-shot
        assert inj.nic_decide(1, 200.0) is not None  # independent per queue


# ----------------------------------------------------------------------
# Link-layer hooks
# ----------------------------------------------------------------------
def _link(bw=76.0, latency=50.0):
    sim = Simulator()
    return sim, Link(sim, "test", latency_ns=latency,
                     bandwidth_bytes_per_ns=bw, header_overhead=12)


class TestLinkHooks:
    BASE = 50.0 + 1.0  # latency + 76B/76Bns serialization for READ

    def test_delay_adds_extra_ns(self):
        _sim, link = _link()
        link.faults = FaultInjector(_always("link_delay", extra_ns=150.0))
        cost = link.one_way(MessageClass.READ, direction=0)
        assert cost == pytest.approx(self.BASE + 150.0)

    def test_drop_retransmits(self):
        _sim, link = _link()
        link.faults = FaultInjector(_always("link_drop", extra_ns=400.0))
        cost = link.one_way(MessageClass.READ, direction=0)
        # Second serialization + retry turnaround; the wasted copy still
        # consumed wire bandwidth.
        assert cost == pytest.approx(self.BASE + 400.0 + 1.0)
        assert link.stats[0].messages == 2
        assert link.stats[0].wire_bytes == 152

    def test_duplicate_consumes_bandwidth_without_delay(self):
        _sim, link = _link()
        link.faults = FaultInjector(_always("link_duplicate"))
        cost = link.one_way(MessageClass.READ, direction=0)
        assert cost == pytest.approx(self.BASE)
        assert link.stats[0].wire_bytes == 152

    def test_degrade_scales_serialization(self):
        _sim, link = _link()
        link.faults = FaultInjector(_always("link_degrade", factor=0.5))
        cost = link.one_way(MessageClass.READ, direction=0)
        assert cost == pytest.approx(50.0 + 2.0)

    def test_no_faults_attribute_means_clean_path(self):
        _sim, link = _link()
        assert link.faults is None
        assert link.one_way(MessageClass.READ, direction=0) == pytest.approx(self.BASE)


class TestLinkResetStats:
    def test_reset_clears_per_class_wire_bytes(self):
        _sim, link = _link()
        link.one_way(MessageClass.READ, direction=0)
        link.one_way(MessageClass.SNOOP, direction=1)
        assert link.stats[0].wire_by_class == {"read": 76}
        link.reset_stats()
        assert link.stats[0].wire_by_class == {}
        assert link.stats[1].wire_by_class == {}
        assert link.total_wire_bytes() == 0

    def test_reset_clears_utilization_window(self):
        sim, link = _link()
        for _ in range(300):
            link.occupy(MessageClass.READ, direction=0, actor="a")
        sim.now = link.WINDOW_NS + 1.0
        link.occupy(MessageClass.READ, direction=0, actor="a")
        assert link.rho(0) > 0.0
        link.reset_stats()
        assert link.rho(0) == 0.0
        # A fresh competitor sees no leftover queueing pressure.
        assert link.occupy(MessageClass.READ, direction=0, actor="b") == 0.0


# ----------------------------------------------------------------------
# Recovery machinery
# ----------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(FaultError):
            RecoveryPolicy(backoff_base_ns=0.0)
        with pytest.raises(FaultError):
            RecoveryPolicy(backoff_cap_ns=1.0, backoff_base_ns=2.0)
        with pytest.raises(FaultError):
            RecoveryPolicy(max_retries=0)
        with pytest.raises(FaultError):
            RecoveryPolicy(watchdog_ns=0.0)

    def test_backoff_doubles_and_caps(self):
        policy = RecoveryPolicy(backoff_base_ns=100.0, backoff_cap_ns=500.0)
        assert policy.backoff_ns(1) == 100.0
        assert policy.backoff_ns(2) == 200.0
        assert policy.backoff_ns(3) == 400.0
        assert policy.backoff_ns(4) == 500.0
        assert policy.backoff_ns(50) == 500.0
        with pytest.raises(FaultError):
            policy.backoff_ns(0)


class TestRingWatchdog:
    def test_stall_detection(self):
        wd = RingWatchdog(RecoveryPolicy(watchdog_ns=100.0))
        assert not wd.stalled(0.0, depth=4, consumed=10)
        assert not wd.stalled(50.0, depth=4, consumed=10)  # budget not spent
        assert wd.stalled(100.0, depth=4, consumed=10)

    def test_progress_resets_the_clock(self):
        wd = RingWatchdog(RecoveryPolicy(watchdog_ns=100.0))
        wd.stalled(0.0, depth=4, consumed=10)
        assert not wd.stalled(90.0, depth=4, consumed=11)  # consumption moved
        assert not wd.stalled(150.0, depth=4, consumed=11)
        assert wd.stalled(190.0, depth=4, consumed=11)

    def test_empty_ring_never_stalls(self):
        wd = RingWatchdog(RecoveryPolicy(watchdog_ns=100.0))
        wd.stalled(0.0, depth=0, consumed=5)
        assert not wd.stalled(1000.0, depth=0, consumed=5)

    def test_reset_rearms(self):
        wd = RingWatchdog(RecoveryPolicy(watchdog_ns=100.0))
        wd.stalled(0.0, depth=4, consumed=10)
        wd.reset(50.0)
        # The first post-reset observation re-arms the clock; a full
        # watchdog budget must elapse from there.
        assert not wd.stalled(60.0, depth=4, consumed=10)
        assert not wd.stalled(159.0, depth=4, consumed=10)
        assert wd.stalled(160.0, depth=4, consumed=10)


class _StubDriver(RecoverableDriver):
    """Minimal driver exposing the shared tx_submit machinery."""

    queue_index = 0

    def __init__(self, accepts):
        self._init_recovery_state()
        self._accepts = list(accepts)

    def tx_burst(self, entries, base_ns=0.0):
        accepted = self._accepts.pop(0) if self._accepts else 0
        return TxResult(accepted, 10.0)

    def free(self, bufs):
        return 0.0


class TestTxSubmit:
    ENTRIES = [("buf", "pkt")]

    def test_passthrough_without_recovery(self):
        driver = _StubDriver([0, 0, 0])
        for _ in range(3):
            assert driver.tx_submit(self.ENTRIES).ns == 10.0  # no backoff

    def test_backoff_grows_until_acceptance(self):
        driver = _StubDriver([0, 0, 4])
        driver.configure_recovery(
            RecoveryPolicy(backoff_base_ns=100.0, backoff_cap_ns=1e6, max_retries=10)
        )
        assert driver.tx_submit(self.ENTRIES).ns == pytest.approx(110.0)
        assert driver.tx_submit(self.ENTRIES).ns == pytest.approx(210.0)
        ok = driver.tx_submit(self.ENTRIES)
        assert ok.count == 4 and ok.ns == 10.0
        assert driver.tx_retries == 2 and driver.tx_timeouts == 0

    def test_timeout_after_budget(self):
        driver = _StubDriver([])
        driver.configure_recovery(RecoveryPolicy(max_retries=3))
        for _ in range(3):
            driver.tx_submit(self.ENTRIES)
        with pytest.raises(RingTimeoutError):
            driver.tx_submit(self.ENTRIES)
        assert driver.tx_timeouts == 1
        # The counter restarts: the next zero-accept is retry 1 again.
        assert driver.tx_submit(self.ENTRIES).ns == pytest.approx(
            10.0 + RecoveryPolicy().backoff_base_ns
        )


# ----------------------------------------------------------------------
# End to end: drivers recover, runs are deterministic
# ----------------------------------------------------------------------
def _faulted_run(kind, plan, seed, n_packets=1500, pkt_size=64):
    faults = FaultInjector(plan, seed=seed)
    setup = build_interface(icx(), kind, faults=faults)
    result = run_point(
        setup, pkt_size=pkt_size, n_packets=n_packets, inflight=64,
        tx_batch=16, rx_batch=16, recovery=RecoveryPolicy(),
    )
    return setup, result, faults


def _run_snapshot(setup, result):
    """Everything a run's fingerprint covers, plus the raw latencies."""
    system = setup.system
    links = [system.link]
    if setup.link() is not system.link:
        links.append(setup.link())  # the PCIe lane group
    return {
        "received": result.received,
        "dropped": result.dropped,
        "latency": result.latency.samples(),
        "counters": system.fabric.snapshot_counters(),
        "links": [[st.snapshot() for st in link.stats] for link in links],
        "events": system.sim.events_executed,
        "now": system.sim.now,
    }


class TestEndToEnd:
    def test_reset_recovery_ccnic(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="nic_reset", start_ns=20_000.0, duration_ns=15_000.0),
        ))
        setup, result, faults = self._run(InterfaceKind.CCNIC, plan)
        assert faults.total_injected() == 1
        assert setup.driver.watchdog_resets >= 1
        assert result.received + result.dropped == 1500
        assert result.received > 0 and result.dropped > 0

    def test_reset_recovery_pcie(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="nic_reset", start_ns=20_000.0, duration_ns=15_000.0),
        ))
        setup, result, faults = self._run(InterfaceKind.E810, plan)
        assert faults.total_injected() == 1
        assert setup.driver.watchdog_resets >= 1
        assert result.received + result.dropped == 1500
        assert result.received > 0

    def test_stall_recovers_without_loss(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="nic_stall", start_ns=20_000.0, duration_ns=10_000.0),
        ))
        _setup, result, faults = self._run(InterfaceKind.CCNIC, plan)
        assert faults.total_injected() == 1
        assert result.received == 1500  # a stall delays, it does not lose

    def test_deterministic_per_seed(self):
        plan = FaultPlan.canned()
        fingerprints = []
        for _ in range(2):
            _setup, result, faults = self._run(InterfaceKind.CCNIC, plan, seed=9)
            fingerprints.append((
                result.received, result.dropped, result.sent,
                result.latency.median, faults.injection_log,
            ))
        assert fingerprints[0] == fingerprints[1]

    def test_inert_plan_matches_no_faults(self):
        # A plan whose windows never open must not perturb the run.
        plan = FaultPlan(events=(
            FaultEvent(kind="link_drop", start_ns=1e15),
            FaultEvent(kind="nic_reset", start_ns=1e15, duration_ns=1.0),
        ))
        faulted_setup, faulted, faults = self._run(InterfaceKind.CCNIC, plan)
        assert faults.total_injected() == 0
        clean_setup = build_interface(icx(), InterfaceKind.CCNIC)
        clean = run_point(
            clean_setup, pkt_size=64, n_packets=1500, inflight=64,
            tx_batch=16, rx_batch=16,
        )
        assert _run_snapshot(faulted_setup, faulted) == _run_snapshot(
            clean_setup, clean
        )
        assert faulted.dropped == 0
        # Attaching an injector keeps the fabric on its plan path.
        assert faulted_setup.system.fabric._plans

    @staticmethod
    def _run(kind, plan, seed=0):
        return _faulted_run(kind, plan, seed)


# ----------------------------------------------------------------------
# Faulted runs on the plan path, pinned under every fault class
# ----------------------------------------------------------------------
#: The canned plan's eight kinds squeezed into the first 40 us, so a
#: few thousand packets run through every window and both NIC events.
COMPRESSED_PLAN = FaultPlan.from_dict({
    "name": "compressed",
    "events": [
        {"kind": "link_delay", "start_ns": 2_000, "end_ns": 20_000,
         "probability": 0.05, "extra_ns": 150.0},
        {"kind": "link_drop", "start_ns": 5_000, "end_ns": 25_000,
         "probability": 0.02, "extra_ns": 400.0},
        {"kind": "link_duplicate", "start_ns": 8_000, "end_ns": 28_000,
         "probability": 0.05},
        {"kind": "link_degrade", "start_ns": 11_000, "end_ns": 31_000,
         "factor": 0.5},
        {"kind": "snoop_delay", "start_ns": 14_000, "end_ns": 34_000,
         "probability": 0.05, "extra_ns": 120.0},
        {"kind": "snoop_nack", "start_ns": 17_000, "end_ns": 40_000,
         "probability": 0.05, "extra_ns": 90.0},
        {"kind": "nic_stall", "start_ns": 20_000, "duration_ns": 5_000},
        {"kind": "nic_reset", "start_ns": 30_000, "duration_ns": 5_000},
    ],
})


class TestFaultedRunPins:
    """Fault draws run inside the fabric plans and ``Link.occupy_pair``.

    Each pin is the fingerprint a faulted run produced on both the plan
    path and the hand-written reference path when the fabric still had
    one; a moved fault draw or a reordered link charge changes it.
    """

    @staticmethod
    def _run(kind):
        setup, result, faults = _faulted_run(
            kind, COMPRESSED_PLAN, seed=3, n_packets=3000, pkt_size=256
        )
        snap = _run_snapshot(setup, result)
        snap["injection_log"] = faults.injection_log
        snap["faults"] = faults.counters.snapshot()
        snap["watchdog_resets"] = setup.driver.watchdog_resets
        return snap

    @pytest.mark.parametrize(
        "kind, pinned",
        [(InterfaceKind.CCNIC, "e3ec8e80f51eed79"),
         (InterfaceKind.E810, "5ba5e747e0b53649")],
        ids=["ccnic", "e810"],
    )
    def test_loopback_fingerprint_pinned(self, kind, pinned):
        snap = self._run(kind)
        assert snap["watchdog_resets"] >= 1
        assert snap["received"] + snap["dropped"] == 3000
        if kind is InterfaceKind.CCNIC:
            # Every class fired. Degrade windows draw nothing; they
            # tally the messages they scaled instead.
            fired = {k for _, k in snap["injection_log"]}
            assert fired == set(FAULT_KINDS) - {"link_degrade"}
            assert snap["faults"]["degraded_messages"] > 0
            assert any(
                n for key, n in snap["counters"].items()
                if key.endswith(".snoop_retry")
            )
        assert fingerprint(snap) == pinned

    def test_every_snoop_site_fingerprint_pinned(self):
        # One remote DRAM fill, one remote-cache fetch and one remote
        # upgrade, each NACKed once, on a bare fabric.
        # Loopback runs fill remote lines from DRAM only at cold start,
        # before any fault window opens, so that site needs this check.
        plan = FaultPlan(events=(
            FaultEvent(kind="link_drop", probability=0.3, extra_ns=400.0),
            FaultEvent(kind="link_duplicate", probability=0.3),
            FaultEvent(kind="link_degrade", factor=0.5),
            FaultEvent(kind="snoop_nack", probability=1.0, extra_ns=90.0),
        ))
        # (agent, write, line): h0 and n0 sit on opposite sockets and
        # line 1 is homed on n0's socket.
        ops = ((0, False, 1), (2, False, 1), (0, True, 1))
        world = _World(ModelScope())
        faults = FaultInjector(plan, seed=5)
        world.link.faults = faults
        world.fabric.faults = faults
        latencies = []
        for op in ops:
            latencies.append(world.apply(op))
            world.settle()
        observed = {
            "latencies": latencies,
            "counters": world.counters(),
            "links": [st.snapshot() for st in world.link.stats],
            "injection_log": faults.injection_log,
        }
        counters = observed["counters"]
        assert (counters["s0.snoop_retry"], counters["s1.snoop_retry"]) == (2, 1)
        assert fingerprint(observed) == "95e61ba0b825deb8"
