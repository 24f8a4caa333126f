"""Fault plans, the deterministic injector, and the recovery machinery."""

import json
import math
import types

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.check.model import ModelScope, _World
from repro.core.recovery import RecoverableDriver, RecoveryPolicy, RingWatchdog
from repro.core.results import TxResult
from repro.errors import FaultError, RingTimeoutError
from repro.faults import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from repro.faults.injector import LinkFault, SnoopFault
from repro.interconnect import Link, MessageClass
from repro.platform import icx
from repro.shard.merge import fingerprint
from repro.sim import Simulator
from repro.topology import TopologyNet, mesh


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


def _faulted_world(plan, seed):
    """A bare two-socket fabric (h0 and h1 on socket 0, n0 on socket 1;
    line 0 homed on socket 0, line 1 on socket 1) with one injector on
    its UPI link and its snoop sites."""
    world = _World(ModelScope())
    faults = FaultInjector(plan, seed=seed)
    world.link.faults = faults
    world.fabric.faults = faults
    return world, faults


class TestFaultInjector:
    def test_requires_a_plan(self):
        with pytest.raises(FaultError):
            FaultInjector({"events": []})  # dict, not FaultPlan

    def test_deterministic_replay(self):
        # The canned plan through every site kind: link messages, remote
        # fills (snoops) and NIC one-shots.
        logs = []
        for _ in range(2):
            world, inj = _faulted_world(FaultPlan.canned(), seed=11)
            for i in range(400):
                world.sim.now = i * 1000.0
                world.link.one_way(MessageClass.READ, direction=i % 2)
                # h0 and n0 take turns writing line 0: every write
                # fetches it from the other socket's cache.
                world.apply((0 if i % 2 else 2, True, 0))
                inj.nic_decide(0, world.sim.now)
            logs.append(inj.injection_log)
        assert logs[0] == logs[1]
        assert {kind for _, kind in logs[0]} == set(FAULT_KINDS) - {"link_degrade"}

    def test_seed_changes_the_draw_sequence(self):
        plan = _always("link_drop", probability=0.5)

        def draws(seed):
            sim, link = _link()
            link.faults = FaultInjector(plan, seed=seed)
            for i in range(64):
                sim.now = float(i)
                link.one_way(MessageClass.READ, direction=0)
            return tuple(now for now, _ in link.faults.injection_log)

        assert draws(1) != draws(2)

    def test_link_decide_respects_window_and_target(self):
        plan = _always("link_delay", start_ns=100.0, end_ns=200.0,
                       extra_ns=50.0, target="upi")
        inj = FaultInjector(plan)
        assert inj.link_segment("upi", 50.0) == (-math.inf, 100.0, 1.0, (), inj)
        assert inj.link_segment("pcie-e810", 150.0) == (-math.inf, math.inf, 1.0, (), inj)
        lo, hi, scale, rows, _ = inj.link_segment("upi", 150.0)
        assert (lo, hi, scale) == (100.0, 200.0, 1.0)
        ((probability, fault),) = rows
        assert probability == 1.0
        assert fault.kind == "link_delay" and fault.extra_ns == 50.0
        assert inj.total_injected() == 0  # compiling draws nothing
        # The site draws: only the "upi" link at 150 ns is delayed.
        sim = Simulator()
        for name, now, extra in (("upi", 50.0, 0.0), ("pcie-e810", 150.0, 0.0),
                                 ("upi", 150.0, 50.0)):
            sim.now = now
            link = Link(sim, name, latency_ns=50.0, bandwidth_bytes_per_ns=76.0)
            link.faults = inj
            assert link.one_way(MessageClass.READ, direction=0) == 51.0 + extra
        assert inj.injection_log == ((150.0, "link_delay"),)

    def test_link_drop_and_duplicate_flags(self):
        ((_, drop),) = FaultInjector(
            _always("link_drop", extra_ns=400.0)
        ).link_segment("l", 0.0)[3]
        assert drop.retransmit and not drop.duplicate and drop.extra_ns == 400.0
        ((_, dup),) = FaultInjector(_always("link_duplicate")).link_segment("l", 0.0)[3]
        assert dup.duplicate and not dup.retransmit and dup.extra_ns == 0.0

    def test_ser_scale_compounds_and_is_pure(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="link_degrade", factor=0.5, end_ns=100.0),
            FaultEvent(kind="link_degrade", factor=0.5, end_ns=100.0),
        ))
        inj = FaultInjector(plan)
        state = inj._rng.getstate()
        assert inj.link_segment("upi", 50.0)[2] == pytest.approx(4.0)
        assert inj.link_segment("upi", 200.0)[2] == 1.0
        # Pure: compiling consumes no RNG and counts nothing.
        assert inj._rng.getstate() == state
        assert inj.total_injected() == 0 and not inj.counters.snapshot()

    def test_snoop_decide(self):
        ((_, nack),) = FaultInjector(
            _always("snoop_nack", extra_ns=90.0)
        ).snoop_segment(0.0)[2]
        assert nack.reissue and nack.extra_ns == 90.0
        ((_, delay),) = FaultInjector(
            _always("snoop_delay", extra_ns=10.0)
        ).snoop_segment(0.0)[2]
        assert not delay.reissue and delay.extra_ns == 10.0

    def test_nic_events_fire_once_per_queue(self):
        plan = _always("nic_reset", start_ns=100.0, duration_ns=1000.0)
        inj = FaultInjector(plan)
        assert inj.nic_due(0) == 100.0
        assert inj.nic_decide(0, 50.0) is None  # not due yet
        fault = inj.nic_decide(0, 150.0)
        assert fault.kind == "nic_reset" and fault.duration_ns == 1000.0
        assert inj.nic_due(0) == math.inf
        assert inj.nic_decide(0, 200.0) is None  # one-shot
        assert inj.nic_due(1) == 100.0  # independent per queue
        assert inj.nic_decide(1, 200.0) is not None


# ----------------------------------------------------------------------
# Compiled fault segments against the per-message plan scan
# ----------------------------------------------------------------------
def _scan_link(plan, link_name, now):
    """``(scale, rows)`` a plan scan finds for one message at ``now``."""
    scale = 1.0
    rows = []
    for ev in plan.events:
        if not ev.kind.startswith("link_") or not ev.active(now):
            continue
        if not ev.matches_link(link_name):
            continue
        if ev.kind == "link_degrade":
            scale /= ev.factor
        elif ev.kind == "link_drop":
            rows.append((ev.probability, LinkFault("link_drop", extra_ns=ev.extra_ns,
                                                   retransmit=True)))
        elif ev.kind == "link_duplicate":
            rows.append((ev.probability, LinkFault("link_duplicate", duplicate=True)))
        else:
            rows.append((ev.probability, LinkFault("link_delay", extra_ns=ev.extra_ns)))
    return scale, tuple(rows)


def _scan_snoop(plan, now):
    """The ``(probability, SnoopFault)`` rows a plan scan finds at ``now``."""
    rows = []
    for ev in plan.events:
        if ev.kind == "snoop_nack" and ev.active(now):
            rows.append((ev.probability, SnoopFault("snoop_nack", extra_ns=ev.extra_ns,
                                                    reissue=True)))
        elif ev.kind == "snoop_delay" and ev.active(now):
            rows.append((ev.probability, SnoopFault("snoop_delay", extra_ns=ev.extra_ns)))
    return tuple(rows)


class _ScanInjector(FaultInjector):
    """The per-message answers the compiled segments replaced: every call
    scans the whole plan, then draws its active events in plan order
    until one fires. The oracle the hook sites are held to."""

    def link_ser_scale(self, link_name, now):
        scale, _ = _scan_link(self.plan, link_name, now)
        if scale != 1.0:
            self.counters.add("degraded_messages")
        return scale

    def link_decide(self, link_name, now):
        _, rows = _scan_link(self.plan, link_name, now)
        return self._first_firing(rows, now)

    def snoop_decide(self, now):
        return self._first_firing(_scan_snoop(self.plan, now), now)

    def _first_firing(self, rows, now):
        for probability, fault in rows:
            if self._rng.random() < probability:
                self._note(now, fault.kind)
                return fault
        return None


# Window edges on a coarse grid of ``unit`` ns, so windows overlap,
# share edges and queries land exactly on them.
_EDGE_UNITS = st.sampled_from([0, 1, 2, 3, 5, 8])


@st.composite
def _window_event(draw, unit=100.0, spans=(math.inf, 0, 1, 3),
                  targets=(None, None, "upi", "pcie")):
    kind = draw(st.sampled_from([
        "link_drop", "link_duplicate", "link_delay", "link_degrade",
        "snoop_delay", "snoop_nack",
    ]))
    start = unit * draw(_EDGE_UNITS)
    end = start + unit * draw(st.sampled_from(spans))
    fields = {"kind": kind, "start_ns": start, "end_ns": end}
    if kind == "link_degrade":
        fields["factor"] = draw(st.sampled_from([0.25, 0.5, 0.8]))
    else:
        fields["probability"] = draw(st.sampled_from([0.1, 0.5, 1.0]))
        fields["extra_ns"] = draw(st.sampled_from([0.0, 50.0, 400.0]))
    if kind.startswith("link_"):
        fields["target"] = draw(st.sampled_from(targets))
    return FaultEvent(**fields)


# Mostly non-decreasing query times, with repeats and a rare jump back.
_QUERY = st.tuples(
    st.sampled_from(["link", "snoop"]),
    st.sampled_from(["upi", "pcie", "edge:h0~tor"]),
    st.sampled_from([0.0, 0.0, 20.0, 50.0, 100.0, 100.0, 250.0, -400.0]),
)


def _times_inside(lo, hi, now):
    """``now`` and the segment's finite edges, as times inside it."""
    times = [now]
    if math.isfinite(lo):
        times.append(lo)
    if math.isfinite(hi):
        times.append(math.nextafter(hi, -math.inf))
    return times


@settings(max_examples=150, deadline=None)
@given(
    events=st.lists(_window_event(), min_size=1, max_size=6),
    queries=st.lists(_QUERY, min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=3),
)
def test_compiled_windows_match_plan_scan(events, queries, seed):
    """A compiled segment holds ``now`` and, at every time inside it,
    the scale and rows a plan scan finds there; compiling draws nothing."""
    plan = FaultPlan(events=tuple(events))
    compiled = FaultInjector(plan, seed=seed)
    state = compiled._rng.getstate()
    now = 0.0
    for hook, link_name, step in queries:
        now = max(0.0, now + step)
        if hook == "link":
            lo, hi, scale, rows, owner = compiled.link_segment(link_name, now)
            for t in _times_inside(lo, hi, now):
                assert _scan_link(plan, link_name, t) == (scale, rows)
        else:
            lo, hi, rows, owner = compiled.snoop_segment(now)
            for t in _times_inside(lo, hi, now):
                assert _scan_snoop(plan, t) == rows
        assert lo <= now < hi and owner is compiled
    assert compiled._rng.getstate() == state
    assert compiled.injection_log == () and not compiled.counters.snapshot()


@settings(max_examples=100, deadline=None)
@given(
    starts=st.lists(st.sampled_from([0.0, 50.0, 100.0, 250.0]), min_size=1, max_size=5),
    kinds=st.lists(st.sampled_from([("nic_stall", None), ("nic_reset", None),
                                    ("nic_stall", 1), ("nic_reset", 0)]),
                   min_size=5, max_size=5),
    steps=st.lists(st.sampled_from([0.0, 10.0, 60.0, 150.0]), min_size=1, max_size=30),
)
def test_nic_due_gates_exactly_what_polling_fires(starts, kinds, steps):
    """An engine that asks only once ``nic_due`` comes fires the same
    one-shots at the same polls as one that asks at every poll."""
    plan = FaultPlan(events=tuple(
        FaultEvent(kind=kind, start_ns=start, duration_ns=10.0, queue=queue)
        for start, (kind, queue) in zip(starts, kinds)
    ))
    polled, gated = FaultInjector(plan), FaultInjector(plan)
    due = {queue: gated.nic_due(queue) for queue in (0, 1)}
    now = 0.0
    for step in steps:
        now += step
        for queue in (0, 1):
            want = polled.nic_decide(queue, now)
            got = None
            if now >= due[queue]:
                got = gated.nic_decide(queue, now)
                due[queue] = gated.nic_due(queue)
            assert got == want
    assert gated.injection_log == polled.injection_log


# ----------------------------------------------------------------------
# Hook sites against the per-message answers
# ----------------------------------------------------------------------
def _per_message_fault_hooks(link, faults, cls, direction, ser, wire, actor):
    """A link message's hooks as they ran per message: ask for the
    degrade scale, then for one draw; book a fired draw's wasted copy."""
    now = link.sim.now
    ser = ser * faults.link_ser_scale(link.name, now)
    fault = faults.link_decide(link.name, now)
    if fault is None:
        return ser, 0.0
    if fault.retransmit or fault.duplicate:
        link._enqueue(direction, ser, actor)
        link.stats[direction].note(cls, 0, wire, ser)
    if fault.retransmit:
        return ser, fault.extra_ns + ser
    return ser, fault.extra_ns


def _per_message_pairs(link, plan, actor, base=0.0, n=1, out=None):
    """:meth:`Link.occupy_pairs` as two per-message :meth:`Link.occupy`
    calls per pair."""
    d0, cls0, _, _, charge0, _, _, d1, cls1, _, _, charge1, _, _ = plan
    for _ in range(n):
        total = base
        wait = link.occupy(cls0, d0, charge_queueing=charge0, actor=actor)
        if charge0:
            total += wait
        wait = link.occupy(cls1, d1, charge_queueing=charge1, actor=actor)
        if charge1:
            total += wait
        if out is not None:
            out.append(total)
    return total


def _per_message_snoop(fabric, faults, agent):
    """A remote fill's snoop hook as it ran per message: one draw."""
    fault = faults.snoop_decide(fabric.sim.now)
    if fault is None:
        return 0.0
    extra = fault.extra_ns
    if fault.reissue:
        extra += fabric.link.occupy(
            MessageClass.SNOOP, direction=agent.socket, actor=agent.name
        )
        fabric._count(agent.socket, "snoop_retry")
    return extra


_SITE_NET = mesh(2, 2)
_SITE_EDGE = f"edge:{_SITE_NET.edges[0].name}"
_SITE_ENDPOINTS = [node.name for node in _SITE_NET.nodes if node.kind != "switch"]


class _Sites:
    """Every kind of hook site on one simulator: a bare fabric with its
    UPI link (``occupy_pairs``, remote fills), a second link ("pcie") and
    a 2x2 mesh whose edge links the router charges, all reading one
    injector. The per-message copy runs the hooks the segments replaced:
    its links answer each message through ``link_ser_scale`` and
    ``link_decide``, its ``occupy_pairs`` is two ``occupy`` calls a pair, its
    router sums ``one_way`` over the route, and its fabric asks
    ``snoop_decide`` on every remote fill (its snoop segment stays
    stale), all of a :class:`_ScanInjector`."""

    def __init__(self, per_message):
        self.per_message = per_message
        self.world = _World(ModelScope())
        sim = self.world.sim
        self.pcie = Link(sim, "pcie", latency_ns=450.0,
                         bandwidth_bytes_per_ns=15.75, header_overhead=24)
        self.net = TopologyNet(sim, _SITE_NET)
        self.links = [self.world.link, self.pcie, *self.net.links.values()]
        self.injectors = []
        if per_message:
            for link in self.links:
                link._fault_hooks = types.MethodType(_per_message_fault_hooks, link)
            upi = self.world.link
            upi.occupy_pairs = types.MethodType(_per_message_pairs, upi)
            fabric = self.world.fabric
            fabric._snoop_disruption = types.MethodType(_per_message_snoop, fabric)

    def attach(self, plan, seed):
        faults = (_ScanInjector if self.per_message else FaultInjector)(plan, seed=seed)
        for link in self.links:
            link.faults = faults
        self.world.fabric.faults = faults
        self.injectors.append(faults)

    def step(self, advance, op):
        self.world.sim.now += advance
        kind, args = op[0], op[1:]
        if kind == "pair":
            req, resp, direction, charge0, charge1, base, actor = args
            fabric = self.world.fabric
            plan = (fabric._msg_row(req, direction, charge0)
                    + fabric._msg_row(resp, 1 - direction, charge1))
            return self.world.link.occupy_pairs(plan, actor, base)
        if kind == "occupy":
            index, cls, direction, charge, actor = args
            return self.links[index].occupy(
                cls, direction, charge_queueing=charge, actor=actor
            )
        if kind == "one_way":
            index, cls, direction, payload, actor = args
            return self.links[index].one_way(
                cls, direction, payload_bytes=payload, actor=actor
            )
        if kind == "route":
            src, dst, cls, payload, actor = args
            if not self.per_message:
                return self.net.router.charge(src, dst, cls, payload_bytes=payload,
                                              actor=actor)
            total = 0.0
            for link, direction in self.net.router.path_hops(src, dst):
                total += link.one_way(cls, direction, payload_bytes=payload, actor=actor)
            return total
        if kind == "fill":
            return self.world.apply(args)
        plan, seed = args  # "swap": another injector takes over every site
        self.attach(plan, seed)
        return None

    def state(self):
        return (
            [(link._win_busy, link._win_by, link._win_start, link._rho, link._rho_by)
             for link in self.links],
            [[st.snapshot() for st in link.stats] for link in self.links],
            list(self.world.fabric.counters.snapshot().items()),
            [(inj._rng.getstate(), list(inj.counters.snapshot().items()),
              inj.injection_log) for inj in self.injectors],
        )


# Windows on a 1 us grid that mostly stay open through a run (runs
# span a few to tens of us).
_SITE_PLAN = st.lists(
    _window_event(unit=1000.0, spans=(math.inf, math.inf, 3, 8),
                  targets=(None, None, None, "upi", "pcie", _SITE_EDGE)),
    min_size=2, max_size=8,
).map(lambda events: FaultPlan(events=tuple(events)))
_SITE_ACTOR = st.sampled_from(["a", "b", "c"])
_SITE_CLASS = st.sampled_from([
    MessageClass.SNOOP, MessageClass.READ, MessageClass.RFO,
    MessageClass.ACK, MessageClass.DMA_WRITE,
])
_SITE_OP = st.one_of(
    st.tuples(st.just("pair"), _SITE_CLASS, _SITE_CLASS, st.sampled_from([0, 1]),
              st.booleans(), st.booleans(), st.sampled_from([0.0, 37.5]), _SITE_ACTOR),
    st.tuples(st.just("occupy"), st.sampled_from([0, 1, 2]), _SITE_CLASS,
              st.sampled_from([0, 1]), st.booleans(), _SITE_ACTOR),
    st.tuples(st.just("one_way"), st.sampled_from([0, 1, 2]), _SITE_CLASS,
              st.sampled_from([0, 1]), st.sampled_from([None, 256]), _SITE_ACTOR),
    st.tuples(st.just("route"), st.sampled_from(_SITE_ENDPOINTS),
              st.sampled_from(_SITE_ENDPOINTS), _SITE_CLASS,
              st.sampled_from([None, 64, 1500]), _SITE_ACTOR),
    # (agent, write, line): h0/h1 on socket 0, n0 on socket 1.
    st.tuples(st.just("fill"), st.sampled_from([0, 1, 2]), st.booleans(),
              st.sampled_from([0, 1])),
    st.tuples(st.just("fill"), st.sampled_from([0, 1, 2]), st.booleans(),
              st.sampled_from([0, 1])),
)
_SITE_STEP = st.tuples(
    st.sampled_from([0.0, 0.0, 15.0, 120.0, 400.0, 1999.0, 2600.0]),
    # One step in ten hands every site another injector.
    st.one_of(*[_SITE_OP] * 9,
              st.tuples(st.just("swap"), _SITE_PLAN, st.integers(0, 3))),
)


@settings(max_examples=120, deadline=None)
@given(plan=_SITE_PLAN, seed=st.integers(0, 3),
       steps=st.lists(_SITE_STEP, min_size=4, max_size=40))
def test_hook_sites_match_per_message_answers(plan, seed, steps):
    """Every site that reads compiled segments — ``occupy_pairs``,
    ``occupy``, ``one_way``, the router's hops and the fabric's snoop
    sites on remote fills — returns what the per-message hooks return,
    and leaves the same window state, link statistics, fabric counters,
    RNG state, injector counters (in the order they first appear) and
    injection log, through random plans and mid-run injector swaps."""
    compiled, per_message = _Sites(per_message=False), _Sites(per_message=True)
    for sites in (compiled, per_message):
        sites.attach(plan, seed)
    for advance, op in steps:
        got = compiled.step(advance, op)
        want = per_message.step(advance, op)
        assert got == want, op
        assert compiled.state() == per_message.state(), op
    for inj in compiled.injectors:
        for kind in {kind for _, kind in inj.injection_log}:
            event(f"fired {kind}")
        if inj.counters.get("degraded_messages"):
            event("degraded a message")
    event(f"injectors: {len(compiled.injectors)}")


#: A plan whose windows open only after every run here ends, and one
#: that degrades and delays every link message and every snoop.
_QUIET = FaultPlan(events=(
    FaultEvent(kind="link_delay", start_ns=1e9, extra_ns=1.0),
    FaultEvent(kind="snoop_delay", start_ns=1e9, extra_ns=1.0),
))
_LOUD = FaultPlan(events=(
    FaultEvent(kind="link_degrade", factor=0.5),
    FaultEvent(kind="link_delay", extra_ns=7.0),
    FaultEvent(kind="snoop_delay", extra_ns=5.0),
))
_READ = MessageClass.READ
#: Under the quiet plan every site fetches its segment: the UPI link
#: (``occupy_pairs``), "pcie", the route's edges, and n0's remote-DRAM
#: read of line 0 the fabric's snoop segment.
_SWAP_PREFIX = (
    ("pair", MessageClass.SNOOP, _READ, 0, True, True, 0.0, "a"),
    ("one_way", 1, _READ, 0, None, "a"),
    ("route", "h0_0", "tor0", _READ, 64, "a"),
    ("fill", 2, False, 0),
)
#: Site -> (extra set-up ops under the quiet plan, the first op after
#: the swap, which reaches that site first).
_SWAP_CASES = {
    "occupy_pair": ((), ("pair", MessageClass.SNOOP, _READ, 0, True, True, 0.0, "a")),
    "occupy": ((), ("occupy", 0, _READ, 1, True, "a")),
    "one_way": ((), ("one_way", 1, _READ, 0, None, "a")),
    "router hop": ((), ("route", "h0_0", "tor0", _READ, 64, "a")),
    # h1 reads line 1, homed on n0's socket, which no cache holds.
    "remote DRAM fill": ((), ("fill", 1, False, 1)),
    # h0 reads line 0 from n0's cache.
    "remote cache fill": ((), ("fill", 0, False, 0)),
    # Once h0 shares line 0, n0's write upgrades across the link.
    "remote upgrade": ((("fill", 0, False, 0),), ("fill", 2, True, 0)),
}


@pytest.mark.parametrize("site", sorted(_SWAP_CASES))
def test_site_follows_an_injector_swap(site):
    """A site whose segment is still current fetches a new one when
    another injector is attached, as the per-message hooks ask it."""
    setup, target = _SWAP_CASES[site]
    compiled, per_message = _Sites(per_message=False), _Sites(per_message=True)
    for sites in (compiled, per_message):
        sites.attach(_QUIET, seed=0)
        for op in _SWAP_PREFIX + setup:
            sites.step(10.0, op)
        sites.step(10.0, ("swap", _LOUD, 1))
    assert compiled.step(10.0, target) == per_message.step(10.0, target)
    assert compiled.state() == per_message.state()
    quiet, loud = compiled.injectors
    assert quiet.injection_log == ()
    fired = {kind for _, kind in loud.injection_log}
    assert fired == ({"link_delay", "snoop_delay"} if target[0] == "fill" else {"link_delay"})
    assert loud.counters.get("degraded_messages") > 0


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


#: One window per message-level fault kind, closing mid-run, with the
#: probabilities and extra delays of the canned plan.
SINGLE_KIND_EVENTS = {
    "link_drop": {"probability": 0.05, "extra_ns": 400.0},
    "link_duplicate": {"probability": 0.05},
    "link_delay": {"probability": 0.05, "extra_ns": 150.0},
    "link_degrade": {"factor": 0.5},
    "snoop_delay": {"probability": 0.05, "extra_ns": 120.0},
    "snoop_nack": {"probability": 0.05, "extra_ns": 90.0},
}


@pytest.mark.parametrize("kind", sorted(SINGLE_KIND_EVENTS))
def test_single_kind_conserves_packets(kind):
    """Each message-level kind alone, on a CC-NIC loopback with
    recovery: every offered packet is received or dropped, the kind
    fires, and a same-seed rerun is identical."""
    plan = FaultPlan(events=(FaultEvent(
        kind=kind, start_ns=2_000.0, end_ns=30_000.0, **SINGLE_KIND_EVENTS[kind]
    ),))
    snapshots = []
    for _ in range(2):
        setup, result, faults = _faulted_run(InterfaceKind.CCNIC, plan, seed=5)
        assert result.received + result.dropped == 1500
        counters = faults.counters.snapshot()
        if kind == "link_degrade":
            assert counters["degraded_messages"] > 0
        else:
            assert counters[f"injected_{kind}"] > 0
            assert {k for _, k in faults.injection_log} == {kind}
        snap = _run_snapshot(setup, result)
        snap["faults"] = counters
        snap["injection_log"] = faults.injection_log
        snapshots.append(snap)
    assert snapshots[0] == snapshots[1]


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
    """Fault draws run inside the fabric plans and ``Link.occupy_pairs``.

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
        world, faults = _faulted_world(plan, seed=5)
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
