"""Inlined link arithmetic against the per-message oracles.

:meth:`Link._enqueue`'s utilization-window arithmetic is written out
three more times for speed: once per row of :meth:`Link.occupy_pairs`
and once per hop in :meth:`Router.charge` (the window roll is written
once, in :meth:`Link._roll`). All four skip the arithmetic when the
sender is the only actor in the live window. The oracle is a
twin whose :meth:`Link.occupy` and :meth:`Link.one_way` run
:func:`_full_enqueue`, the whole window formula with no such shortcut,
which lives only here. Hypothesis drives random message
sequences — clock advances across window boundaries, several actors,
mixed message classes, both directions, charged and uncharged rows,
and :meth:`Link.scaled` / :meth:`Link.reset_stats` calls mid-run —
through an inlined copy and through a twin built the same way, with and
without an identically seeded fault injector, and compares the returned
delays, the window state and the injectors' draws. Deterministic cases
pin the state the shortcut covers beyond "nothing settled": an actor
alone in the live window right after others were busy in the last one.

:class:`LinkStats` counts each message once per shape and sums its
totals when read. The twins count per message instead: every field of
:class:`_PerMessageStats` is bumped on every message. Every
:meth:`LinkStats.snapshot` and property of the inlined side must equal
that per-message count after every step.
"""

import types

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.coherence import CoherenceFabric
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.interconnect import Link, MessageClass
from repro.mem import AddressSpace
from repro.platform import icx
from repro.sim import Simulator
from repro.topology import mesh
from repro.topology.net import TopologyNet

#: Every per-message link fault, with windows that open and close
#: inside the generated runs so degraded and clean messages mix.
LINK_FAULTS = (
    FaultEvent(kind="link_drop", probability=0.15, extra_ns=400.0),
    FaultEvent(kind="link_duplicate", probability=0.15),
    FaultEvent(kind="link_delay", start_ns=3_000.0, end_ns=30_000.0,
               probability=0.2, extra_ns=150.0),
    FaultEvent(kind="link_degrade", start_ns=5_000.0, end_ns=20_000.0,
               factor=0.5),
)

# Advances straddle Link.WINDOW_NS (2000 ns) so windows roll mid-run,
# and the short ones pile several actors past the 500 ns live floor.
_ADVANCE = st.sampled_from(
    [0.0, 0.0, 15.0, 120.0, 120.0, 120.0, 400.0, 400.0, 1999.0, 2000.0, 2600.0]
)
_ACTOR = st.sampled_from(["a", "b", "c"])
_FLAG = st.booleans()


def _window_state(link):
    return (link._win_busy, link._win_by, link._win_start, link._rho, link._rho_by)


class _PerMessageStats:
    """The per-message counting oracle for :class:`LinkStats`."""

    def __init__(self):
        self.messages = self.payload_bytes = self.wire_bytes = 0
        self.busy_ns = 0.0
        self.by_class = {}
        self.wire_by_class = {}

    def note(self, cls, payload, wire, ser_ns):
        self.messages += 1
        self.payload_bytes += payload
        self.wire_bytes += wire
        self.busy_ns += ser_ns
        self.by_class[cls.value] = self.by_class.get(cls.value, 0) + 1
        self.wire_by_class[cls.value] = self.wire_by_class.get(cls.value, 0) + wire

    def snapshot(self):
        return {
            "messages": self.messages,
            "payload": self.payload_bytes,
            "wire": self.wire_bytes,
            "busy": self.busy_ns,
            "by_class": dict(self.by_class),
            "wire_by_class": dict(self.wire_by_class),
        }


def _count_per_message(link):
    """Swap a twin link's statistics for fresh per-message oracles."""
    link.stats = (_PerMessageStats(), _PerMessageStats())


def _full_enqueue(link, direction, ser, actor):
    """:meth:`Link._enqueue` without the sole-actor shortcut: the whole
    window formula runs for every message. Counts, on the link, the
    messages sent alone in the live window after others settled a share
    in the last one (``busy == mine`` with ``settled_others > 0``)."""
    t = link.sim.now
    elapsed = t - link._win_start[direction]
    if elapsed >= link.WINDOW_NS:
        link._rho[direction] = min(link.RHO_CAP, link._win_busy[direction] / elapsed)
        link._rho_by[direction] = {
            a: min(link.RHO_CAP, busy / elapsed)
            for a, busy in link._win_by[direction].items()
        }
        link._win_start[direction] = t
        link._win_busy[direction] = 0.0
        link._win_by[direction] = {}
    link._win_busy[direction] += ser
    by = link._win_by[direction]
    by[actor] = by.get(actor, 0.0) + ser
    settled_others = max(
        0.0, link._rho[direction] - link._rho_by[direction].get(actor, 0.0)
    )
    if link._win_busy[direction] == by[actor] and settled_others > 0.0:
        link.sole_after_settled += 1
    live_elapsed = max(link.WINDOW_NS / 4, t - link._win_start[direction] + ser)
    live_others = (link._win_busy[direction] - by[actor]) / live_elapsed
    rho_others = min(link.RHO_CAP, max(settled_others, live_others))
    if rho_others <= 0.0:
        return 0.0
    mm1 = ser * rho_others / (1.0 - rho_others)
    own = max(by[actor], ser)
    total = link._win_busy[direction]
    live_total = total / live_elapsed
    rho_total = min(1.0, max(link._rho[direction], live_total))
    fair = ser * max(0.0, total / own - 1.0) * rho_total * rho_total
    return min(mm1, fair)


def _make_twin(link):
    """Turn ``link`` into the oracle: per-message counting and the full
    window formula."""
    _count_per_message(link)
    link._enqueue = types.MethodType(_full_enqueue, link)
    link.sole_after_settled = 0


def _note_sole_after_settled(twins):
    """Report, in hypothesis's statistics, whether a run reached the
    state the sole-actor shortcut covers beyond "nothing settled"."""
    hits = sum(twin.sole_after_settled for twin in twins)
    event(f"sole actor after others settled: {'yes' if hits else 'no'}")


def _stats_view(stats):
    return (
        stats.snapshot(), stats.messages, stats.payload_bytes, stats.wire_bytes,
        stats.busy_ns, stats.by_class, stats.wire_by_class,
    )


def _assert_same_stats(link, twin):
    for mine, oracle in zip(link.stats, twin.stats):
        assert _stats_view(mine) == _stats_view(oracle)
    assert link.total_wire_bytes() == twin.total_wire_bytes()


# Mid-run reconfiguration: mostly none, sometimes a rescale (new
# serialization figures, plans dropped) or a statistics reset.
_CONTROL = st.sampled_from(
    [None] * 10 + ["reset", ("scale", 1.0, 0.5), ("scale", 2.0, 1.0), ("scale", 0.5, 1.5)]
)


def _reconfigure(control, twin, *links):
    """Apply one control step to the twin and every other link; the twin
    keeps counting per message after a reset."""
    if control is None:
        return
    if control == "reset":
        for link in (twin, *links):
            link.reset_stats()
        _count_per_message(twin)
        return
    _, latency_factor, bandwidth_factor = control
    for link in (twin, *links):
        link.scaled(latency_factor, bandwidth_factor)


def _injector(faulted, seed):
    return FaultInjector(FaultPlan(events=LINK_FAULTS), seed=seed) if faulted else None


def _draws(injector):
    if injector is None:
        return None
    return injector.injection_log, injector.counters.snapshot()


_PAIR_CLASSES = st.sampled_from([
    MessageClass.SNOOP, MessageClass.READ, MessageClass.RFO,
    MessageClass.ACK, MessageClass.PREFETCH,
])
_PAIR_STEP = st.tuples(
    _ADVANCE, _ACTOR, _PAIR_CLASSES, _PAIR_CLASSES, st.sampled_from([0, 1]),
    _FLAG, _FLAG, st.sampled_from([0.0, 37.5]), _CONTROL,
)


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(_PAIR_STEP, min_size=1, max_size=40), faulted=_FLAG)
def test_occupy_pair_matches_two_occupy_calls(steps, faulted):
    plat = icx()
    sim = Simulator()

    def make_link():
        link = Link(sim, "upi", latency_ns=plat.upi_latency_ns,
                    bandwidth_bytes_per_ns=plat.upi_wire_bytes_per_ns,
                    header_overhead=plat.upi_header_overhead)
        link.faults = _injector(faulted, seed=11)
        return link

    # The inlined plan path, the per-message path (Link._enqueue) and
    # the full-formula twin.
    inlined, per_message, twin = make_link(), make_link(), make_link()
    _make_twin(twin)
    # Rows are memoized the way the fabric memoizes its plans, and
    # dropped the same way: in a dict registered with the link, which
    # scaled() and reset_stats() empty.
    fabric = CoherenceFabric(sim, AddressSpace(), plat.cost, inlined)
    rows = {}
    inlined.register_plans(rows)

    def row(cls, direction, charge):
        key = (cls, direction, charge)
        if key not in rows:
            rows[key] = fabric._msg_row(cls, direction, charge)
        return rows[key]

    for advance, actor, req, resp, direction, charge0, charge1, base, control in steps:
        _reconfigure(control, twin, inlined, per_message)
        sim.now += advance
        plan = row(req, direction, charge0) + row(resp, 1 - direction, charge1)
        got = inlined.occupy_pairs(plan, actor, base)
        # Uncharged rows book demand but add nothing to the total.
        for link in (per_message, twin):
            total = base
            wait = link.occupy(req, direction, charge_queueing=charge0, actor=actor)
            if charge0:
                total += wait
            wait = link.occupy(resp, 1 - direction, charge_queueing=charge1, actor=actor)
            if charge1:
                total += wait
            assert got == total
            assert _window_state(inlined) == _window_state(link)
        _assert_same_stats(inlined, twin)
        _assert_same_stats(per_message, twin)
    assert _draws(inlined.faults) == _draws(twin.faults)
    assert _draws(per_message.faults) == _draws(twin.faults)
    _note_sole_after_settled([twin])


_RUN_STEP = st.tuples(
    _ADVANCE, _ACTOR, _PAIR_CLASSES, _PAIR_CLASSES, st.sampled_from([0, 1]),
    _FLAG, _FLAG, st.sampled_from([0.0, 37.5]), st.integers(1, 8), _CONTROL,
)


def _injector_state(link):
    """RNG state, counters in first-appearance order, injection log."""
    faults = link.faults
    if faults is None:
        return None
    return (faults._rng.getstate(), list(faults.counters.snapshot().items()),
            faults.injection_log)


class _RunLinks:
    """Three links on one clock, charged alike: ``batched`` takes one
    n-pair :meth:`Link.occupy_pairs` call, ``paired`` n single-pair
    calls and ``per_message`` 2n :meth:`Link.occupy` calls. Each plan
    link memoizes its rows as the fabric does, in a dict that
    :meth:`Link.scaled` and :meth:`Link.reset_stats` empty."""

    def __init__(self, faulted, plan=LINK_FAULTS):
        plat = icx()
        self.sim = Simulator()
        self.links = []
        for _ in range(3):
            link = Link(self.sim, "upi", latency_ns=plat.upi_latency_ns,
                        bandwidth_bytes_per_ns=plat.upi_wire_bytes_per_ns,
                        header_overhead=plat.upi_header_overhead)
            if faulted:
                link.faults = FaultInjector(FaultPlan(events=plan), seed=11)
            self.links.append(link)
        self.batched, self.paired, self.per_message = self.links
        self._rows = {}
        for link in (self.batched, self.paired):
            fabric = CoherenceFabric(self.sim, AddressSpace(), plat.cost, link)
            memo = {}
            link.register_plans(memo)
            self._rows[link] = (fabric, memo)

    def plan(self, link, req, resp, direction, charge0, charge1):
        fabric, memo = self._rows[link]
        key = (req, resp, direction, charge0, charge1)
        if key not in memo:
            memo[key] = (fabric._msg_row(req, direction, charge0)
                         + fabric._msg_row(resp, 1 - direction, charge1))
        return memo[key]

    def reconfigure(self, control):
        if control == "reset":
            for link in self.links:
                link.reset_stats()
        elif control is not None:
            for link in self.links:
                link.scaled(control[1], control[2])

    def charge(self, actor, req, resp, direction, charge0, charge1, base, n):
        """Charge ``n`` pairs three ways; return the batched results and
        whether, on the single-pair side, the run's first message rolled
        a window and a draw fired after its first pair."""
        out = []
        last = self.batched.occupy_pairs(
            self.plan(self.batched, req, resp, direction, charge0, charge1),
            actor, base, n, out,
        )
        assert last == out[-1] and len(out) == n
        plan = self.plan(self.paired, req, resp, direction, charge0, charge1)
        starts = list(self.paired._win_start)
        fired = self._fired(self.paired)
        singles = []
        for i in range(n):
            singles.append(self.paired.occupy_pairs(plan, actor, base))
            if i == 0:
                rolled = self.paired._win_start != starts
                fired = self._fired(self.paired)
        fired_mid_run = self._fired(self.paired) > fired
        per_message = []
        for _ in range(n):
            total = base
            wait = self.per_message.occupy(req, direction, charge_queueing=charge0,
                                           actor=actor)
            if charge0:
                total += wait
            wait = self.per_message.occupy(resp, 1 - direction, charge_queueing=charge1,
                                           actor=actor)
            if charge1:
                total += wait
            per_message.append(total)
        assert out == singles == per_message
        return out, rolled, fired_mid_run

    @staticmethod
    def _fired(link):
        return len(link.faults.injection_log) if link.faults is not None else 0

    def assert_same_state(self):
        window, stats, draws = (
            [f(link) for link in self.links]
            for f in (_window_state, lambda link: [st.snapshot() for st in link.stats],
                      _injector_state)
        )
        assert window[0] == window[1] == window[2]
        assert stats[0] == stats[1] == stats[2]
        assert draws[0] == draws[1] == draws[2]


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(_RUN_STEP, min_size=1, max_size=25), faulted=_FLAG)
def test_occupy_pairs_matches_single_pairs_and_occupy_calls(steps, faulted):
    """One n-pair charge equals n single-pair charges and 2n occupy
    calls: the same per-pair results, window state, statistics, RNG
    state, injector counters and injection log after every step."""
    links = _RunLinks(faulted)
    rolled_any = fired_any = False
    for advance, actor, req, resp, direction, charge0, charge1, base, n, control in steps:
        links.reconfigure(control)
        links.sim.now += advance
        _, rolled, fired = links.charge(actor, req, resp, direction, charge0, charge1,
                                        base, n)
        rolled_any |= rolled and n > 1
        fired_any |= fired
        links.assert_same_state()
    event(f"faulted: {faulted}")
    event(f"window rolled at a run's first message: {'yes' if rolled_any else 'no'}")
    event(f"draw fired mid-run: {'yes' if fired_any else 'no'}")


def test_occupy_pairs_rolls_and_fires_mid_run():
    """The cases the property must cover, pinned: a run whose first
    message rolls both windows, with an injector whose draws fire after
    the run's first pair, on a link another actor shares."""
    links = _RunLinks(faulted=True)
    rows = (MessageClass.SNOOP, MessageClass.READ, 0, True, True, 37.5)
    for _ in range(20):
        links.charge("b", *rows, n=4)
    links.sim.now += Link.WINDOW_NS + 100.0
    links.charge("b", *rows, n=3)
    links.sim.now += Link.WINDOW_NS + 100.0
    out, rolled, fired = links.charge("a", *rows, n=12)
    assert rolled and fired
    assert links.batched._win_start == [links.sim.now, links.sim.now]
    assert len(set(out)) > 1  # the waits grow along the run
    links.assert_same_state()


class _OnePairLinks:
    """One pair charged three ways on one clock: a single-pair
    :meth:`Link.occupy_pairs` call on ``inlined``, and two per-row
    :meth:`Link.occupy` calls on ``per_message`` and on the full-formula
    ``twin``, each link with its own identically seeded injector."""

    def __init__(self, events=None):
        plat = icx()
        self.sim = Simulator()
        self.links = []
        for _ in range(3):
            link = Link(self.sim, "upi", latency_ns=plat.upi_latency_ns,
                        bandwidth_bytes_per_ns=plat.upi_wire_bytes_per_ns,
                        header_overhead=plat.upi_header_overhead)
            if events is not None:
                link.faults = FaultInjector(FaultPlan(events=events), seed=11)
            self.links.append(link)
        self.inlined, self.per_message, self.twin = self.links
        _make_twin(self.twin)
        self._fabric = CoherenceFabric(self.sim, AddressSpace(), plat.cost, self.inlined)

    def send(self, actor, req=MessageClass.SNOOP, resp=MessageClass.READ,
             charge0=True, charge1=True, base=37.5):
        plan = (self._fabric._msg_row(req, 0, charge0)
                + self._fabric._msg_row(resp, 1, charge1))
        got = self.inlined.occupy_pairs(plan, actor, base)
        for link in (self.per_message, self.twin):
            total = base
            wait = link.occupy(req, 0, charge_queueing=charge0, actor=actor)
            if charge0:
                total += wait
            wait = link.occupy(resp, 1, charge_queueing=charge1, actor=actor)
            if charge1:
                total += wait
            assert got == total
            assert _window_state(self.inlined) == _window_state(link)
            assert _injector_state(self.inlined) == _injector_state(link)
        _assert_same_stats(self.inlined, self.twin)
        _assert_same_stats(self.per_message, self.twin)
        return got


def test_one_pair_rolls_both_windows():
    """A single pair whose instant rolls both windows settles the old
    shares, then waits behind the other actor's settled share."""
    links = _OnePairLinks()
    for actor in ("a", "b", "a", "b"):
        links.sim.now += 120.0
        links.send(actor)
    links.sim.now += Link.WINDOW_NS + 100.0
    assert links.send("b") == 37.5  # alone in both new windows
    assert links.inlined._win_start == [links.sim.now, links.sim.now]
    assert links.inlined._rho[0] > 0.0 and links.inlined._rho[1] > 0.0
    assert links.send("a") > 37.5


def test_one_pair_demand_only_on_shared_window():
    """The prefetcher's demand-only pair books both rows in a window
    another actor shares but adds no wait; a charged pair then queues
    behind that demand."""
    links = _OnePairLinks()
    links.send("a")
    demand = dict(req=MessageClass.SNOOP, resp=MessageClass.PREFETCH,
                  charge0=False, charge1=False)
    assert links.send("b", **demand) == 37.5
    assert links.send("b", **demand) == 37.5
    for direction in (0, 1):
        assert set(links.inlined._win_by[direction]) == {"a", "b"}
    assert links.send("a") > 37.5


def test_one_pair_works_out_a_wait_only_in_a_shared_window():
    """A charged row reads the settled shares only when another actor
    shares its live window: alone, its wait is 0.0 without them."""
    links = _OnePairLinks()
    links.send("b")
    links.sim.now += Link.WINDOW_NS + 100.0
    reads = []

    class _Recording(list):
        def __getitem__(self, index):
            reads.append(index)
            return list.__getitem__(self, index)

    links.inlined._rho = _Recording(links.inlined._rho)
    assert links.send("a") == 37.5  # rolls both windows, then alone
    assert links.send("a") == 37.5
    assert reads == []
    links.send("b")
    assert reads == [0, 1]


@pytest.mark.parametrize("kind", ["link_drop", "link_duplicate"])
def test_one_pair_fault_fires_on_each_row(kind):
    """A degraded pair whose draws fire on both rows: each row books
    its wasted copy ahead of its own accounting, and a drop adds its
    retransmit delay beside the wait."""
    events = (FaultEvent(kind=kind, probability=1.0, extra_ns=400.0),
              FaultEvent(kind="link_degrade", factor=0.5))
    links = _OnePairLinks(events)
    links.send("b")
    got = links.send("a")
    assert [k for _t, k in links.inlined.faults.injection_log] == [kind] * 4
    counters = links.inlined.faults.counters.snapshot()
    assert counters["degraded_messages"] == 4
    # Each row sent its wasted copy and itself.
    assert links.inlined.stats[0].messages == links.inlined.stats[1].messages == 4
    assert got >= 37.5 + (800.0 if kind == "link_drop" else 0.0)


_NET_SPEC = mesh(2, 2)
# Hosts and the ToR only: their routes share fabric edges, so actors
# contend.
_ENDPOINTS = [node.name for node in _NET_SPEC.nodes if node.kind != "switch"]
_NET_STEP = st.tuples(
    _ADVANCE, _ACTOR, st.sampled_from(_ENDPOINTS), st.sampled_from(_ENDPOINTS),
    st.sampled_from([MessageClass.DMA_WRITE, MessageClass.DMA_READ,
                     MessageClass.READ, MessageClass.SNOOP]),
    st.sampled_from([None, 64, 256, 1500]),
    _CONTROL, st.sampled_from(range(len(_NET_SPEC.edges))),
)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_NET_STEP, min_size=1, max_size=50), faulted=_FLAG)
def test_router_charge_matches_one_way_sum(steps, faulted):
    sim = Simulator()
    planned, twin = TopologyNet(sim, _NET_SPEC), TopologyNet(sim, _NET_SPEC)
    for link in twin.links.values():
        _make_twin(link)
    # One faulted edge: routes across it mix hops that run the fault
    # hooks inline with clean ones.
    faulted_edge = _NET_SPEC.edges[4].name
    for net in (planned, twin):
        net.links[faulted_edge].faults = _injector(faulted, seed=7)
    for advance, actor, src, dst, cls, payload, control, edge_index in steps:
        # A control step reconfigures one edge (its plans are dropped).
        edge = _NET_SPEC.edges[edge_index].name
        _reconfigure(control, twin.links[edge], planned.links[edge])
        sim.now += advance
        got = planned.router.charge(src, dst, cls, payload_bytes=payload, actor=actor)
        want = 0.0
        for link, direction in twin.router.path_hops(src, dst):
            want += link.one_way(cls, direction, payload_bytes=payload, actor=actor)
        assert got == want
        for name in planned.links:
            _assert_same_stats(planned.links[name], twin.links[name])
    for edge in _NET_SPEC.edges:
        link, oracle = planned.links[edge.name], twin.links[edge.name]
        assert _window_state(link) == _window_state(oracle)
    assert _draws(planned.links[faulted_edge].faults) == _draws(
        twin.links[faulted_edge].faults
    )
    _note_sole_after_settled(twin.links.values())


def test_router_plan_misses_mid_sequence():
    """Payload sizes that miss the plan cache between hits build their
    plans from the route walked once, and every charge still equals the
    sum of :meth:`Link.one_way` over the hops."""
    sim = Simulator()
    planned, twin = TopologyNet(sim, _NET_SPEC), TopologyNet(sim, _NET_SPEC)
    for link in twin.links.values():
        _make_twin(link)
    router = planned.router
    walks = []
    route = router._route
    router._route = lambda src, dst: walks.append((src, dst)) or route(src, dst)
    src, dst = _ENDPOINTS[0], _ENDPOINTS[-1]
    steps = [(0.0, "a", 64), (120.0, "b", 64), (120.0, "a", 256), (0.0, "b", 64),
             (400.0, "a", 1500), (2600.0, "b", 256), (15.0, "a", None)]
    for advance, actor, payload in steps:
        sim.now += advance
        got = router.charge(src, dst, MessageClass.DMA_WRITE, payload, actor=actor)
        want = 0.0
        for link, direction in twin.router.path_hops(src, dst):
            want += link.one_way(MessageClass.DMA_WRITE, direction, payload, actor=actor)
        assert got == want
    assert len(router._plans) == 4
    assert walks == [(src, dst)]
    assert len(router.path_hops(src, dst)) > 1
    for name in planned.links:
        assert _window_state(planned.links[name]) == _window_state(twin.links[name])
        _assert_same_stats(planned.links[name], twin.links[name])


# Two actors share one window; then "a" sends alone right after the
# roll, so its live window holds only its own demand while the settled
# window credits "b" with a share.
_SHARED_WINDOW = [(0.0, "a"), (0.0, "b"), (300.0, "a"), (300.0, "b"), (300.0, "b")]
_PAST_ROLL = Link.WINDOW_NS + 100.0


def _assert_sole_after_settled(link, direction, actor):
    assert set(link._win_by[direction]) == {actor}
    assert link._rho[direction] - link._rho_by[direction][actor] > 0.0


def test_occupy_pair_sole_actor_after_settled_share():
    plat = icx()
    sim = Simulator()

    def make_link():
        return Link(sim, "upi", latency_ns=plat.upi_latency_ns,
                    bandwidth_bytes_per_ns=plat.upi_wire_bytes_per_ns,
                    header_overhead=plat.upi_header_overhead)

    inlined, per_message, twin = make_link(), make_link(), make_link()
    _make_twin(twin)
    fabric = CoherenceFabric(sim, AddressSpace(), plat.cost, inlined)
    plan = (fabric._msg_row(MessageClass.SNOOP, 0)
            + fabric._msg_row(MessageClass.READ, 1))

    def send(actor):
        got = inlined.occupy_pairs(plan, actor, 37.5)
        for link in (per_message, twin):
            total = 37.5
            total += link.occupy(MessageClass.SNOOP, 0, actor=actor)
            total += link.occupy(MessageClass.READ, 1, actor=actor)
            assert got == total
            assert _window_state(inlined) == _window_state(link)
        return got

    for advance, actor in _SHARED_WINDOW:
        sim.now += advance
        send(actor)
    sim.now += _PAST_ROLL
    # Both rows roll their window and find "a" alone: no wait.
    assert send("a") == 37.5
    for direction in (0, 1):
        _assert_sole_after_settled(inlined, direction, "a")
    assert twin.sole_after_settled == 2
    _assert_same_stats(inlined, twin)


def test_router_hop_sole_actor_after_settled_share():
    sim = Simulator()
    planned, twin = TopologyNet(sim, _NET_SPEC), TopologyNet(sim, _NET_SPEC)
    for link in twin.links.values():
        _make_twin(link)
    src, dst = "h0_0", "s0_0"  # one hop

    def send(actor):
        got = planned.router.charge(src, dst, MessageClass.DMA_WRITE, 256, actor=actor)
        ((link, direction),) = twin.router.path_hops(src, dst)
        want = link.one_way(MessageClass.DMA_WRITE, direction, 256, actor=actor)
        assert got == want
        return got

    for advance, actor in _SHARED_WINDOW:
        sim.now += advance
        send(actor)
    sim.now += _PAST_ROLL
    ((link, direction),) = planned.router.path_hops(src, dst)
    ((twin_link, _),) = twin.router.path_hops(src, dst)
    wire = MessageClass.DMA_WRITE.payload_bytes(256) + link.header_overhead
    # No wait: serialization plus propagation only.
    assert send("a") == wire / link.bandwidth + link.latency_ns
    _assert_sole_after_settled(link, direction, "a")
    assert twin_link.sole_after_settled == 1
    assert _window_state(link) == _window_state(twin_link)
    _assert_same_stats(link, twin_link)
