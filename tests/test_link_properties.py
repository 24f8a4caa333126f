"""Inlined link arithmetic against the per-message oracles.

:meth:`Link._enqueue`'s utilization-window arithmetic is written out
three more times for speed: once per row of :meth:`Link.occupy_pair`
and once per hop in :meth:`Router.charge`. :meth:`Link.occupy` and
:meth:`Link.one_way` stay the oracles. Hypothesis drives random message
sequences — clock advances across window boundaries, several actors,
mixed message classes, both directions, charged and uncharged rows,
and :meth:`Link.scaled` / :meth:`Link.reset_stats` calls mid-run —
through an inlined copy and through a twin built the same way, with and
without an identically seeded fault injector, and compares the returned
delays, the window state and the injectors' draws.

:class:`LinkStats` counts each message once per shape and sums its
totals when read. The twins count per message instead: every field of
:class:`_PerMessageStats` is bumped on every message. Every
:meth:`LinkStats.snapshot` and property of the inlined side must equal
that per-message count after every step.
"""

from hypothesis import given, settings
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


def _reconfigure(control, link, twin):
    """Apply one control step to both sides; the twin keeps counting
    per message after a reset."""
    if control is None:
        return
    if control == "reset":
        link.reset_stats()
        twin.reset_stats()
        _count_per_message(twin)
        return
    _, latency_factor, bandwidth_factor = control
    link.scaled(latency_factor, bandwidth_factor)
    twin.scaled(latency_factor, bandwidth_factor)


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

    inlined, twin = make_link(), make_link()
    _count_per_message(twin)
    # Rows are memoized the way the fabric memoizes its plans, and
    # dropped the same way: through on_scaled, which scaled() and
    # reset_stats() fire.
    fabric = CoherenceFabric(sim, AddressSpace(), plat.cost, inlined)
    rows = {}
    inlined.on_scaled = rows.clear

    def row(cls, direction, charge):
        key = (cls, direction, charge)
        if key not in rows:
            rows[key] = fabric._msg_row(cls, direction, charge)
        return rows[key]

    for advance, actor, req, resp, direction, charge0, charge1, base, control in steps:
        _reconfigure(control, inlined, twin)
        sim.now += advance
        plan = row(req, direction, charge0) + row(resp, 1 - direction, charge1)
        got = inlined.occupy_pair(plan, actor, base)
        # Uncharged rows book demand but add nothing to the total.
        want = base
        wait = twin.occupy(req, direction, charge_queueing=charge0, actor=actor)
        if charge0:
            want += wait
        wait = twin.occupy(resp, 1 - direction, charge_queueing=charge1, actor=actor)
        if charge1:
            want += wait
        assert got == want
        assert _window_state(inlined) == _window_state(twin)
        _assert_same_stats(inlined, twin)
    assert _draws(inlined.faults) == _draws(twin.faults)


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
        _count_per_message(link)
    # One faulted edge: routes across it mix hops that run the fault
    # hooks inline with clean ones.
    faulted_edge = _NET_SPEC.edges[4].name
    for net in (planned, twin):
        net.links[faulted_edge].faults = _injector(faulted, seed=7)
    for advance, actor, src, dst, cls, payload, control, edge_index in steps:
        # A control step reconfigures one edge (its plans are dropped).
        edge = _NET_SPEC.edges[edge_index].name
        _reconfigure(control, planned.links[edge], twin.links[edge])
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
