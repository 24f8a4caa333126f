"""Fill runs: a NIC burst's same-plan misses charged in one link frame.

:meth:`CoherenceFabric.access_burst` fills consecutive missing lines of
an agent without a prefetcher that share a plan as one run
(:meth:`CoherenceFabric._fill_run`), and :meth:`Link.occupy_pairs`
charges the run's request/response pairs in one call. The oracle is the
line-by-line fill: with ``_fill_run`` patched to return None every miss
goes through ``_miss``, and every output — shard documents, every cache
agent's hit, miss and eviction counts, fabric and link state, fault
draws and observer records — must match.
"""

import pytest

import repro.topology  # noqa: F401  (registers the rack scenarios)
from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.check.sanitizer import Sanitizer
from repro.coherence import CoherenceFabric
from repro.coherence.cache import CacheAgent
from repro.errors import AddressSpaceError, CoherenceError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.interconnect import Link, MessageClass
from repro.mem import AddressSpace, MemType
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.platform import spr
from repro.shard.merge import fingerprint
from repro.shard.runner import execute_spec
from repro.shard.spec import scenario
from repro.sim import Simulator
from tests.test_fabric import COST
from tests.test_faults import _run_snapshot
from tests.test_idle_elision import _doc_bytes


def _line_by_line(*_args):
    return None


def _record_runs(monkeypatch):
    """Record the pair count of every :meth:`Link.occupy_pairs` call."""
    counts = []
    charge = Link.occupy_pairs

    def recorded(link, plan, actor, base=0.0, n=1, out=None):
        counts.append(n)
        return charge(link, plan, actor, base, n, out)

    monkeypatch.setattr(Link, "occupy_pairs", recorded)
    return counts


def _both(monkeypatch, run):
    """``run()`` normally, then line by line.

    Each output comes paired with the ``(name, hits, misses,
    evictions)`` of every cache agent the run made, in the order made.
    Returns the two outputs and the longest run the normal side charged.
    """
    outputs = []
    init = CacheAgent.__init__
    longest = 0
    for runs in (True, False):
        agents = []

        def tracked_init(agent, *args, **kwargs):
            init(agent, *args, **kwargs)
            agents.append(agent)

        with monkeypatch.context() as patch:
            patch.setattr(CacheAgent, "__init__", tracked_init)
            counts = _record_runs(patch)
            if not runs:
                patch.setattr(CoherenceFabric, "_fill_run", _line_by_line)
            out = run()
        if runs:
            longest = max(counts)
        else:
            assert max(counts) == 1
        outputs.append((out, [(a.name, a.hits, a.misses, a.evictions) for a in agents]))
    return outputs[0], outputs[1], longest


class TestOracle:
    @pytest.mark.parametrize("name, interval", [
        ("loopback_64b", None),
        ("faults_canned", 500.0),
        ("kv_rack_zipf", None),
    ])
    def test_shard_document_matches_line_by_line(self, monkeypatch, name, interval):
        spec = scenario(name).shard_specs()[0]
        normal, oracle, longest = _both(monkeypatch, lambda: _doc_bytes(execute_spec(
            spec, quick=True, with_metrics=True, timeline_interval=interval,
        )))
        assert longest > 1
        assert normal == oracle


class TestOneLineRuns:
    def test_declined_line_is_not_classified_again(self, monkeypatch):
        """A run that holds only the walk's line fills it itself.

        ``_fill_run`` once returned None for such a line, and ``_miss``
        classified it a second time: 606 times in ``kv_rack_zipf``
        shard 0 at seed 7, where the next line classifies to another
        plan or hits. Those lines are now one-line runs.
        """
        last = [None]
        again = []
        one_line = []
        fill_run = CoherenceFabric._fill_run
        miss = CoherenceFabric._miss

        def recorded_run(fabric, agent, write, spans, k, line, *rest):
            before = agent.misses
            out = fill_run(fabric, agent, write, spans, k, line, *rest)
            last[0] = (agent, line) if out is None else None
            if out is not None and agent.misses - before == 1:
                one_line.append(line)
            return out

        def recorded_miss(fabric, agent, line, write, region):
            if last[0] == (agent, line):
                again.append(line)
            last[0] = None
            return miss(fabric, agent, line, write, region)

        monkeypatch.setattr(CoherenceFabric, "_fill_run", recorded_run)
        monkeypatch.setattr(CoherenceFabric, "_miss", recorded_miss)
        spec = scenario("kv_rack_zipf").replace(seed=7, fault_seed=7).shard_specs()[0]
        execute_spec(spec)
        assert again == []
        assert len(one_line) == 606


class TestFig21bPins:
    """Fig 21b's 1.5 KB points: 24-line payloads, so the longest runs.

    The pins were recorded with every line filled on its own, before
    fill runs existed.
    """

    @pytest.mark.parametrize(
        "kind, pinned",
        [(InterfaceKind.CCNIC, "182dee2a1bf7d58b"),
         (InterfaceKind.UNOPT, "d5f8422628179840")],
        ids=["ccnic", "unopt"],
    )
    def test_large_payload_point_pinned(self, monkeypatch, kind, pinned):
        counts = _record_runs(monkeypatch)
        setup = build_interface(spr(), kind)
        result = run_point(setup, 1500, 600, inflight=256, tx_batch=32, rx_batch=32)
        assert result.received == 600
        # Whole 24-line payloads fill as one run, and runs join them.
        assert max(counts) >= 24
        assert fingerprint(_run_snapshot(setup, result)) == pinned


# ----------------------------------------------------------------------
# Fabric cases: one burst against its line-by-line fill
# ----------------------------------------------------------------------
HOST, PEER, NIC = 0, 1, 2
#: Region 0 is homed on the host's socket; region 1 on the NIC's, and
#: named as a descriptor ring, so reader-side speculative reads of it
#: are sanitizer findings.
POOL, RING = 0, 1


class _World:
    """A bare fabric: a host agent on socket 0, a peer and the NIC on
    socket 1 (none prefetches), and two 64-line regions."""

    def __init__(self, capacity=32768, plan=None, flight=False, sanitizer=False):
        self.sim = Simulator()
        space = AddressSpace()
        self.link = Link(self.sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
        self.fabric = CoherenceFabric(self.sim, space, COST, self.link)
        self.agents = [
            self.fabric.new_agent("host", socket=0),
            self.fabric.new_agent("peer", socket=1),
            self.fabric.new_agent("nic", socket=1, capacity_lines=capacity),
        ]
        self.regions = [
            space.allocate("pool", 64 * 64, home=0),
            space.allocate("txq0_ring", 64 * 64, home=1),
        ]
        self.faults = None
        if plan is not None:
            self.faults = FaultInjector(plan, seed=3)
            self.link.faults = self.faults
            self.fabric.faults = self.faults
        self.flight = FlightRecorder() if flight else None
        self.sanitizer = Sanitizer() if sanitizer else None
        if flight or sanitizer:
            self.fabric.instrument(
                Observability(flight=self.flight, sanitizer=self.sanitizer)
            )

    def spans(self, spans):
        return [(self.regions[r].base + 64 * first, 64 * n) for r, first, n in spans]

    def apply(self, op):
        """``(agent, write, spans)`` as one burst; ``("advance", ns)``;
        ``("other", messages)``: another actor's demand on both
        directions."""
        if op[0] == "advance":
            self.sim.now += op[1]
            return None
        if op[0] == "other":
            for _ in range(op[1]):
                self.link.occupy(MessageClass.READ, 0, actor="other")
                self.link.occupy(MessageClass.READ, 1, actor="other")
            return None
        agent, write, spans = op
        return self.fabric.access_burst(self.agents[agent], self.spans(spans), write)

    def state(self):
        fabric, link = self.fabric, self.link
        state = {
            "holders": [(line, [a.name for a in holders])
                        for line, holders in fabric._holders.items()],
            "tags": [(a.name, list(a._lines.items()), a.hits, a.misses, a.evictions)
                     for a in self.agents],
            "counters": list(fabric.counters.snapshot().items()),
            "links": [st.snapshot() for st in link.stats],
            "window": (link._win_busy, link._win_by, link._win_start,
                       link._rho, link._rho_by),
        }
        if self.faults is not None:
            state["faults"] = (self.faults._rng.getstate(),
                               list(self.faults.counters.snapshot().items()),
                               self.faults.injection_log)
        if self.flight is not None:
            state["flight"] = (
                list(self.flight.events), list(self.flight._event_agents),
                [(line, [getattr(stats, slot) for slot in type(stats).__slots__])
                 for line, stats in self.flight.lines.items()],
            )
        if self.sanitizer is not None:
            state["sanitizer"] = (self.sanitizer.events, dict(self.sanitizer.counts),
                                  [repr(v) for v in self.sanitizer.violations])
        return state


def _case(monkeypatch, setup, burst, **world):
    """Apply ``setup`` then the NIC's ``burst`` ``(write, spans)`` with
    fill runs and line by line; both must return and leave the same.
    Returns the pair counts of the burst's link calls and the line
    counts of its runs (local fills charge no link)."""
    results = []
    for runs in (True, False):
        w = _World(**world)
        if not runs:
            monkeypatch.setattr(w.fabric, "_fill_run", _line_by_line)
        for op in setup:
            w.apply(op)
        counts = []
        charge = w.link.occupy_pairs

        def recorded(plan, actor, base=0.0, n=1, out=None, counts=counts, charge=charge):
            counts.append(n)
            return charge(plan, actor, base, n, out)

        monkeypatch.setattr(w.link, "occupy_pairs", recorded)
        lengths = []
        if runs:
            fill_run = w.fabric._fill_run

            def recorded_run(agent, *args):
                before = agent.misses
                out = fill_run(agent, *args)
                if out is not None:
                    lengths.append(agent.misses - before)
                return out

            monkeypatch.setattr(w.fabric, "_fill_run", recorded_run)
        write, spans = burst
        got = w.apply((NIC, write, spans))
        results.append((got, w.state(), counts, lengths))
        w.fabric.check_invariants()
    (got, state, counts, lengths), (want, oracle, _, _) = results
    assert got == want
    assert state == oracle
    return counts, lengths


#: Setup bursts by the host and the peer.
def _host(write, *spans):
    return (HOST, write, list(spans))


def _peer(write, *spans):
    return (PEER, write, list(spans))


class TestRuleEffects:
    def test_remote_dram_install(self, monkeypatch):
        counts, lengths = _case(monkeypatch, [], (False, [(POOL, 0, 4), (POOL, 8, 4)]))
        assert lengths == [8] and counts == [8]

    def test_local_dram_install(self, monkeypatch):
        counts, lengths = _case(monkeypatch, [], (True, [(RING, 0, 4)]))
        assert lengths == [4] and counts == []

    def test_drop_dirty(self, monkeypatch):
        counts, lengths = _case(
            monkeypatch, [_host(True, (POOL, 0, 6))], (False, [(POOL, 0, 2), (POOL, 2, 4)]),
        )
        assert lengths == [6] and counts == [6]

    def test_local_drop_dirty(self, monkeypatch):
        counts, lengths = _case(monkeypatch, [_peer(True, (RING, 0, 4))], (False, [(RING, 0, 4)]))
        assert lengths == [4] and counts == []

    def test_drop(self, monkeypatch):
        counts, lengths = _case(monkeypatch, [_host(False, (POOL, 0, 4))], (True, [(POOL, 0, 4)]))
        assert lengths == [4] and counts == [4]

    def test_local_drop(self, monkeypatch):
        # Host and peer share the lines; the NIC's write takes them all
        # from the peer, on its own socket.
        setup = [_host(False, (POOL, 0, 4)), _peer(False, (POOL, 0, 4))]
        counts, lengths = _case(monkeypatch, setup, (True, [(POOL, 0, 4)]))
        assert lengths == [4] and counts == []

    def test_downgrade(self, monkeypatch):
        counts, lengths = _case(monkeypatch, [_host(False, (POOL, 0, 4))], (False, [(POOL, 0, 4)]))
        assert lengths == [4] and counts == [4]

    def test_contended_link(self, monkeypatch):
        # Another actor's demand in the live window: every wait is paid.
        setup = [_host(True, (POOL, 0, 8)), ("other", 300)]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 8)]))
        assert lengths == [8] and counts == [8]

    def test_window_rolls_at_the_first_message(self, monkeypatch):
        setup = [_host(True, (POOL, 0, 8)), ("other", 300), ("advance", 2500.0)]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 8)]))
        assert lengths == [8] and counts == [8]


class TestRunEnds:
    def test_at_a_hit_and_an_upgrade(self, monkeypatch):
        # The NIC holds pool line 2 and shares line 5 with the host: a
        # write burst over lines 0-7 runs 0-1, hits 2, runs 3-4,
        # upgrades 5 and runs 6-7.
        setup = [(NIC, False, [(POOL, 2, 1)]), (NIC, True, [(POOL, 2, 1)]),
                 _host(False, (POOL, 5, 1)), (NIC, False, [(POOL, 5, 1)])]
        counts, lengths = _case(monkeypatch, setup, (True, [(POOL, 0, 8)]))
        assert lengths == [2, 2, 2]

    def test_at_a_duplicate_line(self, monkeypatch):
        spans = [(POOL, 0, 3), (POOL, 1, 1), (POOL, 3, 2)]
        counts, lengths = _case(monkeypatch, [], (False, spans))
        assert lengths == [3, 2] and counts == [3, 2]

    def test_before_an_eviction(self, monkeypatch):
        # Capacity 8 with three dirty remote-homed lines held: five lines
        # fit, and each later fill evicts one, booking a writeback.
        setup = [(NIC, True, [(POOL, 40, 3)])]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 8)]), capacity=8)
        assert lengths == [5] and counts == [5, 1, 1, 1]

    def test_at_a_plan_change(self, monkeypatch):
        setup = [_host(True, (POOL, 0, 2)), _host(False, (POOL, 2, 2))]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 6)]))
        assert lengths == [2, 2, 2] and counts == [2, 2, 2]

    @pytest.mark.parametrize("rejected, error", [
        ("empty", "size must be positive"),
        ("uncacheable", "non-WB region"),
        ("write-combining", "non-WB region"),
        ("unmapped", "not mapped"),
    ])
    def test_at_a_rejected_span(self, monkeypatch, rejected, error):
        # A later span that the walk rejects ends the run before it, so
        # the walk raises there, as it does line by line.
        memtypes = {"uncacheable": MemType.UNCACHEABLE,
                    "write-combining": MemType.WRITE_COMBINING}
        for runs in (True, False):
            w = _World()
            if not runs:
                monkeypatch.setattr(w.fabric, "_fill_run", _line_by_line)
            space = w.fabric.space
            if rejected == "empty":
                bad = (w.regions[POOL].base + 64 * 4, 0)
            elif rejected == "unmapped":
                bad = (max(region.end for region in space.regions) + 4096, 64)
            else:
                mmio = space.allocate("mmio", 64, home=0, memtype=memtypes[rejected])
                bad = (mmio.base, 64)
            spans = w.spans([(POOL, 0, 2)]) + [bad]
            kind = AddressSpaceError if rejected == "unmapped" else CoherenceError
            with pytest.raises(kind, match=error):
                w.fabric.access_burst(w.agents[NIC], spans, False)
            assert w.agents[NIC].misses == 2

    def test_no_run_while_a_snoop_window_is_open(self, monkeypatch):
        plan = FaultPlan(events=(
            FaultEvent(kind="snoop_delay", probability=0.5, extra_ns=120.0),
            FaultEvent(kind="link_drop", probability=0.3, extra_ns=400.0),
        ))
        setup = [_host(True, (POOL, 0, 6))]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 6)]), plan=plan)
        # Each line but the last (no next line: _miss) is a one-line run
        # that draws its snoop faults after its link charge.
        assert lengths == [1] * 5 and counts == [1] * 6

    def test_after_a_stale_snoop_segment(self, monkeypatch):
        # No window open, but the segment is stale: the first fill, a
        # one-line run, refreshes it, then the rest run.
        plan = FaultPlan(events=(
            FaultEvent(kind="snoop_delay", start_ns=1e9, extra_ns=120.0),
        ))
        setup = [_host(True, (POOL, 0, 6))]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 6)]), plan=plan)
        assert lengths == [1, 5] and counts == [1, 5]


class TestFaultedRuns:
    def test_link_draws_fire_mid_run(self, monkeypatch):
        plan = FaultPlan(events=(
            FaultEvent(kind="link_degrade", factor=0.5),
            FaultEvent(kind="link_drop", probability=0.2, extra_ns=400.0),
            FaultEvent(kind="link_duplicate", probability=0.2),
            FaultEvent(kind="link_delay", probability=0.2, extra_ns=150.0),
        ))
        setup = [_host(True, (POOL, 0, 16)), ("other", 50)]
        counts, lengths = _case(monkeypatch, setup, (False, [(POOL, 0, 16)]), plan=plan)
        # The first fill, a one-line run, fetches the fabric's first
        # snoop segment.
        assert lengths == [1, 15] and counts == [1, 15]
        w = _World(plan=plan)
        for op in setup:
            w.apply(op)
        fired = len(w.faults.injection_log)
        degraded = w.faults.counters.get("degraded_messages")
        w.apply((NIC, False, [(POOL, 0, 16)]))
        kinds = {kind for _, kind in w.faults.injection_log[fired:]}
        assert kinds == {"link_drop", "link_duplicate", "link_delay"}
        # Each of the run's 32 messages is degraded once.
        assert w.faults.counters.get("degraded_messages") - degraded == 32


class TestObservedRuns:
    def test_flight_recorded_run(self, monkeypatch):
        setup = [_host(True, (POOL, 0, 4)), _host(False, (POOL, 4, 4))]
        spans = [(POOL, 0, 4), (POOL, 4, 4), (POOL, 8, 4)]
        counts, lengths = _case(monkeypatch, setup, (False, spans), flight=True)
        assert lengths == [4, 4, 4]

    def test_sanitized_run(self, monkeypatch):
        # Reader-homed remote-cache reads of descriptor lines: one
        # speculative read and one finding per line, stamped per line.
        setup = [_host(False, (RING, 0, 4))]
        counts, lengths = _case(
            monkeypatch, setup, (False, [(RING, 0, 4)]), flight=True, sanitizer=True,
        )
        assert lengths == [4] and counts == [4]
        w = _World(flight=True, sanitizer=True)
        for op in setup + [(NIC, False, [(RING, 0, 4)])]:
            w.apply(op)
        assert w.sanitizer.counts["writer-homing"] == 4
        stamps = [event[0] for event in w.flight.events][-4:]
        assert stamps == sorted(stamps) and len(set(stamps)) == 4
