"""One attach path for observers: flight + sanitizer + timeline.

Observers ride one :class:`~repro.obs.Observability` bundle and the
``instrument`` cascade; none of them moves the coherence fabric off its
plan path. Every subset of the three must leave a run
fingerprint-identical to a bare run with memoized plans in use, and the
flight and sanitizer reports must keep the fingerprints pinned when a
reference twin of the fabric still produced the same bytes.
"""

import itertools

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.check.explore import _scoped_spec
from repro.check.sanitizer import Sanitizer
from repro.core import CcnicConfig
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.obs.timeline import TimelineSampler
from repro.platform import System, icx
from repro.shard.merge import fingerprint, merge_results
from repro.shard.runner import execute_spec, lookahead_ns
from repro.shard.spec import scenario

OPS = 24
HOOKS = ("flight", "sanitizer", "timeline")


def _observer(hook):
    if hook == "flight":
        return FlightRecorder()
    if hook == "sanitizer":
        return Sanitizer()
    return TimelineSampler(interval_ns=1000.0)


def _run(bundles):
    """Fingerprint of a scoped loopback_64b run, plus its setup.

    ``bundles`` is a sequence of hook-name tuples; each is instrumented
    in turn after the build, so the last bundle is the one that stays.
    """
    spec = _scoped_spec(scenario("loopback_64b"), OPS)
    built = []

    def attach(setup):
        built.append(setup)
        for hooks in bundles:
            setup.instrument(Observability(**{h: _observer(h) for h in hooks}))

    result = execute_spec(spec, attach=attach)
    merged = merge_results([dict(result, index=0)], spec.name, lookahead_ns(spec))
    return fingerprint(merged), built[0]


def _assert_hooks(setup, observers):
    """The cascade reached every layer carrying a hook."""
    fabric = setup.system.fabric
    pair = setup.interface.pair(0)
    assert fabric.flight is observers["flight"]
    assert all(a.flight is observers["flight"] for a in fabric.agents)
    assert setup.driver.flight is observers["flight"]
    assert pair.agent.flight is observers["flight"]
    assert fabric.sanitizer is observers["sanitizer"]
    assert setup.interface.pool.sanitizer is observers["sanitizer"]
    assert pair.tx.sanitizer is observers["sanitizer"]
    assert pair.agent.sanitizer is observers["sanitizer"]
    assert setup.system.sim.timeline is observers["timeline"]


@pytest.fixture(scope="module")
def bare_fingerprint():
    return _run(())[0]


class TestObserverBundle:
    @pytest.mark.parametrize(
        "hooks",
        [s for n in range(len(HOOKS) + 1) for s in itertools.combinations(HOOKS, n)],
        ids=lambda hooks: "-".join(hooks) or "none",
    )
    def test_every_subset_keeps_plan_path(self, hooks, bare_fingerprint):
        fp, setup = _run((hooks,))
        assert fp == bare_fingerprint
        fabric = setup.system.fabric
        assert fabric._plans
        attached = {hook: getattr(fabric.obs, hook) for hook in HOOKS}
        assert all((attached[h] is not None) == (h in hooks) for h in HOOKS)
        _assert_hooks(setup, attached)
        # A bundle without observers detaches them from every layer.
        setup.instrument(Observability())
        _assert_hooks(setup, dict.fromkeys(HOOKS))


class TestDetachedHooks:
    def test_hooks_live_on_each_instance(self):
        """A detached run's hooks are None on each instance itself, where
        Python 3.11 specializes the hot paths' loads; the class-level
        defaults only document them."""
        setup = _run(())[1]
        pair = setup.interface.pair(0)
        owners = [
            (setup.system.fabric, ("flight", "sanitizer", "faults")),
            (setup.system.link, ("faults",)),
            (setup.interface.pool, ("sanitizer",)),
            (setup.driver, ("flight", "sanitizer")),
            (pair.tx, ("sanitizer",)),
            (pair.agent, ("flight", "sanitizer")),
            (setup.system.sim, ("timeline",)),
        ]
        for owner, hooks in owners:
            for hook in hooks:
                assert vars(owner)[hook] is None, (type(owner).__name__, hook)


class TestAttachOrderFingerprints:
    """Growing the bundle one observer at a time, in any order, is inert."""

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(HOOKS)),
        ids=lambda order: "-".join(order),
    )
    def test_triple_attach_order_is_fingerprint_invariant(
        self, order, bare_fingerprint
    ):
        bundles = [order[:n] for n in range(1, len(order) + 1)]
        assert _run(bundles)[0] == bare_fingerprint

    @pytest.mark.parametrize("dropped", HOOKS)
    def test_partial_attach_also_invariant(self, dropped, bare_fingerprint):
        order = tuple(h for h in HOOKS if h != dropped)
        assert _run([order[:1], order])[0] == bare_fingerprint


def _observed_reports(kind, config):
    """Flight and sanitizer reports of a 400-packet observed loopback."""
    obs = Observability(flight=FlightRecorder(), sanitizer=Sanitizer())
    setup = build_interface(icx(), kind, config=config, obs=obs)
    result = run_point(setup, 64, 400, inflight=32, obs=obs)
    assert result.received == 400
    flight = {
        "report": obs.flight.report(),
        # The raw event ring carries the per-line timestamps the report
        # aggregates away (they feed the Perfetto counter tracks).
        "events": list(obs.flight.events),
        # Per-line losses, HitM migrations by prefetch included.
        "drops": sorted(
            (line, stats.drops, stats.dirty_drops)
            for line, stats in obs.flight.lines.items()
        ),
    }
    # The waterfall's egressed count postdates the pins: a loopback's
    # packets all come back to the host, so it is checked here and left
    # out of the pinned bytes.
    assert flight["report"]["waterfall"].pop("egressed") == 0
    reports = {"flight": flight, "sanitize": obs.sanitizer.report()}
    return reports, obs, setup.system.fabric


class TestObservedReportPins:
    """The plan path writes the reports the reference twin wrote.

    Each pin is the fingerprint both paths produced, byte for byte,
    when the fabric still had a hand-written reference path. They move
    only if an observer site, a transition kind or a timestamp moves.
    """

    @pytest.mark.parametrize(
        "kind, config, pinned",
        [
            (InterfaceKind.CCNIC, None, "272a62b855e08dce"),
            (
                InterfaceKind.CCNIC,
                CcnicConfig(
                    ring_slots=1024, recycle_stack_max=1024,
                    writer_homed_rings=False,
                ),
                "959059f6163f7c21",
            ),
            (InterfaceKind.UNOPT, None, "0ba502bfdbc4dcb7"),
        ],
        ids=["ccnic", "ccnic-reader-homed", "unopt"],
    )
    def test_flight_and_sanitizer_reports_pinned(
        self, kind, config, pinned
    ):
        reports, obs, fabric = _observed_reports(kind, config)
        assert fabric._plans
        assert obs.flight.events_seen > 0
        if config is not None:
            # Reader-homed rings fire spec_read and the homing audit.
            assert obs.sanitizer.counts.get("writer-homing", 0) > 0
            assert reports["flight"]["report"]["homing_audit"]
        assert fingerprint(reports) == pinned


def _fabric_events():
    """Raw line events and spec reads of a mixed bare-fabric sequence.

    Multi-line accesses and bursts stamp each line at the access's local
    time so far; the loopbacks above issue almost no multi-line access.
    """
    system = System(icx())
    host = system.new_host_core("host")
    nic = system.new_nic_core("nic")
    base = system.alloc_host("buf", 64 * 16).base
    obs = Observability(flight=FlightRecorder(), sanitizer=Sanitizer())
    system.fabric.instrument(obs)
    fabric = system.fabric
    for agent in (nic, host, nic, host):
        fabric.write(agent, base, 256)
        fabric.read(agent, base + 64, 192)
        fabric.access_burst(agent, [(base + 512, 64), (base + 640, 128)], write=True)
        fabric.access_burst(agent, [(base, 64), (base + 512, 192)], write=False)
    # Clean shared copies on both sockets, then a multi-line upgrade.
    fabric.read(nic, base + 896, 128)
    fabric.read(host, base + 896, 128)
    fabric.write(nic, base + 896, 128)
    return {"events": list(obs.flight.events), "spec_reads": obs.sanitizer.events}


def test_multi_line_stamps_pinned():
    # Pinned where the plan path and the reference path agreed.
    observed = _fabric_events()
    events = observed["events"]
    assert observed["spec_reads"] > 0
    assert any(ts > 0.0 for ts, *_rest in events)
    kinds = {kind for *_head, kind, _latency in events}
    assert {"hit", "cache_remote_spec_hitm", "upgrade_remote"} <= kinds
    assert fingerprint(observed) == "fe103b3b91caafa1"
