"""Pinned quick-mode fingerprints: the model does not move.

The perf harness's scenarios double as the determinism regression
suite. Each pin is the fingerprint of one scenario's merged metric
document in ``--quick`` mode — packet counts, latency percentiles,
coherence-transaction counters, per-direction link statistics, event
count and final simulated time. The values were measured when the
engine, fabric, router and histogram each still had a reference twin
and both paths agreed on them. A single diverging float fails the pin.
"""

import builtins
import heapq
import math

import pytest

import repro.topology  # noqa: F401  registers the rack topology scenarios
from repro.analysis import perf
from repro.sim import Simulator
from repro.sim.rng import make_rng

_builtin_sum = builtins.sum

#: Quick-mode fingerprint of every registered scenario.
QUICK_FINGERPRINTS = {
    "loopback_64b": "4e79a99caa56fd54",
    "kv_zipf": "0bc4c4029e8d538f",
    "faults_canned": "1cccc4a00694fb80",
    "kv_zipf_1m": "edf78a46cfafda2c",
    "kv_rack_zipf": "4de5d63b2f698add",
    "mesh_2x2_loopback": "27423c4b8171f0c1",
}


@pytest.mark.parametrize("scenario", sorted(QUICK_FINGERPRINTS))
def test_quick_fingerprint_matches_pin(scenario):
    # Pins the value the engine/fabric/router fast paths and their
    # deleted reference twins both produced.
    assert perf.run_scenario(scenario, quick=True).fingerprint == (
        QUICK_FINGERPRINTS[scenario]
    )


def _compensated_sum(values, start=0):
    """The builtin ``sum()`` as Python >= 3.12 has it for floats: the
    float rounding is compensated, so last bits can differ from a plain
    left-to-right sum."""
    values = list(values)
    if any(isinstance(v, float) for v in values):
        return math.fsum([start, *values])
    return _builtin_sum(values, start)


def test_fingerprint_does_not_depend_on_builtin_sum(monkeypatch):
    """The pins hold on every Python CI runs: merged documents add floats
    left to right through ``ordered_sum``, never through ``sum()``."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert perf.run_scenario("faults_canned", quick=True).fingerprint == (
        QUICK_FINGERPRINTS["faults_canned"]
    )


def test_scenario_fingerprint_stable_across_repeats():
    one = perf.run_scenario("loopback_64b", quick=True)
    two = perf.run_scenario("loopback_64b", quick=True)
    assert one.fingerprint == two.fingerprint
    assert one.events == two.events


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        perf.run_scenario("nope")


def test_calendar_queue_matches_heap_order():
    """Past CALENDAR_THRESHOLD pending events the engine migrates to the
    calendar queue; events must still fire in ``(when, seq)`` order, the
    order a heap of the same records pops them in."""
    n = Simulator.CALENDAR_THRESHOLD + 512
    sim = Simulator()
    rng = make_rng(11, "calqueue-storm")
    whens = [rng.random() * 1e6 for _ in range(n)]
    order = []
    for i, when in enumerate(whens):
        sim.call_at(when, lambda i=i: order.append((sim.now, i)))
    assert sim._cal is not None
    sim.run()
    assert order == sorted((when, i) for i, when in enumerate(whens))


def test_calendar_queue_pop_is_sorted():
    from repro.sim.calqueue import CalendarQueue

    rng = make_rng(5, "calqueue-unit")
    recs = [[rng.random() * 1e4, i, 0, None] for i in range(3000)]
    heap = list(recs)
    heapq.heapify(heap)
    cal = CalendarQueue(heap)
    popped = []
    while len(cal):
        popped.append(cal.pop())
    assert popped == sorted(recs, key=lambda r: (r[0], r[1]))
