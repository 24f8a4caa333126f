"""Hardware prefetcher model (DCU IP stride detection)."""

import pytest

from repro.coherence import CoherenceFabric, CostModel
from repro.interconnect import Link
from repro.mem import AddressSpace
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.sim import Simulator

COST = CostModel(
    l2_hit=5.0,
    local_cache=48.0,
    local_dram=72.0,
    remote_dram=144.0,
    remote_cache_writer_homed=114.0,
    remote_cache_reader_homed=119.0,
    local_invalidate=30.0,
    remote_invalidate=100.0,
)


def build(prefetch=True):
    sim = Simulator()
    space = AddressSpace()
    link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
    fabric = CoherenceFabric(sim, space, COST, link)
    agent = fabric.new_agent("a", socket=0, capacity_lines=1024, prefetch=prefetch)
    remote = fabric.new_agent("r", socket=1, capacity_lines=1024)
    region = space.allocate("buf", 64 * 32, home=0)
    return fabric, agent, remote, region


def test_sequential_reads_trigger_prefetch():
    fabric, agent, _remote, region = build()
    fabric.read(agent, region.base, 64)
    fabric.read(agent, region.base + 64, 64)  # +1 stride detected
    # Line 2 should now be resident from the prefetch.
    assert agent.holds(region.base // 64 + 2)
    latency = fabric.read(agent, region.base + 128, 64)
    assert latency == pytest.approx(COST.l2_hit)


def test_no_prefetch_when_disabled():
    fabric, agent, _remote, region = build(prefetch=False)
    fabric.read(agent, region.base, 64)
    fabric.read(agent, region.base + 64, 64)
    assert not agent.holds(region.base // 64 + 2)


def test_non_sequential_access_does_not_prefetch():
    fabric, agent, _remote, region = build()
    fabric.read(agent, region.base, 64)
    fabric.read(agent, region.base + 256, 64)  # stride 4, not 1
    assert not agent.holds(region.base // 64 + 5)


def test_prefetch_stops_at_region_end():
    fabric, agent, _remote, region = build()
    end = region.base + region.size
    fabric.read(agent, end - 128, 64)
    fabric.read(agent, end - 64, 64)
    # The next line is outside the region; nothing to prefetch.
    assert not agent.holds(end // 64)


def test_prefetch_steals_remote_dirty_line():
    """The harmful contention of §3.3: a consumer's prefetch pulls the
    line a remote producer is still writing, forcing the producer to
    re-acquire ownership."""
    fabric, agent, remote, region = build()
    # The remote producer writes line 2 (is mid-burst).
    fabric.write(remote, region.base + 128, 64)
    # The local consumer streams lines 0,1 -> prefetches line 2 (HitM).
    fabric.read(agent, region.base, 64)
    fabric.read(agent, region.base + 64, 64)
    assert agent.holds(region.base // 64 + 2)
    assert not remote.holds(region.base // 64 + 2)
    # The producer's next write to its own buffer is now a remote miss.
    before = fabric.counters.get("s1.rfo")
    fabric.write(remote, region.base + 128, 8)
    assert fabric.counters.get("s1.rfo") == before + 1


def test_recorded_prefetch_reports_the_dirty_steal():
    """A prefetch that steals a dirty line is a HitM migration: the
    flight recorder must see the producer's copy go, as it does for a
    demand miss."""
    fabric, agent, remote, region = build()
    recorder = FlightRecorder()
    fabric.instrument(Observability(flight=recorder))
    stolen = region.base // 64 + 2
    fabric.write(remote, region.base + 128, 64)
    fabric.read(agent, region.base, 64)
    fabric.read(agent, region.base + 64, 64)  # prefetches line 2 (HitM)
    assert agent.holds(stolen) and not remote.holds(stolen)
    stats = recorder.lines[stolen]
    assert (stats.drops, stats.dirty_drops) == (1, 1)


def test_prefetch_counters():
    fabric, agent, _remote, region = build()
    fabric.read(agent, region.base, 64)
    fabric.read(agent, region.base + 64, 64)
    assert fabric.counters.get("s0.prefetch_local") == 1
