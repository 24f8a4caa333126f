"""Coherence protocol behaviour: states, latencies, counters."""

import pytest

from repro.coherence import CoherenceFabric, CostModel, LineState
from repro.errors import CoherenceError
from repro.interconnect import Link, MessageClass
from repro.mem import AddressSpace, MemType
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
    store_buffer=1.5,
)


def make_fabric(mlp=10.0, write_pipeline=2.0):
    sim = Simulator()
    space = AddressSpace()
    link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
    fabric = CoherenceFabric(sim, space, COST, link, mlp=mlp, write_pipeline=write_pipeline)
    local = fabric.new_agent("local", socket=0)
    peer = fabric.new_agent("peer", socket=0)
    remote = fabric.new_agent("remote", socket=1)
    return fabric, space, local, peer, remote


class TestBasicAccesses:
    def test_local_dram_fill(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        assert fabric.read(local, region.base, 64) == pytest.approx(72.0)
        assert fabric.state_in(local, region.base) is LineState.EXCLUSIVE

    def test_remote_dram_fill(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=1)
        latency = fabric.read(local, region.base, 64)
        assert latency >= 144.0
        assert fabric.counters.get("s0.read") == 1

    def test_hit_after_fill(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.read(local, region.base, 64)
        assert fabric.read(local, region.base, 8) == pytest.approx(5.0)

    def test_write_hit_on_exclusive_is_cheap(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.read(local, region.base, 64)
        cost = fabric.write(local, region.base, 8)
        assert cost == pytest.approx(1.5 / 2.0)
        assert fabric.state_in(local, region.base) is LineState.MODIFIED

    def test_write_miss_installs_modified(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.write(local, region.base, 64)
        assert fabric.state_in(local, region.base) is LineState.MODIFIED

    def test_zero_size_rejected(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        with pytest.raises(CoherenceError):
            fabric.access(local, region.base, 0, write=False)

    def test_non_wb_region_rejected(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("mmio", 64, home=0, memtype=MemType.UNCACHEABLE)
        with pytest.raises(CoherenceError):
            fabric.read(local, region.base, 8)


class TestHitM:
    """Reads of Modified lines transfer dirty ownership (HitM)."""

    def test_remote_hitm_transfers_ownership(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=1)
        fabric.write(remote, region.base, 64)
        latency = fabric.read(local, region.base, 64)
        assert latency >= 114.0  # writer-homed remote cache case
        assert fabric.state_in(local, region.base) is LineState.MODIFIED
        assert fabric.state_in(remote, region.base) is None

    def test_subsequent_write_by_reader_is_free(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=1)
        fabric.write(remote, region.base, 64)
        fabric.read(local, region.base, 64)
        cost = fabric.write(local, region.base, 8)
        assert cost == pytest.approx(1.5 / 2.0)

    def test_reader_homed_is_slower_and_speculates(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=0)  # homed on reader
        fabric.write(remote, region.base, 64)
        latency = fabric.read(local, region.base, 64)
        assert latency >= 119.0
        assert fabric.counters.get("s0.spec_mem_read") == 1

    def test_local_hitm(self):
        fabric, space, local, peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.write(peer, region.base, 64)
        latency = fabric.read(local, region.base, 64)
        assert latency == pytest.approx(48.0)
        assert fabric.state_in(local, region.base) is LineState.MODIFIED
        assert fabric.state_in(peer, region.base) is None


class TestSharingAndUpgrades:
    def test_clean_read_shares(self):
        fabric, space, local, peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.read(peer, region.base, 64)   # peer E
        fabric.read(local, region.base, 64)  # share
        assert fabric.state_in(local, region.base) is LineState.SHARED
        assert fabric.state_in(peer, region.base) is LineState.SHARED
        assert len(fabric.holders_of(region.base)) == 2

    def test_upgrade_invalidates_local_sharers(self):
        fabric, space, local, peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.read(peer, region.base, 64)
        fabric.read(local, region.base, 64)
        cost = fabric.write(local, region.base, 8)
        assert cost == pytest.approx(30.0 / 2.0)
        assert fabric.state_in(peer, region.base) is None
        assert fabric.state_in(local, region.base) is LineState.MODIFIED

    def test_upgrade_invalidates_remote_sharers(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.read(remote, region.base, 64)
        fabric.read(local, region.base, 64)
        before = fabric.counters.get("s0.rfo")
        cost = fabric.write(local, region.base, 8)
        assert cost >= 100.0 / 2.0
        assert fabric.counters.get("s0.rfo") == before + 1
        assert fabric.state_in(remote, region.base) is None

    def test_write_miss_to_shared_line_counts_one_rfo(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=1)
        fabric.read(remote, region.base, 64)
        fabric.write(local, region.base, 8)
        # The RFO fetch covers the invalidation; exactly one RFO counted.
        assert fabric.counters.get("s0.rfo") == 1
        assert fabric.state_in(remote, region.base) is None


class TestMultiLine:
    def test_mlp_discounts_subsequent_lines(self):
        fabric, space, local, _peer, _remote = make_fabric(mlp=10.0)
        region = space.allocate("r", 64 * 8, home=0)
        latency = fabric.read(local, region.base, 64 * 8)
        expected = 72.0 + 7 * 72.0 / 10.0
        assert latency == pytest.approx(expected)

    def test_access_burst_first_full_rest_overlapped(self):
        fabric, space, local, _peer, _remote = make_fabric(mlp=10.0)
        regions = [space.allocate(f"r{i}", 64, home=0) for i in range(4)]
        spans = [(r.base, 64) for r in regions]
        latency = fabric.access_burst(local, spans, write=False)
        expected = 72.0 + 3 * 72.0 / 10.0
        assert latency == pytest.approx(expected)

    def test_write_pipeline_divides_store_cost(self):
        fabric, space, local, _peer, _remote = make_fabric(write_pipeline=2.0)
        region = space.allocate("r", 64, home=0)
        cost = fabric.write(local, region.base, 64)
        assert cost == pytest.approx(72.0 / 2.0)


class TestCongestionWaits:
    @staticmethod
    def _write_fill_wait(warm_holder: bool) -> float:
        """Wait charged to a remote write fill on a link another actor
        has just loaded: the fill's latency minus its pipelined zero-load
        cost. ``warm_holder`` puts the line in the remote (writer-homed)
        cache first, which takes no link traffic."""
        fabric, space, local, _peer, remote = make_fabric(write_pipeline=2.0)
        region = space.allocate("r", 64, home=1)
        if warm_holder:
            fabric.write(remote, region.base, 64)
        for _ in range(400):
            fabric.link.occupy(MessageClass.RFO, direction=0, actor="other")
            fabric.link.occupy(MessageClass.RFO, direction=1, actor="other")
        latency = fabric.write(local, region.base, 64)
        base = COST.remote_cache_writer_homed if warm_holder else COST.remote_dram
        return latency - base / 2.0

    def test_remote_dram_fill_wait_is_pipelined(self):
        """Known defect, pinned until it is fixed: a remote-DRAM fill
        folds its link wait into the latency that store pipelining (and,
        for later lines, MLP) divides, while a remote-cache fill books
        the same wait apart, undivided, as docs/MODEL.md §2 says every
        congestion wait should be. Both fills below send the same two
        messages on the same loaded link, so they wait equally long; the
        DRAM fill is charged half of that wait (write_pipeline 2)."""
        cache_wait = self._write_fill_wait(warm_holder=True)
        dram_wait = self._write_fill_wait(warm_holder=False)
        assert cache_wait > 10.0
        assert dram_wait == pytest.approx(cache_wait / 2.0)


class TestEvictionAndWriteback:
    def test_dirty_eviction_to_remote_home_writes_back(self):
        sim = Simulator()
        space = AddressSpace()
        link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
        fabric = CoherenceFabric(sim, space, COST, link)
        tiny = fabric.new_agent("tiny", socket=0, capacity_lines=2)
        region = space.allocate("r", 64 * 4, home=1)
        fabric.write(tiny, region.base, 64)
        fabric.write(tiny, region.base + 64, 64)
        fabric.write(tiny, region.base + 128, 64)  # evicts the first line
        assert fabric.counters.get("s0.writeback") == 1
        assert not tiny.holds(region.base // 64)

    def test_clean_eviction_no_writeback(self):
        sim = Simulator()
        space = AddressSpace()
        link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
        fabric = CoherenceFabric(sim, space, COST, link)
        tiny = fabric.new_agent("tiny", socket=0, capacity_lines=1)
        region = space.allocate("r", 128, home=1)
        fabric.read(tiny, region.base, 64)
        fabric.read(tiny, region.base + 64, 64)
        assert fabric.counters.get("s0.writeback") == 0


class TestFlushAndNt:
    def test_flush_invalidates_everywhere(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.write(remote, region.base, 64)
        cost = fabric.flush(local, region.base, 64)
        assert cost == pytest.approx(COST.clflush)
        assert fabric.holders_of(region.base) == []
        assert fabric.counters.get("s1.writeback") == 1

    def test_nt_store_bypasses_cache(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=1)
        fabric.nt_store(local, region.base, 64)
        assert fabric.state_in(local, region.base) is None
        assert fabric.counters.get("s0.nt_store") == 1

    def test_nt_store_invalidates_remote_copies(self):
        fabric, space, local, _peer, remote = make_fabric()
        region = space.allocate("r", 64, home=1)
        fabric.read(remote, region.base, 64)
        fabric.nt_store(local, region.base, 64)
        assert fabric.state_in(remote, region.base) is None

    def test_nt_store_local_home_no_link_traffic(self):
        fabric, space, local, _peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.nt_store(local, region.base, 64)
        assert fabric.counters.get("s0.nt_store") == 0


class TestInvariants:
    def test_check_invariants_clean(self):
        fabric, space, local, peer, remote = make_fabric()
        region = space.allocate("r", 64 * 16, home=0)
        for i in range(16):
            fabric.write(local, region.base + i * 64, 8)
            fabric.read(remote, region.base + i * 64, 8)
            fabric.read(peer, region.base + i * 64, 8)
        fabric.check_invariants()

    def test_invariant_violation_detected(self):
        fabric, space, local, peer, _remote = make_fabric()
        region = space.allocate("r", 64, home=0)
        fabric.write(local, region.base, 8)
        # Corrupt: second exclusive holder behind the fabric's back.
        peer.set_state(region.base // 64, LineState.MODIFIED)
        fabric._holders[region.base // 64].append(peer)
        with pytest.raises(CoherenceError):
            fabric.check_invariants()


class TestConstruction:
    def test_bad_mlp(self):
        sim = Simulator()
        space = AddressSpace()
        link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
        with pytest.raises(CoherenceError):
            CoherenceFabric(sim, space, COST, link, mlp=0.5)

    def test_bad_write_pipeline(self):
        sim = Simulator()
        space = AddressSpace()
        link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
        with pytest.raises(CoherenceError):
            CoherenceFabric(sim, space, COST, link, write_pipeline=0.0)
