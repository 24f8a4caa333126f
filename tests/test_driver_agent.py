"""Driver and NIC-agent edge cases."""

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.core import CcnicConfig, CcnicInterface
from repro.errors import NicError, PoolError
from repro.platform import System, icx
from repro.shard.merge import fingerprint
from repro.workloads.packets import Packet
from tests.test_faults import _run_snapshot


def make(config=None):
    system = System(icx())
    nic = CcnicInterface(system, config or CcnicConfig())
    driver = nic.driver(0)
    nic.start()
    return system, nic, driver


class TestDriverValidation:
    def test_tx_without_payload_rejected(self):
        _system, _nic, driver = make()
        bufs = driver.alloc([64]).bufs
        with pytest.raises(NicError):
            driver.tx_burst([(bufs[0], Packet(size=64))])

    def test_empty_payload_helpers(self):
        _system, _nic, driver = make()
        assert driver.read_payloads([]) == 0.0
        assert driver.write_payloads([]) == 0.0

    @pytest.mark.parametrize("size", [0, 129])
    def test_payload_must_fit_buffer(self, size):
        _system, _nic, driver = make()
        first, second = driver.alloc([64, 64]).bufs
        with pytest.raises(PoolError):
            driver.write_payloads([(first, 64), (second, size)])
        assert (first.data_len, second.data_len) == (64, 0)

    def test_rx_burst_empty_queue(self):
        _system, _nic, driver = make()
        rx = driver.rx_burst(8)
        assert rx.count == 0
        assert rx.ns > 0  # the signal poll still costs

    def test_empty_polls_still_read_the_signal_line(self):
        """Empty polls return early, but each still makes its one fabric
        access: a hit on the host's copy of the next ring line, which
        moves to the MRU end of the host's cache."""
        _system, nic, driver = make()
        rx = nic.pair(0).rx
        agent = driver.agent
        driver.rx_burst(8)  # the cold first read misses
        hits, consumed, polls = agent.hits, rx.consumed, 25
        results = [driver.rx_burst(8) for _ in range(polls)]
        assert all(not r and r.count == 0 for r in results)
        assert len({r.ns for r in results}) == 1
        assert agent.hits == hits + polls
        assert rx.consumed == consumed
        assert list(agent.lines())[-1] == rx.line_addr(rx.head) // 64

    def test_housekeeping_noop_with_shared_management(self):
        _system, _nic, driver = make()
        assert not driver.needs_housekeeping
        assert driver.housekeeping() == 0.0

    def test_host_managed_buffers_need_housekeeping(self):
        _system, _nic, driver = make(CcnicConfig(nic_buffer_mgmt=False))
        assert driver.needs_housekeeping
        assert not driver.skips_idle_polls
        assert driver.housekeeping() > 0.0  # posts the first RX blanks


class TestVisibility:
    def test_descriptor_not_visible_before_store_retires(self):
        """A consumer polling at the exact submission instant must not
        see descriptors whose producer time has not elapsed."""
        system, nic, driver = make()
        bufs = driver.alloc([64]).bufs
        driver.write_payload(bufs[0], 64)
        driver.tx_burst([(bufs[0], Packet(size=64))], base_ns=500.0)
        pair = nic.pair(0)
        agent = pair.agent.agent
        items, _ns = pair.tx.poll(agent, 4)
        assert items == []  # visible only after ~500ns
        system.sim.now += 600.0
        items, _ns = pair.tx.poll(agent, 4)
        assert len(items) == 1


class TestBackpressure:
    def test_tx_ring_full_returns_zero(self):
        system, nic, driver = make(CcnicConfig(ring_slots=8))
        # Fill the ring without letting the NIC run (no sim.run yet).
        accepted_total = 0
        for _ in range(4):
            bufs = driver.alloc([64] * 4).bufs
            for buf in bufs:
                driver.write_payload(buf, 64)
            sent = driver.tx_burst([(b, Packet(size=64)) for b in bufs]).count
            accepted_total += sent
        assert accepted_total == 8  # ring capacity

    def test_recovery_after_drain(self):
        system, nic, driver = make(CcnicConfig(ring_slots=8))
        bufs = driver.alloc([64] * 8).bufs
        for buf in bufs:
            driver.write_payload(buf, 64)
        driver.tx_burst([(b, Packet(size=64)) for b in bufs])
        # Let the NIC drain and loop everything back.
        received = []

        def app():
            while len(received) < 8:
                rx = driver.rx_burst(8)
                received.extend(rx.entries)
                yield max(rx.ns, 1.0)

        system.sim.spawn(app(), "drain")
        system.sim.run(until=1e7, stop_when=lambda: len(received) >= 8)
        assert len(received) == 8
        # Ring space is free again.
        bufs2 = driver.alloc([64] * 4).bufs
        for buf in bufs2:
            driver.write_payload(buf, 64)
        sent = driver.tx_burst([(b, Packet(size=64)) for b in bufs2]).count
        assert sent == 4


class TestAgentAccounting:
    def test_busy_time_accumulates(self):
        system, nic, driver = make()
        bufs = driver.alloc([64] * 4).bufs
        for buf in bufs:
            driver.write_payload(buf, 64)
        driver.tx_burst([(b, Packet(size=64)) for b in bufs])
        system.sim.run(until=1e5)
        agent = nic.pair(0).agent
        assert agent.busy_ns > 0
        assert agent.tx_packets == 4

    def test_wire_preserves_order(self):
        system, nic, driver = make()
        pkts = []
        bufs = driver.alloc([64] * 4).bufs
        for buf in bufs:
            driver.write_payload(buf, 64)
            pkts.append(Packet(size=64))
        driver.tx_burst(list(zip(bufs, pkts)))
        received = []

        def app():
            while len(received) < 4:
                rx = driver.rx_burst(8)
                received.extend(p for p, _b in rx.entries)
                yield max(rx.ns, 1.0)

        system.sim.spawn(app(), "order")
        system.sim.run(until=1e7, stop_when=lambda: len(received) >= 4)
        assert [p.pkt_id for p in received] == [p.pkt_id for p in pkts]


class TestVariantPins:
    """Quick CC-NIC loopbacks down the RX and TX paths that the NIC's
    one-buffer inline receive does not take.

    Host-posted blanks go through ``NicQueueAgent._rx_buffer``, NT stores
    through ``fabric.nt_store`` in ``_receive`` and the driver, no
    recycling through the pool's shared list (``_alloc_one`` with its
    fabric accesses), and full buffers give a 64 B packet a 4 KB buffer.
    The pins were recorded before the inline path existed.
    """

    @pytest.mark.parametrize(
        "flags, pinned",
        [({"nic_buffer_mgmt": False}, "6af9179661bc3f61"),
         ({"caching_stores": False}, "105c87218d3d4e18"),
         ({"buf_recycling": False}, "a5d2138a280902df"),
         ({"small_buffers": False}, "b8fbf2b7d3adaef6")],
        ids=["host_posted_blanks", "nt_stores", "no_recycling", "full_buffers"],
    )
    def test_loopback_fingerprint_pinned(self, flags, pinned):
        setup = build_interface(icx(), InterfaceKind.CCNIC, config=CcnicConfig(**flags))
        result = run_point(
            setup, pkt_size=64, n_packets=1500, inflight=64, tx_batch=16, rx_batch=16
        )
        assert result.received == 1500
        assert fingerprint(_run_snapshot(setup, result)) == pinned
