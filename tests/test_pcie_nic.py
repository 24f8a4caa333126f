"""PCIe NIC interface models (E810- and CX6-style)."""

import pytest

from repro.nicmodels import PcieNicConfig, PcieNicInterface
from repro.platform import CX6, E810, System, icx
from repro.workloads.trafficgen import run_loopback


def build(spec, config=None):
    system = System(icx())
    nic = PcieNicInterface(system, spec, config)
    driver = nic.driver(0)
    nic.start()
    return system, nic, driver


class TestLoopback:
    def test_e810_all_packets_delivered(self):
        system, _nic, driver = build(E810)
        result = run_loopback(system, driver, pkt_size=64, n_packets=400,
                              inflight=32, tx_batch=8, rx_batch=8)
        assert result.received == 400

    def test_loop_keeps_housekeeping(self):
        # PCIe drivers post RX blanks and reap TX in housekeeping, and
        # carry no needs_housekeeping flag: the loop calls it each pass.
        system, _nic, driver = build(E810)
        assert getattr(driver, "needs_housekeeping", True)
        calls = []
        housekeeping = driver.housekeeping
        driver.housekeeping = lambda: calls.append(1) or housekeeping()
        result = run_loopback(system, driver, pkt_size=64, n_packets=100,
                              inflight=8, tx_batch=8, rx_batch=8)
        assert result.received == 100
        assert len(calls) > 0

    def test_e810_min_latency_matches_paper(self):
        system, _nic, driver = build(E810)
        result = run_loopback(system, driver, pkt_size=64, n_packets=500,
                              inflight=1, tx_batch=1, rx_batch=1)
        # Paper: 3809ns best-case on the ICX testbed; allow 15%.
        assert 3200 <= result.latency.minimum <= 4400

    def test_cx6_min_latency_matches_paper(self):
        system, _nic, driver = build(CX6)
        result = run_loopback(system, driver, pkt_size=64, n_packets=500,
                              inflight=1, tx_batch=1, rx_batch=1)
        # Paper: 2116ns best-case.
        assert 1800 <= result.latency.minimum <= 2450

    def test_cx6_faster_than_e810_at_low_load(self):
        _s1, _n1, d1 = build(E810)
        r1 = run_loopback(_s1, d1, pkt_size=64, n_packets=400,
                          inflight=1, tx_batch=1, rx_batch=1)
        _s2, _n2, d2 = build(CX6)
        r2 = run_loopback(_s2, d2, pkt_size=64, n_packets=400,
                          inflight=1, tx_batch=1, rx_batch=1)
        assert r2.latency.minimum < r1.latency.minimum

    def test_large_packets(self):
        system, _nic, driver = build(E810)
        result = run_loopback(system, driver, pkt_size=1500, n_packets=200,
                              inflight=16, tx_batch=8, rx_batch=8)
        assert result.received == 200


class TestInlinePath:
    def test_cx6_small_packets_skip_dma_reads(self):
        system, nic, driver = build(CX6)
        before = nic.dma.reads
        run_loopback(system, driver, pkt_size=64, n_packets=200,
                     inflight=8, tx_batch=4, rx_batch=4)
        # Payload/descriptor DMA reads avoided for inline-size packets
        # (only background RX machinery reads remain).
        tx_related_reads = nic.dma.reads - before
        assert tx_related_reads == 0

    def test_e810_always_uses_dma(self):
        system, nic, driver = build(E810)
        run_loopback(system, driver, pkt_size=64, n_packets=200,
                     inflight=8, tx_batch=4, rx_batch=4)
        assert nic.dma.reads > 0

    def test_cx6_large_packets_fall_back_to_dma(self):
        system, nic, driver = build(CX6)
        run_loopback(system, driver, pkt_size=1500, n_packets=100,
                     inflight=8, tx_batch=4, rx_batch=4)
        assert nic.dma.reads > 0


class TestDevicePacing:
    def test_pps_capacity_bounds_throughput(self):
        slow = PcieNicConfig(ring_slots=256)
        system, _nic, driver = build(E810, slow)
        result = run_loopback(system, driver, pkt_size=64, n_packets=5000,
                              inflight=128, tx_batch=32, rx_batch=32)
        assert result.mpps * 1e6 <= E810.pps_capacity * 1.05

    def test_emit_slot_spacing(self):
        system = System(icx())
        nic = PcieNicInterface(system, E810)
        first = nic.emit_slot(100.0)
        second = nic.emit_slot(100.0)
        assert second - first == pytest.approx(1e9 / E810.pps_capacity)


class TestHousekeeping:
    def test_tx_buffers_reclaimed(self):
        system, nic, driver = build(E810)
        run_loopback(system, driver, pkt_size=64, n_packets=300,
                     inflight=16, tx_batch=8, rx_batch=8)
        stats = nic.pool.stats
        assert stats.get("free_bufs") > 0
        # No buffer leak: allocations equal frees plus currently posted blanks.
        outstanding = stats.get("alloc_bufs") - stats.get("free_bufs")
        assert outstanding <= nic.config.rx_post_target + nic.config.ring_slots

    def test_doorbell_per_burst_not_per_packet(self):
        system, _nic, driver = build(E810)
        run_loopback(system, driver, pkt_size=64, n_packets=320,
                     inflight=64, tx_batch=32, rx_batch=32)
        # One TX doorbell per 32-packet burst plus RX-post doorbells.
        assert driver.mmio.uc_writes < 320
