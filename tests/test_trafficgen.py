"""Traffic generator semantics."""

import dataclasses

import pytest

from repro.core import CcnicConfig, CcnicInterface
from repro.errors import WorkloadError
from repro.platform import System, icx
from repro.workloads.packets import Packet
from repro.workloads.trafficgen import LoopbackApp, run_loopback


def make():
    system = System(icx())
    nic = CcnicInterface(system, CcnicConfig())
    driver = nic.driver(0)
    nic.start()
    return system, driver


class TestPacket:
    def test_latency_requires_receipt(self):
        pkt = Packet(size=64, tx_ns=10.0)
        with pytest.raises(WorkloadError):
            _ = pkt.latency_ns
        pkt.rx_ns = 110.0
        assert pkt.latency_ns == 100.0

    def test_size_validated(self):
        with pytest.raises(WorkloadError):
            Packet(size=0)
        with pytest.raises(WorkloadError):
            Packet(-64, tx_ns=5.0)

    def test_unique_ids(self):
        a, b, c = Packet(size=64), Packet(64, tx_ns=1.0), Packet(128, 2.0, flow=3)
        assert a.pkt_id != b.pkt_id
        assert (b.pkt_id, c.pkt_id) == (a.pkt_id + 1, a.pkt_id + 2)

    def test_dataclass_behaviour(self):
        assert [f.name for f in dataclasses.fields(Packet)] == [
            "size", "tx_ns", "rx_ns", "pkt_id", "flow",
        ]
        pkt = Packet(256, 5.0, 9.0, 41, 7)
        assert (pkt.size, pkt.tx_ns, pkt.rx_ns, pkt.pkt_id, pkt.flow) == (
            256, 5.0, 9.0, 41, 7
        )
        pkt = Packet(size=64, tx_ns=1.5, pkt_id=3)
        assert repr(pkt) == "Packet(size=64, tx_ns=1.5, rx_ns=None, pkt_id=3, flow=0)"
        assert pkt == Packet(size=64, tx_ns=1.5, pkt_id=3)
        assert pkt != Packet(size=64, tx_ns=1.5, pkt_id=4)
        drawn = Packet(64).pkt_id
        copy = dataclasses.replace(pkt, rx_ns=9.5)
        assert Packet(64).pkt_id == drawn + 1  # a copy draws no id
        assert (copy.pkt_id, copy.size, copy.tx_ns, copy.rx_ns) == (3, 64, 1.5, 9.5)
        assert copy.latency_ns == 8.0
        with pytest.raises(WorkloadError):
            dataclasses.replace(pkt, size=0)


class TestClosedLoop:
    def test_inflight_bounded(self):
        system, driver = make()
        app = LoopbackApp(driver, 64, 200, tx_batch=8, rx_batch=8, inflight=4)
        max_outstanding = [0]
        gen = app.run()

        def wrapped():
            for delay in gen:
                max_outstanding[0] = max(
                    max_outstanding[0], app.result.sent - app.result.received
                )
                yield delay

        system.sim.spawn(wrapped(), "app")
        system.sim.run(until=1e9, stop_when=lambda: app.done)
        assert app.result.received == 200
        assert max_outstanding[0] <= 4

    def test_warmup_excluded_from_latency(self):
        system, driver = make()
        result = run_loopback(system, driver, pkt_size=64, n_packets=100,
                              inflight=1, tx_batch=1, rx_batch=1)
        assert result.latency.count == 100 - 10  # 10% warmup


class TestOpenLoop:
    def test_low_offered_rate_achieved(self):
        system, driver = make()
        result = run_loopback(system, driver, pkt_size=64, n_packets=2000,
                              offered_mpps=1.0, tx_batch=8, rx_batch=8)
        assert result.mpps == pytest.approx(1.0, rel=0.15)

    def test_overload_saturates_below_offered(self):
        system, driver = make()
        result = run_loopback(system, driver, pkt_size=64, n_packets=4000,
                              offered_mpps=500.0, tx_batch=32, rx_batch=32)
        assert result.mpps < 400.0
        assert result.backpressure_events > 0

    def test_latency_rises_with_load(self):
        s1, d1 = make()
        light = run_loopback(s1, d1, pkt_size=64, n_packets=2000,
                             offered_mpps=1.0, tx_batch=8, rx_batch=8)
        s2, d2 = make()
        heavy = run_loopback(s2, d2, pkt_size=64, n_packets=4000,
                             offered_mpps=18.0, tx_batch=32, rx_batch=32)
        assert heavy.latency.median > light.latency.median


class TestValidation:
    def test_requires_a_load_mode(self):
        _system, driver = make()
        with pytest.raises(WorkloadError):
            LoopbackApp(driver, 64, 100)

    def test_rejects_bad_params(self):
        _system, driver = make()
        with pytest.raises(WorkloadError):
            LoopbackApp(driver, 64, 0, inflight=1)
        with pytest.raises(WorkloadError):
            LoopbackApp(driver, 64, 10, inflight=0)
        with pytest.raises(WorkloadError):
            LoopbackApp(driver, 64, 10, offered_mpps=-1.0)
        with pytest.raises(WorkloadError):
            LoopbackApp(driver, 64, 10, inflight=1, warmup_fraction=1.0)


class TestPoissonArrivals:
    def test_poisson_achieves_mean_rate(self):
        system, driver = make()
        result = run_loopback(system, driver, pkt_size=64, n_packets=3000,
                              offered_mpps=2.0, tx_batch=8, rx_batch=8,
                              arrivals="poisson")
        assert result.mpps == pytest.approx(2.0, rel=0.25)

    def test_poisson_has_heavier_tail_than_paced(self):
        s1, d1 = make()
        paced = run_loopback(s1, d1, pkt_size=64, n_packets=4000,
                             offered_mpps=12.0, tx_batch=8, rx_batch=8,
                             arrivals="paced")
        s2, d2 = make()
        poisson = run_loopback(s2, d2, pkt_size=64, n_packets=4000,
                               offered_mpps=12.0, tx_batch=8, rx_batch=8,
                               arrivals="poisson")
        assert poisson.latency.percentile(99) > paced.latency.percentile(99)

    def test_poisson_deterministic_per_seed(self):
        s1, d1 = make()
        a = run_loopback(s1, d1, pkt_size=64, n_packets=1000,
                         offered_mpps=3.0, arrivals="poisson", seed=5)
        s2, d2 = make()
        b = run_loopback(s2, d2, pkt_size=64, n_packets=1000,
                         offered_mpps=3.0, arrivals="poisson", seed=5)
        assert a.latency.median == b.latency.median

    def test_unknown_process_rejected(self):
        _system, driver = make()
        with pytest.raises(WorkloadError):
            LoopbackApp(driver, 64, 10, offered_mpps=1.0, arrivals="bursty")
