"""Tests for the typed data-plane result objects and the NIC protocols."""

import dataclasses

import pytest

from repro.core import CcnicConfig, CcnicInterface
from repro.core.buffers import Buffer
from repro.core.nic import NicDriver, NicInterface
from repro.core.results import AllocResult, RxResult, TxResult
from repro.nicmodels import PcieNicInterface
from repro.platform import System, icx
from repro.workloads.packets import Packet


def _buf(addr=0x1000, cap=4096):
    return Buffer(addr=addr, capacity=cap)


class TestAllocResult:
    def test_count_derived_from_bufs(self):
        result = AllocResult(bufs=(_buf(), _buf(0x2000)), ns=12.5)
        assert result.count == 2
        assert result.ns == 12.5

    def test_count_cannot_be_forged(self):
        # count is derived, not a field: it cannot be passed in.
        with pytest.raises(TypeError):
            AllocResult(bufs=(_buf(),), ns=1.0, count=99)
        assert AllocResult(bufs=(_buf(),), ns=1.0).count == 1

    def test_bool_reflects_emptiness(self):
        assert not AllocResult(bufs=(), ns=3.0)
        assert AllocResult(bufs=(_buf(),), ns=3.0)

    def test_frozen(self):
        result = AllocResult(bufs=(), ns=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.ns = 1.0


class TestTxResult:
    def test_fields_and_bool(self):
        assert TxResult(count=3, ns=9.0).count == 3
        assert not TxResult(count=0, ns=9.0)


class TestRxResult:
    def test_count_derived_from_entries(self):
        entries = ((Packet(size=64), _buf()),)
        result = RxResult(entries=entries, ns=4.0)
        assert result.count == 1
        assert result.entries == entries

    def test_bool(self):
        assert not RxResult(entries=(), ns=1.0)


class TestDriverReturnsTypedResults:
    def _ccnic(self):
        system = System(icx())
        nic = CcnicInterface(system, CcnicConfig())
        driver = nic.driver(0)
        nic.start()
        return system, driver

    def test_ccnic_alloc_tx_rx_types(self):
        system, driver = self._ccnic()
        alloc = driver.alloc([64, 64])
        assert isinstance(alloc, AllocResult) and alloc.count == 2
        for buf in alloc.bufs:
            driver.write_payload(buf, 64)
        tx = driver.tx_burst([(b, Packet(size=64)) for b in alloc.bufs])
        assert isinstance(tx, TxResult) and tx.count == 2
        received = []

        def app():
            while len(received) < 2:
                rx = driver.rx_burst(4)
                assert isinstance(rx, RxResult)
                received.extend(rx.entries)
                yield max(rx.ns, 1.0)

        system.sim.spawn(app(), "app")
        system.sim.run(until=1e7, stop_when=lambda: len(received) >= 2)
        assert len(received) == 2

    def test_pcie_driver_types(self):
        system = System(icx())
        nic = PcieNicInterface(system, icx().nic("cx6"))
        driver = nic.driver(0)
        nic.start()
        alloc = driver.alloc([64])
        assert isinstance(alloc, AllocResult) and alloc.count == 1
        driver.write_payload(alloc.bufs[0], 64)
        tx = driver.tx_burst([(alloc.bufs[0], Packet(size=64))])
        assert isinstance(tx, TxResult) and tx.count == 1
        rx = driver.rx_burst(4)
        assert isinstance(rx, RxResult)


class TestNicProtocols:
    def test_ccnic_satisfies_protocols(self):
        system = System(icx())
        nic = CcnicInterface(system, CcnicConfig())
        driver = nic.driver(0)
        nic.start()
        assert isinstance(nic, NicInterface)
        assert isinstance(driver, NicDriver)
        assert nic.queue_count == 1
        assert nic.link is system.link

    def test_pcie_satisfies_protocols(self):
        system = System(icx())
        nic = PcieNicInterface(system, icx().nic("e810"))
        driver = nic.driver(0)
        nic.start()
        assert isinstance(nic, NicInterface)
        assert isinstance(driver, NicDriver)
        assert nic.queue_count == 1
        assert nic.link is not system.link  # PCIe has its own link

    def test_non_nic_rejected(self):
        assert not isinstance(object(), NicInterface)

    def test_setup_link_no_special_casing(self):
        from repro.analysis.loopback import InterfaceKind, build_interface

        for kind in (InterfaceKind.CCNIC, InterfaceKind.E810):
            setup = build_interface(icx(), kind)
            assert setup.link() is setup.interface.link
