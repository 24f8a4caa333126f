"""Cache-state inspection utilities."""

import pytest

from repro.coherence.snapshot import census, dirty_lines, sharing_degree
from repro.platform import System, icx


class TestSnapshot:
    def build(self):
        system = System(icx())
        host = system.new_host_core("host")
        nic = system.new_nic_core("nic")
        region = system.alloc_host("buf", 64 * 8)
        return system, host, nic, region

    def test_census_counts_states(self):
        system, host, nic, region = self.build()
        system.fabric.write(host, region.base, 64)           # host M
        system.fabric.read(nic, region.base + 64, 64)        # nic E
        result = census(system.fabric, region)
        assert result.total_lines == 8
        assert result.uncached_lines == 6
        assert result.lines_held_by("host") == 1
        assert result.by_agent["nic"] == {"E": 1}
        assert 0 < result.cached_fraction < 1

    def test_dirty_lines(self):
        system, host, _nic, region = self.build()
        system.fabric.write(host, region.base, 128)
        assert dirty_lines(system.fabric, region) == 2

    def test_sharing_degree(self):
        system, host, nic, region = self.build()
        system.fabric.read(host, region.base, 64)
        system.fabric.read(nic, region.base, 64)   # shared by both
        assert sharing_degree(system.fabric, region) == pytest.approx(2.0)

    def test_empty_region(self):
        system, _host, _nic, region = self.build()
        result = census(system.fabric, region)
        assert result.cached_fraction == 0.0
        assert sharing_degree(system.fabric, region) == 0.0

    def test_census_str(self):
        system, host, _nic, region = self.build()
        system.fabric.write(host, region.base, 64)
        text = str(census(system.fabric, region))
        assert "buf" in text and "host" in text
