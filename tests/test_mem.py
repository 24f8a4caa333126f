"""Address math, regions and the address space."""

import pytest

from repro.errors import AddressSpaceError
from repro.mem import (
    AddressSpace,
    MemType,
    Region,
    line_base,
    line_index,
    line_offset,
    lines_spanned,
)


class TestAddressMath:
    def test_line_index(self):
        assert line_index(0) == 0
        assert line_index(63) == 0
        assert line_index(64) == 1

    def test_line_base_and_offset(self):
        assert line_base(130) == 128
        assert line_offset(130) == 2

    def test_lines_spanned_single(self):
        assert lines_spanned(0, 1) == [0]
        assert lines_spanned(0, 64) == [0]

    def test_lines_spanned_crossing(self):
        assert lines_spanned(60, 8) == [0, 1]
        assert lines_spanned(0, 65) == [0, 1]
        assert lines_spanned(64, 128) == [1, 2]

    def test_lines_spanned_empty(self):
        assert lines_spanned(100, 0) == []


class TestRegion:
    def test_basic(self):
        r = Region("buf", base=128, size=256, home=0)
        assert r.end == 384
        assert r.contains(128)
        assert r.contains(383)
        assert not r.contains(384)
        assert r.offset_of(130) == 2

    def test_contains_with_size(self):
        r = Region("buf", base=0, size=128, home=1)
        assert r.contains(64, 64)
        assert not r.contains(64, 65)

    def test_misaligned_base_rejected(self):
        with pytest.raises(AddressSpaceError):
            Region("bad", base=10, size=64, home=0)

    def test_bad_size_rejected(self):
        with pytest.raises(AddressSpaceError):
            Region("bad", base=0, size=0, home=0)

    def test_offset_of_outside_raises(self):
        r = Region("buf", base=0, size=64, home=0)
        with pytest.raises(AddressSpaceError):
            r.offset_of(100)

    def test_default_memtype_is_writeback(self):
        r = Region("buf", base=0, size=64, home=0)
        assert r.memtype is MemType.WRITEBACK
        assert r.memtype.is_cacheable


class TestMemType:
    def test_only_wb_cacheable(self):
        assert MemType.WRITEBACK.is_cacheable
        assert not MemType.WRITE_COMBINING.is_cacheable
        assert not MemType.UNCACHEABLE.is_cacheable


class TestAddressSpace:
    def test_allocation_is_disjoint_and_aligned(self):
        space = AddressSpace()
        a = space.allocate("a", 100, home=0)
        b = space.allocate("b", 64, home=1)
        assert a.base % 64 == 0
        assert b.base >= a.end
        assert a.size == 128  # rounded to whole lines

    def test_region_of(self):
        space = AddressSpace()
        a = space.allocate("a", 64, home=0)
        b = space.allocate("b", 64, home=1)
        assert space.region_of(a.base) is a
        assert space.region_of(b.base + 63) is b

    def test_region_of_unmapped_raises(self):
        space = AddressSpace()
        space.allocate("a", 64, home=0)
        with pytest.raises(AddressSpaceError):
            space.region_of(1)

    def test_try_region_of_none(self):
        space = AddressSpace()
        assert space.try_region_of(0) is None

    def test_alignment_parameter(self):
        space = AddressSpace()
        r = space.allocate("a", 64, home=0, align=4096)
        assert r.base % 4096 == 0

    def test_bad_alignment_rejected(self):
        space = AddressSpace()
        with pytest.raises(AddressSpaceError):
            space.allocate("a", 64, home=0, align=32)

    def test_zero_size_rejected(self):
        space = AddressSpace()
        with pytest.raises(AddressSpaceError):
            space.allocate("a", 0, home=0)

    def test_regions_listing_sorted(self):
        space = AddressSpace()
        names = ["r1", "r2", "r3"]
        for name in names:
            space.allocate(name, 64, home=0)
        assert [r.name for r in space.regions] == names
