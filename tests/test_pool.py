"""Shared buffer pool: recycling, subdivision, sharing semantics."""

import dataclasses
from collections import deque

import pytest

import repro.core.pool as pool_module
from repro.core import BufferPool, CcnicConfig
from repro.core.buffers import Buffer
from repro.errors import PoolError
from repro.platform import System, icx
from repro.sim.rng import make_rng


def make_pool(seed=0, **overrides):
    defaults = dict(pool_buffers=32, ring_slots=64)
    defaults.update(overrides)
    config = CcnicConfig(**defaults)
    system = System(icx())
    pool = BufferPool(system, config, seed)
    host = system.new_host_core("host")
    nic = system.new_nic_core("nic")
    return system, pool, host, nic


class TestAllocFree:
    def test_alloc_returns_requested_count(self):
        _sys, pool, host, _nic = make_pool()
        bufs, ns = pool.alloc(host, [4096, 4096])
        assert len(bufs) == 2
        assert ns > 0
        assert all(b.capacity == 4096 for b in bufs)

    def test_free_and_realloc(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(host, bufs)
        again, _ = pool.alloc(host, [4096])
        assert len(again) == 1

    def test_double_free_rejected(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(host, bufs)
        with pytest.raises(PoolError):
            pool.free(host, bufs)

    def test_exhaustion_returns_partial(self):
        _sys, pool, host, _nic = make_pool(pool_buffers=4, small_buffers=False)
        bufs, _ = pool.alloc(host, [4096] * 8)
        assert len(bufs) == 4
        assert pool.stats.get("exhausted") >= 1

    def test_bad_size_rejected(self):
        _sys, pool, host, _nic = make_pool()
        with pytest.raises(PoolError):
            pool.alloc(host, [0])

    def test_buffers_are_line_aligned_addresses(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096] * 4)
        for buf in bufs:
            assert buf.addr % 64 == 0


class TestRecycling:
    def test_freed_buffer_comes_back_lifo(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096, 4096])
        pool.free(host, bufs)
        again, _ = pool.alloc(host, [4096])
        assert again[0] is bufs[-1]  # most recently freed first

    def test_stacks_are_per_side(self):
        _sys, pool, host, nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(nic, bufs)  # NIC freed it: goes to the NIC stack
        assert pool.stack_depth(nic) == 1
        assert pool.stack_depth(host) == 0
        got, _ = pool.alloc(nic, [4096])
        assert got[0] is bufs[0]

    def test_stack_fast_path_is_cheaper(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        pool.free(host, bufs)
        _again, stack_ns = pool.alloc(host, [4096])
        _fresh, shared_ns = pool.alloc(host, [4096])
        assert stack_ns < shared_ns

    def test_recycling_disabled_goes_to_shared_fifo(self):
        _sys, pool, host, _nic = make_pool(buf_recycling=False, small_buffers=False)
        first, _ = pool.alloc(host, [4096])
        pool.free(host, first)
        nxt, _ = pool.alloc(host, [4096])
        # FIFO: the freed buffer goes to the back, not returned next.
        assert nxt[0] is not first[0]
        assert pool.stack_depth(host) == 0

    def test_stack_overflow_spills_to_shared(self):
        _sys, pool, host, _nic = make_pool(recycle_stack_max=8, pool_buffers=64)
        bufs, _ = pool.alloc(host, [4096] * 16)
        pool.free(host, bufs)
        assert pool.stack_depth(host) == 8
        assert pool.stats.get("shared_free") == 8


class TestSmallBuffers:
    def test_small_request_subdivides(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [64])
        assert bufs[0].small
        assert bufs[0].capacity == 128
        assert pool.stats.get("subdivisions") == 1

    def test_subdivision_yields_32_smalls(self):
        _sys, pool, host, _nic = make_pool(recycle_stack_max=64)
        bufs, _ = pool.alloc(host, [64] * 32)
        assert len(bufs) == 32
        # One 4KB buffer covers all 32.
        assert pool.stats.get("subdivisions") == 1

    def test_large_request_gets_full_buffer(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [1500])
        assert not bufs[0].small
        assert bufs[0].capacity == 4096

    def test_small_buffers_disabled(self):
        _sys, pool, host, _nic = make_pool(small_buffers=False)
        bufs, _ = pool.alloc(host, [64])
        assert not bufs[0].small
        assert bufs[0].capacity == 4096

    def test_small_addresses_within_parent(self):
        _sys, pool, host, _nic = make_pool(recycle_stack_max=64)
        bufs, _ = pool.alloc(host, [64] * 4)
        addrs = sorted(b.addr for b in bufs)
        assert pool.region.contains(addrs[0], 128)


class TestFillOrder:
    def test_nonseq_alloc_shuffles(self):
        _sys, pool, host, _nic = make_pool(nonseq_alloc=True, buf_recycling=False,
                                           small_buffers=False, pool_buffers=64)
        bufs, _ = pool.alloc(host, [4096] * 8)
        addrs = [b.addr for b in bufs]
        assert addrs != sorted(addrs)

    def test_sequential_fill_when_disabled(self):
        _sys, pool, host, _nic = make_pool(nonseq_alloc=False, buf_recycling=False,
                                           small_buffers=False, pool_buffers=64)
        bufs, _ = pool.alloc(host, [4096] * 8)
        addrs = [b.addr for b in bufs]
        assert addrs == sorted(addrs)
        assert addrs[1] - addrs[0] == 4096


class TestBufferHandle:
    def test_payload_bounds(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096])
        buf = bufs[0]
        buf.set_payload(1500)
        assert buf.data_len == 1500
        with pytest.raises(PoolError):
            buf.set_payload(5000)
        with pytest.raises(PoolError):
            buf.set_payload(0)

    def test_segment_chain(self):
        _sys, pool, host, _nic = make_pool()
        bufs, _ = pool.alloc(host, [4096, 4096])
        head, tail = bufs
        head.set_payload(64)
        tail.set_payload(1000)
        head.chain(tail)
        assert [s.buf_id for s in head.segments()] == [head.buf_id, tail.buf_id]
        assert head.total_len == 1064
        third = Buffer(addr=0, capacity=128, external=True)
        third.set_payload(100)
        tail.chain(third)
        assert head.total_len == 1164
        assert tail.total_len == 1100

    def test_construction_validated(self):
        with pytest.raises(PoolError):
            Buffer(addr=0, capacity=0)
        with pytest.raises(PoolError):
            Buffer(addr=-64, capacity=128)
        with pytest.raises(PoolError):
            Buffer(0, -128, True)

    def test_dataclass_behaviour(self):
        assert [f.name for f in dataclasses.fields(Buffer)] == [
            "addr", "capacity", "small", "data_len", "external", "buf_id",
            "seg_next", "_allocated",
        ]
        a, b = Buffer(addr=0, capacity=64), Buffer(64, 64, True)
        assert b.buf_id == a.buf_id + 1
        assert (b.addr, b.capacity, b.small) == (64, 64, True)
        buf = Buffer(addr=128, capacity=64, data_len=10, buf_id=5)
        assert repr(buf) == (
            "Buffer(addr=128, capacity=64, small=False, data_len=10, "
            "external=False, buf_id=5, seg_next=None)"
        )
        assert buf == Buffer(addr=128, capacity=64, data_len=10, buf_id=5)
        assert buf != Buffer(addr=128, capacity=64, data_len=10, buf_id=6)
        assert buf != Buffer(
            addr=128, capacity=64, data_len=10, buf_id=5, _allocated=True
        )
        copy = dataclasses.replace(buf, data_len=20)
        assert (copy.buf_id, copy.addr, copy.data_len) == (5, 128, 20)
        with pytest.raises(PoolError):
            dataclasses.replace(buf, capacity=0)


class _EagerSharedList:
    """The shared list as an eager pool had it: every full-size handle
    built up front, then shuffled. With recycling and small buffers off,
    every allocation pops its front and every free appends to its back."""

    def __init__(self, pool, seed):
        config = pool.config
        buffers = [
            Buffer(addr=pool.region.base + i * config.buf_size, capacity=config.buf_size)
            for i in range(config.pool_buffers)
        ]
        if config.nonseq_alloc:
            make_rng(seed, "pool-fill").shuffle(buffers)
        self.shared = deque(buffers)
        self.exhausted = 0

    def alloc(self, count):
        out = []
        for _ in range(count):
            if not self.shared:
                self.exhausted += 1
                break
            out.append(self.shared.popleft())
        return out

    def free(self, bufs):
        self.shared.extend(bufs)


class TestLazyBuffers:
    def test_construction_builds_no_buffer(self, monkeypatch):
        built = []

        def counting_buffer(*args, **kwargs):
            built.append(kwargs["addr"])
            return Buffer(*args, **kwargs)

        monkeypatch.setattr(pool_module, "Buffer", counting_buffer)
        _sys, pool, host, _nic = make_pool(pool_buffers=2048, small_buffers=False)
        assert built == []
        assert pool.free_full_buffers == 2048
        bufs, _ = pool.alloc(host, [4096, 4096])
        assert built == [buf.addr for buf in bufs]

    @pytest.mark.parametrize("nonseq", [True, False])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_shared_list_matches_eager_construction(self, nonseq, seed):
        _sys, pool, host, nic = make_pool(
            seed=seed, pool_buffers=64, nonseq_alloc=nonseq,
            buf_recycling=False, small_buffers=False,
        )
        eager = _EagerSharedList(pool, seed)
        held, eager_held = [], []

        def check(got, want):
            assert [b.addr for b in got] == [b.addr for b in want]
            assert pool.free_full_buffers == len(eager.shared)
            assert pool.stats.get("exhausted") == eager.exhausted

        def alloc(agent, count):
            got, _ = pool.alloc(agent, [4096] * count)
            want = eager.alloc(count)
            check(got, want)
            held.extend(got)
            eager_held.extend(want)

        def free(agent, picks):
            for index in sorted(picks, reverse=True):
                buf, twin = held.pop(index), eager_held.pop(index)
                pool.free(agent, [buf])
                eager.free([twin])
                check([], [])

        alloc(host, 5)
        free(host, [3, 0])
        alloc(nic, 9)
        free(nic, [1, 4, 7, 10])
        # Exhaust the list: a partial allocation, then an empty one.
        alloc(host, 64)
        alloc(nic, 3)
        free(host, [0, 2, 5, 8, 13, 21, 34])
        alloc(host, 4)
        free(nic, range(len(held)))
        # Every buffer back: freed handles and the unbuilt rest come out
        # in the eager list's order.
        alloc(host, 70)
