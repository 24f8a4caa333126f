"""The shared packet-buffer pool with CC-NIC's allocation optimizations.

The pool owns one host-homed region of MTU-sized (4KB) buffers. Three of
the paper's design features live here:

* **Shared management** (§3.4): both host and NIC agents allocate and
  free directly; the pool's index lines are coherent shared memory, so
  every spill to the shared structure costs modelled accesses (and
  produces the contention the paper measures when sharing is disabled).
* **Recycling stacks** (§3.3): per-side LIFO stacks of recently freed
  buffers. A buffer freed by the NIC after TX was just read by the NIC
  (HitM pulled it into the NIC cache), so reusing it for an RX write
  hits cache instead of invalidating a remote copy. Symmetrically for
  the host with RX buffers reused for TX.
* **Small-buffer subdivision** (§3.3): 4KB buffers split into 32x128B
  buffers for small packets, shrinking the interface's cache footprint.
* **Non-sequential fill** (§3.3): the initial free list is shuffled so
  consecutive allocations do not touch adjacent lines, defeating the
  remote prefetcher's contention with producer writes.

The shared list starts as buffer *addresses*; a :class:`Buffer` handle
is built only when the list first hands its address out. A shard uses a
few dozen of its 2,048 buffers, so building every handle up front would
be most of the pool's set-up cost for nothing. Freed buffers go back on
the list as handles, so the address sequence the list hands out is the
one an eagerly built list would give.

Disabling a feature reverts to PCIe-like behaviour: FIFO reuse through
the shared structure (maximally cache-cold), one 4KB buffer per packet,
host-only management.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Union

from repro.coherence.cache import CacheAgent
from repro.core.buffers import Buffer
from repro.core.config import CcnicConfig
from repro.errors import PoolError
from repro.obs.instrument import Instrumented
from repro.platform.system import System
from repro.sim.rng import make_rng
from repro.sim.stats import Counter


class BufferPool(Instrumented):
    """Shared pool of packet buffers over a simulated memory region.

    Each full-size buffer's handle is built on its first allocation
    from the shared list; until then the list holds its address.
    """

    #: Cycles of core work per buffer handled in an alloc/free batch.
    CYCLES_PER_BUF = 8
    #: Cycles for the local recycling-stack fast path, per buffer.
    CYCLES_STACK = 4

    #: Optional :class:`repro.check.sanitizer.Sanitizer`. Class-level
    #: ``None`` keeps detached runs at one attribute load per call.
    sanitizer = None

    _obs_hooks = ("sanitizer",)

    def __init__(self, system: System, config: CcnicConfig, seed: int = 0) -> None:
        self.system = system
        self.config = config
        self.region = system.alloc_host(
            "pool", config.pool_buffers * config.buf_size
        )
        # Shared metadata: a free-list ring of 8B buffer pointers plus a
        # head/tail index line. Touched only on the shared (slow) path.
        self.meta = system.alloc_host("pool_meta", 64 + config.pool_buffers * 8)
        self._index_addr = self.meta.base
        self._entries_base = self.meta.base + 64
        self._head = 0  # shared-ring cursor for cost modelling

        # Addresses until first allocated (_alloc_one builds the handle).
        # The shuffle's draws depend only on the list's length, so the
        # fill order is the one shuffling handles gave.
        addrs = [
            self.region.base + i * config.buf_size for i in range(config.pool_buffers)
        ]
        if config.nonseq_alloc:
            make_rng(seed, "pool-fill").shuffle(addrs)
        self._shared: Deque[Union[int, Buffer]] = deque(addrs)
        self._shared_small: Deque[Buffer] = deque()
        # Per-side recycling stacks, keyed by agent name.
        self._stacks: Dict[str, List[Buffer]] = {}
        self._small_stacks: Dict[str, List[Buffer]] = {}
        self.stats = Counter()
        # Hot-path counter cells, refetched when the bag is reset (its
        # epoch changes); see _cells_live().
        self._cells_epoch = -1
        self._refresh_cells()
        # Per-buffer work charges, precomputed (cycles() is pure).
        self._cycles_buf = system.cycles(self.CYCLES_PER_BUF)
        self._cycles_stack = system.cycles(self.CYCLES_STACK)

    # ------------------------------------------------------------------
    # Hot-path counter cells
    # ------------------------------------------------------------------
    def _refresh_cells(self) -> None:
        stats = self.stats
        self._c_alloc_ops = stats.cell("alloc_ops")
        self._c_alloc_bufs = stats.cell("alloc_bufs")
        self._c_free_ops = stats.cell("free_ops")
        self._c_free_bufs = stats.cell("free_bufs")
        self._c_stack_alloc = stats.cell("stack_alloc")
        self._c_stack_free = stats.cell("stack_free")
        self._c_shared_alloc = stats.cell("shared_alloc")
        self._c_shared_free = stats.cell("shared_free")
        self._cells_epoch = stats.epoch

    def _cells_live(self) -> None:
        """Revalidate cached cells after a Counter.reset() (epoch bump)."""
        if self.stats.epoch != self._cells_epoch:
            self._refresh_cells()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return "pool"

    def _register_metrics(self, registry) -> None:
        registry.adopt_counters(self.obs_name, self.stats)
        registry.gauge(
            self.obs_name, "free_full_buffers", fn=lambda: float(len(self._shared))
        )
        registry.gauge(
            self.obs_name,
            "free_small_buffers",
            fn=lambda: float(len(self._shared_small)),
        )

    # ------------------------------------------------------------------
    # Public API (Fig 5 semantics: costs returned, never raised mid-op)
    # ------------------------------------------------------------------
    def alloc(
        self,
        agent: CacheAgent,
        sizes: Sequence[int],
    ) -> tuple:
        """Allocate one buffer per requested payload size.

        Small sizes get 128B subdivided buffers when the feature is on.
        Returns ``(buffers, ns)``; fewer buffers than requested indicates
        pool exhaustion (mirroring DPDK's partial alloc semantics).
        """
        config = self.config
        out: List[Buffer] = []
        ns = 0.0
        if self.stats.epoch != self._cells_epoch:
            self._refresh_cells()
        recycling = config.buf_recycling
        small_on = config.small_buffers
        small_threshold = config.small_threshold
        stacks = self._stacks
        small_stacks = self._small_stacks
        name = agent.name
        cycles_stack = self._cycles_stack
        c_stack_alloc = self._c_stack_alloc
        for size in sizes:
            if size <= 0:
                raise PoolError(f"cannot allocate for payload of {size}B")
            want_small = small_on and size <= small_threshold
            # Recycling-stack hit inlined (the steady-state path);
            # anything else goes through _alloc_one.
            buf = None
            if recycling:
                stack = (small_stacks if want_small else stacks).get(name)
                if stack:
                    c_stack_alloc[0] += 1.0
                    buf = stack.pop()
                    ns += cycles_stack
            if buf is None:
                buf, cost = self._alloc_one(agent, want_small)
                ns += cost
                if buf is None:
                    break
            buf._allocated = True
            buf.data_len = 0
            buf.seg_next = None
            out.append(buf)
        self._c_alloc_ops[0] += 1.0
        self._c_alloc_bufs[0] += len(out)
        san = self.sanitizer
        if san is not None and out:
            san.pool_alloc(self, agent, out)
        return out, ns

    def free(self, agent: CacheAgent, bufs: Sequence[Buffer]) -> float:
        """Return buffers to the pool; returns the ns cost."""
        ns = 0.0
        if self.stats.epoch != self._cells_epoch:
            self._refresh_cells()
        recycling = self.config.buf_recycling
        recycle_max = self.config.recycle_stack_max
        stacks = self._stacks
        small_stacks = self._small_stacks
        name = agent.name
        cycles_stack = self._cycles_stack
        c_stack_free = self._c_stack_free
        san = self.sanitizer
        for buf in bufs:
            if san is not None:
                # Before the state flip, so double frees are recorded
                # even though the pool then raises.
                san.pool_free(self, agent, buf)
            if not buf._allocated:
                raise PoolError(f"double free of buffer {buf.buf_id}")
            buf._allocated = False
            buf.seg_next = None
            # Recycling-stack push inlined (the steady-state path);
            # stack-full and non-recycling frees go through _free_one.
            if recycling:
                table = small_stacks if buf.small else stacks
                stack = table.get(name)
                if stack is None:
                    stack = table[name] = []
                if len(stack) < recycle_max:
                    stack.append(buf)
                    c_stack_free[0] += 1.0
                    ns += cycles_stack
                    continue
            ns += self._free_one(agent, buf)
        self._c_free_ops[0] += 1.0
        self._c_free_bufs[0] += len(bufs)
        return ns

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stack_for(self, agent: CacheAgent, small: bool) -> List[Buffer]:
        table = self._small_stacks if small else self._stacks
        stack = table.get(agent.name)
        if stack is None:
            stack = table[agent.name] = []
        return stack

    def _alloc_one(self, agent: CacheAgent, want_small: bool) -> tuple:
        config = self.config
        cycles = self._cycles_buf
        if config.buf_recycling:
            stack = self._stack_for(agent, want_small)
            if stack:
                self._c_stack_alloc[0] += 1.0
                return stack.pop(), self._cycles_stack
        if want_small:
            if self._shared_small:
                return self._shared_small.popleft(), cycles + self._shared_access(
                    agent, 1, write=False
                )
            parent, cost = self._alloc_one(agent, want_small=False)
            if parent is None:
                return None, cost
            smalls = self._subdivide(parent)
            keep = smalls.pop()
            if config.buf_recycling:
                self._stack_for(agent, small=True).extend(smalls)
            else:
                self._shared_small.extend(smalls)
            self.stats.add("subdivisions")
            return keep, cost + cycles
        if not self._shared:
            self.stats.add("exhausted")
            return None, cycles
        self._c_shared_alloc[0] += 1.0
        buf = self._shared.popleft()
        if type(buf) is int:
            buf = Buffer(addr=buf, capacity=config.buf_size)
        return buf, cycles + self._shared_access(agent, 1, write=False)

    def _free_one(self, agent: CacheAgent, buf: Buffer) -> float:
        config = self.config
        if config.buf_recycling:
            stack = self._stack_for(agent, buf.small)
            if len(stack) < config.recycle_stack_max:
                stack.append(buf)
                self._c_stack_free[0] += 1.0
                return self._cycles_stack
        target = self._shared_small if buf.small else self._shared
        target.append(buf)
        self._c_shared_free[0] += 1.0
        return self._cycles_buf + self._shared_access(agent, 1, write=True)

    def _subdivide(self, parent: Buffer) -> List[Buffer]:
        """Split a 4KB buffer into 128B small buffers."""
        config = self.config
        count = config.buf_size // config.small_buf_size
        return [
            Buffer(
                addr=parent.addr + i * config.small_buf_size,
                capacity=config.small_buf_size,
                small=True,
            )
            for i in range(count)
        ]

    def _shared_access(self, agent: CacheAgent, count: int, write: bool) -> float:
        """Model touching the shared free-list: index line + entries."""
        fabric = self.system.fabric
        ns = fabric.write(agent, self._index_addr, 8)  # atomic cursor update
        entries = self._entries_base + (self._head % self.config.pool_buffers) * 8
        span = min(count * 8, self.config.pool_buffers * 8 - (self._head % self.config.pool_buffers) * 8)
        ns += fabric.access(agent, entries, max(8, span), write=write)
        self._head += count
        return ns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stack_depth(self, agent: CacheAgent, small: bool = False) -> int:
        """Current recycling-stack depth for an agent."""
        table = self._small_stacks if small else self._stacks
        return len(table.get(agent.name, ()))

    @property
    def free_full_buffers(self) -> int:
        """Full-size buffers available on the shared list."""
        return len(self._shared)

    def __repr__(self) -> str:
        return (
            f"<BufferPool {self.config.pool_buffers}x{self.config.buf_size}B "
            f"shared={len(self._shared)} smalls={len(self._shared_small)}>"
        )
