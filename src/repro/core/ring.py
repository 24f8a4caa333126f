"""Descriptor rings over coherent memory.

A :class:`CoherentQueue` is one producer-consumer descriptor ring plus
its signaling mechanism. It is used four ways:

* CC-NIC TX (host produces, NIC consumes; host-homed ring),
* CC-NIC RX (NIC produces, host consumes; NIC-homed ring),
* the unoptimized-UPI baseline's TX/RX rings (E810 layout: packed 16B
  descriptors, separate head/tail register lines, host-homed).

All timing comes from coherence-fabric accesses issued on behalf of the
calling agent; the ring itself stores only logical contents. The layouts
and signaling modes reproduce the paper's Fig 14:

* **OPT** (inline signals): groups of up to four 16B descriptors share a
  cache line with one inlined signal. Partial groups are zero-padded and
  the consumer skips the blanks (the paper's blank-skip rule), so every
  line is written exactly once by the producer, read once and cleared
  once by the consumer.
* **PACK** (inline signals): 16B descriptors individually signalled;
  producer and consumer interleave on the same line and it thrashes.
* **PAD** (inline signals): one descriptor per line; no thrash, but 4x
  the metadata footprint and no per-line batching amortization.
* **Register signaling** (any layout): descriptors carry no signal; the
  producer publishes a tail register line, the consumer polls it and
  publishes a head register after consuming. Two extra shared lines,
  each bouncing between the sockets (Fig 6a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.coherence.cache import CacheAgent
from repro.core.config import DescLayout
from repro.errors import NicError
from repro.obs.instrument import Instrumented
from repro.platform.system import System

#: Sentinel marking zero-padded slots under the blank-skip rule.
_SKIPPED = object()

#: Descriptor size in bytes (8B address + 8B packed metadata, §2.1).
DESC_BYTES = 16

#: Descriptors per cache line for the grouped layout.
GROUP = 4


@dataclass(slots=True)
class WorkItem:
    """One descriptor's logical content.

    ``visible_at`` is stamped by the producer: the virtual time at which
    the descriptor's store has actually retired (the producer yields its
    accumulated cost *after* calling produce, so consumers must not see
    the item earlier).
    """

    buf: Any          # Buffer (or head of a segment chain for multi-seg TX)
    length: int       # payload bytes
    pkt: Any          # opaque packet handle carried through the queue
    seq: int = 0
    visible_at: float = 0.0
    trace: Any = None  # flight-recorder packet id riding the descriptor


#: :attr:`WorkItem.pkt` of the continuation descriptors of a
#: multi-segment TX packet; the head descriptor carries the packet.
CONTINUATION = "cont"


# Overlap accounting for independent line operations in one call: the
# first operation pays full latency; subsequent independent line
# operations issued back-to-back by the same core overlap in its fill
# buffers and pay ``cost / mlp`` (mirroring
# :meth:`~repro.coherence.fabric.CoherenceFabric.access_burst`). The
# producer/consumer loops below track this with two locals (``first``,
# ``mlp``) rather than a meter object — produce/poll run once per
# simulated burst, so the allocation showed up in profiles.


class CoherentQueue(Instrumented):
    """One descriptor ring between a producer and a consumer agent."""

    #: Cycles of core work to build or parse one descriptor.
    CYCLES_PER_DESC = 12

    #: Optional :class:`repro.check.sanitizer.Sanitizer`. Class-level
    #: ``None`` keeps detached runs at one attribute load per call.
    sanitizer = None

    _obs_hooks = ("sanitizer",)

    def __init__(
        self,
        system: System,
        name: str,
        layout: DescLayout,
        inline_signals: bool,
        slots: int,
        home_socket: int,
        reg_home_socket: Optional[int] = None,
    ) -> None:
        if slots < GROUP or slots % GROUP:
            raise NicError(f"queue {name!r}: slots must be a multiple of {GROUP}")
        self.system = system
        self.name = name
        self.layout = layout
        self.inline_signals = inline_signals
        self.n_slots = slots
        bytes_per_slot = 64 if layout is DescLayout.PAD else DESC_BYTES
        self.region = system.alloc_on(f"{name}_ring", slots * bytes_per_slot, home_socket)
        self._bytes_per_slot = bytes_per_slot
        reg_home = home_socket if reg_home_socket is None else reg_home_socket
        if inline_signals:
            self.tail_reg = None
            self.head_reg = None
        else:
            self.tail_reg = system.alloc_on(f"{name}_tailreg", 64, reg_home)
            self.head_reg = system.alloc_on(f"{name}_headreg", 64, reg_home)
        self._slots: List[Optional[Any]] = [None] * slots
        self.tail = 0           # producer position (monotonic slot count)
        self.head = 0           # consumer position (monotonic slot count)
        self.tail_value = 0     # register-mode published tail
        self.head_value = 0     # register-mode published head
        self._producer_head_cache = 0  # producer's last-read head register
        self._tail_visible_at = 0.0    # when the published tail retires
        self.produced = 0
        self.consumed = 0
        # Hot-path constants: cycles() is pure in its argument, so the
        # per-descriptor charges are precomputed. The grouped table holds
        # cycles(CYCLES_PER_DESC * k) exactly as produce() charges a
        # k-descriptor group (NOT k * cycles(CYCLES_PER_DESC), which can
        # differ in floating point).
        self._cycles_desc = system.cycles(self.CYCLES_PER_DESC)
        self._cycles_group = tuple(
            system.cycles(self.CYCLES_PER_DESC * k) for k in range(GROUP + 1)
        )
        # The signalling protocol is fixed at construction, so the poll
        # strategy is chosen once instead of re-dispatching per call. It
        # is kept as the class's function, not a bound method, which
        # would make the queue reference itself.
        self._grouped = inline_signals and layout is DescLayout.OPT
        cls = type(self)
        self._poll_impl = (
            cls._poll_grouped if self._grouped
            else cls._poll_per_descriptor if inline_signals
            else cls._poll_register
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return f"queue.{self.name}"

    def _register_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "produced", fn=lambda: float(self.produced))
        registry.gauge(self.obs_name, "consumed", fn=lambda: float(self.consumed))
        registry.gauge(self.obs_name, "depth", fn=lambda: float(self.tail - self.head))

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def slot_addr(self, index: int) -> int:
        """Byte address of slot ``index`` (indices are monotonic)."""
        return self.region.base + (index % self.n_slots) * self._bytes_per_slot

    def line_addr(self, index: int) -> int:
        """Cache-line base address containing slot ``index``."""
        addr = self.slot_addr(index)
        return addr - (addr % 64)

    def space(self) -> int:
        """Free slots from the producer's perspective."""
        if self.inline_signals:
            return self.n_slots - (self.tail - self.head)
        return self.n_slots - (self.tail - self._producer_head_cache)

    @property
    def grouped(self) -> bool:
        """True when the OPT grouped-line protocol applies."""
        return self._grouped

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def produce(
        self,
        agent: CacheAgent,
        items: List[WorkItem],
        base_ns: float = 0.0,
        bounds: Optional[List[int]] = None,
    ) -> Tuple[int, float]:
        """Write descriptors for ``items``; returns (accepted, ns).

        ``base_ns`` is time the producer has already accumulated in the
        current simulation step before calling produce; item visibility
        is stamped relative to it so earlier work (payload writes,
        allocation) delays when consumers can observe the descriptors.

        ``bounds`` marks atomic packet boundaries (item counts after
        each whole packet): a multi-segment packet's descriptors are
        either all accepted or none, never split across a full ring.
        """
        fabric = self.system.fabric
        ns = 0.0
        accepted = 0
        if not self.inline_signals and self.space() < len(items):
            # E810-style drivers refresh their cached head copy when the
            # ring looks full.
            ns += fabric.read(agent, self.head_reg.base, 8)
            self._producer_head_cache = self.head_value
        if bounds:
            # Nothing below moves the head or the tail before the cut.
            space = self.space()
            limit = 0
            for bound in bounds:
                if bound <= space:
                    limit = bound
            items = items[:limit]
        mlp = fabric.mlp
        first = True
        now = self.system.sim.now
        san = self.sanitizer
        if self._grouped:
            # Invariant: tail is always group-aligned; each produce call
            # writes whole lines, zero-padding partial groups. Alignment
            # also means a group never wraps, so one modulo per group
            # suffices and the line address is computed inline.
            slots = self._slots
            n_slots = self.n_slots
            cycles_group = self._cycles_group
            region_base = self.region.base
            bps = self._bytes_per_slot
            count = len(items)
            while accepted < count and n_slots - (self.tail - self.head) >= GROUP:
                group = items[accepted:accepted + GROUP]
                size = len(group)
                base = self.tail
                i0 = base % n_slots
                slots[i0:i0 + size] = group
                if size < GROUP:
                    for index in range(i0 + size, i0 + GROUP):
                        slots[index] = _SKIPPED
                self.tail = base + GROUP
                addr = region_base + i0 * bps
                cost = fabric.access(agent, addr - (addr % 64), 64, True)
                if first:
                    first = False
                    ns += cost
                else:
                    ns += cost / mlp
                ns += cycles_group[size]
                visible = now + base_ns + ns
                for item in group:
                    item.visible_at = visible
                if san is not None:
                    san.group_publish(self, agent, base, group, visible)
                accepted += size
        else:
            cycles_desc = self._cycles_desc
            remaining = list(items)
            while remaining and self.space() > 0:
                item = remaining.pop(0)
                self._slots[self.tail % self.n_slots] = item
                cost = fabric.write(agent, self.slot_addr(self.tail), self._bytes_per_slot)
                if first:
                    first = False
                    ns += cost
                else:
                    ns += cost / mlp
                ns += cycles_desc
                item.visible_at = now + base_ns + ns
                if san is not None:
                    san.slot_publish(self, agent, self.tail, item, item.visible_at)
                self.tail += 1
                accepted += 1
        if accepted and not self.inline_signals:
            self.tail_value = self.tail
            ns += fabric.write(agent, self.tail_reg.base, 8)
            self._tail_visible_at = self.system.sim.now + base_ns + ns
            if san is not None:
                san.signal_publish(self, agent, self.tail_value, self._tail_visible_at)
        self.produced += accepted
        return accepted, ns

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def poll(self, agent: CacheAgent, max_items: int) -> Tuple[List[WorkItem], float]:
        """Consume up to ``max_items`` descriptors; returns (items, ns).

        An empty poll still pays for reading the signal (the next ring
        line for inlined signals, the tail register otherwise); repeated
        empty polls hit the consumer's own cache until the producer's
        next write invalidates the copy — the coherence protocol *is*
        the signal (§3.2). Grouped polls consume whole lines, so up to
        three extra descriptors beyond ``max_items`` may be returned;
        callers treat the group as the batching granule, as the paper
        does.
        """
        if max_items <= 0:
            raise NicError("max_items must be positive")
        items, ns = self._poll_impl(self, agent, max_items)
        self.consumed += len(items)
        return items, ns

    def poll_addr(self) -> int:
        """The address an empty poll reads: the head slot's line for
        inlined signals, the tail register otherwise."""
        if self.inline_signals:
            return self.line_addr(self.head)
        return self.tail_reg.base

    def idle_wake(self) -> float:
        """When an empty poll could next find a descriptor unaided.

        ``inf`` while the head slot is unproduced: only the producer's
        store, a step of another process, changes that. Once it is
        produced but the store has not retired, the slot's
        ``visible_at``. That is exact for grouped polls (a group's first
        slot is never a blank) and per-descriptor polls, which both test
        the head slot's ``visible_at``. It is conservative for register
        polls, which wait for the tail register's store, written after
        the slot's in the same produce and so retired no earlier. An
        empty poll's signal read of its own copy of the line changes
        nothing but hit counters, so until this instant (and the
        producer's next step) every repeat of it is the same poll.
        """
        entry = self._slots[self.head % self.n_slots]
        if entry is None:
            return math.inf
        return entry.visible_at

    def _poll_register(self, agent: CacheAgent, max_items: int) -> Tuple[List[WorkItem], float]:
        fabric = self.system.fabric
        sim = self.system.sim
        ns = fabric.read(agent, self.tail_reg.base, 8)
        out: List[WorkItem] = []
        if sim.now < self._tail_visible_at:
            return out, ns  # the producer's tail store has not retired
        available = self.tail_value - self.head
        if available <= 0:
            return out, ns
        take = min(available, max_items)
        mlp = fabric.mlp
        first = True
        cycles_desc = self._cycles_desc
        san = self.sanitizer
        if san is not None:
            san.signal_observe(self, agent, "tail", sim.now)
        while len(out) < take:
            index = self.head % self.n_slots
            item = self._slots[index]
            if item is None:
                raise NicError(f"queue {self.name!r}: hole under the tail register")
            cost = fabric.read(agent, self.slot_addr(self.head), self._bytes_per_slot)
            if first:
                first = False
                ns += cost
            else:
                ns += cost / mlp
            ns += cycles_desc
            if san is not None:
                san.slot_consume(self, agent, self.head, item, sim.now, True)
            self._slots[index] = None
            out.append(item)
            self.head += 1
        self.head_value = self.head
        ns += fabric.write(agent, self.head_reg.base, 8)
        return out, ns

    def _poll_grouped(self, agent: CacheAgent, max_items: int) -> Tuple[List[WorkItem], float]:
        fabric = self.system.fabric
        now = self.system.sim.now
        slots = self._slots
        n_slots = self.n_slots
        region_base = self.region.base
        bps = self._bytes_per_slot
        base = self.head  # group-aligned, so the group never wraps
        i0 = base % n_slots
        addr = region_base + i0 * bps
        line = addr - (addr % 64)
        # The signal read. An empty poll ends here: it pays this one
        # access (a hit on the consumer's own copy until the producer's
        # store invalidates it) and skips the consume-loop set-up.
        ns = fabric.access(agent, line, 64, False)
        first_slot = slots[i0]
        if first_slot is None:
            return [], ns  # unproduced line: this read was the (cheap) signal poll
        # Slots only ever hold WorkItem, _SKIPPED, or None (handled
        # above), so a sentinel identity test replaces isinstance.
        if first_slot is not _SKIPPED and first_slot.visible_at > now:
            return [], ns  # written, but the store has not retired yet
        out: List[WorkItem] = []
        mlp = fabric.mlp
        cycles_desc = self._cycles_desc
        append = out.append
        san = self.sanitizer
        while True:
            if san is not None:
                san.signal_observe(self, agent, base, now)
            for index in (i0, i0 + 1, i0 + 2, i0 + 3):
                entry = slots[index]
                slots[index] = None
                if entry is not _SKIPPED and entry is not None:
                    if san is not None:
                        san.slot_consume(self, agent, base + index - i0, entry, now, True)
                    append(entry)
                    ns += cycles_desc
                elif san is not None:
                    san.slot_consume(
                        self, agent, base + index - i0, None, now, False,
                        blank=entry is _SKIPPED,
                    )
            # Clearing the line is the completion signal back to the
            # producer (Fig 6b): one write frees the group for reuse.
            cost = fabric.access(agent, line, 64, True)
            ns += cost / mlp
            self.head = base = base + GROUP
            if len(out) >= max_items:
                break
            i0 = base % n_slots
            addr = region_base + i0 * bps
            line = addr - (addr % 64)
            cost = fabric.access(agent, line, 64, False)
            ns += cost / mlp
            first_slot = slots[i0]
            if first_slot is None or (
                first_slot is not _SKIPPED and first_slot.visible_at > now
            ):
                break  # the next line is unproduced or not yet retired
        return out, ns

    def _poll_per_descriptor(self, agent: CacheAgent, max_items: int) -> Tuple[List[WorkItem], float]:
        fabric = self.system.fabric
        ns = 0.0
        out: List[WorkItem] = []
        mlp = fabric.mlp
        first = True
        now = self.system.sim.now
        cycles_desc = self._cycles_desc
        san = self.sanitizer
        while len(out) < max_items:
            index = self.head % self.n_slots
            item = self._slots[index]
            cost = fabric.read(agent, self.slot_addr(self.head), self._bytes_per_slot)
            if first:
                first = False
                ns += cost
            else:
                ns += cost / mlp
            if item is None:
                break
            if item.visible_at > now:
                break
            cost = fabric.write(agent, self.slot_addr(self.head), self._bytes_per_slot)
            ns += cost / mlp
            ns += cycles_desc
            if san is not None:
                san.signal_observe(self, agent, self.head, now)
                san.slot_consume(self, agent, self.head, item, now, True)
            self._slots[index] = None
            out.append(item)
            self.head += 1
        return out, ns

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def reinitialize(self) -> List[WorkItem]:
        """Drop all unconsumed descriptors; return them for reclamation.

        Used by the driver watchdog after a NIC reset: in-flight
        descriptors are abandoned and their buffers must be freed by the
        caller. Positions advance to ``head = tail`` (rather than
        rewinding to zero) so the grouped layout's alignment invariant
        and the monotonic-position convention both survive.
        """
        abandoned: List[WorkItem] = []
        for index in range(self.head, self.tail):
            entry = self._slots[index % self.n_slots]
            if isinstance(entry, WorkItem):
                abandoned.append(entry)
        self._slots = [None] * self.n_slots
        self.head = self.tail
        self.head_value = self.head
        self.tail_value = self.tail
        self._producer_head_cache = self.head
        self._tail_visible_at = 0.0
        if self.sanitizer is not None:
            self.sanitizer.queue_reset(self)
        return abandoned

    def __repr__(self) -> str:
        return (
            f"<CoherentQueue {self.name!r} {self.layout.value} "
            f"inline={self.inline_signals} head={self.head} tail={self.tail}>"
        )
