"""The coherence protocol engine.

:class:`CoherenceFabric` owns the global view of every cache line: which
agents hold it and in what state. All modelled loads and stores to
write-back memory flow through :meth:`access`, which

* resolves where the data currently lives (own cache, a same-socket
  cache, a remote cache, local or remote DRAM),
* charges the calibrated zero-load latency for that case plus any
  congestion-induced queueing delay on the inter-socket link,
* performs the MESIF state transitions (HitM dirty-ownership transfer,
  downgrades, invalidations, writebacks on eviction),
* counts interconnect transactions per socket (the model of the offcore
  response PMU counters the paper measures in Fig 17), and
* drives the hardware-prefetcher model.

Two timing behaviours are essential to reproducing the paper:

**HitM transfers.** A load that snoops a Modified line in another cache
receives the dirty data *and ownership*; the previous owner is
invalidated. A consumer that reads a producer's fresh line can therefore
clear or overwrite it afterwards without a second interconnect round
trip — this is exactly the two-way single-line communication CC-NIC's
inlined signals exploit (Fig 6b), and it is what makes the measured
remote-request counts drop from 4 to 2 per pingpong (§3.2).

**Store pipelining.** Stores retire into the store buffer, so a writer
is not stalled for the full remote-invalidation round trip; the fabric
charges ``miss_latency / write_pipeline`` to the writer while the state
change (and the reader-visible invalidation) happens immediately.

Multi-line accesses model memory-level parallelism: the first line pays
full latency, subsequent lines overlap and pay ``latency / mlp``.

**Transition plans.** Accesses memoize *transition plans* — the
resolved cost constant, precomputed link message rows and counter cells
for one ``(operation, line situation, homing, requester socket)``
combination — so steady-state transitions skip all cost recomputation,
message-size resolution and counter-name formatting. Plans are
invalidated when the cost model is swapped, the link is rescaled, or
the counter bag is reset. An attached fault injector keeps the plans:
each remote plan draws its snoop fault right after charging its link
messages (which draw their link faults inside
:meth:`Link.occupy_pair`). The flight recorder and the sanitizer,
attached through an :class:`~repro.obs.Observability` bundle, observe
the same path: line events, drops and speculative-read checks fire
inside it, and no hook changes which code runs. The declarative MESIF
spec in :mod:`repro.check.model` (``check --model``) and the pinned
scenario fingerprints are the oracles for this one path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence.cache import CacheAgent
from repro.coherence.costs import CostModel
from repro.coherence.state import LineState
from repro.errors import CoherenceError
from repro.interconnect.link import Link
from repro.interconnect.messages import MessageClass
from repro.mem.address import CACHE_LINE_SIZE, lines_spanned
from repro.mem.region import Region
from repro.mem.space import AddressSpace
from repro.obs.instrument import Instrumented
from repro.sim.engine import Simulator
from repro.sim.stats import Counter

#: Default memory-level parallelism for overlapped line streaming.
DEFAULT_MLP = 10.0

#: Default store-buffer pipelining factor for write misses.
DEFAULT_WRITE_PIPELINE = 2.0

# Module-level aliases: enum attribute loads are surprisingly costly on
# the per-line path, and identity comparison against these is exact.
_MODIFIED = LineState.MODIFIED
_EXCLUSIVE = LineState.EXCLUSIVE
_SHARED = LineState.SHARED
_FORWARD = LineState.FORWARD

#: Largest constant stride (in lines) the prefetcher recognizes; module
#: level so the inlined trigger in access()/access_burst() reads a
#: global rather than a class attribute.
_MAX_PREFETCH_STRIDE = 4

# Plan-key packing (small ints hash fastest). Bits: situation code in the
# high bits, then write, homing, requester socket.
_PLAN_DRAM = 0       # + write*2 + socket            -> 0..3
_PLAN_REMOTE = 8     # + write*4 + home_local*2 + socket -> 8..15
_PLAN_UPGRADE = 16   # + socket                      -> 16..17
_PLAN_PREFETCH = 24  # + remote*2 + socket           -> 24..27


class CoherenceFabric(Instrumented):
    """Global MESIF directory plus latency/bandwidth charging.

    Args:
        sim: Simulator supplying virtual time for link queueing.
        space: Address space used to find each line's region (homing).
        cost: Calibrated zero-load latency model.
        link: Inter-socket coherent link (UPI). Direction convention:
            messages *from* socket ``s`` travel on direction ``s``.
        mlp: Memory-level parallelism for multi-line streaming accesses.
        write_pipeline: Store-buffer overlap factor for write misses.
    """

    #: Optional :class:`repro.faults.FaultInjector`. Class-level None so
    #: fault-free runs skip the snoop hooks entirely.
    faults = None

    #: Optional :class:`repro.obs.flight.FlightRecorder`. Class-level
    #: None so detached runs pay one ``None`` test per access.
    flight = None

    #: Optional :class:`repro.check.sanitizer.Sanitizer`; checks every
    #: reader-homed remote-cache fetch. Class-level None.
    sanitizer = None

    _obs_hooks = ("flight", "sanitizer")

    def __init__(
        self,
        sim: Simulator,
        space: AddressSpace,
        cost: CostModel,
        link: Link,
        mlp: float = DEFAULT_MLP,
        write_pipeline: float = DEFAULT_WRITE_PIPELINE,
    ) -> None:
        if mlp < 1.0:
            raise CoherenceError(f"mlp must be >= 1, got {mlp}")
        if write_pipeline < 1.0:
            raise CoherenceError(f"write_pipeline must be >= 1, got {write_pipeline}")
        self.sim = sim
        self.space = space
        self.link = link
        self.mlp = mlp
        self.write_pipeline = write_pipeline
        self.counters = Counter()
        self._holders: Dict[int, List[CacheAgent]] = {}
        self._agents: List[CacheAgent] = []
        # Local time already elapsed inside the current access/burst; the
        # link uses it so a burst's own messages do not self-contend.
        self._elapsed = 0.0
        # Congestion waits accumulated by the current line access. They
        # are serialization-bound, so the MLP/store-pipelining divisions
        # that apply to latency must not shrink them.
        self._pending_queue = 0.0
        # Plans memoize resolved cost sequences; the line->region cache
        # is safe because regions are append-only.
        self._plans: Dict[int, tuple] = {}
        self._plans_epoch = self.counters.epoch
        self._line_regions: Dict[int, Region] = {}
        self.cost = cost  # property setter caches the hot cost constants
        # One fabric owns the coherent link's serialization figures.
        link.on_scaled = self.invalidate_plans

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _obs_component(self) -> str:
        return "fabric"

    def _register_metrics(self, registry) -> None:
        # The registry's "fabric" section mirrors snapshot_counters()
        # exactly: the counter bag is adopted, not copied, so the hot
        # path keeps its plain dict increments.
        registry.adopt_counters(self.obs_name, self.counters)

    def _instrument_children(self, obs) -> None:
        # Cache agents report protocol-driven line losses to the recorder.
        for agent in self._agents:
            agent.flight = obs.flight

    # ------------------------------------------------------------------
    # Agent management
    # ------------------------------------------------------------------
    def register(self, agent: CacheAgent) -> CacheAgent:
        """Attach an agent to the fabric."""
        self._agents.append(agent)
        return agent

    def new_agent(
        self,
        name: str,
        socket: int,
        capacity_lines: int = 32768,
        prefetch: bool = False,
    ) -> CacheAgent:
        """Create and register a new caching agent."""
        return self.register(CacheAgent(name, socket, capacity_lines, prefetch))

    @property
    def agents(self) -> List[CacheAgent]:
        return list(self._agents)

    def _now(self) -> float:
        return self.sim.now + self._elapsed

    # ------------------------------------------------------------------
    # Cost-model plumbing and plan memoization
    # ------------------------------------------------------------------
    @property
    def cost(self) -> CostModel:
        return self._cost

    @cost.setter
    def cost(self, model: CostModel) -> None:
        """Swap the cost model; caches hot constants, drops stale plans."""
        self._cost = model
        self._l2_hit = model.l2_hit
        self._store_buffer = model.store_buffer
        self._local_invalidate = model.local_invalidate
        self._local_cache = model.local_cache
        self._local_dram = model.local_dram
        self._plans.clear()

    def invalidate_plans(self) -> None:
        """Drop memoized transition plans (link/cost configuration changed)."""
        self._plans.clear()

    def _msg_row(self, cls: MessageClass, direction: int, charge: bool = True) -> tuple:
        """Precomputed half of a :meth:`Link.occupy_pair` plan.

        Embeds the direction's live ``busy`` cell and the message
        shape's count cell; a row is built when its message is first
        sent, which fixes the order per-class totals appear in. Two rows
        concatenate into one flat 14-field plan.
        """
        link = self.link
        payload = cls.payload_bytes(0)
        wire = int((payload + link.header_overhead) * 1.0)
        ser = wire / link.bandwidth
        st = link.stats[direction]
        return (direction, cls, wire, ser, charge,
                st.busy, st.shape_cell(cls, payload, wire))

    def _build_dram_plan(self, write: bool, socket: int) -> tuple:
        """Remote-homed DRAM fill: snoop out, data-class back."""
        cls = MessageClass.RFO if write else MessageClass.READ
        msgs = (
            self._msg_row(MessageClass.SNOOP, socket)
            + self._msg_row(cls, 1 - socket)
        )
        cell = self.counters.cell(f"s{socket}.rfo" if write else f"s{socket}.read")
        return (self._cost.remote_dram, msgs, cell)

    def _build_remote_plan(self, write: bool, home_local: bool, socket: int) -> tuple:
        """Fetch from a remote cache (both homings of the Fig 7 cases)."""
        if home_local:
            base = self._cost.resolve("remote_cache_reader_homed")
            spec_cell = self.counters.cell(f"s{socket}.spec_mem_read")
        else:
            base = self._cost.resolve("remote_cache_writer_homed")
            spec_cell = None
        cls = MessageClass.RFO if write else MessageClass.READ
        msgs = (
            self._msg_row(MessageClass.SNOOP, socket)
            + self._msg_row(cls, 1 - socket)
        )
        cell = self.counters.cell(f"s{socket}.rfo" if write else f"s{socket}.read")
        return (base, msgs, cell, spec_cell)

    def _build_upgrade_plan(self, socket: int) -> tuple:
        """Remote invalidation on a store upgrade: snoop out, ack back."""
        msgs = (
            self._msg_row(MessageClass.SNOOP, socket)
            + self._msg_row(MessageClass.ACK, 1 - socket)
        )
        cell = self.counters.cell(f"s{socket}.rfo")
        return (self._cost.remote_invalidate, msgs, cell)

    def _build_prefetch_plan(self, remote: bool, socket: int) -> tuple:
        """Speculative line fetch; bandwidth-only when remote."""
        if remote:
            msgs = (
                self._msg_row(MessageClass.SNOOP, socket, charge=False)
                + self._msg_row(MessageClass.PREFETCH, 1 - socket, charge=False)
            )
            cell = self.counters.cell(f"s{socket}.prefetch_remote")
        else:
            msgs = ()
            cell = self.counters.cell(f"s{socket}.prefetch_local")
        return (0.0, msgs, cell)

    def _resolve_region(self, addr: int) -> Region:
        """Region of ``addr`` (validated WB); caches by line number."""
        region = self.space.region_of(addr)
        if not region.memtype.is_cacheable:
            raise CoherenceError(
                f"coherent access to non-WB region {region.name!r} ({region.memtype})"
            )
        self._line_regions[addr // CACHE_LINE_SIZE] = region
        return region

    def _region(self, addr: int) -> Region:
        """Cached :meth:`_resolve_region`."""
        region = self._line_regions.get(addr // CACHE_LINE_SIZE)
        if region is None:
            region = self._resolve_region(addr)
        return region

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def read(self, agent: CacheAgent, addr: int, size: int = 8) -> float:
        """Modelled load; returns latency in ns."""
        return self.access(agent, addr, size, write=False)

    def write(self, agent: CacheAgent, addr: int, size: int = 8) -> float:
        """Modelled cacheable store; returns latency in ns."""
        return self.access(agent, addr, size, write=True)

    def access(self, agent: CacheAgent, addr: int, size: int, write: bool) -> float:
        """Load or store ``size`` bytes at ``addr`` on behalf of ``agent``.

        Returns the latency charged to the issuing agent in ns. The
        first line pays full (possibly pipelined, for writes) latency;
        further lines of a multi-line access overlap via ``mlp``.
        """
        if size <= 0:
            raise CoherenceError(f"access size must be positive, got {size}")
        first = addr // CACHE_LINE_SIZE
        last = (addr + size - 1) // CACHE_LINE_SIZE
        if first == last:
            # Hot path: the overwhelming majority of modelled accesses
            # (descriptors, signal words, header probes) touch one line.
            # Region resolution is deferred to the paths that need it
            # (miss fill, prefetch bound check): a hit implies the line
            # was installed by an earlier miss, which already validated
            # cacheability, so skipping the lookup cannot change what an
            # unreachable non-WB hit would have raised.
            lines = agent._lines
            state = lines.get(first)
            if state is not None:
                agent.hits += 1
                lines.move_to_end(first)
                region = None
                if not write or state is _MODIFIED or state is _EXCLUSIVE:
                    if not write:
                        total = latency = self._l2_hit
                    else:
                        # Assigning an existing key keeps its (just-moved)
                        # position, so no second move_to_end.
                        lines[first] = _MODIFIED
                        latency = self._store_buffer
                        total = latency / self.write_pipeline
                    flight = self.flight
                    if flight is not None:
                        region = self._region(addr)
                        flight.line_event(
                            self._now(), first, region, agent.socket, write,
                            "hit", latency,
                        )
                else:
                    region = self._region(addr)
                    self._pending_queue = 0.0
                    latency = self._upgrade(agent, first, region)
                    total = latency / self.write_pipeline + self._pending_queue
                if not agent.prefetch:
                    return total
                if region is None:
                    region = self._line_regions.get(first)
                    if region is None:
                        region = self._resolve_region(addr)
            else:
                region = self._line_regions.get(first)
                if region is None:
                    region = self._resolve_region(addr)
                agent.misses += 1
                self._pending_queue = 0.0
                latency = self._miss(agent, first, write, region)
                if write:
                    latency /= self.write_pipeline
                total = latency + self._pending_queue
            if agent.prefetch:
                # Inline copy of _maybe_prefetch (stride tracking and
                # arming rule unchanged).
                sstate = agent.stream_state.get(region.base)
                if sstate is None:
                    agent.stream_state[region.base] = [first, 0]
                else:
                    stride = first - sstate[0]
                    last_stride = sstate[1]
                    sstate[0] = first
                    sstate[1] = stride
                    if 0 < stride <= _MAX_PREFETCH_STRIDE and (
                        last_stride == 0 or last_stride == stride
                    ):
                        target = first + stride
                        if target * 64 < region.end and target not in lines:
                            self._prefetch_line(agent, target, region)
            return total
        region = self._region(addr)
        total = 0.0
        # Observers stamp each line at the access's local time so far.
        observed = self.flight is not None or self.sanitizer is not None
        for index, line in enumerate(range(first, last + 1)):
            if observed:
                self._elapsed = total
            self._pending_queue = 0.0
            latency = self._line_access(agent, line, write, region)
            if write:
                latency /= self.write_pipeline
            if index > 0:
                latency /= self.mlp
            total += latency + self._pending_queue
            if agent.prefetch:
                self._maybe_prefetch(agent, line, region)
        self._elapsed = 0.0
        return total

    def access_burst(
        self,
        agent: CacheAgent,
        spans: List[tuple],
        write: bool,
    ) -> float:
        """Independent accesses issued back-to-back by one core.

        ``spans`` is a list of ``(addr, size)`` pairs with no data
        dependence between them (e.g. the payloads of a received burst).
        A real out-of-order core overlaps such misses in its fill
        buffers, so only the first line pays full latency; every further
        line pays ``latency / mlp``. Bandwidth and protocol state are
        charged for every line exactly as in :meth:`access`.
        """
        total = 0.0
        first = True
        regions = self._line_regions
        write_pipeline = self.write_pipeline
        mlp = self.mlp
        l2_hit = self._l2_hit
        store_buffer = self._store_buffer
        lines = agent._lines
        prefetch = agent.prefetch
        stream = agent.stream_state
        flight = self.flight
        observed = flight is not None or self.sanitizer is not None
        for addr, size in spans:
            if size <= 0:
                raise CoherenceError(f"access size must be positive, got {size}")
            line = addr // CACHE_LINE_SIZE
            last_line = (addr + size - 1) // CACHE_LINE_SIZE
            if prefetch:
                region = regions.get(line)
                if region is None:
                    region = self._resolve_region(addr)
            else:
                # Non-prefetching agents (the NIC) only need the region
                # for a miss fill; all-hit spans skip the lookup. A hit
                # implies an earlier validated install, so deferral
                # cannot change reachable error behaviour.
                region = None
            while True:
                if observed:
                    self._elapsed = total
                # Inline copy of the hit cases in _line_access:
                # payload bursts are overwhelmingly warm-line traffic.
                # (A while walk, not range(): most spans are one line,
                # and burst payloads dominate the span count.)
                state = lines.get(line)
                if state is not None and (
                    not write or state is _MODIFIED or state is _EXCLUSIVE
                ):
                    agent.hits += 1
                    if write:
                        lines[line] = _MODIFIED
                    lines.move_to_end(line)
                    latency = l2_hit if not write else store_buffer
                    pending = 0.0
                    if flight is not None:
                        if region is None:
                            region = self._region(addr)
                        flight.line_event(
                            self._now(), line, region, agent.socket, write,
                            "hit", latency,
                        )
                else:
                    self._pending_queue = 0.0
                    if region is None:
                        region = regions.get(addr // CACHE_LINE_SIZE)
                        if region is None:
                            region = self._resolve_region(addr)
                    if state is None:
                        agent.misses += 1
                        latency = self._miss(agent, line, write, region)
                    else:
                        # Write hit on a shared line: upgrade in place.
                        agent.hits += 1
                        lines.move_to_end(line)
                        latency = self._upgrade(agent, line, region)
                    pending = self._pending_queue
                if write:
                    latency /= write_pipeline
                if first:
                    first = False
                else:
                    latency /= mlp
                total += latency + pending
                if prefetch:
                    # Inline copy of _maybe_prefetch (see access()).
                    sstate = stream.get(region.base)
                    if sstate is None:
                        stream[region.base] = [line, 0]
                    else:
                        stride = line - sstate[0]
                        last_stride = sstate[1]
                        sstate[0] = line
                        sstate[1] = stride
                        if 0 < stride <= _MAX_PREFETCH_STRIDE and (
                            last_stride == 0 or last_stride == stride
                        ):
                            target = line + stride
                            if target * 64 < region.end and target not in lines:
                                self._prefetch_line(agent, target, region)
                if line == last_line:
                    break
                line += 1
        self._elapsed = 0.0
        return total

    def nt_store(self, agent: CacheAgent, addr: int, size: int) -> float:
        """Non-temporal (cache-bypassing) store.

        Data goes straight to the home memory controller. Cached copies
        anywhere are invalidated. Sustained throughput is limited by the
        NT fill-buffer drain, modelled as inflated wire bytes on the link
        (``1 / nt_link_efficiency``).
        """
        if size <= 0:
            raise CoherenceError(f"nt_store size must be positive, got {size}")
        region = self.space.region_of(addr)
        total = 0.0
        self._elapsed = 0.0
        inflate = 1.0 / self.cost.nt_link_efficiency
        first = True
        for line in lines_spanned(addr, size):
            self._pending_queue = 0.0
            latency = self._invalidate_others(agent, line)
            if first:
                first = False
            else:
                latency /= self.mlp
            latency += self._pending_queue
            dropped = agent.drop(line)
            if dropped is not None:
                self._forget_holder(agent, line)
            # NT stores drain through the core's limited fill buffers:
            # each line occupies a buffer until the home memory
            # controller accepts it, so a sustained stream is paced by
            # the (pipelined) memory round trip — unlike cacheable
            # stores, which retire into the local cache.
            drain = self.cost.remote_dram if region.home != agent.socket \
                else self.cost.local_dram
            latency += self.cost.store_buffer + drain / self.mlp
            total += latency
            if region.home != agent.socket:
                total += self.link.occupy(
                    MessageClass.WRITEBACK,
                    direction=agent.socket,
                    inflate=inflate,
                    actor=agent.name,
                )
                self._count(agent.socket, "nt_store")
            self._elapsed = total
        self._elapsed = 0.0
        return total

    def flush(self, agent: CacheAgent, addr: int, size: int) -> float:
        """CLFLUSHOPT: invalidate the lines from every cache.

        Charged per line to the caller; dirty lines are written back to
        their home.
        """
        region = self.space.region_of(addr)
        total = 0.0
        for line in lines_spanned(addr, size):
            holders = self._holders.get(line)
            if holders:
                for holder in list(holders):
                    state = holder.drop(line)
                    if state is LineState.MODIFIED and region.home != holder.socket:
                        self.link.occupy(
                            MessageClass.WRITEBACK,
                            direction=holder.socket,
                            charge_queueing=False,
                            actor=holder.name,
                        )
                        self._count(holder.socket, "writeback")
                self._holders.pop(line, None)
            total += self.cost.clflush
        return total

    # ------------------------------------------------------------------
    # Introspection helpers (used heavily by tests)
    # ------------------------------------------------------------------
    def state_in(self, agent: CacheAgent, addr: int) -> Optional[LineState]:
        """State of the line containing ``addr`` in ``agent``'s cache."""
        return agent.peek(addr // 64)

    def holders_of(self, addr: int) -> List[CacheAgent]:
        """Agents currently caching the line containing ``addr``."""
        return list(self._holders.get(addr // 64, ()))

    def snapshot_counters(self) -> Dict[str, float]:
        """Copy of the transaction counters (offcore-response model)."""
        return self.counters.snapshot()

    def check_invariants(self) -> None:
        """Verify protocol invariants; raises CoherenceError on violation.

        Invariants:
          * at most one agent holds a given line in M or E;
          * if any agent holds M/E, no other agent holds the line at all;
          * the holders index matches per-agent tag maps.
        """
        for line, holders in self._holders.items():
            exclusive = [
                h for h in holders if h.peek(line) in (LineState.MODIFIED, LineState.EXCLUSIVE)
            ]
            if len(exclusive) > 1:
                raise CoherenceError(
                    f"line {line:#x} exclusively held by multiple agents: "
                    f"{[h.name for h in exclusive]}"
                )
            if exclusive and len(holders) > 1:
                raise CoherenceError(
                    f"line {line:#x} held M/E by {exclusive[0].name} but shared "
                    f"by {[h.name for h in holders]}"
                )
            for holder in holders:
                if not holder.holds(line):
                    raise CoherenceError(
                        f"holders index lists {holder.name} for line {line:#x} "
                        "but the agent does not hold it"
                    )
        for agent in self._agents:
            for line in agent.lines():
                if agent not in self._holders.get(line, ()):
                    raise CoherenceError(
                        f"{agent.name} holds line {line:#x} missing from index"
                    )

    # ------------------------------------------------------------------
    # Protocol internals
    # ------------------------------------------------------------------
    def _line_access(
        self, agent: CacheAgent, line: int, write: bool, region: Region
    ) -> float:
        """One line of an access: a hit, an upgrade or a miss."""
        lines = agent._lines
        state = lines.get(line)
        if state is not None:
            agent.hits += 1
            lines.move_to_end(line)
            if write and state is not _MODIFIED and state is not _EXCLUSIVE:
                return self._upgrade(agent, line, region)
            if not write:
                latency = self._l2_hit
            else:
                # Assigning an existing key keeps its (just-moved)
                # position, so no second move_to_end.
                lines[line] = _MODIFIED
                latency = self._store_buffer
            flight = self.flight
            if flight is not None:
                flight.line_event(
                    self._now(), line, region, agent.socket, write, "hit", latency
                )
            return latency
        agent.misses += 1
        return self._miss(agent, line, write, region)

    def _upgrade(self, agent: CacheAgent, line: int, region: Region) -> float:
        """Write hit on a Shared/Forward line: invalidate the other copies.

        Returns the latency before store pipelining.
        """
        flight = self.flight
        if flight is not None:
            # Remote-ness must be read before _invalidate_others mutates
            # the holders list.
            remote = any(
                h is not agent and h.socket != agent.socket
                for h in self._holders.get(line, ())
            )
        latency = self._invalidate_others(agent, line)
        agent.set_state(line, _MODIFIED)
        if latency == 0.0:
            latency = self._local_invalidate
        if flight is not None:
            kind = "upgrade_remote" if remote else "upgrade_local"
            flight.line_event(
                self._now(), line, region, agent.socket, True, kind, latency
            )
        return latency

    def _miss(
        self, agent: CacheAgent, line: int, write: bool, region: Region
    ) -> float:
        """Fill a line the agent does not hold; returns its latency.

        Data comes from DRAM when no cache holds the line, else from the
        nearest cache; a dirty copy always responds (HitM) and hands
        over ownership on a read. Latency, link messages and counter
        cells come from a memoized plan per ``(situation, write,
        homing, requester socket)``. Each remote plan then draws its
        snoop fault after the link charge and counter bump. A HitM read
        and a write miss hand the line's holders list to the requester
        in place rather than deleting and rebuilding it.
        """
        holders = self._holders.get(line)
        flight = self.flight
        if not holders:
            if region.home == agent.socket:
                latency = self._local_dram
                kind = "dram_local"
            else:
                kind = "dram_remote"
                plans = self._plans
                if self.counters.epoch != self._plans_epoch:
                    plans.clear()
                    self._plans_epoch = self.counters.epoch
                key = _PLAN_DRAM + (2 if write else 0) + agent.socket
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = self._build_dram_plan(write, agent.socket)
                base, msgs, cell = plan
                latency = self.link.occupy_pair(msgs, agent.name, base)
                cell[0] += 1.0
                if self.faults is not None:
                    latency += self._snoop_disruption(agent)
            self._install(agent, line, _MODIFIED if write else _EXCLUSIVE, region)
            if flight is not None:
                flight.line_event(
                    self._now(), line, region, agent.socket, write, kind, latency
                )
            return latency
        local_holder: Optional[CacheAgent] = None
        remote_holder: Optional[CacheAgent] = None
        dirty_holder: Optional[CacheAgent] = None
        for holder in holders:
            if holder.socket == agent.socket:
                local_holder = holder
            else:
                remote_holder = holder
            if holder._lines.get(line) is _MODIFIED:
                dirty_holder = holder
        source = dirty_holder if dirty_holder is not None else (local_holder or remote_holder)
        crosses = source.socket != agent.socket
        if crosses:
            plans = self._plans
            if self.counters.epoch != self._plans_epoch:
                plans.clear()
                self._plans_epoch = self.counters.epoch
            home_local = region.home == agent.socket
            key = (
                _PLAN_REMOTE
                + (4 if write else 0)
                + (2 if home_local else 0)
                + agent.socket
            )
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._build_remote_plan(
                    write, home_local, agent.socket
                )
            latency, msgs, cell, spec_cell = plan
            if spec_cell is not None:
                spec_cell[0] += 1.0
                if self.sanitizer is not None:
                    self.sanitizer.spec_read(self._now(), line, region, agent, write)
            self._pending_queue = self.link.occupy_pair(
                msgs, agent.name, self._pending_queue
            )
            cell[0] += 1.0
            if self.faults is not None:
                self._pending_queue += self._snoop_disruption(agent)
        else:
            latency = self._local_cache
        if write:
            # The RFO itself invalidates every other copy; no extra
            # round trip is charged beyond the fetch above. The
            # requester missed, so it is never on the list, and every
            # copy goes: the requester takes the holders list over in
            # place. Recorded runs drop through CacheAgent.drop, which
            # reports the loss.
            if flight is None:
                for holder in holders:
                    holder._lines.pop(line, None)
            else:
                for holder in holders:
                    holder.drop(line)
            if len(holders) > 1:
                del holders[1:]
            holders[0] = agent
            self._take(agent, line, _MODIFIED)
        elif dirty_holder is not None:
            # HitM: dirty data and ownership migrate to the requester,
            # which takes over the dirty holder's entry in place (a
            # Modified copy is the line's only one).
            if flight is None:
                dirty_holder._lines.pop(line, None)
            else:
                dirty_holder.drop(line)
            holders[holders.index(dirty_holder)] = agent
            self._take(agent, line, _MODIFIED)
        else:
            # A clean read sourced from another cache: E/F owners fall
            # to S.
            for holder in holders:
                hstate = holder._lines.get(line)
                if hstate is _EXCLUSIVE or hstate is _FORWARD:
                    holder.set_state(line, _SHARED)
            self._install(agent, line, _SHARED, region)
        if flight is not None:
            if not crosses:
                kind = "cache_local"
            else:
                kind = "cache_remote" if spec_cell is None else "cache_remote_spec"
                if dirty_holder is not None:
                    kind += "_hitm"
            flight.line_event(
                self._now(), line, region, agent.socket, write, kind, latency
            )
        return latency

    def _invalidate_others(self, agent: CacheAgent, line: int) -> float:
        """Drop the line from all *other* caches; returns invalidation latency.

        Local-only invalidations are cheap; any remote holder costs one
        interconnect round trip (counted as an RFO-class transaction).
        """
        holders = self._holders.get(line)
        if not holders:
            return 0.0
        remote = False
        found_other = False
        for holder in list(holders):
            if holder is agent:
                continue
            found_other = True
            holder.drop(line)
            holders.remove(holder)
            if holder.socket != agent.socket:
                remote = True
        if not found_other:
            return 0.0
        if remote:
            plans = self._plans
            if self.counters.epoch != self._plans_epoch:
                plans.clear()
                self._plans_epoch = self.counters.epoch
            key = _PLAN_UPGRADE + agent.socket
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._build_upgrade_plan(agent.socket)
            base, msgs, cell = plan
            self._pending_queue = self.link.occupy_pair(
                msgs, agent.name, self._pending_queue
            )
            cell[0] += 1.0
            if self.faults is not None:
                self._pending_queue += self._snoop_disruption(agent)
            return base
        return self.cost.local_invalidate

    def _install(
        self, agent: CacheAgent, line: int, state: LineState, region: Region
    ) -> None:
        holders = self._holders.get(line)
        if holders is None:
            self._holders[line] = [agent]
        elif agent not in holders:
            holders.append(agent)
        self._take(agent, line, state)

    def _take(self, agent: CacheAgent, line: int, state: LineState) -> None:
        """Insert a missed line into ``agent``'s tags; evict past capacity.

        The caller has already put ``agent`` on the line's holders list.
        """
        lines = agent._lines
        # Every caller installs on a miss (the agent does not hold the
        # line), so the insert already lands in MRU position.
        lines[line] = state
        if len(lines) > agent.capacity_lines:
            # Inline evict_victim + _forget_holder: at steady state this
            # runs on every install.
            vline, vstate = lines.popitem(last=False)
            agent.evictions += 1
            vholders = self._holders.get(vline)
            if vholders is not None and agent in vholders:
                vholders.remove(agent)
                if not vholders:
                    del self._holders[vline]
            if vstate is _MODIFIED:
                vregion = self._line_regions.get(vline)
                if vregion is None:
                    vregion = self.space.try_region_of(vline * 64)
                vhome = vregion.home if vregion is not None else agent.socket
                if vhome != agent.socket:
                    self.link.occupy(
                        MessageClass.WRITEBACK,
                        direction=agent.socket,
                        charge_queueing=False,
                        actor=agent.name,
                    )
                    self._count(agent.socket, "writeback")

    def _forget_holder(self, agent: CacheAgent, line: int) -> None:
        holders = self._holders.get(line)
        if holders and agent in holders:
            holders.remove(agent)
            if not holders:
                self._holders.pop(line, None)

    # ------------------------------------------------------------------
    # Prefetcher model (DCU IP: detects +1 line strides within a region)
    # ------------------------------------------------------------------
    #: Largest constant stride (in lines) the prefetcher recognizes.
    MAX_PREFETCH_STRIDE = _MAX_PREFETCH_STRIDE

    def _maybe_prefetch(self, agent: CacheAgent, line: int, region: Region) -> None:
        if not agent.prefetch:
            return
        state = agent.stream_state.get(region.base)
        if state is None:
            agent.stream_state[region.base] = [line, 0]
            return
        last = state[0]
        last_stride = state[1]
        stride = line - last
        state[0] = line
        state[1] = stride
        # DCU-IP style: a small positive stride arms the prefetcher for
        # the next element of the stream (a changed stride disarms it
        # until it repeats).
        if stride <= 0 or stride > self.MAX_PREFETCH_STRIDE:
            return
        if last_stride != 0 and last_stride != stride:
            return
        target = line + stride
        if target * 64 >= region.end:
            return
        if agent.holds(target):
            return
        self._prefetch_line(agent, target, region)

    def _prefetch_line(self, agent: CacheAgent, line: int, region: Region) -> None:
        """Fetch a line into the cache off the critical path."""
        holders = self._holders.get(line)
        dirty_holder = None
        if holders:
            socket = agent.socket
            crosses = False
            for holder in holders:
                if holder._lines.get(line) is _MODIFIED:
                    dirty_holder = holder
                if holder.socket != socket:
                    crosses = True
        else:
            crosses = region.home != agent.socket
        plans = self._plans
        if self.counters.epoch != self._plans_epoch:
            plans.clear()
            self._plans_epoch = self.counters.epoch
        key = _PLAN_PREFETCH + (2 if crosses else 0) + agent.socket
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._build_prefetch_plan(crosses, agent.socket)
        _base, msgs, cell = plan
        if msgs:
            # Bandwidth only: the request is control-only and the data
            # line returns on the opposite direction, off the critical
            # path.
            self.link.occupy_pair(msgs, agent.name)
        cell[0] += 1.0
        if dirty_holder is not None:
            # HitM steal: the prefetching agent takes over the dirty
            # holder's entry in place. Recorded runs drop through
            # CacheAgent.drop, which reports the HitM migration.
            if self.flight is None:
                dirty_holder._lines.pop(line, None)
            else:
                dirty_holder.drop(line)
            holders[holders.index(dirty_holder)] = agent
            self._take(agent, line, _MODIFIED)
        else:
            if holders:
                # A clean copy elsewhere: E/F owners fall to S.
                for holder in holders:
                    hstate = holder._lines.get(line)
                    if hstate is _EXCLUSIVE or hstate is _FORWARD:
                        holder.set_state(line, _SHARED)
            self._install(agent, line, _SHARED, region)

    # ------------------------------------------------------------------
    def _snoop_disruption(self, agent: CacheAgent) -> float:
        """Extra snoop latency from the fault injector, if any.

        A delayed response just adds its ``extra_ns``. A NACK makes the
        requester re-issue the snoop after the turnaround, so the retry
        message is charged on the link a second time.
        """
        # repro: allow(zero-cost-hooks) every caller guards on self.faults
        fault = self.faults.snoop_decide(self.sim.now)
        if fault is None:
            return 0.0
        extra = fault.extra_ns
        if fault.reissue:
            extra += self.link.occupy(
                MessageClass.SNOOP, direction=agent.socket, actor=agent.name
            )
            self._count(agent.socket, "snoop_retry")
        return extra

    def _count(self, socket: int, what: str) -> None:
        self.counters.add(f"s{socket}.{what}")

    def __repr__(self) -> str:
        return f"<CoherenceFabric agents={len(self._agents)} lines={len(self._holders)}>"
