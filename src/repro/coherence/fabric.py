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

**Transition plans.** The protocol is stated once, as the rules of
:data:`~repro.coherence.transitions.TRANSITIONS`. A miss or a store
upgrade turns the line's situation into a small-int code naming one
rule and runs the *plan* compiled from it for the requester's socket:
the resolved cost constant, link message rows, counter cells, installed
state, effect on the other holders and flight label. Steady-state
transitions therefore skip all cost recomputation, message-size
resolution and counter-name formatting. Plans are invalidated when the
cost model is swapped, the link is rescaled, or the counter bag is
reset. Hits never reach a plan: they stay inline in :meth:`access`
(one line) and :meth:`access_burst` (everything else). An attached
fault injector keeps the plans: each remote plan draws its snoop fault
right after charging its link messages (which draw their link faults
inside :meth:`Link.occupy_pair`). The flight recorder and the
sanitizer, attached through an :class:`~repro.obs.Observability`
bundle, observe the same path, and no hook changes which code runs.
The model checker (``check --model``), which holds every transition to
the same table with its own classifier and oracle, and the pinned
scenario fingerprints check this one path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.cache import CacheAgent
from repro.coherence.costs import CostModel
from repro.coherence.state import LineState
from repro.coherence.transitions import TRANSITIONS
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

#: Largest stride (in lines) the DCU-IP prefetcher arms on: a small
#: positive stride arms it for the next line of the stream, a changed
#: stride disarms it until it repeats. Module level so the rule, inline
#: in access() and access_burst(), reads a global.
_MAX_PREFETCH_STRIDE = 4

# Situation codes; a plan key is ``code * 2 + requester socket`` (small
# ints hash fastest). A fill adds write*4 + dirty*2 + home_local to its
# block's base (a DRAM fill is never dirty).
_DRAM = 0           # 0..7
_CACHE_LOCAL = 8    # 8..15
_CACHE_REMOTE = 16  # 16..23
_UPGRADE = 24       # + 1 when another socket holds a copy
_PREFETCH = 26      # + 1 when the fill crosses the link (not in the spec)


def _codes(key: tuple) -> Tuple[int, ...]:
    """Situation codes a rule key names (none for a hit)."""
    kind = key[0]
    if kind == "hit":
        return ()
    if kind == "upgrade":
        return (_UPGRADE + key[1],)
    fill = 4 if key[1] == "w" else 0
    if kind == "dram":
        return (_DRAM + fill + key[2],)
    fill += 2 * key[2]
    if kind == "local":  # one rule for either homing
        return (_CACHE_LOCAL + fill, _CACHE_LOCAL + fill + 1)
    return (_CACHE_REMOTE + fill + key[3],)


#: Situation code -> id of the rule it names, built from the rule keys.
_RULE_OF_CODE: Dict[int, str] = {
    code: tid for tid, rule in TRANSITIONS.items() for code in _codes(rule.key)
}


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

    #: The transition table the plans compile from. Only the model
    #: checker's mutations hand one fabric an edited copy.
    rules = TRANSITIONS

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

    def _compile(self, key: int) -> tuple:
        """Build the plan for one ``code * 2 + socket`` key.

        A miss or upgrade plan is ``(latency, link rows, counter cells,
        speculative read, installed state, effect on the other holders,
        flight label)``, all taken from the rule its situation code
        names. The prefetcher's two plans are not in the spec: ``(link
        rows, counter cell)``, charging bandwidth only.
        """
        code, socket = divmod(key, 2)
        counters = self.counters
        if code >= _PREFETCH:
            if code == _PREFETCH:
                return ((), counters.cell(f"s{socket}.prefetch_local"))
            msgs = (
                self._msg_row(MessageClass.SNOOP, socket, charge=False)
                + self._msg_row(MessageClass.PREFETCH, 1 - socket, charge=False)
            )
            return (msgs, counters.cell(f"s{socket}.prefetch_remote"))
        rule = self.rules[_RULE_OF_CODE[code]]
        msgs = ()
        if rule.messages:
            request, response = rule.messages
            msgs = self._msg_row(request, socket) + self._msg_row(response, 1 - socket)
        cells = tuple(counters.cell(f"s{socket}.{name}") for name in rule.counters)
        return (
            self._cost.resolve(rule.cost_case), msgs, cells,
            "spec_mem_read" in rule.counters, LineState(rule.installs),
            rule.others, rule.observable[2:],
        )

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
                # The stride rule (see _MAX_PREFETCH_STRIDE), inline as
                # in access_burst().
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
        return self.access_burst(agent, [(addr, size)], write)

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
        charged for every line exactly as in :meth:`access`, which sends
        its multi-line accesses here as one span.
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
        # Observers stamp each line at the burst's local time so far.
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
                # The hit cases, inline as in access(): payload bursts
                # are overwhelmingly warm-line traffic. (A while walk,
                # not range(): most spans are one line, and burst
                # payloads dominate the span count.)
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
                    # The stride rule, inline as in access().
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
            holders = self._holders.get(line)
            if holders and (len(holders) > 1 or holders[0] is not agent):
                # The other copies go as on a store upgrade, by its rule.
                latency = self._invalidate_others(agent, line)[0]
            else:
                latency = 0.0
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
    def _upgrade(self, agent: CacheAgent, line: int, region: Region) -> float:
        """Write hit on a Shared/Forward line: invalidate the other copies.

        Returns the latency before store pipelining.
        """
        latency, _msgs, _cells, _spec, state, _others, kind = self._invalidate_others(agent, line)
        agent.set_state(line, state)
        flight = self.flight
        if flight is not None:
            flight.line_event(
                self._now(), line, region, agent.socket, True, kind, latency
            )
        return latency

    def _miss(
        self, agent: CacheAgent, line: int, write: bool, region: Region
    ) -> float:
        """Fill a line the agent does not hold; returns its latency.

        Data comes from DRAM when no cache holds the line, else from the
        nearest cache; a dirty copy always responds (HitM). That
        situation becomes a code naming one transition rule, whose plan
        supplies the latency, link messages, counter cells, installed
        state and effect on the other holders. Each remote plan draws
        its snoop fault after the link charge. A HitM read and a write
        miss hand the line's holders list to the requester in place
        rather than deleting and rebuilding it.
        """
        holders = self._holders.get(line)
        socket = agent.socket
        code = (4 if write else 0) + (region.home == socket)
        if holders:
            local = False
            dirty_holder = None
            for holder in holders:
                if holder.socket == socket:
                    local = True
                if holder._lines.get(line) is _MODIFIED:
                    dirty_holder = holder
            if dirty_holder is not None:
                code += 2
                local = dirty_holder.socket == socket
            code += _CACHE_LOCAL if local else _CACHE_REMOTE
        plans = self._plans
        if self.counters.epoch != self._plans_epoch:
            plans.clear()
            self._plans_epoch = self.counters.epoch
        key = code * 2 + socket
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._compile(key)
        latency, msgs, cells, spec, state, others, kind = plan
        if spec and self.sanitizer is not None:
            self.sanitizer.spec_read(self._now(), line, region, agent, write)
        for cell in cells:
            cell[0] += 1.0
        flight = self.flight
        if not holders:
            if msgs:
                # A remote-DRAM fill folds its link wait and snoop-fault
                # delay into the latency it returns, so store pipelining
                # and MLP divide them; a cache fill books them undivided
                # in _pending_queue. A known defect (docs/MODEL.md §2),
                # pinned by TestCongestionWaits in tests/test_fabric.py.
                latency = self.link.occupy_pair(msgs, agent.name, latency)
                if self.faults is not None:
                    latency += self._snoop_disruption(agent)
            # No other copy for the rule's effect to touch.
            if holders is None:
                self._holders[line] = [agent]
            else:
                holders.append(agent)
            self._take(agent, line, state)
        else:
            if msgs:
                self._pending_queue = self.link.occupy_pair(
                    msgs, agent.name, self._pending_queue
                )
                if self.faults is not None:
                    self._pending_queue += self._snoop_disruption(agent)
            if others == "drop_dirty":
                # HitM: dirty data and ownership migrate to the requester,
                # which takes over the dirty holder's entry in place (a
                # Modified copy is the line's only one).
                if flight is None:
                    dirty_holder._lines.pop(line, None)
                else:
                    dirty_holder.drop(line)
                holders[holders.index(dirty_holder)] = agent
                self._take(agent, line, state)
            elif others == "drop":
                # Every other copy goes: an RFO's fetch is its
                # invalidation, with no extra round trip. The requester
                # missed, so it is never on the list: it takes the
                # holders list over in place. Recorded runs drop through
                # CacheAgent.drop, which reports the loss.
                if flight is None:
                    for holder in holders:
                        holder._lines.pop(line, None)
                else:
                    for holder in holders:
                        holder.drop(line)
                if len(holders) > 1:
                    del holders[1:]
                holders[0] = agent
                self._take(agent, line, state)
            else:
                if others == "downgrade":
                    # A clean fill from another cache: E/F owners fall
                    # to S.
                    for holder in holders:
                        hstate = holder._lines.get(line)
                        if hstate is _EXCLUSIVE or hstate is _FORWARD:
                            holder.set_state(line, _SHARED)
                self._install(agent, line, state, region)
        if flight is not None:
            flight.line_event(
                self._now(), line, region, socket, write, kind, latency
            )
        return latency

    def _invalidate_others(self, agent: CacheAgent, line: int) -> tuple:
        """Run the store-upgrade rule against the line's other holders.

        The rule is ``write_upgrade_remote`` when another socket holds a
        copy (one link round trip, counted as an RFO-class transaction,
        its wait booked in ``_pending_queue``), else
        ``write_upgrade_local``. Returns the rule's plan.
        """
        socket = agent.socket
        holders = self._holders[line]
        code = _UPGRADE
        for holder in holders:
            if holder.socket != socket:
                code = _UPGRADE + 1
                break
        plans = self._plans
        if self.counters.epoch != self._plans_epoch:
            plans.clear()
            self._plans_epoch = self.counters.epoch
        key = code * 2 + socket
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._compile(key)
        _latency, msgs, cells, _spec, _state, others, _kind = plan
        if others == "drop":
            for holder in list(holders):
                if holder is not agent:
                    holder.drop(line)
                    holders.remove(holder)
        for cell in cells:
            cell[0] += 1.0
        if msgs:
            self._pending_queue = self.link.occupy_pair(
                msgs, agent.name, self._pending_queue
            )
            if self.faults is not None:
                self._pending_queue += self._snoop_disruption(agent)
        return plan

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
    # Prefetcher model (DCU IP; the stride rule is inline in the two
    # access paths)
    # ------------------------------------------------------------------
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
        key = (_PREFETCH + crosses) * 2 + agent.socket
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._compile(key)
        msgs, cell = plan
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
