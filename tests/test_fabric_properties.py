"""Property-based tests: the protocol never violates MESIF invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import CoherenceFabric, CostModel, LineState
from repro.interconnect import Link
from repro.mem import AddressSpace
from repro.shard.merge import fingerprint
from repro.sim import Simulator
from repro.sim.rng import make_rng

COST = CostModel(
    l2_hit=5.0,
    local_cache=48.0,
    local_dram=72.0,
    remote_dram=144.0,
    remote_cache_writer_homed=114.0,
    remote_cache_reader_homed=119.0,
    local_invalidate=30.0,
    remote_invalidate=100.0,
)

N_LINES = 16

op_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),     # agent index
    st.integers(min_value=0, max_value=N_LINES - 1),  # line index
    st.sampled_from(["read", "write", "nt", "flush"]),
)


def build(prefetch=False):
    """Two sockets, two capacity-8 agents each, 16 lines split across
    both homes. ``prefetch`` arms the stride prefetcher on one agent per
    socket (a0 and b0)."""
    sim = Simulator()
    space = AddressSpace()
    link = Link(sim, "upi", latency_ns=50.0, bandwidth_bytes_per_ns=66.0)
    fabric = CoherenceFabric(sim, space, COST, link)
    agents = [
        fabric.new_agent("a0", socket=0, capacity_lines=8, prefetch=prefetch),
        fabric.new_agent("a1", socket=0, capacity_lines=8),
        fabric.new_agent("b0", socket=1, capacity_lines=8, prefetch=prefetch),
        fabric.new_agent("b1", socket=1, capacity_lines=8),
    ]
    regions = [
        space.allocate("h0", 64 * (N_LINES // 2), home=0),
        space.allocate("h1", 64 * (N_LINES // 2), home=1),
    ]
    def addr_of(i):
        region = regions[i % 2]
        return region.base + (i // 2) * 64
    return fabric, agents, addr_of


@settings(max_examples=120, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=120))
def test_random_operations_preserve_invariants(ops):
    fabric, agents, addr_of = build()
    for agent_idx, line_idx, op in ops:
        agent = agents[agent_idx]
        addr = addr_of(line_idx)
        if op == "read":
            fabric.read(agent, addr, 64)
        elif op == "write":
            fabric.write(agent, addr, 64)
        elif op == "nt":
            fabric.nt_store(agent, addr, 64)
        else:
            fabric.flush(agent, addr, 64)
    fabric.check_invariants()


@settings(max_examples=80, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=80))
def test_latency_is_always_non_negative(ops):
    fabric, agents, addr_of = build()
    for agent_idx, line_idx, op in ops:
        agent = agents[agent_idx]
        addr = addr_of(line_idx)
        if op == "read":
            latency = fabric.read(agent, addr, 64)
        elif op == "write":
            latency = fabric.write(agent, addr, 64)
        elif op == "nt":
            latency = fabric.nt_store(agent, addr, 64)
        else:
            latency = fabric.flush(agent, addr, 64)
        assert latency >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_writer_always_ends_modified(ops):
    fabric, agents, addr_of = build()
    for agent_idx, line_idx, op in ops:
        agent = agents[agent_idx]
        addr = addr_of(line_idx)
        if op == "write":
            fabric.write(agent, addr, 64)
            assert fabric.state_in(agent, addr) is LineState.MODIFIED
            # Nobody else may hold the line at all.
            for other in agents:
                if other is not agent:
                    assert fabric.state_in(other, addr) is None
        elif op == "read":
            fabric.read(agent, addr, 64)
            assert fabric.state_in(agent, addr) is not None
        elif op == "nt":
            fabric.nt_store(agent, addr, 64)
            for anyone in agents:
                assert fabric.state_in(anyone, addr) is None
        else:
            fabric.flush(agent, addr, 64)
            for anyone in agents:
                assert fabric.state_in(anyone, addr) is None


#: Fingerprint of test_migration_into_full_caches_pinned's run, recorded
#: when the fabric still deleted a migrating line's holders entry and
#: rebuilt it on install.
FULL_CACHE_PIN = "b8fdc38feb710430"


def test_migration_into_full_caches_pinned():
    """HitM reads, write misses and prefetch steals that land in a full
    cache: the requester takes the line's holders entry over in place,
    then evicts its LRU line (writing back dirty victims homed on the
    other socket). A seeded op stream keeps a0 and b0 busy, so lines
    bounce between two nearly full caches; the per-op latencies, the
    fabric counters, both link directions' statistics and every agent's
    hit, miss and eviction counts are pinned."""
    fabric, agents, addr_of = build(prefetch=True)
    rng = make_rng(16, "full-cache-migration")
    actors = (0, 0, 0, 0, 1, 2, 2, 2, 2, 3)  # mostly a0 and b0
    ops = ("read",) * 8 + ("write",) * 3 + ("burst",) * 3 + ("nt", "flush")
    latencies = []
    for _ in range(2000):
        agent = agents[actors[rng.randrange(len(actors))]]
        addr = addr_of(rng.randrange(N_LINES))
        op = ops[rng.randrange(len(ops))]
        fabric.sim.now += rng.choice((0.0, 25.0, 400.0, 2500.0))
        if op == "read":
            latency = fabric.read(agent, addr, rng.choice((8, 64)))
        elif op == "write":
            latency = fabric.write(agent, addr, rng.choice((8, 64)))
        elif op == "burst":
            spans = [(addr_of(rng.randrange(N_LINES)), 64) for _ in range(3)]
            latency = fabric.access_burst(agent, spans, rng.random() < 0.5)
        elif op == "nt":
            latency = fabric.nt_store(agent, addr, 64)
        else:
            latency = fabric.flush(agent, addr, 64)
        latencies.append(latency)
        fabric.check_invariants()
    observed = {
        "latencies": latencies,
        "counters": fabric.snapshot_counters(),
        "links": [st.snapshot() for st in fabric.link.stats],
        "agents": [(a.hits, a.misses, a.evictions) for a in agents],
    }
    counters = observed["counters"]
    assert all(a.evictions for a in agents[::2])
    assert counters["s0.writeback"] and counters["s1.writeback"]
    assert counters["s0.prefetch_remote"] and counters["s1.prefetch_remote"]
    assert fingerprint(observed) == FULL_CACHE_PIN
