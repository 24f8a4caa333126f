"""Call budget of the CC-NIC data plane: Python calls per packet.

One seed-7 ``loopback_64b`` shard (6,250 packets of 64 B) runs under
``sys.setprofile``, which counts every ``call`` event of code in the
``repro`` package: code whose globals are a ``repro`` module, so the
``__init__`` a dataclass generates counts for the module that defines
the class, and each generator resumption counts as a call. The count
is a property of the code and the Python version, not of the host's
speed, so the bound can sit just above it.

A packet should pay for its model: the fabric's fills and link charges,
the pool, the ring's descriptor stores, the latency histogram. The
helpers in :data:`RETIRED` compute nothing the model reads, and the
burst loops of the driver, the NIC agent, the ring and the loopback app
do their work inline, so none of them may run once per packet.

One seed-7 ``kv_rack_zipf`` shard (500 requests) gets the same census
per request. Its many cold lines are each resolved to a region once, in
one address-space lookup that reads the region's stored ``cacheable``
flag, and the router walks each route once, whatever the payload sizes
its charge plans are built for: :data:`ROUTED` may not run per request.
"""

import collections
import sys

import repro.topology  # noqa: F401  registers kv_rack_zipf
from repro.core.agent import NicQueueAgent
from repro.core.buffers import Buffer
from repro.core.pool import BufferPool
from repro.core.ring import CoherentQueue
from repro.mem.memtype import MemType
from repro.mem.space import AddressSpace
from repro.shard import execute_spec, scenario
from repro.topology.net import Router
from repro.workloads.packets import Packet

#: Calls per packet allowed: above the 15.67 the shard makes on Python
#: 3.11 (3.12 inlines comprehensions and makes fewer).
CALLS_PER_PACKET = 16.5

#: Calls per KV request allowed: just above the 61.01 the shard makes on
#: Python 3.11.
CALLS_PER_REQUEST = 62.0

#: Helpers that must not run once per packet.
RETIRED = {
    "NicQueueAgent._rx_chain": NicQueueAgent._rx_chain,
    "NicQueueAgent._rx_buffer": NicQueueAgent._rx_buffer,
    "Buffer.segments": Buffer.segments,
    "CoherentQueue.space": CoherentQueue.space,
    "Packet.latency_ns": Packet.latency_ns.fget,
}


#: Lookups a KV request must not pay for: region resolution and route
#: walks, at most once per this many requests.
ROUTED = {
    "AddressSpace.region_of": AddressSpace.region_of,
    "MemType.is_cacheable": MemType.is_cacheable.fget,
    "Router._route": Router._route,
}
ROUTED_REQUESTS_PER_CALL = 20


def _census(workload="loopback_64b"):
    """Run one shard of ``workload`` under the profiler.

    Returns the calls by code object, each code object's module and the
    shard's snapshot.
    """
    calls = collections.Counter()
    modules = {}

    def profile(frame, event, _arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module == "repro" or module.startswith("repro."):
                code = frame.f_code
                calls[code] += 1
                modules[code] = module

    spec = scenario(workload).replace(seed=7, fault_seed=7).shard_specs()[0]
    sys.setprofile(profile)
    try:
        result = execute_spec(spec)
    finally:
        sys.setprofile(None)
    return calls, modules, result["snapshot"]


def _busiest(calls, modules, ops, n=10):
    rows = []
    for code, count in calls.most_common(n):
        name = getattr(code, "co_qualname", code.co_name)
        rows.append(
            f"  {count / ops:7.3f}/op {count:8d}  {name} "
            f"({modules[code]}:{code.co_firstlineno})"
        )
    return "\n".join(rows)


def test_loopback_calls_per_packet_within_budget():
    calls, modules, snapshot = _census()
    packets = snapshot["received"]
    assert packets == 6250
    per_packet = sum(calls.values()) / packets
    busiest = _busiest(calls, modules, packets)
    assert per_packet <= CALLS_PER_PACKET, (
        f"{per_packet:.2f} calls per packet, budget {CALLS_PER_PACKET}; "
        f"busiest:\n{busiest}"
    )
    for name, fn in RETIRED.items():
        count = calls[fn.__code__]
        assert count < packets / 4, (
            f"{name} entered {count} times for {packets} packets; busiest:\n{busiest}"
        )
    # The NIC still allocates each received packet's buffer in its own
    # pool.alloc call, which keeps alloc_ops and the sanitizer's
    # pool_alloc events as they were.
    assert calls[BufferPool.alloc.__code__] >= packets


def test_kv_rack_calls_per_request_within_budget():
    calls, modules, snapshot = _census("kv_rack_zipf")
    requests = snapshot["ops"]
    assert requests == 500
    per_request = sum(calls.values()) / requests
    busiest = _busiest(calls, modules, requests)
    assert per_request <= CALLS_PER_REQUEST, (
        f"{per_request:.2f} calls per request, budget {CALLS_PER_REQUEST}; "
        f"busiest:\n{busiest}"
    )
    for name, fn in ROUTED.items():
        count = calls[fn.__code__]
        assert count * ROUTED_REQUESTS_PER_CALL <= requests, (
            f"{name} entered {count} times for {requests} requests; busiest:\n{busiest}"
        )
