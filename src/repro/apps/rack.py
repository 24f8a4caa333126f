"""Rack-scale KV service: one server host behind the ToR load balancer.

:class:`RackKvApp` is the per-host half of the ``kv_rack_zipf``
scenario: a :class:`~repro.apps.kvstore.KvServerApp` whose request and
response paths cross the rack fabric. The load balancer lives on the
ToR node; it forwards each request from one of ``n_clients`` simulated
client hosts down the topology route to this server, and each response
travels back up. Both legs are charged hop-by-hop through the
:class:`~repro.topology.net.Router`, so rack traffic shows up in the
same per-edge :class:`~repro.interconnect.link.LinkStats`, metric
registry, and fault-injection machinery as intra-host traffic.

Client attribution matters for queueing: each request is drawn from a
deterministic client stream and charged under that client's actor name,
so the per-actor utilization model on the ToR -> host edge makes
distinct clients queue behind each other (but never behind themselves),
exactly as the intra-host link model treats concurrent agents.
"""

from __future__ import annotations

from repro.apps.kvstore import KvServerApp, KvWorkload
from repro.errors import WorkloadError
from repro.interconnect.messages import MessageClass
from repro.sim.rng import make_rng
from repro.workloads.packets import Packet


class RackKvApp(KvServerApp):
    """One KV server host of a sharded rack deployment."""

    def __init__(
        self,
        setup,
        workload: KvWorkload,
        offered_mops: float,
        n_ops: int,
        router,
        host: str,
        tor: str,
        n_clients: int,
        batch: int = 32,
        seed: int = 7,
        warmup_fraction: float = 0.1,
    ) -> None:
        if n_clients < 1:
            raise WorkloadError("a rack KV server needs n_clients >= 1")
        super().__init__(
            setup,
            workload,
            offered_mops=offered_mops,
            n_ops=n_ops,
            batch=batch,
            warmup_fraction=warmup_fraction,
        )
        self.router = router
        self.host = host
        self.tor = tor
        self.n_clients = n_clients
        # Client draws come from their own derived stream so adding the
        # rack layer never perturbs the workload's key/size streams.
        self._client_rng = make_rng(seed, "rack/clients")
        self._clients_seen: set = set()
        # Each client's actor name, built once rather than per request.
        self._client_actors = tuple(f"client{client}" for client in range(n_clients))

    # ------------------------------------------------------------------
    def _ingress_ns(self, pkt: Packet) -> float:
        """ToR -> host leg: the balancer forwards one client's request."""
        client = self._client_rng.randrange(self.n_clients)
        self._clients_seen.add(client)
        return self.router.charge(
            self.tor,
            self.host,
            MessageClass.DMA_WRITE,
            payload_bytes=pkt.size,
            actor=self._client_actors[client],
        )

    def _egress_ns(self, pkt: Packet) -> float:
        """Host -> ToR leg: the response returns to the balancer."""
        return self.router.charge(
            self.host,
            self.tor,
            MessageClass.DMA_WRITE,
            payload_bytes=pkt.size,
            actor=self.host,
        )

    def clients_seen(self) -> int:
        """Distinct simulated clients that sent this host a request."""
        return len(self._clients_seen)
