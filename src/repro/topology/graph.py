"""Typed topology graph: CC-NIC hosts, coherent switches, one ToR.

A :class:`TopologySpec` is the declarative description of a multi-host
coherent fabric: **nodes** (dual-socket CC-NIC hosts, coherent switches,
and exactly one top-of-rack node fronting the NIC-side fabric) and
**edges** (point-to-point links with per-edge latency/bandwidth, drawn
from the :mod:`~repro.topology.generators` presets the same way
:class:`~repro.platform.presets.PlatformSpec` fixes intra-host costs).

Like :class:`~repro.shard.spec.ScenarioSpec`, a topology spec is a
frozen dataclass of plain values: it pickles across process boundaries,
round-trips through JSON (:meth:`TopologySpec.to_doc` /
:meth:`TopologySpec.from_doc`), and validates eagerly via
:class:`~repro.errors.ConfigError` so a malformed graph fails at
registration time, not mid-run. The runtime counterpart — one
:class:`~repro.interconnect.link.Link` per edge plus hop-by-hop routing
— lives in :mod:`repro.topology.net`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError

#: Node kinds a topology graph is built from.
NODE_KINDS = ("host", "switch", "tor")


@dataclass(frozen=True)
class NodeSpec:
    """One vertex: a CC-NIC host, a coherent switch, or the ToR."""

    name: str
    kind: str = "host"

    def validate(self) -> "NodeSpec":
        if not self.name:
            raise ConfigError("topology node needs a name")
        if self.kind not in NODE_KINDS:
            raise ConfigError(
                f"node {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {', '.join(NODE_KINDS)})"
            )
        return self

    def to_doc(self) -> Dict:
        return {"name": self.name, "kind": self.kind}

    @classmethod
    def from_doc(cls, doc: Dict) -> "NodeSpec":
        return cls(**doc).validate()


@dataclass(frozen=True)
class EdgeSpec:
    """One full-duplex link between two nodes.

    Direction 0 of the runtime :class:`~repro.interconnect.link.Link`
    carries ``a -> b`` traffic, direction 1 carries ``b -> a``; the
    endpoint order is therefore part of the spec, even though routing
    treats the edge as undirected.
    """

    a: str
    b: str
    latency_ns: float
    gbps: float
    header_overhead: int = 12

    @property
    def name(self) -> str:
        """Stable edge label, ``"<a>~<b>"``."""
        return f"{self.a}~{self.b}"

    def validate(self) -> "EdgeSpec":
        if not self.a or not self.b:
            raise ConfigError("topology edge needs two endpoint names")
        if self.a == self.b:
            raise ConfigError(f"edge {self.name!r}: self-loops are not allowed")
        if self.latency_ns < 0:
            raise ConfigError(f"edge {self.name!r}: negative latency")
        if self.gbps <= 0:
            raise ConfigError(f"edge {self.name!r}: bandwidth must be positive")
        if self.header_overhead < 0:
            raise ConfigError(f"edge {self.name!r}: negative header overhead")
        return self

    def to_doc(self) -> Dict:
        return {
            "a": self.a,
            "b": self.b,
            "latency_ns": self.latency_ns,
            "gbps": self.gbps,
            "header_overhead": self.header_overhead,
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "EdgeSpec":
        return cls(**doc).validate()


@dataclass(frozen=True)
class TopologySpec:
    """A validated, serializable multi-host fabric graph."""

    name: str
    nodes: Tuple[NodeSpec, ...]
    edges: Tuple[EdgeSpec, ...]
    description: str = ""

    # ------------------------------------------------------------------
    def validate(self) -> "TopologySpec":
        """Raise :class:`ConfigError` on an inconsistent graph."""
        if not self.name:
            raise ConfigError("topology spec needs a name")
        names = set()
        for node in self.nodes:
            node.validate()
            if node.name in names:
                raise ConfigError(
                    f"topology {self.name!r}: duplicate node {node.name!r}"
                )
            names.add(node.name)
        hosts = self.host_names()
        if not hosts:
            raise ConfigError(f"topology {self.name!r}: needs at least one host")
        tors = [n.name for n in self.nodes if n.kind == "tor"]
        if len(tors) != 1:
            raise ConfigError(
                f"topology {self.name!r}: needs exactly one ToR node "
                f"(found {len(tors)})"
            )
        seen_pairs = set()
        for edge in self.edges:
            edge.validate()
            for endpoint in (edge.a, edge.b):
                if endpoint not in names:
                    raise ConfigError(
                        f"topology {self.name!r}: edge {edge.name!r} references "
                        f"unknown node {endpoint!r}"
                    )
            pair = (edge.a, edge.b) if edge.a < edge.b else (edge.b, edge.a)
            if pair in seen_pairs:
                raise ConfigError(
                    f"topology {self.name!r}: duplicate edge between "
                    f"{pair[0]!r} and {pair[1]!r}"
                )
            seen_pairs.add(pair)
        self._check_connected(names)
        return self

    def _check_connected(self, names: set) -> None:
        """Every node must be reachable from the ToR."""
        adjacency = self.adjacency()
        frontier = [self.tor_name()]
        reached = {frontier[0]}
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        unreachable = sorted(names - reached)
        if unreachable:
            raise ConfigError(
                f"topology {self.name!r}: node(s) unreachable from the ToR: "
                f"{', '.join(unreachable)}"
            )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def host_names(self) -> List[str]:
        """Host node names, in declaration order (shard ``i`` = host ``i``)."""
        return [node.name for node in self.nodes if node.kind == "host"]

    def tor_name(self) -> str:
        """Name of the (single) top-of-rack node."""
        for node in self.nodes:
            if node.kind == "tor":
                return node.name
        raise ConfigError(f"topology {self.name!r}: no ToR node")

    def adjacency(self) -> Dict[str, List[str]]:
        """Neighbor lists, each sorted by name (the routing tie-break)."""
        neighbors: Dict[str, List[str]] = {node.name: [] for node in self.nodes}
        for edge in self.edges:
            neighbors[edge.a].append(edge.b)
            neighbors[edge.b].append(edge.a)
        for adjacent in neighbors.values():
            adjacent.sort()
        return neighbors

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_doc(self) -> Dict:
        """Plain-dict form (JSON-safe)."""
        doc: Dict = {
            "name": self.name,
            "nodes": [node.to_doc() for node in self.nodes],
            "edges": [edge.to_doc() for edge in self.edges],
        }
        if self.description:
            doc["description"] = self.description
        return doc

    @classmethod
    def from_doc(cls, doc: Dict) -> "TopologySpec":
        """Rebuild a spec from :meth:`to_doc` output."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(
                f"unknown topology spec field(s): {', '.join(sorted(unknown))}"
            )
        return cls(
            name=doc.get("name", ""),
            nodes=tuple(NodeSpec.from_doc(n) for n in doc.get("nodes", ())),
            edges=tuple(EdgeSpec.from_doc(e) for e in doc.get("edges", ())),
            description=doc.get("description", ""),
        ).validate()
