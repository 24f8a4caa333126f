"""Tests for repro.topology: generators, routing, runtime net, determinism."""

import json

import pytest

from repro.errors import ConfigError
from repro.interconnect import MessageClass
from repro.obs import MetricRegistry
from repro.shard import run_sharded, scenario, scenario_names
from repro.sim import Simulator
from repro.topology import (
    EdgeSpec,
    NodeSpec,
    RouteTables,
    TopologyNet,
    TopologySpec,
    fat_tree,
    mesh,
    register_topology,
    single_switch,
    topology,
    topology_names,
    torus,
    unregister_topology,
)


def all_generated():
    return [single_switch(8), mesh(2, 3), torus(4, 4), fat_tree(4)]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
class TestGenerators:
    @pytest.mark.parametrize("spec,hosts", [
        (single_switch(8), 8),
        (mesh(2, 3), 6),
        (torus(4, 4), 16),
        (fat_tree(4), 16),
    ])
    def test_host_count_and_validity(self, spec, hosts):
        spec.validate()  # generators return pre-validated specs
        assert len(spec.host_names()) == hosts
        assert sum(1 for n in spec.nodes if n.kind == "tor") == 1

    def test_round_trip_every_generator(self):
        for spec in all_generated():
            doc = spec.to_doc()
            json.dumps(doc)  # JSON-safe
            assert TopologySpec.from_doc(doc) == spec

    def test_from_doc_rejects_unknown_fields(self):
        doc = single_switch(2).to_doc()
        doc["wat"] = 1
        with pytest.raises(ConfigError):
            TopologySpec.from_doc(doc)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ConfigError):
            single_switch(0)
        with pytest.raises(ConfigError):
            mesh(0, 3)
        with pytest.raises(ConfigError):
            fat_tree(3)  # odd k

    def test_torus_wraparound_collapse(self):
        # Width-2 wraparound lands on the existing mesh edge; the
        # generator must dedupe rather than emit a duplicate pair.
        spec = torus(2, 2)
        pairs = [tuple(sorted((e.a, e.b))) for e in spec.edges]
        assert len(pairs) == len(set(pairs))

    def test_validate_catches_bad_graphs(self):
        tor = NodeSpec(name="tor0", kind="tor")
        h = NodeSpec(name="h0", kind="host")
        edge = EdgeSpec(a="h0", b="tor0", latency_ns=10.0, gbps=100.0)
        with pytest.raises(ConfigError):  # no tor
            TopologySpec(name="x", nodes=(h,), edges=()).validate()
        with pytest.raises(ConfigError):  # disconnected host
            TopologySpec(
                name="x",
                nodes=(h, NodeSpec(name="h1"), tor),
                edges=(edge,),
            ).validate()
        with pytest.raises(ConfigError):  # self loop
            TopologySpec(
                name="x", nodes=(h, tor),
                edges=(EdgeSpec(a="h0", b="h0", latency_ns=1.0, gbps=1.0),),
            ).validate()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_route_tables_are_deterministic(self):
        for spec in all_generated():
            first = RouteTables.build(spec).to_doc()
            second = RouteTables.build(spec).to_doc()
            assert first == second

    def test_rack_paths_are_two_hops_host_to_host(self):
        tables = RouteTables.build(single_switch(4))
        assert tables.path("h0", "h3") == ("h0", "tor0", "h3")
        assert tables.path("h2", "tor0") == ("h2", "tor0")

    def test_torus_never_longer_than_mesh(self):
        mesh_tables = RouteTables.build(mesh(4, 4))
        torus_tables = RouteTables.build(torus(4, 4))
        for src in ("h0_0", "h3_3"):
            for dst in ("h0_3", "h3_0", "tor0"):
                assert (
                    torus_tables.hop_count(src, dst)
                    <= mesh_tables.hop_count(src, dst)
                )

    def test_unknown_endpoint_raises(self):
        tables = RouteTables.build(single_switch(2))
        with pytest.raises(ConfigError):
            tables.path("h0", "h9")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestTopologyRegistry:
    def test_builtins_registered(self):
        names = topology_names()
        for name in ("rack8", "mesh_2x2", "torus_4x4", "fat_tree_4"):
            assert name in names

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigError, match="rack8"):
            topology("nope")

    def test_register_and_unregister(self):
        spec = single_switch(3, name="test_rack3")
        try:
            register_topology(spec)
            assert topology("test_rack3") is spec
            with pytest.raises(ConfigError):
                register_topology(spec)
            register_topology(spec, replace=True)
        finally:
            unregister_topology("test_rack3")
        assert "test_rack3" not in topology_names()


# ----------------------------------------------------------------------
# Runtime net and router
# ----------------------------------------------------------------------
class TestTopologyNet:
    def test_charge_accumulates_per_edge_stats(self):
        sim = Simulator()
        net = TopologyNet(sim, single_switch(2))
        delay = net.router.charge(
            "h0", "h1", MessageClass.DMA_WRITE, payload_bytes=256, actor="a"
        )
        # Two hops, each at least the edge's propagation latency.
        assert delay >= 2 * 70.0
        flat = net.stats_flat()
        assert flat["h0~tor0:0:messages"] == 1
        assert flat["h1~tor0:1:messages"] == 1
        assert flat["h0~tor0:0:wire"] > 256

    def test_no_edge_raises(self):
        sim = Simulator()
        net = TopologyNet(sim, mesh(2, 2))
        with pytest.raises(ConfigError):
            net.hop("h0_0", "h1_1")  # not adjacent

    def test_published_gauges_read_the_stats_a_reset_installs(self):
        # reset_stats() replaces every link's LinkStats; the gauges must
        # follow the link to the new objects, not keep the old ones.
        sim = Simulator()
        net = TopologyNet(sim, mesh(2, 2))
        registry = MetricRegistry()
        net.publish_metrics(registry)
        route = ("h0_0", "h1_1", MessageClass.DMA_WRITE)
        net.router.charge(*route, payload_bytes=256)
        net.reset_stats()
        net.router.charge(*route, payload_bytes=256)
        net.router.charge(*route, payload_bytes=256)
        gauges = registry.snapshot()["topology"]
        flat = net.stats_flat()
        published = 0
        for key, value in flat.items():
            edge, direction, field = key.split(":")
            name = {"messages": "messages", "wire": "wire_bytes", "busy": "busy_ns"}[field]
            assert gauges[f"{edge}.{direction}.{name}"] == float(value), key
            published += 1
        assert published == len(gauges)
        # The route's edges carry the two charges made after the reset.
        assert max(v for k, v in flat.items() if k.endswith(":messages")) == 2


# ----------------------------------------------------------------------
# Scenario spec integration
# ----------------------------------------------------------------------
class TestTopologySpecs:
    def test_rack_scenarios_registered(self):
        names = scenario_names()
        assert "kv_rack_zipf" in names
        assert "mesh_2x2_loopback" in names

    def test_partition_must_match_host_count(self):
        spec = scenario("kv_rack_zipf")
        with pytest.raises(ConfigError, match="shards"):
            spec.replace(shards=3).validate()

    def test_host_index_range_checked(self):
        spec = scenario("kv_rack_zipf")
        with pytest.raises(ConfigError):
            spec.replace(host_index=8).validate()

    def test_host_index_requires_topology(self):
        spec = scenario("kv_zipf")
        with pytest.raises(ConfigError):
            spec.replace(host_index=0).validate()

    def test_rack_kv_needs_clients(self):
        spec = scenario("kv_rack_zipf")
        with pytest.raises(ConfigError, match="n_clients"):
            spec.replace(n_clients=0).validate()

    def test_children_carry_host_index(self):
        children = scenario("kv_rack_zipf").shard_specs()
        assert [c.host_index for c in children] == list(range(8))


# ----------------------------------------------------------------------
# End-to-end determinism (S3)
# ----------------------------------------------------------------------
class TestTopologyDeterminism:
    def test_kv_rack_fingerprint_invariant_under_workers(self):
        spec = scenario("kv_rack_zipf")
        runs = {
            workers: run_sharded(spec, workers=workers, quick=True)
            for workers in (1, 2, 4)
        }
        fingerprints = {run.fingerprint for run in runs.values()}
        assert len(fingerprints) == 1
        docs = [run.doc for run in runs.values()]
        assert docs[0] == docs[1] == docs[2]
        topo = runs[1].doc["merged"]["topology"]
        # All eight host edges carried traffic in both directions.
        for host in range(8):
            assert topo[f"h{host}~tor0:0:messages"] > 0
            assert topo[f"h{host}~tor0:1:messages"] > 0

    def test_mesh_loopback_reports_fabric_stats(self):
        run = run_sharded(scenario("mesh_2x2_loopback"), workers=1, quick=True)
        topo = run.doc["merged"]["topology"]
        assert topo["h0_0~s0_0:0:messages"] > 0
        assert topo["s0_0~tor0:0:messages"] > 0

    def test_edge_degrade_fault_plan(self, tmp_path):
        plan = {
            "name": "edge_degrade",
            "events": [{
                "kind": "link_degrade",
                "start_ns": 0.0,
                "factor": 0.5,
                "target": "edge:h0~tor0",
            }],
        }
        path = tmp_path / "edge_degrade.json"
        path.write_text(json.dumps(plan))
        spec = scenario("kv_rack_zipf").replace(fault_plan=str(path))
        degraded = {
            workers: run_sharded(spec, workers=workers, quick=True)
            for workers in (1, 2)
        }
        assert degraded[1].fingerprint == degraded[2].fingerprint
        assert degraded[1].doc == degraded[2].doc
        clean = run_sharded(scenario("kv_rack_zipf"), workers=1, quick=True)
        busy = lambda run, edge: run.doc["merged"]["topology"][f"{edge}:0:busy"]  # noqa: E731
        # Halving h0's uplink bandwidth doubles its serialization time...
        assert busy(degraded[1], "h0~tor0") > busy(clean, "h0~tor0")
        # ...while the targeted plan leaves every other edge untouched.
        assert busy(degraded[1], "h1~tor0") == busy(clean, "h1~tor0")
