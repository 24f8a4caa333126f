"""Small-scope protocol model checker: coverage, mutations, replay.

The checker drives the *real* coherence fabric through every short op
sequence over a few agents and lines and checks each observed
transition against the declarative MESIF spec in
``repro.check.model.TRANSITIONS``. These tests pin the clean-run
contract (full spec coverage, zero violations), prove the checker
catches seeded protocol bugs with shrunk, replayable counterexamples,
and — the scenario-coverage half — assert that the registered
scenarios exercise every spec transition the cross-socket topology can
reach.
"""

import pytest

import repro.topology  # noqa: F401  (registers the topology scenarios)
from repro.check import (
    MUTATIONS,
    TRANSITIONS,
    ModelScope,
    check_model,
    raise_on_failure,
    replay_counterexample,
)
from repro.errors import ConfigError, ModelCheckError
from repro.obs.export import MODEL_SCHEMA, export_model_json, load_model_json
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.shard.runner import execute_spec
from repro.shard.spec import scenario, scenario_names


class TestCleanModel:
    @pytest.fixture(scope="class")
    def report(self):
        return check_model(walks=4)

    def test_full_spec_coverage_zero_violations(self, report):
        assert report["ok"]
        assert report["counterexamples"] == []
        assert report["coverage"]["reached"] == report["coverage"]["total"]
        assert report["coverage"]["missing"] == []
        assert not report["truncated"]

    def test_every_transition_has_probes(self, report):
        assert set(report["transitions"]) == set(TRANSITIONS)
        assert all(
            info["count"] > 0 for info in report["transitions"].values()
        )

    def test_schema_and_roundtrip(self, report, tmp_path):
        assert report["schema"] == MODEL_SCHEMA
        assert report["kind"] == "model"
        path = str(tmp_path / "model.json")
        export_model_json(report, path)
        assert load_model_json(path) == report

    def test_foreign_schema_rejected(self, report, tmp_path):
        path = str(tmp_path / "foreign.json")
        with open(path, "w") as handle:
            handle.write('{"schema": "repro.check/lint-v1"}')
        with pytest.raises(ValueError):
            load_model_json(path)

    def test_raise_on_failure_passes_clean_report(self, report):
        raise_on_failure(report)

    def test_exhaustive_enumeration_is_deterministic(self, report):
        again = check_model(walks=4)
        assert again["states"] == report["states"]
        assert again["probes"] == report["probes"]
        assert again["transitions"] == report["transitions"]


class TestScopeValidation:
    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigError):
            ModelScope(platform="tofino")

    def test_empty_agents_rejected(self):
        with pytest.raises(ConfigError):
            ModelScope(agents=())

    def test_invalid_socket_rejected(self):
        with pytest.raises(ConfigError):
            ModelScope(agents=(("h0", 7),))

    def test_scope_doc_roundtrip(self):
        scope = ModelScope(
            agents=(("a", 0), ("b", 1)), line_homes=(1,), platform="spr"
        )
        assert ModelScope.from_doc(scope.to_doc()) == scope

    def test_two_agent_scope_cannot_reach_local_sharing(self):
        # One agent per socket: the *_local cache-to-cache transitions
        # need two same-socket agents, so they stay unreached — the
        # coverage table names exactly what the scope cannot express.
        scope = ModelScope(agents=(("h0", 0), ("n0", 1)), line_homes=(0,))
        report = check_model(scope=scope, walks=0)
        assert report["counterexamples"] == []
        missing = set(report["coverage"]["missing"])
        assert missing == {
            "read_miss_local_clean",
            "read_miss_local_dirty",
            "write_miss_local_clean",
            "write_miss_local_dirty",
            "write_upgrade_local",
        }


class TestMutations:
    EXPECTED_INVARIANT = {
        "skip-hitm-forward": "swmr",
        "skip-remote-invalidate": "swmr",
        "undercharge-remote-cache": "cost-mismatch",
    }

    def test_expected_invariants_cover_all_mutations(self):
        assert set(self.EXPECTED_INVARIANT) == set(MUTATIONS)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_caught_and_replayable(self, mutation):
        report = check_model(mutation=mutation, walks=0)
        assert not report["ok"]
        assert report["counterexamples"]
        first = report["counterexamples"][0]
        assert first["invariant"] == self.EXPECTED_INVARIANT[mutation]
        violation = replay_counterexample(report, 0)
        assert violation["invariant"] == first["invariant"]

    def test_hitm_counterexample_shrinks_to_two_ops(self):
        # Write then cross-socket read is the minimal HITM trigger; the
        # greedy shrinker must find it no matter where BFS first trips.
        report = check_model(mutation="skip-hitm-forward", walks=0)
        first = report["counterexamples"][0]
        assert len(first["sequence"]) == 2
        assert first["shrunk_from"] >= len(first["sequence"])

    def test_raise_on_failure_carries_counterexample(self):
        report = check_model(mutation="skip-hitm-forward", walks=0)
        with pytest.raises(ModelCheckError) as excinfo:
            raise_on_failure(report)
        assert excinfo.value.invariant == "swmr"
        assert excinfo.value.sequence

    def test_replay_index_out_of_range(self):
        report = check_model(walks=0)
        with pytest.raises(ConfigError):
            replay_counterexample(report, 0)

    def test_stale_counterexample_detected_on_replay(self):
        # Replaying a mutated report *without* the mutation recorded in
        # it would re-apply the mutation; forge a clean-fabric replay by
        # clearing the mutation field instead.
        report = check_model(mutation="skip-hitm-forward", walks=0)
        stale = dict(report, mutation=None)
        with pytest.raises(ModelCheckError):
            replay_counterexample(stale, 0)


class TestScenarioTransitionCoverage:
    """The registered scenarios exercise the spec's reachable transitions.

    Every scenario deploys one coherent agent per socket (host on 0,
    NIC on 1), so the same-socket cache-to-cache transitions — and the
    writer-homed *clean* remote write miss, which needs a capacity
    eviction to leave a clean remote copy behind — are structurally out
    of reach; they are pinned below so this test flags it if a future
    scenario starts covering them. The recorder rides an observer
    bundle, so the labels come from the fabric's plan path.
    """

    STRUCTURALLY_UNREACHED = {
        "r:cache_local",
        "w:cache_local",
        "w:cache_remote",
    }

    @pytest.fixture(scope="class")
    def exercised(self):
        labels = set()
        for name in scenario_names():
            spec = scenario(name)
            if spec.workload == "kv":
                spec = spec.replace(n_ops=400, n_ops_quick=400)
            else:
                spec = spec.replace(n_packets=400, n_packets_quick=400)
            for shard_spec in spec.shard_specs():
                recorder = FlightRecorder()

                def attach(setup, recorder=recorder):
                    setup.instrument(Observability(flight=recorder))

                execute_spec(shard_spec, quick=True, attach=attach)
                labels |= {
                    ("w" if write else "r") + ":" + kind
                    for (_ts, _line, _sock, write, kind, _ns) in recorder.events
                }
        return labels

    def test_six_scenarios_registered(self):
        assert set(scenario_names()) >= {
            "loopback_64b", "kv_zipf", "faults_canned",
            "kv_zipf_1m", "kv_rack_zipf", "mesh_2x2_loopback",
        }

    def test_scenarios_cover_reachable_spec_transitions(self, exercised):
        spec_labels = {rule.observable for rule in TRANSITIONS.values()}
        missing = spec_labels - exercised
        assert missing == self.STRUCTURALLY_UNREACHED, (
            f"scenario coverage changed: missing={sorted(missing)}"
        )

    def test_no_transition_outside_the_spec(self, exercised):
        spec_labels = {rule.observable for rule in TRANSITIONS.values()}
        assert exercised <= spec_labels, (
            f"scenarios exercised transitions the spec does not model: "
            f"{sorted(exercised - spec_labels)}"
        )
