"""Gateway behaviour: routing, canaries, validation, fleet reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.errors import ServingError
from repro.serving import ModelRegistry
from repro.serving.metrics import aggregate_snapshots


@pytest.fixture(scope="module")
def cluster_registry(tmp_path_factory, cluster_modelset) -> ModelRegistry:
    """alpha@v1/v2 and beta@v1/v2 pushed (all identical content)."""
    registry = ModelRegistry(
        tmp_path_factory.mktemp("gateway") / "registry"
    )
    for name in ("alpha", "beta"):
        registry.push(name, cluster_modelset)
        registry.push(name, cluster_modelset)
    return registry


@pytest.fixture(scope="module")
def cluster(cluster_registry):
    """A started two-shard cluster serving alpha@v1 and beta@v1."""
    service = ClusterService(
        cluster_registry,
        keys=["alpha@v1", "beta@v1"],
        config=ClusterConfig(n_shards=2),
    )
    with service:
        yield service


@pytest.fixture()
def design(cluster_modelset):
    rng = np.random.default_rng(11)
    return rng.standard_normal((4, cluster_modelset.basis.n_variables))


class TestPredict:
    def test_single_point_bit_identical(self, cluster, cluster_modelset, design):
        result = cluster.predict("alpha", design[0], 1)
        direct = cluster_modelset.predict(design[:1], 1)
        assert result.version == 1
        for metric, value in result.values.items():
            assert abs(value - float(direct[metric][0])) <= 1e-15

    def test_batch_bit_identical_across_states(
        self, cluster, cluster_modelset, design
    ):
        states = [0, 1, 2, 0]
        results = cluster.predict_many("beta", design, states)
        assert len(results) == len(states)
        for row, (result, state) in enumerate(zip(results, states)):
            direct = cluster_modelset.predict(design[row:row + 1], state)
            for metric, value in result.values.items():
                assert abs(value - float(direct[metric][0])) <= 1e-15

    def test_empty_batch_short_circuits(self, cluster, cluster_modelset):
        x = np.empty((0, cluster_modelset.basis.n_variables))
        assert cluster.predict_many("alpha", x, []) == []

    def test_names_spread_across_shards(self, cluster):
        routes = cluster.describe_routes()
        assert routes["alpha"]["shard"] != routes["beta"]["shard"]


class TestCanary:
    def _versions(self, cluster, design, n=10):
        return [
            cluster.predict("alpha", design[0], 0).version
            for _ in range(n)
        ]

    def test_weight_zero_never_routes_canary(self, cluster, design):
        cluster.set_canary("alpha", "alpha@v2", 0.0)
        try:
            assert self._versions(cluster, design) == [1] * 10
        finally:
            cluster.clear_canary("alpha")

    def test_weight_one_always_routes_canary(self, cluster, design):
        cluster.set_canary("alpha", "alpha@v2", 1.0)
        try:
            assert self._versions(cluster, design) == [2] * 10
        finally:
            cluster.clear_canary("alpha")

    def test_weight_half_alternates_exactly(self, cluster, design):
        cluster.set_canary("alpha", "alpha@v2", 0.5)
        try:
            assert self._versions(cluster, design) == [1, 2] * 5
        finally:
            cluster.clear_canary("alpha")

    def test_canary_shares_stable_shard(self, cluster, design):
        cluster.set_canary("alpha", "alpha@v2", 0.5)
        try:
            assert (
                cluster._key_replicas["alpha@v2"][0]
                == cluster._key_replicas["alpha@v1"][0]
            )
            routes = cluster.describe_routes()
            assert routes["alpha"]["canary"] == "alpha@v2"
            assert routes["alpha"]["weight"] == 0.5
        finally:
            cluster.clear_canary("alpha")

    def test_clear_canary_restores_stable(self, cluster, design):
        cluster.set_canary("alpha", "alpha@v2", 1.0)
        cluster.clear_canary("alpha")
        assert self._versions(cluster, design) == [1] * 10
        assert cluster.describe_routes()["alpha"]["canary"] is None

    def test_promote_makes_canary_stable(self, cluster, design):
        cluster.set_canary("alpha", "alpha@v2", 0.25)
        assert cluster.promote("alpha") == "alpha@v2"
        try:
            routes = cluster.describe_routes()["alpha"]
            assert routes["stable"] == "alpha@v2"
            assert routes["canary"] is None
            assert self._versions(cluster, design) == [2] * 10
        finally:
            cluster.load("alpha@v1")  # restore for other tests

    def test_promote_without_canary_refuses(self, cluster):
        with pytest.raises(ServingError, match="no canary"):
            cluster.promote("beta")

    def test_weight_out_of_range(self, cluster):
        with pytest.raises(ValueError, match="weight"):
            cluster.set_canary("alpha", "alpha@v2", 1.5)

    def test_canary_must_be_same_name(self, cluster):
        with pytest.raises(ServingError, match="not a version"):
            cluster.set_canary("alpha", "beta@v2", 0.5)


class TestHotSwap:
    def test_load_switches_stable_version(self, cluster, design):
        assert cluster.load("beta@v2") == "beta@v2"
        try:
            result = cluster.predict("beta", design[0], 0)
            assert result.version == 2
        finally:
            cluster.load("beta@v1")


class TestFleetReporting:
    def test_engine_metrics_aggregate_across_all_shards(
        self, cluster, design
    ):
        """Regression: the report must sum every shard's engine, not
        just shard 0's — alpha and beta live on different shards and
        both see traffic here."""
        for _ in range(3):
            cluster.predict_many("alpha", design, [0] * len(design))
            cluster.predict_many("beta", design, [1] * len(design))
        snapshots = cluster.shard_engine_snapshots()
        assert len(snapshots) == 2
        engines = [s["engine"] for s in snapshots]
        assert all(engine["requests"] > 0 for engine in engines)
        total = aggregate_snapshots(engines)
        assert total["requests"] == sum(e["requests"] for e in engines)
        assert total["requests"] > max(e["requests"] for e in engines)
        report = cluster.report()
        assert f"requests={total['requests']}" in report
        assert "aggregate:" in report

    def test_snapshot_has_per_shard_and_per_version_lanes(
        self, cluster, design
    ):
        cluster.predict_many("alpha", design, [0] * len(design))
        snapshot = cluster.metrics.snapshot()
        assert "alpha@v1" in snapshot["versions"]
        assert snapshot["versions"]["alpha@v1"]["requests"] > 0
        shard = cluster.describe_routes()["alpha"]["shard"]
        assert snapshot["shards"][shard]["requests"] > 0

    def test_shard_snapshots_carry_store_numbers(self, cluster):
        for snap in cluster.shard_engine_snapshots():
            assert snap["store_bytes"] > 0
            assert snap["pid"] > 0


class TestReplication:
    def test_replicas_spread_primary_first(self, cluster_registry):
        service = ClusterService(
            cluster_registry,
            keys=["alpha@v1", "beta@v1"],
            config=ClusterConfig(n_shards=3, replication=2),
        )
        with service:
            routes = service.describe_routes()
            for name in ("alpha", "beta"):
                replicas = routes[name]["replicas"]
                assert len(replicas) == 2
                assert len(set(replicas)) == 2
                assert routes[name]["shard"] == replicas[0]
            # Canary versions are co-placed on the stable's full
            # replica set, not just its primary.
            service.set_canary("alpha", "alpha@v2", 0.5)
            assert (
                service._key_replicas["alpha@v2"]
                == service._key_replicas["alpha@v1"]
            )
            service.clear_canary("alpha")

    def test_replication_clamped_to_fleet_size(self, cluster_registry):
        service = ClusterService(
            cluster_registry,
            keys=["alpha@v1"],
            config=ClusterConfig(n_shards=2, replication=8),
        )
        with service:
            replicas = service.describe_routes()["alpha"]["replicas"]
            assert sorted(replicas) == [0, 1]

    def test_replicated_predict_bit_identical(
        self, cluster_registry, cluster_modelset, design
    ):
        service = ClusterService(
            cluster_registry,
            keys=["alpha@v1"],
            config=ClusterConfig(n_shards=2, replication=2),
        )
        with service:
            results = service.predict_many("alpha", design, [0] * 4)
            direct = cluster_modelset.predict(design, 0)
            for row, result in enumerate(results):
                for metric, value in result.values.items():
                    assert (
                        abs(value - float(direct[metric][row])) <= 1e-15
                    )


class TestValidation:
    def test_unknown_name(self, cluster, design):
        with pytest.raises(ServingError, match="no model named"):
            cluster.predict("nope", design[0], 0)

    def test_one_dimensional_x(self, cluster, design):
        with pytest.raises(ValueError, match="2-D"):
            cluster.predict_many("alpha", design[0], [0])

    def test_states_length_mismatch(self, cluster, design):
        with pytest.raises(ValueError, match="states"):
            cluster.predict_many("alpha", design, [0])

    def test_nonpositive_deadline(self, cluster, design):
        with pytest.raises(ValueError, match="deadline"):
            cluster.predict_many(
                "alpha", design, [0] * len(design), deadline_s=0.0
            )

    def test_not_started(self, cluster_registry):
        service = ClusterService(cluster_registry, keys=["alpha@v1"])
        with pytest.raises(ServingError, match="not started"):
            service.predict("alpha", np.zeros(3), 0)

    def test_double_start_refused(self, cluster):
        with pytest.raises(ServingError, match="already started"):
            cluster.start()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shards": 0},
            {"replication": 0},
            {"max_queue_rows": 0},
            {"max_batch_rows": 0},
            {"default_deadline_s": 0.0},
            {"max_respawns": -1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)
