"""Monotonic relative-budget deadlines under wall-clock jumps.

Regression suite for the absolute-``time.time()`` deadline design: the
gateway used to stamp a wall-clock instant into each frame and the
shard compared it against *its own* wall clock, so an NTP step (or any
clock skew between processes — guaranteed cross-host) either expired
every in-flight request spuriously (backward jump on the gateway,
``deadline`` already in the shard's past) or immortalized them
(forward jump). The wire now carries a relative remaining budget and
every process tracks expiry on its private ``time.monotonic()`` clock,
so monkeypatching ``time.time`` by ±1 h in the gateway process — the
shard workers are separate unpatched processes, exactly the skewed-peer
topology — must change nothing.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterListener,
    ClusterService,
)
from repro.errors import DeadlineError
from repro.faults import FaultPlan

REAL_TIME = time.time


@pytest.fixture()
def design(cluster_modelset):
    rng = np.random.default_rng(3)
    return rng.standard_normal((3, cluster_modelset.basis.n_variables))


@pytest.mark.parametrize("jump_s", [3600.0, -3600.0])
def test_wall_clock_jump_never_expires_or_immortalizes(
    registry, two_versions, cluster_modelset, design, monkeypatch, jump_s
):
    """±1 h wall-clock step in the gateway: requests still answered,
    bit-identical, with zero spurious deadline expiries."""
    config = ClusterConfig(n_shards=2, default_deadline_s=10.0)
    with ClusterService(registry, ["lna@v1"], config) as cluster:
        cluster.predict_many("lna", design, [0, 1, 2])  # warm, unpatched
        monkeypatch.setattr(time, "time", lambda: REAL_TIME() + jump_s)
        results = cluster.predict_many("lna", design, [0, 1, 2])
        direct = cluster_modelset.predict(design[:1], 0)
        for metric, value in results[0].values.items():
            assert abs(value - float(direct[metric][0])) <= 1e-15
        snapshot = cluster.metrics.snapshot()
        assert all(
            lane["deadline_expired"] == 0
            for lane in snapshot["shards"].values()
        )


def test_yield_survives_wall_clock_jump(
    registry, two_versions, monkeypatch
):
    config = ClusterConfig(n_shards=1, default_deadline_s=30.0)
    with ClusterService(registry, ["lna@v1"], config) as cluster:
        monkeypatch.setattr(time, "time", lambda: REAL_TIME() - 3600.0)
        reply = cluster.yield_report(
            "lna", ["nf_db<=1.6"], n_samples=50, seed=2
        )
        assert reply["key"] == "lna@v1"
        assert cluster.metrics.total_deadline_expired == 0


def test_hung_shard_still_expires_on_monotonic_budget(
    registry, two_versions, design, monkeypatch
):
    """A forward wall-clock jump must not immortalize a request on a
    hung shard: expiry tracks the monotonic budget, nothing else."""
    config = ClusterConfig(
        n_shards=1, default_deadline_s=30.0, max_respawns=0
    )
    with ClusterService(registry, ["lna@v1"], config) as cluster:
        cluster.predict_many("lna", design, [0, 0, 0])  # warm path
        cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
        monkeypatch.setattr(time, "time", lambda: REAL_TIME() + 3600.0)
        started = time.monotonic()
        with pytest.raises(DeadlineError):
            cluster.predict_many(
                "lna", design, [0, 0, 0], deadline_s=0.5
            )
        elapsed = time.monotonic() - started
        assert 0.4 <= elapsed < 10.0
        assert cluster.metrics.total_deadline_expired > 0


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_deadline_rejected_in_process_and_remote(
    registry, two_versions, design, bad
):
    """``inf`` would wait forever on a hung shard and ``nan`` would
    expire as a nonsense deadline: both are refused up front, in
    process and over the wire (JSON carries ``Infinity``/``NaN``)."""
    config = ClusterConfig(n_shards=1, max_respawns=0)
    with ClusterService(registry, ["lna@v1"], config) as cluster:
        cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
        with ClusterListener(cluster) as listener, ClusterClient(
            listener.address
        ) as client:
            for api in (cluster, client):
                calls = (
                    lambda: api.predict_many(
                        "lna", design, [0, 0, 0], deadline_s=bad
                    ),
                    lambda: api.yield_report(
                        "lna", ["nf_db<=1.6"], n_samples=20, deadline_s=bad
                    ),
                )
                for call in calls:
                    started = time.monotonic()
                    with pytest.raises(ValueError, match="deadline_s"):
                        call()
                    assert time.monotonic() - started < 1.0
