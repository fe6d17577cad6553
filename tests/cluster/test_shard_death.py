"""A shard death: every row counted once, no worker left behind.

A predict is registered as pending before it is queued for the shard's
sender, so when a shard dies the pending table already names every
request still in flight, queued ones included. Counting the drained
queue as well charged a queued request twice, and a queued request
whose wait had already expired once as a deadline and again as a
crash. The report must account for exactly the rows sent.

A ``stop()`` that lands while a killed shard is being respawned cancels
the respawn; the worker it had already started must be stopped too.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.errors import DeadlineError, ShardCrashError
from repro.faults import FaultPlan

ROWS = 512


def _report_totals(text: str) -> dict:
    """Sum the SHARD table's REQS/SHED/DEADLN/CRASH columns."""
    totals = {"ok": 0, "shed": 0, "deadline": 0, "crash": 0}
    in_table = False
    for line in text.splitlines():
        if line.startswith("SHARD"):
            in_table = True
            continue
        if in_table:
            parts = line.split()
            if not parts or not parts[0].isdigit():
                break
            for key, value in zip(totals, parts[1:5]):
                totals[key] += int(value)
    return totals


def _wait_for(predicate, timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.02)


def test_queued_predicts_counted_once_when_shard_dies(
    registry, two_versions, cluster_modelset
):
    """Hang the shard, queue 512-row predicts (two of which expire while
    queued), kill it: rows sent = ok + shed + deadline + crash."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((ROWS, cluster_modelset.basis.n_variables))
    states = np.zeros(ROWS, dtype=int)
    config = ClusterConfig(n_shards=1, max_respawns=1)
    with ClusterService(registry, ["lna@v1"], config) as cluster:
        cluster.predict_many("lna", x, states)  # warm path
        sent = ROWS
        cluster.inject_faults(FaultPlan.parse("shard:hang@0"))
        handle = cluster._shards[0]
        deadlines = [0.5, 0.5, 60.0, 60.0, 60.0, 60.0]
        with ThreadPoolExecutor(max_workers=len(deadlines)) as pool:
            futures = [
                pool.submit(
                    cluster.predict_many, "lna", x, states, deadline_s=d
                )
                for d in deadlines
            ]
            sent += ROWS * len(deadlines)
            # The short waits expire while their frames are still queued
            # behind the first frame, which the hung shard never reads.
            _wait_for(lambda: sum(f.done() for f in futures) == 2)
            killed = handle.process.pid
            os.kill(killed, signal.SIGKILL)
            outcomes = []
            for future in futures:
                with pytest.raises((DeadlineError, ShardCrashError)) as err:
                    future.result(timeout=30.0)
                outcomes.append(err.type)
        assert outcomes == [DeadlineError] * 2 + [ShardCrashError] * 4
        # Let the respawn finish before the report and the teardown.
        _wait_for(lambda: handle.alive and handle.process.pid != killed)
        totals = _report_totals(cluster.report())
        assert totals == {
            "ok": ROWS,
            "shed": 0,
            "deadline": 2 * ROWS,
            "crash": 4 * ROWS,
        }
        assert sum(totals.values()) == sent


def test_stop_during_respawn_leaves_no_worker(registry, two_versions):
    config = ClusterConfig(n_shards=1, max_respawns=1)
    with ClusterService(registry, ["lna@v1"], config) as cluster:
        os.kill(cluster._shards[0].process.pid, signal.SIGKILL)
        # Stop as soon as the respawn begins, long before the new
        # worker's handshake.
        _wait_for(lambda: cluster.metrics.total_respawns == 1)
    alive = [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    ]
    assert alive == []
