"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import common  # noqa: E402
import run  # noqa: E402


# ----------------------------------------------------------------------
# Names and units agree with BENCHMARK.json.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_workload_names_match(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("section, table", [
    ("end_to_end", run.END_TO_END),
    ("per_layer", run.PER_LAYER),
])
def test_metric_names_units_and_direction_match(declared, section, table):
    listed = {m["name"]: (m["unit"], m["better"]) for m in declared[section]}
    assert listed == table


def test_every_workload_reports_every_end_to_end_metric():
    native = {name: 2.0 for name in run.END_TO_END}
    for workload, mirrors in run.MIRRORS.items():
        measured = {k: v for k, v in native.items() if k not in mirrors}
        completed = run.complete_metrics(workload, measured)
        assert list(completed) == list(run.END_TO_END)
        assert all(value > 0 for value in completed.values())


def test_command_and_paths(declared):
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]


# ----------------------------------------------------------------------
# Self-time arithmetic.
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        common.Span(0, "request", 0.0, 10.0),
        common.Span(1, "net", 1.0, 3.0, parent=0),
        common.Span(2, "net", 2.0, 5.0, parent=0),  # overlaps span 1
        common.Span(3, "gateway", 7.0, 8.0, parent=0),
        common.Span(4, "shard", 7.25, 7.75, parent=3),
        common.Span(5, "gateway", 9.5, 12.0, parent=0),  # runs past parent
    ]
    got = common.self_times(spans)
    # request: 10 - |[1,5] ∪ [7,8] ∪ [9.5,10]| = 10 - 5.5
    assert got["request"] == pytest.approx(4.5)
    assert got["net"] == pytest.approx(2.0 + 3.0)
    assert got["gateway"] == pytest.approx(0.5 + 2.5)
    assert got["shard"] == pytest.approx(0.5)


def test_tracer_nests_spans_and_stays_silent_when_disabled():
    tracer = common.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", request=7):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.id and inner.request == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    off = common.Tracer(enabled=False)
    with off.span("outer"):
        off.add("x", 0.0, 1.0)
    assert off.spans == []


def test_tail_refuses_a_percentile_with_too_few_samples_beyond():
    values = list(range(100))
    assert common.tail(values, 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        common.tail(values, 95)


# ----------------------------------------------------------------------
# Inputs are a function of the seed.
# ----------------------------------------------------------------------
def test_request_pools_are_deterministic_per_seed():
    import servebench

    def flat(pools):
        return [a for pool in pools for block in pool.blocks for a in block]

    first = flat(servebench._rows32_pools(3, 141))
    again = flat(servebench._rows32_pools(3, 141))
    other = flat(servebench._rows32_pools(4, 141))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])
    bulk = servebench._bulk_pool(3, 141)
    bulk_again = servebench._bulk_pool(3, 141)
    assert all(
        np.array_equal(a, b)
        for block, twin in zip(bulk.blocks, bulk_again.blocks)
        for a, b in zip(block, twin)
    )


def test_rows32_pool_outgrows_the_server_cache():
    import servebench

    pools = servebench._rows32_pools(0, 141)
    rows = sum(x.shape[0] for x, _ in pools[0].blocks)
    assert rows > servebench.SERVER_CACHE_ROWS
    unique = {row.tobytes() for x, _ in pools[0].blocks for row in x}
    assert len(unique) == rows


def test_fit_datasets_are_deterministic_per_seed():
    import fitbench

    spec = fitbench.SPECS["fit-lna16"]
    train, test = fitbench.simulate(spec, 5)
    train2, test2 = fitbench.simulate(spec, 5)
    for a, b in zip(train.inputs() + test.inputs(),
                    train2.inputs() + test2.inputs()):
        assert np.array_equal(a, b)
    assert train.n_states == 16 and test.n_samples_per_state[0] == 30


# ----------------------------------------------------------------------
# The correctness gate.
# ----------------------------------------------------------------------
def _fleet(seed=0, n_states=3, n_variables=5):
    from repro.basis.polynomial import LinearBasis
    from repro.core.frozen import FrozenModel

    rng = np.random.default_rng(seed)
    basis = LinearBasis(n_variables)
    models = {
        metric: FrozenModel(rng.standard_normal((n_states, basis.n_basis)),
                            metric=metric)
        for metric in ("a_db", "b_db")
    }
    return models, basis


def _stream(seed=1, n_states=3, n_variables=5):
    """Requests with in-request duplicates and rows repeated across them."""
    rng = np.random.default_rng(seed)
    hot = rng.standard_normal((4, n_variables))
    stream = []
    for _ in range(6):
        x = np.vstack([rng.standard_normal((9, n_variables)),
                       hot[rng.integers(0, 4, 7)]])
        stream.append((x, rng.integers(0, n_states, x.shape[0])))
    return stream


def test_oracle_reproduces_the_engine_bit_for_bit():
    import servebench
    from repro.serving import CacheConfig, PredictionEngine
    from repro.serving.engine import ServedModel

    models, basis = _fleet()
    served = ServedModel("m", 1, basis, models)
    for capacity in (0, 8, 4096):
        engine = PredictionEngine(cache=CacheConfig(capacity=capacity))
        oracle = servebench.Oracle(models, basis, capacity=capacity)
        for x, states in _stream():
            reply = servebench._columns(
                engine.predict_many(served, x, states), models
            )
            assert servebench._same_bits(reply, oracle.expect(x, states))


def _gate(models, basis):
    import servebench

    fixture = servebench.Fixture(ROOT, "unused", 0)
    fixture.oracles = [servebench.Oracle(models, basis)]
    return fixture


def _replies(truth, version=1):
    from repro.serving.requests import PredictionResult

    n = len(next(iter(truth.values())))
    return [
        PredictionResult(values={m: float(truth[m][i]) for m in truth},
                         version=version)
        for i in range(n)
    ]


def test_gate_accepts_exact_replies_and_rejects_a_one_ulp_change():
    import servebench

    models, basis = _fleet()
    (x, states), *_ = _stream()
    truth = servebench.Oracle(models, basis).expect(x, states)

    exact = common.Outcome()
    _gate(models, basis).check_reply("r", 0, x, states, "ok",
                                     _replies(truth), exact)
    assert exact.failures == [] and exact.attempted == 1

    nudged = {m: v.copy() for m, v in truth.items()}
    nudged["b_db"][3] = np.nextafter(nudged["b_db"][3], np.inf)
    bad = common.Outcome()
    _gate(models, basis).check_reply("r", 0, x, states, "ok",
                                     _replies(nudged), bad)
    assert len(bad.failures) == 1


def test_gate_rejects_wrong_version_and_refusals():
    import servebench

    models, basis = _fleet()
    (x, states), *_ = _stream()
    truth = servebench.Oracle(models, basis).expect(x, states)
    out = common.Outcome()
    _gate(models, basis).check_reply("r", 0, x, states, "ok",
                                     _replies(truth, version=2), out)
    _gate(models, basis).check_reply("s", 0, x, states, "shed", None, out)
    assert out.attempted == 2 and len(out.failures) == 2


# ----------------------------------------------------------------------
# Teardown: orphans are adopted, waited for, and killed when they linger.
# ----------------------------------------------------------------------
_ORPHAN_SCRIPT = """
import json, os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
import common
adopted = common.become_subreaper()
# The shell exits at once; its background sleeps become orphans.
subprocess.run(["sh", "-c", "sleep 0.3 & sleep 60 & exit 0"], check=True)
time.sleep(0.1)
orphans = sorted(common.descendants(os.getpid()))
killed = common.reap_children(grace=1.0)
print(json.dumps({"adopted": adopted, "orphans": orphans,
                  "killed": killed,
                  "left": sorted(common.descendants(os.getpid()))}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreapers are a Linux feature")
def test_reaper_waits_for_orphans_and_kills_stragglers():
    import subprocess

    done = subprocess.run([sys.executable, "-c", _ORPHAN_SCRIPT, BENCH],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["adopted"]
    assert len(report["orphans"]) == 2
    assert len(report["killed"]) == 1 and "sleep 60" in report["killed"][0]
    assert report["left"] == []
