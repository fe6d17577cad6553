"""Serve workloads against a ``python -m repro cluster serve`` subprocess.

``serve-rows32`` drives an open loop of 32-row predicts at fixed rates;
``serve-bulk`` runs a closed loop of 512-row predicts beside a fixed
schedule of yield frames and canary cycles. Both check every reply
against in-process ground truth after the timed phase, check request
conservation against the server's own report, and verify at teardown
that no server or shard process is left alive.

The traced run adds a ladder: one request stream replayed through
``FrozenModel`` → ``PredictionEngine`` → ``ModelService`` → in-process
``ClusterService`` → ``ClusterClient`` over TCP; each layer's self time
is the difference between adjacent rungs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    Outcome,
    Tracer,
    alive,
    descendants,
    gc_paused,
    has_tail,
    load_phase,
    median,
    proc_user_cpu_s,
    proc_peak_rss_mb,
    quantile,
    tail,
)

#: Server start-ups per run; setup_s is their median (plus, on
#: serve-bulk, the one-off sweep fit, push and load). Each start-up
#: costs about 4 s of a run's budget.
SETUP_REPS = 2
#: The demo fleet ``cluster serve`` fits: 4 states × 141 variables.
FLEET_STATES = 4
NAMES = ("lna0", "lna1")
#: Per-shard LRU capacity of the server (the CLI default). Request
#: pools cycle through more distinct rows than this, so "fresh" rows
#: are always evicted before they come round again.
SERVER_CACHE_ROWS = 16_384
#: Engine knobs the server runs with (CLI defaults), mirrored by the
#: in-process ladder rungs.
SERVER_BATCH_ROWS = 64

# serve-rows32 -----------------------------------------------------------
ROWS_SMALL = 32
RATE_LO, RATE_HI = 100.0, 200.0
#: Absolute rates tried for max_rate_rps, lowest first; the ladder
#: stops at the first rung that misses the limit.
RATE_LADDER = (230.0, 260.0, 300.0, 340.0, 390.0, 450.0, 520.0, 600.0)
TAIL_LIMIT_MS = 20.0
#: Tail percentile of the open-loop phases (>= 10 samples beyond it).
TAIL_PCT_OPEN = 90.0
#: Shares of the run given to the lo and hi phases; the rest goes to
#: the ladder, one rung per RUNG_SHARE. lo is longest: its server CPU
#: per request is the workload's bounded metric.
LO_SHARE, HI_SHARE = 0.4, 0.25
RUNG_SHARE = 0.04
POOL_REQS_SMALL = 640  # x 32 rows = 20480 distinct rows per name

# serve-bulk -------------------------------------------------------------
ROWS_BULK = 512
HOT_POOL = 256
POOL_REQS_BULK = 96  # x 256 fresh rows = 24576 distinct fresh rows
TICK_S = 2.0
YIELD_SAMPLES = 400
#: The yield-report CLI's default specs for the swept LNA.
SWEEP_SPECS = ("s21_db>=16.5", "nf_db<=1.55")
SWEEP_TRAIN_ROWS = 4
#: Share of --seconds spent on reads alone before the mixed phase: the
#: server CPU one 512-row read costs, with no yield frame beside it.
QUIET_SHARE = 0.25
TAIL_PCT_BULK = 90.0

#: Served-fleet held-out rows per state for fit_err_rel. The server
#: fits its demo fleet at its own default seed, so only this draw (and
#: the request streams) follow the benchmark seed.
HOLDOUT_ROWS = 100
#: Requests per ladder rung after as many warm-up requests; half carry
#: spans, half do not (the tracing overhead). Bulk slots stay <= its pool.
LADDER_REQS = {ROWS_SMALL: 150, ROWS_BULK: 40}


# ----------------------------------------------------------------------
# Server subprocess.
# ----------------------------------------------------------------------
_SERVE_MAIN = (
    "import signal, sys; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


class Server:
    """``python -m repro cluster serve`` on an OS-chosen loopback port."""

    def __init__(self, root: str, registry: str) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # `python -m repro cluster serve`, with Python's interrupt handler
        # installed explicitly: a process started in the background
        # inherits SIGINT ignored, and stop() relies on the CLI's
        # KeyboardInterrupt path to shut the shards down cleanly.
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE_MAIN, "cluster", "serve",
             "--listen", "127.0.0.1:0", "--registry", registry],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.lines: List[str] = []
        self.address: Optional[str] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self._children: Dict[int, str] = {}

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = re.search(r"listening on (\S+)", line)
            if match and self.address is None:
                self.address = match.group(1)
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 120.0) -> str:
        self._ready.wait(timeout)
        if self.address is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "\n".join(self.lines[-20:])
            )
        self._children = descendants(self.proc.pid)
        return self.address

    def workers(self) -> Dict[int, str]:
        """Gateway and shard pids (the multiprocessing tracker excluded)."""
        pids = {self.proc.pid: "gateway"}
        pids.update({
            pid: cmd for pid, cmd in descendants(self.proc.pid).items()
            if "resource_tracker" not in cmd
        })
        return pids

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in self.workers())

    def cpu_s(self) -> float:
        """User CPU seconds the gateway and shards have used so far."""
        return sum(proc_user_cpu_s(pid) for pid in self.workers())

    def stop(self) -> List[str]:
        """Interrupt, wait, escalate; return any process left alive."""
        tracked = dict(self._children)
        tracked.update(descendants(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        deadline = time.monotonic() + 10.0
        left = [pid for pid in tracked if alive(pid)]
        while left and time.monotonic() < deadline:
            time.sleep(0.1)
            left = [pid for pid in left if alive(pid)]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return [f"{pid} {tracked[pid]}" for pid in left]


# ----------------------------------------------------------------------
# Ground truth.
# ----------------------------------------------------------------------
def frozen_predict(models, basis, x, states) -> Dict[str, np.ndarray]:
    """Every metric for rows ``x`` by ``FrozenModel.predict`` per state."""
    out = {metric: np.empty(x.shape[0]) for metric in models}
    for state in np.unique(states):
        index = np.flatnonzero(states == state)
        design = basis.expand(x[index])
        for metric, frozen in models.items():
            out[metric][index] = frozen.predict(design, int(state))
    return out


class Oracle:
    """What one shard must answer, replayed from ``FrozenModel.predict``.

    ``PredictionEngine`` answers each state's cache misses with one
    ``FrozenModel.predict`` on the stacked, de-duplicated miss rows, and
    a hit with the value stored when that row missed. A row's last bits
    depend on its position in the stacked matrix, so ground truth
    replays the same de-duplication and the same LRU (inputs rounded to
    the cache's 9 decimals) over the requests in the order the shard
    received them.
    """

    def __init__(self, models, basis, capacity: int = SERVER_CACHE_ROWS,
                 decimals: int = 9) -> None:
        self.models, self.basis = models, basis
        self.capacity, self.decimals = capacity, decimals
        self.cache: "OrderedDict[Tuple[int, bytes], Dict[str, float]]" = (
            OrderedDict()
        )

    def expect(self, x: np.ndarray, states) -> Dict[str, np.ndarray]:
        out = {metric: np.empty(x.shape[0]) for metric in self.models}
        rounded = np.ascontiguousarray(np.round(x, self.decimals) + 0.0)
        misses: Dict[int, Dict[Tuple[int, bytes], List[int]]] = {}
        for i, state in enumerate(int(k) for k in states):
            key = (state, rounded[i].tobytes())
            values = self.cache.get(key) if self.capacity else None
            if values is not None:
                self.cache.move_to_end(key)
                for metric in out:
                    out[metric][i] = values[metric]
            else:
                misses.setdefault(state, {}).setdefault(key, []).append(i)
        for state, keys in misses.items():
            design = self.basis.expand(x[[rows[0] for rows in keys.values()]])
            columns = {metric: frozen.predict(design, state)
                       for metric, frozen in self.models.items()}
            for j, (key, rows) in enumerate(keys.items()):
                values = {metric: columns[metric][j] for metric in columns}
                for metric in out:
                    out[metric][rows] = values[metric]
                if self.capacity:
                    self.cache[key] = values
                    self.cache.move_to_end(key)
                    while len(self.cache) > self.capacity:
                        self.cache.popitem(last=False)
        return out


def _columns(results, metrics) -> Dict[str, np.ndarray]:
    n = len(results)
    return {
        metric: np.fromiter((r.values[metric] for r in results),
                            dtype=float, count=n)
        for metric in metrics
    }


def _same_bits(reply: Dict[str, np.ndarray],
               truth: Dict[str, np.ndarray]) -> bool:
    return reply.keys() == truth.keys() and all(
        np.array_equal(reply[m].view(np.uint64), truth[m].view(np.uint64))
        for m in truth
    )


def fleet_error(models, basis, seed: int) -> Tuple[float, float]:
    """Held-out RMSE / std of the served fleet; and the simulation time."""
    from repro.circuits.lna import TunableLNA
    from repro.simulate.montecarlo import MonteCarloEngine

    started = time.perf_counter()
    test = MonteCarloEngine(
        TunableLNA(n_states=FLEET_STATES, n_variables=None),
        # A stream of its own: never the server's training draw.
        seed=np.random.default_rng([seed, 1]),
    ).run(HOLDOUT_ROWS)
    simulate_s = time.perf_counter() - started
    ratios = []
    for metric in models:
        truth = np.concatenate(test.targets(metric))
        predicted = np.concatenate([
            frozen_predict({metric: models[metric]}, basis, x,
                           np.full(x.shape[0], k))[metric]
            for k, x in enumerate(test.inputs())
        ])
        rmse = float(np.sqrt(np.mean((predicted - truth) ** 2)))
        ratios.append(rmse / float(np.std(truth)))
    return float(np.mean(ratios)), simulate_s


# ----------------------------------------------------------------------
# Request records.
# ----------------------------------------------------------------------
STATUSES = ("ok", "shed", "deadline", "crash", "error")


@dataclass
class Record:
    """One request as the generator saw it."""

    index: int
    conn: int
    pool: int
    due: float
    start: float
    end: float
    status: str
    results: Optional[list] = None
    wait: float = 0.0
    lag: float = 0.0

    @property
    def latency(self) -> float:
        return self.end - self.due


def _status(error: Exception) -> str:
    from repro.errors import DeadlineError, ShardCrashError, ShedError

    for kind, cls in (("shed", ShedError), ("deadline", DeadlineError),
                      ("crash", ShardCrashError)):
        if isinstance(error, cls):
            return kind
    return "error"


def _call(client, name, x, states):
    from repro.errors import ServingError

    try:
        return "ok", client.predict_many(name, x, states)
    except (ServingError, ValueError, OSError) as error:
        return _status(error), None


@dataclass
class Phase:
    """Counts and latencies of one load phase."""

    name: str
    rate: float
    records: List[Record] = field(default_factory=list)
    duration: float = 0.0
    #: Server user CPU seconds (gateway + shards) during the phase.
    cpu_s: float = 0.0

    def counts(self) -> Dict[str, int]:
        out = {"sent": len(self.records)}
        for status in STATUSES:
            out[status] = sum(r.status == status for r in self.records)
        return out

    def latencies_ms(self) -> List[float]:
        return [r.latency * 1e3 for r in self.records if r.status == "ok"]

    def summary(self, pct: float) -> Dict[str, object]:
        lat = self.latencies_ms()
        out: Dict[str, object] = {"rate": self.rate, **self.counts(),
                                  "duration_s": self.duration,
                                  "server_cpu_s": self.cpu_s}
        if lat:
            out["p50_ms"] = median(lat)
            out["max_ms"] = max(lat)
            for q in sorted({75.0, 90.0, 95.0, 99.0, pct}):
                if has_tail(len(lat), q):
                    out[f"p{q:g}_ms"] = tail(lat, q)
        return out


class Pools:
    """Pre-generated request inputs, cycled per connection."""

    def __init__(self, blocks: Sequence[Tuple[np.ndarray, np.ndarray]]):
        self.blocks = list(blocks)
        self.cursor = 0

    def take(self) -> int:
        index = self.cursor % len(self.blocks)
        self.cursor += 1
        return index


def _rows32_pools(seed: int, n_variables: int) -> List[Pools]:
    pools = []
    for conn in range(len(NAMES)):
        rng = np.random.default_rng([seed, 32, conn])
        pools.append(Pools([
            (rng.standard_normal((ROWS_SMALL, n_variables)),
             rng.integers(0, FLEET_STATES, ROWS_SMALL))
            for _ in range(POOL_REQS_SMALL)
        ]))
    return pools


def _bulk_pool(seed: int, n_variables: int) -> Pools:
    rng = np.random.default_rng([seed, 512])
    hot = rng.standard_normal((HOT_POOL, n_variables))
    half = ROWS_BULK // 2
    blocks = []
    for _ in range(POOL_REQS_BULK):
        x = np.vstack([rng.standard_normal((half, n_variables)),
                       hot[rng.integers(0, HOT_POOL, half)]])
        blocks.append((x, rng.integers(0, FLEET_STATES, ROWS_BULK)))
    return Pools(blocks)


def open_loop(clients, pools: List[Pools], rate: float, duration: float,
              name: str, server: "Server") -> Phase:
    """Send ``rate`` req/s for ``duration`` s, alternating connections.

    Request ``i`` is due at ``t0 + i / rate`` on connection ``i % 2``
    and is timed from its due time. A connection still busy at the due
    time makes the request wait (``wait``); a late wake-up of the
    generator itself is its ``lag``.
    """
    n = max(int(rate * duration), 1)
    phase = Phase(name, rate)
    lanes: List[List[Record]] = [[] for _ in clients]
    t0 = time.perf_counter() + 0.02

    def lane(conn: int) -> None:
        client, pool, target = clients[conn], pools[conn], NAMES[conn]
        free_at = t0
        for i in range(conn, n, len(clients)):
            due = t0 + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            slot = pool.take()
            x, states = pool.blocks[slot]
            status, results = _call(client, target, x, states)
            end = time.perf_counter()
            lanes[conn].append(Record(
                i, conn, slot, due, start, end, status, results,
                wait=max(0.0, free_at - due),
                lag=start - max(due, free_at),
            ))
            free_at = end

    threads = [threading.Thread(target=lane, args=(c,))
               for c in range(len(clients))]
    with load_phase():
        cpu = server.cpu_s()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.cpu_s = server.cpu_s() - cpu
    phase.records = sorted((r for rs in lanes for r in rs),
                           key=lambda r: r.index)
    phase.duration = max(r.end for r in phase.records) - t0
    return phase


# ----------------------------------------------------------------------
# Shared set-up and checks.
# ----------------------------------------------------------------------
class Fixture:
    """A started server plus the registry-side truth for its fleet."""

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed
        self.server: Optional[Server] = None
        self.setup_times: List[float] = []
        self.rows_sent = 0

    def start(self) -> None:
        from repro.serving import ModelRegistry

        for rep in range(SETUP_REPS):
            if self.server is not None:
                leftovers = self.server.stop()
                if leftovers:
                    raise RuntimeError(f"processes left alive: {leftovers}")
            registry = os.path.join(self.work, f"registry{rep}")
            started = time.perf_counter()
            self.server = Server(self.root, registry)
            self.address = self.server.wait_ready()
            self.setup_times.append(time.perf_counter() - started)
        self.registry = ModelRegistry(registry)
        self.truth = {}
        for name in NAMES:
            _, models, basis = self.registry.load_models(f"{name}@v1")
            self.truth[name] = (models, basis)
        self.basis = self.truth[NAMES[0]][1]
        self.oracles = [Oracle(*self.truth[name]) for name in NAMES]

    def check_predicts(self, phases: Sequence[Phase], pools,
                       out: Outcome) -> None:
        """Every ok reply must carry the oracle's exact bits, in send order.

        Connection ``c`` is the only sender to name ``NAMES[c]`` and its
        shard, so each connection's records, phase after phase, are the
        order that shard saw.
        """
        for phase in phases:
            for record in phase.records:
                x, states = pools[record.conn].blocks[record.pool]
                self.rows_sent += x.shape[0]
                self.check_reply(f"{phase.name} request {record.index}",
                                 record.conn, x, states, record.status,
                                 record.results, out)
                record.results = None

    def check_reply(self, label: str, conn: int, x, states, status: str,
                    results, out: Outcome) -> None:
        out.attempted += 1
        if status != "ok":
            out.fail(f"{label}: {status}")
            return
        oracle = self.oracles[conn]
        truth = oracle.expect(x, states)
        versions = {r.version for r in results}
        if versions != {1} or not _same_bits(
            _columns(results, oracle.models), truth
        ):
            out.fail(f"{label}: reply differs from FrozenModel.predict "
                     f"(versions {sorted(versions)})")

    def conservation(self, client, out: Outcome) -> Dict[str, int]:
        """sent rows = REQS + SHED + DEADLN + CRASH over the server's shards."""
        text = client.report()
        totals = {"requests": 0, "shed": 0, "deadline": 0, "crash": 0}
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
        accounted = sum(totals.values())
        if accounted != self.rows_sent:
            out.fail(f"conservation: sent {self.rows_sent} rows, server "
                     f"accounts for {accounted} ({totals})")
        hits = re.search(r"aggregate: .*cache_hits=(\d+) cache_misses=(\d+)",
                         text)
        if hits:
            totals["cache_hits"] = int(hits.group(1))
            totals["cache_misses"] = int(hits.group(2))
        return totals

    def stop(self, out: Outcome) -> None:
        if self.server is None:
            return
        leftovers = self.server.stop()
        self.server = None
        out.attempted += 1
        if leftovers:
            out.fail(f"processes left alive after teardown: {leftovers}")


def _connect(address: str, n: int):
    from repro.cluster import ClusterClient

    return [ClusterClient(address) for _ in range(n)]


def _load_layers(phases: Sequence[Phase], counts: Dict[str, int],
                 lag: Sequence[float], wait: Sequence[float],
                 out: Outcome) -> None:
    """Per-phase request counts, cache hit ratio, generator honesty.

    Each timed request also becomes a ``bench.request`` span (due time to
    reply) around its ``client.predict_many`` call, so its self time is
    what the generator and the busy connection added.
    """
    tracer: Tracer = out.detail.setdefault("tracer", Tracer())
    total = {status: 0 for status in ("sent",) + STATUSES}
    for phase in phases:
        for key, value in phase.counts().items():
            total[key] += value
        for record in phase.records:
            request = len(tracer.spans)  # unique across phases
            parent = tracer.add("bench.request", record.due, record.end,
                                request=request)
            tracer.add("client.predict_many", record.start, record.end,
                       parent=parent, request=request)
    out.layers.update({
        "cluster.net.sent": float(total["sent"]),
        "cluster.net.ok": float(total["ok"]),
        "cluster.net.shed": float(total["shed"]),
        "cluster.net.deadline": float(total["deadline"]),
        "cluster.net.crash": float(total["crash"]),
        "bench.gen_lag_ms": quantile(lag, 0.99) * 1e3,
        "bench.conn_wait_ms": quantile(wait, 0.99) * 1e3,
    })
    looked = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    if looked:
        out.layers["serving.engine.cache_hit_ratio"] = (
            counts["cache_hits"] / looked
        )
    out.detail["generator_ms"] = {
        "lag_p50": median(lag) * 1e3, "lag_p99": quantile(lag, 0.99) * 1e3,
        "wait_p50": median(wait) * 1e3,
        "wait_p99": quantile(wait, 0.99) * 1e3,
    }


# ----------------------------------------------------------------------
# serve-rows32
# ----------------------------------------------------------------------
def _rung_passes(phase: Phase) -> bool:
    counts = phase.counts()
    if counts["ok"] != counts["sent"]:
        return False
    lat = phase.latencies_ms()
    if not has_tail(len(lat), TAIL_PCT_OPEN):
        return False
    # A growing backlog shows as lateness at the end of the rung.
    last = phase.records[-max(len(phase.records) // 10, 1):]
    backlog_ms = max(r.start - r.due for r in last) * 1e3
    return tail(lat, TAIL_PCT_OPEN) <= TAIL_LIMIT_MS and (
        backlog_ms <= TAIL_LIMIT_MS
    )


def _rows32(fixture: Fixture, out: Outcome, seconds: float,
            trace: bool) -> None:
    n_variables = fixture.basis.n_variables
    pools = _rows32_pools(fixture.seed, n_variables)
    clients = _connect(fixture.address, len(NAMES))
    ctl = _connect(fixture.address, 1)[0]
    try:
        server = fixture.server
        # Untimed traffic: BLAS, code paths and sockets warm up.
        warm = open_loop(clients, pools, RATE_HI, 0.3, "warmup", server)
        lo = open_loop(clients, pools, RATE_LO, LO_SHARE * seconds,
                       "lo", server)
        hi = open_loop(clients, pools, RATE_HI, HI_SHARE * seconds,
                       "hi", server)
        # lo and hi are the ladder's first rungs.
        rungs: List[Phase] = []
        best = next((p for p in (hi, lo) if _rung_passes(p)), None)
        for rate in RATE_LADDER if best is hi else ():
            rung = open_loop(clients, pools, rate, RUNG_SHARE * seconds,
                             f"rung{rate:g}", server)
            rungs.append(rung)
            if not _rung_passes(rung):
                break
            best = rung
        phases = [warm, lo, hi] + rungs
        # A failing rung is the ladder's stopping signal, not an error:
        # its requests count as sent but only replies are checked.
        fixture.check_predicts([warm, lo, hi], pools, out)
        _check_rungs(fixture, rungs, pools, out)
        if trace:
            _ladder(fixture, pools[0], ROWS_SMALL, clients[0], out)
        counts = fixture.conservation(ctl, out)
        out.metrics["mem_peak_mb"] = fixture.server.peak_rss_mb()
    finally:
        for client in clients + [ctl]:
            client.close()
    # Below the lowest rung: report what the lowest rung achieved.
    capacity = best if best is not None else lo
    err, simulate_s = fleet_error(*fixture.truth[NAMES[0]], fixture.seed)
    out.metrics.update({
        "setup_s": median(fixture.setup_times),
        "fit_err_rel": err,
        "lat_p50_ms.lo": median(lo.latencies_ms()),
        "lat_tail_ms.lo": tail(lo.latencies_ms(), TAIL_PCT_OPEN),
        "lat_p50_ms.hi": median(hi.latencies_ms()),
        "lat_tail_ms.hi": tail(hi.latencies_ms(), TAIL_PCT_OPEN),
        "max_rate_rps": capacity.counts()["ok"] / capacity.duration,
        "cpu_ms_per_op": lo.cpu_s / lo.counts()["ok"] * 1e3,
    })
    out.detail.update({
        "setup_s_all": fixture.setup_times,
        "tail_percentile": TAIL_PCT_OPEN,
        "phases": [p.summary(TAIL_PCT_OPEN) for p in phases],
        "max_rate_rung": capacity.rate,
        "server_counts": counts,
    })
    if trace:
        out.layers["simulate.dataset_s"] = simulate_s
        timed = [r for p in phases[1:] for r in p.records]
        _load_layers(phases[1:], counts, [r.lag for r in timed],
                     [r.wait for r in timed], out)


def _check_rungs(fixture, rungs, pools, out) -> None:
    """Rung replies must be right; refusals past the knee are not failures."""
    for rung in rungs:
        answered = [r for r in rung.records if r.status == "ok"]
        refused = len(rung.records) - len(answered)
        if refused and rung is not rungs[-1]:
            out.fail(f"{rung.name}: {refused} requests refused on a rung "
                     "that passed")
        fixture.rows_sent += sum(
            pools[r.conn].blocks[r.pool][0].shape[0]
            for r in rung.records if r.status != "ok"
        )
        fixture.check_predicts([Phase(rung.name, rung.rate, answered)],
                               pools, out)


# ----------------------------------------------------------------------
# serve-bulk
# ----------------------------------------------------------------------
def _fit_sweep(seed: int):
    """A cheap CBMF fit of the 201-point swept LNA (serving needs K, M, R).

    Returns the model set and the simulation time.
    """
    from repro.circuits.sweep import SweptLNA
    from repro.core.cbmf import CBMF
    from repro.core.em import EmConfig
    from repro.core.somp_init import InitConfig
    from repro.modelset import PerformanceModelSet
    from repro.basis.polynomial import LinearBasis
    from repro.simulate.montecarlo import MonteCarloEngine

    started = time.perf_counter()
    train = MonteCarloEngine(SweptLNA(n_points=201), seed=seed).run(
        SWEEP_TRAIN_ROWS
    )
    simulate_s = time.perf_counter() - started
    basis = LinearBasis(train.n_variables)
    designs = basis.expand_states(train.inputs())
    models = {
        metric: CBMF(
            init_config=InitConfig(r0_grid=(0.95,), sigma0_grid=(0.15,),
                                   n_basis_grid=(10,), n_folds=2),
            em_config=EmConfig(max_iterations=5),
            seed=seed,
        ).fit(designs, train.targets(metric))
        for metric in train.metric_names
    }
    return PerformanceModelSet(models, basis), simulate_s


def _bulk(fixture: Fixture, out: Outcome, seconds: float,
          trace: bool) -> None:
    from repro.cluster import ClusterClient

    started = time.perf_counter()
    sweep, simulate_s = _fit_sweep(fixture.seed)
    push_started = time.perf_counter()
    fixture.registry.push("lna_sweep", sweep)
    push_s = time.perf_counter() - push_started
    ctl = ClusterClient(fixture.address)
    bulk = ClusterClient(fixture.address)
    try:
        ctl.load("lna_sweep@v1")
        extra_setup = time.perf_counter() - started
        routes = ctl.describe_routes()
        pool = _bulk_pool(fixture.seed, fixture.basis.n_variables)
        warm = Phase("warmup", 0.0)
        for _ in range(3):
            warm.records.append(_closed_one(bulk, pool, 0))
        quiet = _quiet_phase(bulk, pool, QUIET_SHARE * seconds,
                             fixture.server)
        reads, ticks = _bulk_phase(bulk, ctl, pool,
                                   (1.0 - QUIET_SHARE) * seconds,
                                   fixture.server)
        fixture.check_predicts([warm, quiet, reads], [pool], out)
        _check_ticks(fixture, sweep, ticks, out)
        if trace:
            _ladder(fixture, pool, ROWS_BULK, bulk, out)
            _yield_ladder(fixture, sweep, out)
        counts = fixture.conservation(ctl, out)
        out.metrics["mem_peak_mb"] = fixture.server.peak_rss_mb()
    finally:
        bulk.close()
        ctl.close()
    err, holdout_s = fleet_error(*fixture.truth[NAMES[0]], fixture.seed)
    ok = reads.latencies_ms()
    yields = [t["yield_s"] * 1e3 for t in ticks]
    ctls = [t["ctl_s"] * 1e3 for t in ticks]
    out.metrics.update({
        "setup_s": median(fixture.setup_times) + extra_setup,
        "cpu_ms_per_op": quiet.cpu_s / quiet.counts()["ok"] * 1e3,
        "fit_err_rel": err,
        "rows_per_s": len(ok) * ROWS_BULK / reads.duration,
        "lat_p50_ms": median(ok),
        "lat_tail_ms": tail(ok, TAIL_PCT_BULK),
        "yield_p50_ms": median(yields),
        "ctl_p50_ms": median(ctls),
    })
    out.detail.update({
        "setup_s_all": fixture.setup_times,
        "sweep_setup_s": extra_setup,
        "tail_percentile": TAIL_PCT_BULK,
        "phases": [quiet.summary(TAIL_PCT_BULK),
                   reads.summary(TAIL_PCT_BULK)],
        "ticks": ticks,
        "placement": routes,
        "server_counts": counts,
    })
    if trace:
        out.layers["simulate.dataset_s"] = simulate_s + holdout_s
        out.layers["serving.registry.push_s"] = push_s
        _load_layers([quiet, reads], counts, [t["lag"] for t in ticks],
                     [t["wait"] for t in ticks], out)


def _closed_one(client, pool: Pools, index: int) -> Record:
    slot = pool.take()
    x, states = pool.blocks[slot]
    start = time.perf_counter()
    status, results = _call(client, "lna0", x, states)
    end = time.perf_counter()
    return Record(index, 0, slot, start, start, end, status, results)


def _quiet_phase(bulk, pool: Pools, seconds: float,
                 server: "Server") -> Phase:
    """Closed-loop reads alone on one connection."""
    quiet = Phase("quiet", 0.0)
    with load_phase():
        cpu = server.cpu_s()
        began = time.perf_counter()
        while time.perf_counter() - began < seconds:
            quiet.records.append(
                _closed_one(bulk, pool, len(quiet.records))
            )
        quiet.cpu_s = server.cpu_s() - cpu
    quiet.duration = time.perf_counter() - began
    return quiet


def _bulk_phase(bulk, ctl, pool: Pools, seconds: float, server: "Server"):
    """Closed-loop reads on one connection, the 2 s schedule on another."""
    reads = Phase("reads", 0.0)
    ticks: List[Dict[str, object]] = []
    t0 = time.perf_counter() + 0.05  # both threads are up by then
    stop_at = t0 + seconds

    def reader() -> None:
        index = 0
        time.sleep(max(0.0, t0 - time.perf_counter()))
        while time.perf_counter() < stop_at:
            reads.records.append(_closed_one(bulk, pool, index))
            index += 1

    def scheduler() -> None:
        version = 1
        free_at = t0
        for tick in range(int(seconds / TICK_S) + 1):
            due = t0 + tick * TICK_S
            if due >= stop_at:
                break
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            entry: Dict[str, object] = {
                "tick": tick, "due": due, "start": start,
                "wait": max(0.0, free_at - due),
                "lag": start - max(due, free_at),
            }
            try:
                entry["reply"] = ctl.yield_report(
                    "lna_sweep", list(SWEEP_SPECS),
                    n_samples=YIELD_SAMPLES, seed=tick,
                )
            except Exception as error:  # recorded, checked afterwards
                entry["error"] = f"{type(error).__name__}: {error}"
            middle = time.perf_counter()
            version = 2 if version == 1 else 1
            target = f"lna1@v{version}"
            try:
                entry["canary"] = ctl.set_canary("lna1", target, 0.5)
                entry["promoted"] = ctl.promote("lna1")
                entry["stable"] = ctl.describe_routes()["lna1"]["stable"]
            except Exception as error:  # recorded, checked afterwards
                entry["ctl_error"] = f"{type(error).__name__}: {error}"
            end = time.perf_counter()
            entry.update(target=target, yield_s=middle - start,
                         ctl_s=end - middle)
            free_at = end
            ticks.append(entry)

    threads = [threading.Thread(target=reader),
               threading.Thread(target=scheduler)]
    with load_phase():
        cpu = server.cpu_s()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reads.cpu_s = server.cpu_s() - cpu
    reads.duration = max(r.end for r in reads.records) - t0
    return reads, ticks


def _check_ticks(fixture, sweep, ticks, out: Outcome) -> None:
    """Yield replies equal in-process reports; canary cycles land."""
    from repro.yields import compute_yield_report, report_to_dict

    models = sweep.freeze()
    for entry in ticks:
        out.attempted += 2
        reply = entry.pop("reply", None)
        if reply is None:
            out.fail(f"tick {entry['tick']} yield: {entry.get('error')}")
        else:
            local = report_to_dict(compute_yield_report(
                models, sweep.basis, _specs(),
                n_samples=YIELD_SAMPLES, seed=entry["tick"],
            ))
            if json.dumps(reply.get("report"), sort_keys=True) != json.dumps(
                local, sort_keys=True
            ):
                out.fail(f"tick {entry['tick']}: yield reply differs from "
                         "the in-process report")
        target = entry["target"]
        if "ctl_error" in entry or not (
            entry.get("canary") == entry.get("promoted")
            == entry.get("stable") == target
        ):
            out.fail(f"tick {entry['tick']} canary cycle to {target}: "
                     f"{entry.get('ctl_error', entry)}")


def _specs():
    from repro.applications.yield_estimation import Specification

    return [Specification.parse(text) for text in SWEEP_SPECS]


# ----------------------------------------------------------------------
# Traced ladder.
# ----------------------------------------------------------------------
def _ladder(fixture: Fixture, pool: Pools, rows: int, net_client,
            out: Outcome) -> None:
    """One request stream down frozen → engine → service → gateway → TCP."""
    from repro.cluster import ClusterConfig, ClusterService
    from repro.cluster.protocol import read_frame, send_frame
    from repro.serving import (
        BatchConfig,
        CacheConfig,
        ModelService,
        PredictionEngine,
    )
    from repro.serving.engine import ServedModel

    models, basis = fixture.truth["lna0"]
    n = LADDER_REQS[rows]
    # Slots the server's LRU has long evicted: n warm-up and n timed
    # requests per rung.
    timed = [pool.blocks[pool.take()] for _ in range(2 * n)]
    batch = BatchConfig(max_batch_size=SERVER_BATCH_ROWS)
    cache = CacheConfig(capacity=SERVER_CACHE_ROWS)
    served = ServedModel("lna0", 1, basis, models)
    engine = PredictionEngine(batch=batch, cache=cache)
    service = ModelService(fixture.registry, batch=batch, cache=cache)
    service.load("lna0@v1")
    tracer: Tracer = out.detail.setdefault("tracer", Tracer())
    # The hop carries a real reply payload, computed outside the timer.
    payloads = [
        list(frozen_predict(models, basis, x, s).values())
        + [np.zeros(x.shape[0], np.uint8)]
        for x, s in timed
    ]
    left, right = socket.socketpair()

    def echo() -> None:
        """The far end of the hop: read a request frame, send its reply."""
        for payload in payloads:
            read_frame(right)
            send_frame(right, {"kind": "result"}, payload)

    echoer = threading.Thread(target=echo, daemon=True)
    echoer.start()

    def hop(i, x, states):
        send_frame(left, {"kind": "predict", "name": "lna0"}, [x, states])
        return read_frame(left)

    store = os.path.join(fixture.work, "ladder_store")
    config = ClusterConfig(n_shards=2, batch=batch, cache=cache)
    # rung -> (call, oracle replaying that rung's cache; None: unchecked)
    rungs = {
        "core.frozen": (
            lambda i, x, s: frozen_predict(models, basis, x, s), None),
        "serving.engine": (
            lambda i, x, s: engine.predict_many(served, x, s),
            Oracle(models, basis)),
        "serving.service": (
            lambda i, x, s: service.predict_many("lna0", x, s),
            Oracle(models, basis)),
        "cluster.protocol.hop": (hop, None),
    }
    medians: Dict[str, float] = {}
    overhead: Dict[str, float] = {}
    try:
        with ClusterService(fixture.registry, [f"{m}@v1" for m in NAMES],
                            config=config, store_dir=store) as cluster:
            rungs["cluster.gateway"] = (
                lambda i, x, s: cluster.predict_many("lna0", x, s),
                Oracle(models, basis))
            rungs["cluster.net"] = (
                lambda i, x, s: net_client.predict_many("lna0", x, s),
                fixture.oracles[0])
            for rung, (call, oracle) in rungs.items():
                times, plain, results = [], [], []
                with gc_paused():
                    for i, (x, states) in enumerate(timed):
                        started = time.perf_counter()
                        results.append(call(i, x, states))
                        ended = time.perf_counter()
                        if i < n:  # the first n warm the rung up
                            continue
                        # Every other request unspanned: the overhead.
                        if i % 2:
                            plain.append(ended - started)
                        else:
                            times.append(ended - started)
                            tracer.add(rung, started, ended, request=i)
                medians[rung] = median(times) * 1e6
                overhead[rung] = median(times) / median(plain) - 1.0
                for i, ((x, states), result) in enumerate(
                    zip(timed, results)
                ):
                    if oracle is not None:
                        _check_rung(rung, i, oracle, x, states, result, out)
    finally:
        left.close()
        right.close()
        echoer.join(timeout=10)
    fixture.rows_sent += 2 * n * rows  # the net rung and its warm-up
    frozen_us = medians["core.frozen"]
    out.layers.update({
        "core.frozen.predict_us": frozen_us,
        "serving.engine.predict_many_us": medians["serving.engine"],
        "serving.engine.overhead_x": medians["serving.engine"] / frozen_us,
        "serving.service.predict_many_us": medians["serving.service"],
        "cluster.protocol.hop_us": medians["cluster.protocol.hop"],
        "cluster.gateway.roundtrip_us": medians["cluster.gateway"],
        "cluster.gateway.self_us": (medians["cluster.gateway"]
                                    - medians["serving.service"]),
        "cluster.net.roundtrip_us": medians["cluster.net"],
        "cluster.net.self_us": (medians["cluster.net"]
                                - medians["cluster.gateway"]),
        "trace.overhead_frac": overhead["cluster.net"],
    })
    out.detail["ladder_rows"] = rows
    _store_layers(fixture, out)


def _check_rung(rung, i, oracle: Oracle, x, states, results,
                out: Outcome) -> None:
    out.attempted += 1
    truth = oracle.expect(x, states)
    if not _same_bits(_columns(results, oracle.models), truth):
        out.fail(f"ladder rung {rung} request {i}: reply differs from "
                 "FrozenModel.predict")


def _store_layers(fixture: Fixture, out: Outcome) -> None:
    """Registry push, store export and store open of the lna0 fleet."""
    from repro.cluster import ModelStore, export_model_store
    from repro.modelset import PerformanceModelSet
    from repro.serving import ModelRegistry

    models, basis = fixture.truth["lna0"]
    fleet = PerformanceModelSet(models, basis)
    push, export, opened = [], [], []
    for rep in range(3):
        scratch = os.path.join(fixture.work, f"store{rep}")
        registry = ModelRegistry(os.path.join(scratch, "registry"))
        started = time.perf_counter()
        entry = registry.push("lna0", fleet)
        push.append(time.perf_counter() - started)
        started = time.perf_counter()
        export_model_store(registry, [entry.key],
                           os.path.join(scratch, "store"))
        export.append(time.perf_counter() - started)
        started = time.perf_counter()
        ModelStore.open(os.path.join(scratch, "store"))
        opened.append(time.perf_counter() - started)
    out.layers.setdefault("serving.registry.push_s", median(push))
    out.layers["cluster.store.export_s"] = median(export)
    out.layers["cluster.store.open_s"] = median(opened)


def _yield_ladder(fixture: Fixture, sweep, out: Outcome) -> None:
    """A yield report in-process, then through an in-process gateway."""
    from repro.cluster import ClusterConfig, ClusterService
    from repro.yields import compute_yield_report

    models = sweep.freeze()
    local = []
    for seed in range(3):
        started = time.perf_counter()
        compute_yield_report(models, sweep.basis, _specs(),
                             n_samples=YIELD_SAMPLES, seed=seed)
        local.append(time.perf_counter() - started)
    remote = []
    store = os.path.join(fixture.work, "yield_store")
    with ClusterService(fixture.registry, ["lna_sweep@v1"],
                        config=ClusterConfig(n_shards=1),
                        store_dir=store) as cluster:
        for seed in range(3):
            started = time.perf_counter()
            cluster.yield_report("lna_sweep", list(SWEEP_SPECS),
                                 n_samples=YIELD_SAMPLES, seed=seed)
            remote.append(time.perf_counter() - started)
    out.layers["yields.report_s"] = median(local)
    out.layers["cluster.gateway.yield_s"] = median(remote)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from run import OUT_DIR, ROOT

    body = _rows32 if workload == "serve-rows32" else _bulk
    out = Outcome()
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    fixture = Fixture(ROOT, work, seed)
    try:
        fixture.start()
        body(fixture, out, seconds, trace)
    finally:
        fixture.stop(out)
        shutil.rmtree(work, ignore_errors=True)
    return out
