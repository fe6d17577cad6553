"""Repository benchmark: fit and serve workloads, one command.

    python3 perfbench/run.py --workload fit-lna16 --seed 1 --seconds 12 --trace 0

Run from the repository root. The program is imported from ``src/``
as shipped; no BLAS, OpenMP or ``REPRO_*`` variable is set (they are
recorded in the detail line). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
every end-to-end metric untraced (``--trace 0``), every per-layer metric
traced (``--trace 1``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for registries, stores and span files; inside the
#: checkout and git-ignored.
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fit-lna16", "fit-sweep201", "serve-rows32", "serve-bulk")

#: name -> (unit, better). The serve workloads' latencies, rates and
#: throughputs are measured too (detail line) but not bounded: their
#: run-to-run spread here exceeded any usable bound (README.md).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "fit_err_rel": ("ratio", "lower"),
    "mem_peak_mb": ("MB", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "simulate.dataset_s": ("s", "lower"),
    "core.somp_init.busy_s": ("s", "lower"),
    "core.somp_init.cells": ("count", "lower"),
    "core.em.busy_s": ("s", "lower"),
    "core.em.iterations": ("count", "lower"),
    "core.em.s_per_iter": ("s", "lower"),
    "core.posterior.dual_s": ("s", "lower"),
    "core.kronecker.kron_s": ("s", "lower"),
    "core.predictive.build_s": ("s", "lower"),
    "fit.unattributed_s": ("s", "lower"),
    "core.frozen.predict_us": ("us", "lower"),
    "serving.engine.predict_many_us": ("us", "lower"),
    "serving.engine.overhead_x": ("x", "lower"),
    "serving.engine.cache_hit_ratio": ("ratio", "higher"),
    "serving.service.predict_many_us": ("us", "lower"),
    "cluster.protocol.hop_us": ("us", "lower"),
    "cluster.gateway.roundtrip_us": ("us", "lower"),
    "cluster.gateway.self_us": ("us", "lower"),
    "cluster.net.roundtrip_us": ("us", "lower"),
    "cluster.net.self_us": ("us", "lower"),
    "cluster.gateway.yield_s": ("s", "lower"),
    "yields.report_s": ("s", "lower"),
    "cluster.store.export_s": ("s", "lower"),
    "cluster.store.open_s": ("s", "lower"),
    "serving.registry.push_s": ("s", "lower"),
    "cluster.net.sent": ("count", "higher"),
    "cluster.net.ok": ("count", "higher"),
    "cluster.net.shed": ("count", "lower"),
    "cluster.net.deadline": ("count", "lower"),
    "cluster.net.crash": ("count", "lower"),
    "bench.gen_lag_ms": ("ms", "lower"),
    "bench.conn_wait_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: End-to-end metrics a workload does not exercise mirror one it does,
#: so every run reports every metric with a measured, non-zero value:
#: workload -> {metric: (source metric, factor)}.
MIRRORS: Dict[str, Dict[str, Tuple[str, float]]] = {
    "fit-lna16": {},
    "fit-sweep201": {},
    "serve-rows32": {"fit_s": ("cpu_ms_per_op", 1e-3)},
    "serve-bulk": {"fit_s": ("cpu_ms_per_op", 1e-3)},
}


def complete_metrics(workload: str, native: Dict[str, float]) -> Dict[str, float]:
    """Every end-to-end metric: the native ones plus their mirrors."""
    out = dict(native)
    for name, (source, factor) in MIRRORS[workload].items():
        out[name] = factor * native[source]
    missing = set(END_TO_END) - set(out)
    if missing:
        raise RuntimeError(f"{workload} did not measure {sorted(missing)}")
    return {name: out[name] for name in END_TO_END}


def complete_layers(layers: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never calls did 0 work."""
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics {sorted(unknown)}")
    return {name: float(layers.get(name, 0.0)) for name in PER_LAYER}


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    from common import become_subreaper, environment, reap_children

    subreaper = become_subreaper()
    started = time.perf_counter()
    try:
        if args.workload.startswith("fit-"):
            import fitbench as bench
        else:
            import servebench as bench
        outcome = bench.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    finally:
        # Every process the run started, and every orphan it left, has
        # ended before the result is printed.
        killed = reap_children()
    outcome.attempted += 1  # the exit check
    if killed:
        outcome.failures.append(f"processes killed at exit: {killed}")

    tracer = outcome.detail.pop("tracer", None)
    spans_path = None
    if tracer is not None and tracer.spans:
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.json"
        )
        tracer.write(spans_path)
    if args.trace:
        metrics = complete_layers(outcome.layers)
        table = PER_LAYER
    else:
        metrics = complete_metrics(args.workload, outcome.metrics)
        table = END_TO_END
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        "measured": outcome.metrics,
        "mirrored": sorted(MIRRORS[args.workload]),
        "failures": outcome.failures,
        "subreaper": subreaper,
        "spans": spans_path,
        **outcome.detail,
    }
    print(json.dumps({"detail": detail}, default=str))
    failed = len(outcome.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
