#!/usr/bin/env python3
"""Performance-regression smoke check for the routing engine.

Runs two small, deterministic workloads and compares their
*normalized* cost against the committed baselines:

``routing``
    50 Algorithm 1 queries on the paper torus through a fresh
    :class:`~repro.routing.cache.RoutingCache` (oracle warm-up
    included — the end-to-end cost the Networking stage pays).
``figure1``
    One full ``hmn_map`` of a mid-scale Figure 1 instance
    (10:1 torus, ~1.2k virtual links).

Raw seconds do not transfer between machines, so each measurement is
divided by a calibration loop (heap push/pop churn — the same kind of
work the routers do) timed on the spot; the stored unit is
``bench_seconds / calibration_seconds``.  A check fails when a
measurement exceeds its baseline by more than the tolerance
(``REPRO_BENCH_TOLERANCE``, default 0.20 = 20%).  The normalization is
deliberately rough — this is a tripwire for order-of-magnitude
regressions (a dropped cache, an accidental O(n^2)), not a
microbenchmark; re-seed with ``--write`` after intentional changes or
on very different hardware.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py --write            # seed baselines
    PYTHONPATH=src python benchmarks/smoke.py --check            # compare to baselines
    PYTHONPATH=src python benchmarks/smoke.py --trace-smoke      # span-schema CI gate
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import ClusterState  # noqa: E402
from repro.hmn import HMNConfig, hmn_map  # noqa: E402
from repro.routing import RoutingCache  # noqa: E402
from repro.topology import paper_torus  # noqa: E402
from repro.workload import HIGH_LEVEL, Scenario, paper_clusters  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
BASE_SEED = 2009
#: Key of the baseline rows in the BENCH_*.json files.
ENGINE = "compiled"
BASELINES = {
    "routing": BENCH_DIR / "BENCH_routing.json",
    "figure1": BENCH_DIR / "BENCH_figure1.json",
}


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate() -> float:
    """Machine-speed yardstick: deterministic heap churn, best of 3."""

    def work():
        h: list = []
        acc = 0
        for i in range(120_000):
            heapq.heappush(h, ((i * 2654435761) % 999983, i))
        while h:
            acc += heapq.heappop(h)[0]
        return acc

    work()  # warm allocator / code caches
    return _best_of(work, 3)


def bench_routing() -> float:
    cluster = paper_torus(seed=BASE_SEED)
    state = ClusterState(cluster)
    rng = np.random.default_rng(BASE_SEED)
    hosts = cluster.host_ids
    pairs = [
        tuple(int(x) for x in rng.choice(len(hosts), size=2, replace=False))
        for _ in range(50)
    ]

    def run():
        # Fresh cache per rep: each rep builds its own latency tables.
        cache = RoutingCache(cluster)
        for a, b in pairs:
            cache.route(state, a, b, bandwidth=0.5, latency_bound=60.0)

    run()  # warm: topology compile + (first time only) C kernel build
    return _best_of(run, 3)


def bench_figure1() -> float:
    scenario = Scenario(ratio=10, density=0.015, workload=HIGH_LEVEL)
    cluster = paper_clusters(seed=BASE_SEED + 7)["torus"]
    venv = scenario.build_venv(cluster, seed=BASE_SEED + 11)
    config = HMNConfig()

    def run():
        hmn_map(cluster, venv, config)

    run()
    return _best_of(run, 2)


BENCHES = {"routing": bench_routing, "figure1": bench_figure1}


def measure(name: str, calib: float) -> dict:
    seconds = BENCHES[name]()
    return {
        "units": seconds / calib,
        "seconds": round(seconds, 6),
        "calibration_seconds": round(calib, 6),
    }


def write_baselines() -> int:
    calib = calibrate()
    for name, path in BASELINES.items():
        doc = json.loads(path.read_text()) if path.exists() else {
            "benchmark": name,
            "tolerance_default": 0.20,
            "engines": {},
        }
        row = doc["engines"][ENGINE] = measure(name, calib)
        print(f"[write] {name:8s} {row['units']:8.3f} units ({row['seconds']:.3f}s)")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def check_baselines(tolerance: float) -> int:
    calib = calibrate()
    failures = []
    for name, path in BASELINES.items():
        if not path.exists():
            failures.append(f"{name}: missing baseline {path.name} (run --write)")
            continue
        base = json.loads(path.read_text())["engines"].get(ENGINE)
        if base is None:
            failures.append(f"{name}: no baseline (run --write)")
            continue
        now = measure(name, calib)
        ratio = now["units"] / base["units"]
        verdict = "ok" if ratio <= 1.0 + tolerance else "REGRESSION"
        print(
            f"[check] {name:8s} {now['units']:8.3f} vs {base['units']:8.3f} units "
            f"({ratio:.1%} of baseline) {verdict}"
        )
        if verdict != "ok":
            failures.append(
                f"{name}: {now['units']:.3f} units vs baseline "
                f"{base['units']:.3f} (+{(ratio - 1.0):.1%} > "
                f"{tolerance:.0%} tolerance)"
            )
    if failures:
        print("\nFAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("\nall routing benchmarks within tolerance")
    return 0


def trace_smoke() -> int:
    """CI gate for the observability layer: run the figure-1 bench
    instance traced, assert the mapping is byte-identical to the
    untraced run, and validate the emitted JSONL against the span
    schema (every span carries name/t0/dur/parent, ids unique, parents
    resolve).
    """
    import tempfile

    from repro import obs

    scenario = Scenario(ratio=10, density=0.015, workload=HIGH_LEVEL)
    cluster = paper_clusters(seed=BASE_SEED + 7)["torus"]
    venv = scenario.build_venv(cluster, seed=BASE_SEED + 11)
    failures = []
    plain = hmn_map(cluster, venv)
    registry = obs.MetricsRegistry()
    with obs.recording(metrics=registry) as tracer:
        traced = hmn_map(cluster, venv)
    if (
        plain.assignments != traced.assignments
        or plain.paths != traced.paths
        or plain.meta["objective"] != traced.meta["objective"]
    ):
        failures.append("traced mapping differs from untraced")
    path = Path(tempfile.mkstemp(suffix=".jsonl")[1])
    try:
        tracer.write(path)
        spans = obs.load_trace(path)  # raises on any schema violation
    except ValueError as exc:
        failures.append(f"invalid trace: {exc}")
        spans = []
    finally:
        path.unlink(missing_ok=True)
    names = {s["name"] for s in spans}
    for required in ("hmn.map", "hmn.hosting", "hmn.networking", "route.query"):
        if required not in names:
            failures.append(f"trace has no {required!r} span")
    if not registry.to_prometheus().strip():
        failures.append("metrics registry exported nothing")
    print(
        f"[trace] figure1  {len(spans):5d} spans, "
        f"{len(registry)} instruments, traced == untraced: "
        f"{'yes' if not failures else 'CHECK'}"
    )
    if failures:
        print("\nFAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("\ntraced runs byte-identical; span schema valid")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="seed/update baselines")
    mode.add_argument("--check", action="store_true", help="compare to baselines")
    mode.add_argument(
        "--trace-smoke",
        action="store_true",
        help="validate a traced figure-1 run against the span schema",
    )
    args = parser.parse_args(argv)
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.20"))
    if args.write:
        return write_baselines()
    if args.trace_smoke:
        return trace_smoke()
    return check_baselines(tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
