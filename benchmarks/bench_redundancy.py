"""Chaos-replay redundancy evaluator: paying for nines.

Replays the two committed ``bench_chaos`` fault traces (same
substrates, same seeds, same 1000 events) at increasing redundancy
levels — ``k=0`` (the PR-3 repair loop alone), ``k=1`` and ``k=2``
standby replicas with pre-provisioned backup paths — and measures what
each level of availability actually costs in reserved bandwidth:

* **survivability axis** — guests lost to shedding, availability, how
  many losses the fast-failover path absorbed (replicas promoted,
  backups activated) before the repair loop ever ran;
* **price axis** — the virtual-time integral of reserved bandwidth
  (live primaries + standing shared-risk backup headroom), normalized
  to the ``k=0`` run of the same trace.

Two hard gates ride on the comparison (the acceptance criteria of the
availability extension):

1. with ``k=1`` + backup paths the operator loses **at least 40%
   fewer guests** than the unredundant baseline on *both* traces;
2. it does so at **at most 1.6x** the baseline's reserved-bandwidth
   integral — shared-risk multiplexing, not brute-force doubling.

Every run executes with ``selfcheck=True`` (every surviving mapping
re-validated after every event).  All numbers are virtual-time based
and seed-deterministic; the whole document is compared against
``BENCH_redundancy.json`` exactly (floats to 1e-6).  Re-seed after
intentional behaviour changes with::

    REPRO_REDUNDANCY_WRITE=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_redundancy.py --benchmark-only
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _baseline import diff_baseline
from _config import BASE_SEED, publish
from repro.hmn import HMNConfig
from repro.resilience import FailureModel, run_chaos, survivability
from repro.topology import switched_cluster
from repro.workload import paper_clusters

BASELINE = Path(__file__).parent / "BENCH_redundancy.json"
N_EVENTS = 1000

#: (label, redundancy k, backup paths) — the availability ladder.
LEVELS = (("k0", 0, False), ("k1+bp", 1, True), ("k2+bp", 2, True))

#: Gate 1: k=1+bp must lose <= (1 - 0.40) x the baseline's guests.
MAX_LOSS_FRACTION = 0.60
#: Gate 2: ...at <= 1.6x the baseline's reserved-bandwidth integral.
MAX_BW_RATIO = 1.6


def _scenarios():
    """The exact bench_chaos substrates and fault processes."""
    paper = paper_clusters(seed=BASE_SEED)["switched"]
    cascade = switched_cluster(40, ports=16, seed=BASE_SEED)
    return {
        "paper-switched": (paper, FailureModel(paper)),
        "cascade-40x16p": (
            cascade,
            FailureModel(
                cascade,
                switch_fail_rate=0.15,
                max_dead_fraction=0.34,
            ),
        ),
    }


def _bw_integrals(result):
    """Virtual-time integrals of (primary, backup) reserved bandwidth."""
    primary = backup = 0.0
    for prev, cur in zip(result.samples, result.samples[1:]):
        dt = max(cur.time - prev.time, 0.0)
        primary += prev.bw_reserved * dt
        backup += prev.bw_backup * dt
    return primary, backup


def _curve(result, points: int = 25):
    """Downsample to (t, guests alive, total reserved bw) triples."""
    samples = result.samples
    if len(samples) <= points:
        picked = samples
    else:
        stride = len(samples) / points
        picked = [samples[int(i * stride)] for i in range(points)]
    return [
        [round(s.time, 6), s.guests_alive, round(s.bw_reserved + s.bw_backup, 6)]
        for s in picked
    ]


def _measure():
    doc = {
        "benchmark": "redundancy",
        "events": N_EVENTS,
        "seed": BASE_SEED,
        "scenarios": {},
    }
    for name, (cluster, model) in _scenarios().items():
        rows = {}
        for label, k, backups in LEVELS:
            result = run_chaos(
                cluster,
                n_events=N_EVENTS,
                seed=BASE_SEED,
                model=model,
                config=HMNConfig(redundancy=k, backup_paths=backups),
                selfcheck=True,
            )
            primary_bw, backup_bw = _bw_integrals(result)
            rows[label] = {
                "k": k,
                "backup_paths": backups,
                "survivability": survivability(result),
                "admitted": result.admitted,
                "rejected": result.rejected,
                "validations": result.validations,
                "guests_lost": result.shed_guests,
                "tenants_lost": result.shed,
                "bw_primary_time": primary_bw,
                "bw_backup_time": backup_bw,
                "curve": _curve(result),
            }
        base_bw = rows["k0"]["bw_primary_time"] + rows["k0"]["bw_backup_time"]
        for row in rows.values():
            total = row["bw_primary_time"] + row["bw_backup_time"]
            row["bw_ratio"] = total / base_bw if base_bw else 1.0
        doc["scenarios"][name] = rows
    return doc


def test_redundancy_gates(benchmark):
    doc = benchmark.pedantic(_measure, rounds=1, iterations=1)

    lines = [
        f"{'scenario':<16} {'level':<7} {'lost':>5} {'avail':>7} "
        f"{'bw ratio':>8} {'failovers':>9} {'replicas':>8} {'backups':>7}"
    ]
    for name, rows in doc["scenarios"].items():
        for label, row in rows.items():
            s = row["survivability"]
            lines.append(
                f"{name:<16} {label:<7} {row['guests_lost']:>5} "
                f"{s['availability']:>7.2%} {row['bw_ratio']:>8.3f} "
                f"{s['failovers']:>9} {s['replicas_activated']:>8} "
                f"{s['backups_activated']:>7}"
            )
    publish("redundancy_nines.txt", "\n".join(lines))

    for name, rows in doc["scenarios"].items():
        for row in rows.values():
            assert row["validations"] > 0, f"{name}: selfcheck never ran"
        base, red = rows["k0"], rows["k1+bp"]
        assert red["guests_lost"] <= MAX_LOSS_FRACTION * base["guests_lost"] + 1e-9, (
            f"{name}: k=1+backups lost {red['guests_lost']} guests, needs "
            f"<= {MAX_LOSS_FRACTION:.0%} of baseline {base['guests_lost']}"
        )
        assert red["bw_ratio"] <= MAX_BW_RATIO + 1e-9, (
            f"{name}: k=1+backups reserved {red['bw_ratio']:.3f}x the "
            f"baseline bandwidth, budget is {MAX_BW_RATIO}x"
        )

    if os.environ.get("REPRO_REDUNDANCY_WRITE", "") == "1" or not BASELINE.exists():
        BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return

    baseline = json.loads(BASELINE.read_text())
    errors: list[str] = []
    diff_baseline("redundancy", baseline, doc, errors)
    assert not errors, "drifted from BENCH_redundancy.json:\n" + "\n".join(errors)
