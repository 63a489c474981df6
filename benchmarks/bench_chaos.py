"""Chaos-engine survivability bench (resilience extension).

Replays two committed 1000-event fault traces through the self-healing
operator loop and checks the survivability metrics against the
``BENCH_chaos.json`` baseline — the regression tripwire for the repair
path (a silently weaker heal shows up as lower availability or more
shed tenants long before a validator catches it).

Two substrates cover the full fault surface:

``paper-switched``
    The paper's 40-host single-switch cluster under tenant churn, host
    crashes and link degradations.  (With one switch the
    ``max_dead_fraction`` guard keeps the switch alive — killing it
    would partition every host.)
``cascade-40x16p``
    The same 40 Table-1 hosts behind a 3-switch cascade with
    ``max_dead_fraction=0.34``, which lets one switch die — exercising
    switch-loss healing and dead-switch path re-routing.

Every run executes with ``selfcheck=True``: each fault+repair cycle
re-validates all surviving mappings against Eqs. 1-9, so a passing
bench also certifies zero invalid mappings over 2000 events.

The traces are seeded and virtual-time based, so the metrics are exact
across machines: integers must match the baseline exactly, floats to
1e-6.  Re-seed after intentional behaviour changes with::

    REPRO_CHAOS_WRITE=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_chaos.py --benchmark-only
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _baseline import diff_baseline
from _config import BASE_SEED, publish
from repro.resilience import FailureModel, run_chaos, survivability
from repro.topology import switched_cluster
from repro.workload import paper_clusters

BASELINE = Path(__file__).parent / "BENCH_chaos.json"
N_EVENTS = 1000


def _scenarios():
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


def _curve(result, points: int = 50):
    """Downsample the guests-alive series to *points* (t, alive) pairs."""
    samples = result.samples
    if len(samples) <= points:
        picked = samples
    else:
        stride = len(samples) / points
        picked = [samples[int(i * stride)] for i in range(points)]
    return [[round(s.time, 6), s.guests_alive] for s in picked]


def _measure():
    doc = {"benchmark": "chaos", "events": N_EVENTS, "seed": BASE_SEED, "scenarios": {}}
    results = {}
    for name, (cluster, model) in _scenarios().items():
        result = run_chaos(
            cluster,
            n_events=N_EVENTS,
            seed=BASE_SEED,
            model=model,
            selfcheck=True,
        )
        results[name] = result
        doc["scenarios"][name] = {
            "survivability": survivability(result),
            "admitted": result.admitted,
            "rejected": result.rejected,
            "departed": result.departed,
            "validations": result.validations,
            "final_guests": result.final_guests,
            "curve": _curve(result),
        }
    return doc, results


def test_survivability_baseline(benchmark):
    doc, results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    lines = []
    for name, result in results.items():
        summary = doc["scenarios"][name]["survivability"]
        lines.append(
            f"{name}: availability {summary['availability']:.2%}, "
            f"{summary['repairs']} repairs "
            f"({summary['repairs_failed']} degraded to shedding), "
            f"{summary['tenants_shed']} tenants shed, "
            f"objective drift {summary['objective_drift']:.1f}"
        )
        lines.append(
            "  alive: "
            + " ".join(str(alive) for _, alive in doc["scenarios"][name]["curve"][::5])
        )
    publish("chaos_survivability.txt", "\n".join(lines))

    # selfcheck=True already validated every surviving mapping after
    # every fault+repair cycle; a nonzero count proves it actually ran.
    for name in results:
        assert doc["scenarios"][name]["validations"] > 0

    if os.environ.get("REPRO_CHAOS_WRITE", "") == "1" or not BASELINE.exists():
        BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return

    baseline = json.loads(BASELINE.read_text())
    errors: list[str] = []
    diff_baseline("chaos", baseline, doc, errors)
    assert not errors, "survivability drifted from BENCH_chaos.json:\n" + "\n".join(
        errors
    )
