"""Self-tests of the benchmark harness: ``PYTHONPATH=src pytest benchmarks/perf``."""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.hmn.config import HMNConfig
from repro.service import MapRequest, ServiceCore
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters

import harness
from layers import percentile, self_times

RUN = Path(__file__).resolve().parent / "run.py"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_scale_runs_every_workload(trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", trace],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {key.split(".", 1)[0] for key in result["metrics"]} == set(harness.WORKLOADS)
    assert time.perf_counter() - t0 < 15


def _span(sid, parent, t0, dur):
    return {"id": sid, "parent": parent, "name": f"s{sid}", "t0": t0, "dur": dur}


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),  # [1, 4]
        _span(2, 0, 3.0, 3.0),  # [3, 6], overlaps span 1 by one second
        _span(3, 1, 2.0, 1.0),  # [2, 3] inside span 1
        _span(4, 0, 9.0, 2.0),  # [9, 11] runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)


def test_nested_self_times_add_up_to_the_root():
    spans = [_span(0, None, 0.0, 8.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 1.0),
             _span(3, 0, 6.0, 1.5)]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def test_no_tail_percentile_from_too_few_samples():
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) is not None
    assert percentile([3.0], 50) == 3.0
    assert percentile([], 50) is None
    # A workload too small for a p90 reports the mean of its slower half.
    assert harness._tail([1.0, 6.0, 2.0, 4.0]) == 5.0
    assert harness._tail([1.0, 6.0, 2.0, 4.0, 3.0]) == pytest.approx(13.0 / 3)
    assert harness._tail([float(v) for v in range(100)]) == pytest.approx(89.1)


def _tenants(n):
    tenants = []
    for i in range(n):
        venv = generate_virtual_environment(
            60 + 40 * (i % 4), workload=LOW_LEVEL, density=0.05, seed=i, id_offset=i * 1000
        )
        tenants.append(harness.Tenant(i, venv, lifetime=1 + i % 3))
    return tenants


def test_releases_come_before_the_arrival_in_their_slot():
    tenants = _tenants(6)
    events = harness.service_events(tenants)
    assert [e for e in events if e[1] == "admit"] == [(s, "admit", s) for s in range(6)]
    for slot, kind, tid in events:
        if kind == "release":
            assert slot == tid + tenants[tid].lifetime
            admit_at = events.index((slot, "admit", slot))
            assert events.index((slot, kind, tid)) < admit_at


@pytest.mark.parametrize("rate", [None, 200.0])
def test_service_sees_tickets_in_schedule_order(tmp_path, rate):
    """The live service's store equals a one-at-a-time replay of the
    schedule: admits and releases reached the queue in schedule order."""
    cluster = paper_clusters(5, n_hosts=4)["torus"]
    tenants = _tenants(16)
    events = harness.service_events(tenants)
    live = asyncio.run(harness.play(cluster, tenants, events, rate, tmp_path / "live"))

    core = ServiceCore.open(cluster, tmp_path / "replay", config=HMNConfig())
    for _, kind, tid in events:
        if kind == "admit":
            core.admit(MapRequest(tenant=tid, venv=tenants[tid].venv))
        else:
            core.release(tid)
    core.close()
    assert 0 < live.core.accepted < len(tenants)  # some admissions must fail
    assert (tmp_path / "live").read_bytes() == (tmp_path / "replay").read_bytes()
