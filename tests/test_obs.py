"""Tests for the observability core (:mod:`repro.obs`).

Covers the three contracts ISSUE.md pins down:

* **schema** — every emitted span carries ``name``/``t0``/``dur``/
  ``parent``, ids are unique, parents resolve; JSONL round-trips;
* **non-interference** — a traced run returns byte-identical mappings
  and chaos results to an untraced run (wall-clock fields excluded,
  since they measure real time);
* **determinism under the pool** — a ``workers=4`` grid sweep merges
  worker spans into the same multiset as the serial sweep, and a
  written chaos trace replays to the exact committed survivability
  numbers via :func:`~repro.resilience.metrics.survivability_from_trace`.

The hard ≤2% disabled-overhead budget is enforced by
``benchmarks/smoke.py --check`` against ``BENCH_figure1.json``; the
timing test here is only a loose tripwire so a plain ``pytest`` run
still catches an accidentally always-on recorder.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro import obs
from repro.core import ClusterState
from repro.hmn import HMNConfig, hmn_map
from repro.obs import (
    SPAN_REQUIRED_KEYS,
    MetricsRegistry,
    NullRecorder,
    Tracer,
    load_metrics,
    load_trace,
    validate_trace,
)
from repro.resilience import FailureModel, run_chaos, survivability
from repro.resilience.metrics import survivability_from_trace
from repro.routing import RoutingCache
from repro.topology import torus_cluster
from repro.workload import HIGH_LEVEL, Scenario, generate_virtual_environment

# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_by_dynamic_extent(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
            tr.event("point", note="hi")
        spans = {s["name"]: s for s in tr.spans}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == outer.id
        assert spans["point"]["parent"] == outer.id
        assert inner.id != outer.id
        assert all(s["pid"] == os.getpid() for s in tr.spans)

    def test_span_set_attaches_attrs(self):
        tr = Tracer()
        with tr.span("work", engine="dict") as sp:
            sp.set(cache_hit=True).set(n=3)
        (rec,) = tr.spans
        assert rec["attrs"] == {"engine": "dict", "cache_hit": True, "n": 3}

    def test_exception_records_error_attr_and_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        (rec,) = tr.spans
        assert rec["attrs"]["error"] == "RuntimeError"
        assert rec["dur"] >= 0
        # The stack unwound: the next span is a root again.
        with tr.span("after"):
            pass
        assert tr.spans[-1]["parent"] is None

    def test_ids_assigned_in_start_order(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
        assert [s["id"] for s in tr.spans] == [0, 1, 2]

    def test_write_load_roundtrip(self, tmp_path):
        tr = Tracer()
        with tr.span("root", k="v"):
            tr.event("leaf")
        path = tr.write(tmp_path / "t.jsonl")
        spans = load_trace(path)
        assert spans == sorted(tr.spans, key=lambda s: s["id"])
        for rec in spans:
            assert all(key in rec for key in SPAN_REQUIRED_KEYS)

    def test_adopt_renumbers_deterministically(self):
        worker = Tracer()
        with worker.span("cell"):
            worker.event("step")
        parent = Tracer()
        with parent.span("batch") as sp:
            parent.adopt(worker.spans, parent=sp.id)
            parent.adopt(worker.spans, parent=sp.id)
        names = [s["name"] for s in sorted(parent.spans, key=lambda s: s["id"])]
        assert names == ["batch", "cell", "step", "cell", "step"]
        cells = [s for s in parent.spans if s["name"] == "cell"]
        steps = [s for s in parent.spans if s["name"] == "step"]
        # Roots of the child trace hang off the batch span; the child's
        # internal parent/child shape is preserved under new ids.
        assert {c["parent"] for c in cells} == {parent.spans[0]["id"]}
        assert [st["parent"] for st in steps] == [c["id"] for c in cells]
        assert validate_trace(parent.spans) == []

    def test_adopted_spans_keep_worker_pid(self):
        fake = [
            {"id": 0, "parent": None, "name": "cell", "t0": 0.0, "dur": 1.0,
             "pid": 999999, "attrs": {}},
        ]
        tr = Tracer()
        tr.adopt(fake)
        assert tr.spans[0]["pid"] == 999999
        # adopt copies: mutating the adopted record must not touch the input
        tr.spans[0]["attrs"]["x"] = 1
        assert fake[0]["attrs"] == {}


class TestValidateTrace:
    def _span(self, **overrides):
        base = {"id": 0, "parent": None, "name": "ok", "t0": 0.0,
                "dur": 0.1, "pid": 1, "attrs": {}}
        base.update(overrides)
        return base

    def test_valid_trace_passes(self):
        assert validate_trace([self._span()]) == []

    @pytest.mark.parametrize("key", SPAN_REQUIRED_KEYS)
    def test_missing_required_key(self, key):
        rec = self._span()
        del rec[key]
        assert any(f"missing {key!r}" in e for e in validate_trace([rec]))

    def test_duplicate_ids_rejected(self):
        spans = [self._span(), self._span(name="again")]
        assert any("duplicate id" in e for e in validate_trace(spans))

    def test_dangling_parent_rejected(self):
        spans = [self._span(parent=77)]
        assert any("parent 77" in e for e in validate_trace(spans))

    def test_negative_duration_rejected(self):
        assert any("dur" in e for e in validate_trace([self._span(dur=-1.0)]))

    def test_load_trace_raises_on_bad_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "t0": 0.0}\n')
        with pytest.raises(ValueError, match="invalid trace"):
            load_trace(path)


# ----------------------------------------------------------------------
# recorder switch
# ----------------------------------------------------------------------


class TestRecorderSwitch:
    def test_null_recorder_is_disabled_and_absorbs_everything(self):
        rec = NullRecorder()
        assert rec.enabled is False
        with rec.span("anything", k=1) as sp:
            sp.set(more=2)
        assert sp.id is None
        rec.event("e")
        rec.count("c")
        rec.gauge("g", 1.0)
        rec.observe("h", 0.5)
        rec.adopt([])

    def test_default_process_recorder_is_disabled(self):
        assert isinstance(obs.get_recorder(), (NullRecorder, Tracer))
        # The suite must never leak an enabled recorder between tests.
        assert obs.OBS.enabled is False

    def test_recording_installs_and_restores(self):
        before = obs.get_recorder()
        with obs.recording() as tracer:
            assert obs.get_recorder() is tracer
            assert tracer.enabled
            assert isinstance(tracer.metrics, MetricsRegistry)
        assert obs.get_recorder() is before

    def test_recording_restores_on_exception(self):
        before = obs.get_recorder()
        with pytest.raises(KeyError):
            with obs.recording():
                raise KeyError("x")
        assert obs.get_recorder() is before

    def test_recording_accepts_external_registry(self):
        registry = MetricsRegistry()
        with obs.recording(metrics=registry) as tracer:
            tracer.count("hits", 2.0, kind="test")
        assert registry.counter("hits", kind="test").value == 2.0

    def test_set_recorder_none_disables(self):
        previous = obs.set_recorder(Tracer())
        try:
            assert obs.OBS.enabled
            obs.set_recorder(None)
            assert isinstance(obs.OBS, NullRecorder)
        finally:
            obs.set_recorder(previous)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_hits_total", engine="dict")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)
        # Same (name, labels) -> same instrument.
        assert reg.counter("repro_hits_total", engine="dict") is c

    def test_gauge_set_and_add(self):
        g = MetricsRegistry().gauge("repro_depth")
        g.set(4.0)
        g.add(-1.5)
        assert g.value == 2.5

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(55.55)
        assert h._cumulative() == [1, 2, 3]  # 50.0 only in +Inf

    def test_histogram_quantile_interpolates(self):
        h = MetricsRegistry().histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        # rank 2 of 4 lands at the top of the (0.1, 1.0] bucket.
        assert h.quantile(0.5) == pytest.approx(1.0)
        # Overflow bucket: clamped to the highest finite bound.
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_histogram_quantile_edge_cases(self):
        import math

        h = MetricsRegistry().histogram("repro_lat", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5)), "empty histogram has no quantiles"
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        h.observe(0.25)
        assert 0.0 <= h.quantile(0.5) <= 1.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_events_total", kind="host_fail").inc(3)
        reg.gauge("repro_alive").set(7)
        reg.histogram("repro_lat", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert '# TYPE repro_events_total counter' in text
        assert 'repro_events_total{kind="host_fail"} 3' in text
        assert "repro_alive 7" in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 0.5" in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", a="1").inc(2)
        reg.gauge("g").set(-3.5)
        reg.histogram("h", buckets=(0.5, 5.0)).observe(1.0)
        snapshot = reg.to_json()
        assert snapshot["format"] == "repro/metrics@1"
        rebuilt = MetricsRegistry.from_json(snapshot)
        assert rebuilt.to_json() == snapshot
        assert rebuilt.to_prometheus() == reg.to_prometheus()
        path = reg.write_json(tmp_path / "m.json")
        assert load_metrics(path) == snapshot

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="repro/metrics@1"):
            MetricsRegistry.from_json({"format": "nope"})
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricsRegistry.from_json(
                {"format": "repro/metrics@1",
                 "metrics": [{"name": "x", "kind": "summary", "labels": {}}]}
            )

    def test_load_metrics_rejects_trace_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        Tracer().write(path)
        with pytest.raises(ValueError):
            load_metrics(path)


# ----------------------------------------------------------------------
# instrumented pipeline: non-interference + schema
# ----------------------------------------------------------------------


def small_instance(seed=2009):
    cluster = torus_cluster(2, 4, seed=seed)
    venv = generate_virtual_environment(
        24, workload=HIGH_LEVEL, density=0.05, seed=seed + 1
    )
    return cluster, venv


class TestTracedMapping:
    @pytest.mark.parametrize("engine", ["dict", "compiled"])
    def test_traced_mapping_byte_identical(self, engine):
        # The "dict" arm maps through the differential cache, which
        # re-runs every route query on the dict-space reference routers.
        from repro.conformance import DifferentialRoutingCache

        cluster, venv = small_instance()
        config = HMNConfig()

        def cache():
            return DifferentialRoutingCache(cluster) if engine == "dict" else None

        plain = hmn_map(cluster, venv, config, cache=cache())
        traced_cache = cache()
        with obs.recording() as tracer:
            traced = hmn_map(cluster, venv, config, cache=traced_cache)
        assert canon(plain) == canon(traced)
        if traced_cache is not None:
            assert traced_cache.checked > 0 and traced_cache.mismatches == []
        names = {s["name"] for s in tracer.spans}
        assert {"hmn.map", "hmn.hosting", "hmn.networking", "route.query"} <= names
        assert validate_trace(tracer.spans) == []

    def test_stage_spans_nest_under_hmn_map(self):
        cluster, venv = small_instance()
        with obs.recording() as tracer:
            hmn_map(cluster, venv)
        root = next(s for s in tracer.spans if s["name"] == "hmn.map")
        assert root["parent"] is None
        for stage in ("hmn.hosting", "hmn.migration", "hmn.networking"):
            sp = next(s for s in tracer.spans if s["name"] == stage)
            assert sp["parent"] == root["id"]

    def test_route_metrics_populated(self):
        cluster, venv = small_instance()
        registry = MetricsRegistry()
        with obs.recording(metrics=registry):
            hmn_map(cluster, venv)
        text = registry.to_prometheus()
        assert "repro_route_queries_total" in text
        assert len(registry) > 0


class TestDisabledOverhead:
    def test_null_recorder_guard_is_cheap(self):
        """Loose tripwire: routing through the instrumented ``route()``
        with the NullRecorder installed must not cost materially more
        than reaching the same kernel via the uninstrumented inner
        ``_route()``.  The committed ≤2% budget on the full pipeline is
        enforced by ``benchmarks/smoke.py --check`` (BENCH_figure1.json);
        this bound is generous so shared CI boxes don't flake."""
        cluster, _ = small_instance()
        state = ClusterState(cluster)
        hosts = cluster.host_ids
        pairs = [
            (hosts[i % len(hosts)], hosts[(i * 7 + 3) % len(hosts)])
            for i in range(24)
            if hosts[i % len(hosts)] != hosts[(i * 7 + 3) % len(hosts)]
        ]

        def run(fn):
            cache = RoutingCache(cluster)
            for a, b in pairs:
                fn(cache, state, a, b)

        def outer(c, s, a, b):
            c.route(s, a, b, bandwidth=0.5, latency_bound=200.0)

        def inner(c, s, a, b):
            c._route(s, a, b, bandwidth=0.5, latency_bound=200.0)

        assert isinstance(obs.OBS, NullRecorder)
        run(outer)  # warm kernels / code caches
        run(inner)

        def best(fn, reps=5):
            result = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                run(fn)
                result = min(result, time.perf_counter() - t0)
            return result

        t_inner, t_outer = best(inner), best(outer)
        assert t_outer <= t_inner * 1.5 + 1e-3, (
            f"disabled-tracing route(): {t_outer:.6f}s vs bare _route() "
            f"{t_inner:.6f}s — NullRecorder guard is not cheap"
        )


# ----------------------------------------------------------------------
# parallel sweeps: worker spans merge deterministically
# ----------------------------------------------------------------------

#: Attrs that legitimately differ between serial and pooled runs (wall
#: clock, scheduling); everything else must match exactly.
NONDETERMINISTIC_ATTRS = {"worker_pid", "timeout", "workers", "seconds", "total_s"}


def span_key(span, by_id):
    parent = by_id.get(span["parent"])
    attrs = tuple(
        sorted(
            (k, v)
            for k, v in span["attrs"].items()
            if k not in NONDETERMINISTIC_ATTRS and not isinstance(v, float)
        )
    )
    return (span["name"], parent["name"] if parent else None, attrs)


def grid_spans(workers):
    from repro.api import run_grid
    from repro.topology import switched_cluster

    def clusters(seed):
        return {
            "torus": torus_cluster(2, 4, seed=seed),
            "switched": switched_cluster(8, seed=seed),
        }

    scenarios = [
        Scenario(ratio=2.5, density=0.05, workload=HIGH_LEVEL),
        Scenario(ratio=5.0, density=0.05, workload=HIGH_LEVEL),
    ]
    with obs.recording() as tracer:
        records = run_grid(
            clusters,
            scenarios,
            ["hmn"],
            reps=2,
            base_seed=11,
            simulate=False,
            workers=workers,
        )
    return records, tracer.spans


class TestWorkerSpanMerge:
    def test_parallel_trace_matches_serial_multiset(self):
        serial_records, serial_spans = grid_spans(workers=1)
        pooled_records, pooled_spans = grid_spans(workers=4)
        assert [r.objective for r in serial_records] == [
            r.objective for r in pooled_records
        ]
        assert validate_trace(serial_spans) == []
        assert validate_trace(pooled_spans) == []

        def multiset(spans):
            by_id = {s["id"]: s for s in spans}
            out: dict = {}
            for s in spans:
                key = span_key(s, by_id)
                out[key] = out.get(key, 0) + 1
            return out

        assert multiset(serial_spans) == multiset(pooled_spans)

    def test_batch_cells_are_children_of_batch_run(self):
        _, spans = grid_spans(workers=2)
        by_id = {s["id"]: s for s in spans}
        runs = [s for s in spans if s["name"] == "batch.run"]
        assert len(runs) == 1
        cells = [s for s in spans if s["name"] == "batch.cell"]
        assert len(cells) == 8  # 2 clusters x 2 scenarios x 1 mapper x 2 reps
        assert all(by_id[c["parent"]]["name"] == "batch.run" for c in cells)


# ----------------------------------------------------------------------
# chaos traces replay to the committed survivability numbers
# ----------------------------------------------------------------------

BENCH_CHAOS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "BENCH_chaos.json",
)


class TestChaosTrace:
    @pytest.fixture(scope="class")
    def paper_run(self, tmp_path_factory):
        """One traced 1000-event paper-switched chaos run (the
        BENCH_chaos.json 'paper-switched' scenario), written to JSONL."""
        from repro.workload import paper_clusters

        doc = json.loads(open(BENCH_CHAOS).read())
        seed = doc.get("seed", 2009)
        cluster = paper_clusters(seed=seed)["switched"]
        plain = run_chaos(cluster, n_events=doc["events"], seed=seed)
        with obs.recording() as tracer:
            traced = run_chaos(cluster, n_events=doc["events"], seed=seed)
        path = tmp_path_factory.mktemp("chaos") / "chaos.jsonl"
        tracer.write(path)
        return doc, plain, traced, path

    def test_traced_chaos_run_identical(self, paper_run):
        _, plain, traced, _ = paper_run
        assert plain.to_dict(include_wall=False) == traced.to_dict(
            include_wall=False
        )

    def test_trace_replays_to_committed_survivability(self, paper_run):
        doc, plain, _, path = paper_run
        spans = load_trace(path)
        replayed = survivability_from_trace(spans)
        live = survivability(plain)
        assert set(replayed) == set(live)
        for key, want in live.items():
            assert replayed[key] == pytest.approx(want, rel=1e-6), key
        baseline = doc["scenarios"]["paper-switched"]["survivability"]
        for key, want in baseline.items():
            assert replayed[key] == pytest.approx(want, rel=1e-6), key

    def test_trace_carries_every_event(self, paper_run):
        doc, plain, _, path = paper_run
        spans = load_trace(path)
        events = [s for s in spans if s["name"] == "chaos.event"]
        assert len(events) == doc["events"]
        runs = [s for s in spans if s["name"] == "chaos.run"]
        assert len(runs) == 1
        assert runs[0]["attrs"]["admitted"] == plain.admitted

    def test_replay_requires_exactly_one_run_span(self, paper_run):
        *_, path = paper_run
        spans = load_trace(path)
        no_run = [s for s in spans if s["name"] != "chaos.run"]
        with pytest.raises(ValueError, match="chaos.run"):
            survivability_from_trace(no_run)


def canon(mapping):
    """A mapping's full serialized form minus the wall-clock fields
    (stage timings), which measure real time and cannot match."""
    doc = mapping.to_dict()
    doc.pop("stages", None)
    if isinstance(doc.get("meta"), dict):
        doc["meta"].pop("timings", None)
    return json.dumps(doc, sort_keys=True)
