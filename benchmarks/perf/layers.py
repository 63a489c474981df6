"""Per-layer spans recorded from outside the program, and their self times.

The layers are this repository's modules.  :class:`LayerTrace` wraps
each layer's public entry points for the extent of a ``with`` block and
records one span per call into a private :class:`repro.obs.Tracer`; the
program's own process recorder (``repro.obs.OBS``) stays off, and
nothing under ``src/`` is instrumented for the benchmark.

Routing is the exception: a wrapper around every route query slowed the
paper grid by half, so routing numbers come from the
:class:`~repro.routing.cache.RoutingCache` counters, read before and
after each Networking stage, and the route-kernel seconds are recorded
as one synthetic ``routing.kernel`` child of that stage's span.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Iterable, Sequence

import repro.hmn.pipeline as pipeline
import repro.service.core as service_core
import repro.shard.mapper as shard_mapper
from repro.core.state import ClusterState
from repro.errors import MappingError
from repro.obs import Tracer
from repro.service.store import ExperimentStore

__all__ = [
    "LayerTrace",
    "self_times",
    "layer_totals",
    "percentile",
    "PER_LAYER_ZERO",
]

#: (owner, attribute, span name) of every wrapped entry point.  The
#: benchmark calls ``pipeline.hmn_map`` through the module, and the
#: service's core calls the ``hmn_map`` bound in its own module, so
#: both bindings are wrapped.  ``shard_map`` is looked up inside
#: ``hmn_map`` at call time, so wrapping the module attribute catches
#: the sharded dispatch.
_TARGETS = (
    (pipeline, "hmn_map", "hmn.map"),
    (service_core, "hmn_map", "hmn.map"),
    (pipeline, "run_hosting", "hmn.hosting"),
    (pipeline, "run_migration", "hmn.migration"),
    (pipeline, "run_networking", "hmn.networking"),
    (ClusterState, "copy", "state.copy"),
    (ClusterState, "restore_from", "state.restore"),
    (service_core.ServiceCore, "admit", "service.admit"),
    (service_core.ServiceCore, "release", "service.release"),
    (ExperimentStore, "append", "service.store"),
    (shard_mapper, "shard_map", "shard.map"),
    (shard_mapper, "partition_cluster", "shard.partition"),
    (shard_mapper, "pod_hosting", "shard.pod_hosting"),
    (shard_mapper, "pod_migration", "shard.pod_migration"),
    (shard_mapper, "stitch_networking", "shard.stitch"),
)

#: Every per-layer metric at zero: a workload that bypasses a layer
#: reports its numbers as 0.
PER_LAYER_ZERO = {
    "hmn.map.self_s": 0.0,
    "hmn.hosting.self_s": 0.0,
    "hmn.migration.self_s": 0.0,
    "hmn.networking.self_s": 0.0,
    "hmn.hosting.failures": 0,
    "hmn.networking.failures": 0,
    "routing.calls": 0,
    "routing.kernel_s": 0.0,
    "routing.expansions": 0,
    "routing.expansions_per_call": 0.0,
    "routing.us_per_expansion": 0.0,
    "routing.path_hit_ratio": 0.0,
    "routing.label_hit_ratio": 0.0,
    "state.copy.calls": 0,
    "state.copy.self_s": 0.0,
    "state.restore.calls": 0,
    "state.restore.self_s": 0.0,
    "service.queue_wait_p50_ms": 0.0,
    "service.queue_wait_p90_ms": 0.0,
    "service.admit.self_s": 0.0,
    "service.release.calls": 0,
    "service.release.self_s": 0.0,
    "service.store.appends": 0,
    "service.store.self_s": 0.0,
    "shard.map.self_s": 0.0,
    "shard.partition.self_s": 0.0,
    "shard.pod_hosting.self_s": 0.0,
    "shard.pod_migration.self_s": 0.0,
    "shard.stitch.self_s": 0.0,
    "shard.stitch.fallback_rate": 0.0,
    "shard.widened_links": 0,
    "bench.generator_late_p50_ms": 0.0,
    "bench.generator_late_max_ms": 0.0,
    "bench.trace_overhead_ratio": 0.0,
    "bench.self_time_coverage": 0.0,
}


def percentile(values: Sequence[float], q: float) -> float | None:
    """The *q*-th percentile (0-100) of *values*, or ``None`` when the
    sample is too small to carry it.

    The median needs one sample; a tail percentile needs at least ten
    samples beyond it, so p90 needs 100.
    """
    n = len(values)
    if n == 0:
        return None
    if q == 50:
        return statistics.median(values)
    if n * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    spans = list(spans)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out: dict[int, float] = {}
    for span in spans:
        lo, hi = span["t0"], span["t0"] + span["dur"]
        pieces = sorted(
            (max(lo, c["t0"]), min(hi, c["t0"] + c["dur"])) for c in children[span["id"]]
        )
        covered, edge = 0.0, lo
        for start, end in pieces:
            start = max(start, edge)
            if end > start:
                covered += end - start
                edge = end
        out[span["id"]] = span["dur"] - covered
    return out


def layer_totals(spans: Iterable[dict]) -> dict[str, dict[str, float]]:
    """Span name -> ``{"calls", "total_s", "self_s"}`` over *spans*."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = totals[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["dur"]
        row["self_s"] += own[span["id"]]
    return dict(totals)


def _routing_counters(cache) -> tuple[float, ...]:
    if cache is None:
        return (0, 0, 0, 0, 0.0)
    stats = cache.stats()
    return (
        stats["path_queries"],
        stats["path_hits"],
        stats["label_queries"],
        stats["label_hits"],
        stats["kernel_seconds"],
    )


class LayerTrace:
    """Span wrappers around every layer for the extent of a ``with``.

    Besides the spans, the wrappers keep the counters the spans cannot
    carry: routing-cache deltas per Networking stage, stage failures,
    the stitch fallback numbers, and each admission's queue wait (from
    the moment the benchmark submitted it, recorded in
    :attr:`submitted`, to the moment ``ServiceCore.admit`` starts).
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.routing = Counter()
        self.failures = Counter()
        self.stitch = Counter()
        self.submitted: dict[Any, float] = {}
        self.queue_waits: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        for owner, attr, name in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str):
        tracer = self.tracer
        special = {
            "hmn.networking": self._networking,
            "service.admit": self._admit,
            "shard.stitch": self._stitch,
        }.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                try:
                    if special is not None:
                        return special(original, span, args, kwargs)
                    return original(*args, **kwargs)
                except MappingError:
                    self.failures[name] += 1
                    raise

        return wrapper

    def _networking(self, original, span, args, kwargs):
        record = self.tracer.spans[-1]  # the span the wrapper just opened
        cache = kwargs.get("cache")
        before = _routing_counters(cache)
        try:
            result = original(*args, **kwargs)
            self.routing["expansions"] += result[1].get("router_expansions", 0)
            return result
        finally:
            after = _routing_counters(cache)
            delta = [b - a for a, b in zip(before, after)]
            for key, value in zip(
                ("path_queries", "path_hits", "label_queries", "label_hits", "kernel_s"),
                delta,
            ):
                self.routing[key] += value
            self.tracer.adopt(
                [
                    {
                        "id": 0,
                        "parent": None,
                        "name": "routing.kernel",
                        "t0": record["t0"],
                        "dur": delta[4],
                        "pid": record["pid"],
                        "attrs": {"synthetic": True},
                    }
                ],
                parent=span.id,
            )

    def _admit(self, original, span, args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        submitted = self.submitted.get(request.tenant)
        if submitted is not None:
            self.queue_waits.append(time.perf_counter() - submitted)
        return original(*args, **kwargs)

    def _stitch(self, original, span, args, kwargs):
        result = original(*args, **kwargs)
        stitch = result[1].get("stitch", {})
        self.stitch["widened_links"] += stitch.get("widened_links", 0)
        self.stitch["fallback_links"] += stitch.get("fallback_links", 0)
        self.stitch["links_routed"] += stitch.get("links_routed", 0)
        return result

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[dict]:
        return self.tracer.spans

    def self_time_sum(self, first: int = 0) -> float:
        """Summed self time of the spans recorded from index *first* on
        (spans are stored in start order): the wall clock the layers
        account for."""
        return sum(self_times(self.spans[first:]).values())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded (``bench.*`` left 0)."""
        out = dict(PER_LAYER_ZERO)
        totals = layer_totals(self.spans)

        def calls(name: str) -> int:
            return int(totals.get(name, {}).get("calls", 0))

        for name, row in totals.items():
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] = row["self_s"]
        out["hmn.hosting.failures"] = self.failures["hmn.hosting"]
        out["hmn.networking.failures"] = self.failures["hmn.networking"]

        r = self.routing
        kernel_calls = r["path_queries"] - r["path_hits"]
        out["routing.calls"] = int(r["path_queries"])
        out["routing.kernel_s"] = r["kernel_s"]
        out["routing.expansions"] = int(r["expansions"])
        out["routing.expansions_per_call"] = r["expansions"] / kernel_calls if kernel_calls else 0.0
        out["routing.us_per_expansion"] = (
            r["kernel_s"] * 1e6 / r["expansions"] if r["expansions"] else 0.0
        )
        out["routing.path_hit_ratio"] = (
            r["path_hits"] / r["path_queries"] if r["path_queries"] else 0.0
        )
        out["routing.label_hit_ratio"] = (
            r["label_hits"] / r["label_queries"] if r["label_queries"] else 0.0
        )

        out["state.copy.calls"] = calls("state.copy")
        out["state.restore.calls"] = calls("state.restore")
        out["service.release.calls"] = calls("service.release")
        out["service.store.appends"] = calls("service.store")
        for q in (50, 90):
            value = percentile(self.queue_waits, q)
            out[f"service.queue_wait_p{q}_ms"] = value * 1e3 if value is not None else 0.0

        routed = self.stitch["links_routed"]
        out["shard.stitch.fallback_rate"] = (
            self.stitch["fallback_links"] / routed if routed else 0.0
        )
        out["shard.widened_links"] = int(self.stitch["widened_links"])
        return out
