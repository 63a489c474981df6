"""Workloads, timed loops and output checks behind ``run.py``.

Every input is generated from the run's seed with
:func:`repro.seeding.derive`; the program under test only ever receives
the generated clusters, virtual environments and tenant requests.

A run generates its inputs once, then sets the system up on them
:data:`SETUP_REPS` times from fresh objects (each cluster loaded from its
serialized form, so nothing the program caches per cluster survives from
one set-up to the next) and reports the median, then measures.  Every
output is checked, outside the timed calls.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import heapq
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.api import mapping_digest
from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.errors import MappingError, ModelError, StoreError
from repro.hmn import pipeline
from repro.hmn.config import HMNConfig
from repro.io import cluster_from_dict, cluster_to_dict
from repro.obs import load_trace
from repro.seeding import derive
from repro.service import ExperimentStore, MappingService, MapRequest, ServiceCore
from repro.service.store import MappingRecord, RequestRecord, venv_of_request
from repro.topology import fat_tree_cluster
from repro.workload import (
    LOW_LEVEL,
    generate_virtual_environment,
    paper_clusters,
    paper_scenarios,
)

from layers import LayerTrace, percentile

__all__ = ["WORKLOADS", "FULL", "SMOKE", "Scale", "run_workload", "service_events"]

SETUP_REPS = 5
#: A traced run's layer self times must explain this share of its
#: timed wall, give or take.
COVERAGE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Scale:
    """Instance counts and sizes of every workload."""

    paper_scenarios: int  # leading rows of the paper's 16-row grid
    paper_reps: int
    mono_k: int
    mono_guests: int
    mono_instances: int
    shard_k: int
    shard_guests: int
    shard_instances: int
    shard: str | int  # HMNConfig.shard of the sharded workload
    tenants: int
    tenant_guests: tuple[int, int]
    open_rate: float  # arrivals per second in the open-loop phase


FULL = Scale(16, 4, 12, 640, 6, 32, 6000, 5, "auto", 100, (100, 400), 10.0)
#: Seconds-scale versions of the same workloads, for the self-tests.
SMOKE = Scale(3, 1, 4, 40, 2, 8, 120, 2, 4, 12, (20, 40), 50.0)

MEAN_LIFETIME = 8.0  # arrivals a tenant stays, geometric
TENANT_DENSITY = 0.02


@dataclass
class Instance:
    cluster: PhysicalCluster
    venv: VirtualEnvironment


@dataclass
class Outcome:
    """What one run checked, what went wrong, and what it reports."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    metrics: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _tail(values: list[float]) -> float:
    """p90 where the sample carries one (100 values or more); below
    that, the mean of the slower half, which a handful of values can
    estimate without resting on the single slowest."""
    p90 = percentile(values, 90)
    if p90 is not None:
        return p90
    slower = sorted(values)[len(values) // 2:]
    return statistics.fmean(slower)


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _checked_digest(cluster, venv, mapping: Mapping, out: Outcome) -> str | None:
    """The mapping's conformance digest; ``mapping_digest`` runs
    ``validate_mapping`` first and refuses a mapping that breaks any of
    Eqs. 1-9, which is recorded as a failed check."""
    try:
        return mapping_digest(cluster, venv, mapping)
    except ModelError as exc:
        out.check(False, f"invalid mapping: {exc}")
        return None


def _fresh_clusters(serialized: dict[int, dict]) -> dict[int, PhysicalCluster]:
    """Load every cluster from its serialized form and compile it."""
    fresh = {key: cluster_from_dict(data) for key, data in serialized.items()}
    for cluster in fresh.values():
        ClusterState(cluster)
    return fresh


# ----------------------------------------------------------------------
# mapping workloads: one closed-loop hmn_map at a time
# ----------------------------------------------------------------------
def _paper_grid(seed: int, scale: Scale):
    # Generated the way analysis.runner expands the grid.  Both clusters
    # of a repetition share one host set, so the aggregate-feasible venv
    # draw is the same for both; it is built once.
    instances = []
    for scenario in paper_scenarios()[: scale.paper_scenarios]:
        for rep in range(scale.paper_reps):
            clusters = paper_clusters(derive(seed, scenario.label, rep, "hosts"))
            try:
                venv = scenario.build_venv(
                    clusters["torus"], seed=derive(seed, scenario.label, rep, "venv")
                )
            except ModelError:
                continue  # no aggregate-feasible draw: unmappable by construction
            instances += [Instance(cluster, venv) for cluster in clusters.values()]
    return instances, HMNConfig(), instances[0], "hmn"


def _fat_tree(seed, name, k, guests, count, config, lat=None):
    extra = {"lat": lat} if lat is not None else {}
    cluster = fat_tree_cluster(
        k, seed=derive(seed, name, "hosts"), allow_giant=k > 16, **extra
    )
    instances = [
        Instance(
            cluster,
            generate_virtual_environment(
                guests, density=2.4 / (guests - 1), seed=derive(seed, name, "venv", i)
            ),
        )
        for i in range(count)
    ]
    warm_guests = max(2, guests // 8)
    warm = Instance(
        cluster,
        generate_virtual_environment(
            warm_guests, density=2.4 / (warm_guests - 1), seed=derive(seed, name, "warm")
        ),
    )
    return instances, config, warm


def _fat_tree_mono(seed: int, scale: Scale):
    config = HMNConfig(shard="off", router="label_setting")
    return (*_fat_tree(seed, "fat-tree-mono", scale.mono_k, scale.mono_guests,
                       scale.mono_instances, config, lat=1.0), "hmn")


def _fat_tree_sharded(seed: int, scale: Scale):
    config = HMNConfig(shard=scale.shard, shard_workers=1)
    return (*_fat_tree(seed, "fat-tree-sharded", scale.shard_k, scale.shard_guests,
                       scale.shard_instances, config), "hmn-sharded")


def _signature(result: Any) -> str:
    """Cheap identity of a map's outcome, to compare repeated maps."""
    if isinstance(result, str):
        return f"refused:{result}"
    body = repr((sorted(result.assignments.items()), sorted(result.paths.items())))
    return hashlib.sha256(body.encode()).hexdigest()


class MapWorkload:
    """A fixed instance list mapped in a closed loop, one map at a time.

    Every instance is mapped once; then, until the run's timed seconds
    are used up, the instance with the least time spent on it so far is
    mapped again, so cheap instances collect many repetitions and every
    instance about the same time.  An instance's latency is the fastest
    of its repetitions: load from other tenants of the machine only
    ever adds time.
    """

    def __init__(self, build: Callable[[int, Scale], tuple]) -> None:
        self.build = build

    def generate(self, seed: int, scale: Scale, out_dir: Path) -> dict:
        instances, config, warm, mapper = self.build(seed, scale)
        clusters = {id(i.cluster): i.cluster for i in instances + [warm]}
        return {
            "instances": instances,
            "warm": warm,
            "config": config,
            "mapper": mapper,
            "serialized": {key: cluster_to_dict(c) for key, c in clusters.items()},
        }

    def setup(self, inputs: dict) -> dict:
        fresh = _fresh_clusters(inputs["serialized"])
        warm = inputs["warm"]
        try:
            pipeline.hmn_map(fresh[id(warm.cluster)], warm.venv, inputs["config"])
        except MappingError:
            pass
        return {
            **inputs,
            "instances": [Instance(fresh[id(i.cluster)], i.venv) for i in inputs["instances"]],
        }

    def measure(self, ready: dict, seconds: float, trace: bool, out: Outcome,
                trace_path: Path) -> None:
        instances = ready["instances"]
        config = ready["config"]
        n = len(instances)
        seen = _Seen(n, ready["mapper"])

        def map_one(k: int) -> float:
            inst = instances[k]
            t0 = time.perf_counter()
            try:
                result: Any = pipeline.hmn_map(inst.cluster, inst.venv, config)
            except MappingError as exc:
                result = type(exc).__name__
            elapsed = time.perf_counter() - t0
            seen.record(k, inst, result, out)
            return elapsed

        if trace:
            untraced = sum(map_one(k) for k in range(n))
            with LayerTrace() as layers:
                traced = sum(map_one(k) for k in range(n))
            out.metrics = _layer_metrics(layers, traced, traced / untraced, out, trace_path)
            out.attempted = 2 * n
        else:
            fastest = [map_one(k) for k in range(n)]
            spent = [(t, k) for k, t in enumerate(fastest)]
            heapq.heapify(spent)
            timed = math.fsum(fastest)
            out.attempted = n
            while timed < seconds:
                total, k = heapq.heappop(spent)
                elapsed = map_one(k)
                fastest[k] = min(fastest[k], elapsed)
                heapq.heappush(spent, (total + elapsed, k))
                timed += elapsed
                out.attempted += 1
            out.metrics = {
                "p50_ms": statistics.median(fastest) * 1e3,
                "tail_ms": _tail(fastest) * 1e3,
                "throughput_per_s": n / math.fsum(fastest),
                "objective_mean": statistics.fmean(seen.objectives) if seen.objectives else 0.0,
                "success_ratio": len(seen.objectives) / n,
            }
        out.digest = _sha256(seen.digests)


class _Seen:
    """Checks each map's outcome: the first of an instance is validated
    and digested; every repeat must equal it."""

    def __init__(self, n: int, mapper: str) -> None:
        self.mapper = mapper
        self.first: list[str | None] = [None] * n
        self.digests: list[str] = [""] * n
        self.objectives: list[float] = []

    def record(self, k: int, inst: Instance, result: Any, out: Outcome) -> None:
        signature = _signature(result)
        if self.first[k] is not None:
            out.check(signature == self.first[k], f"instance {k}: a repeated map differs")
            return
        self.first[k] = self.digests[k] = signature
        if isinstance(result, str):
            return
        digest = _checked_digest(inst.cluster, inst.venv, result, out)
        if digest is None:
            return
        out.check(result.mapper == self.mapper,
                  f"instance {k}: mapper {result.mapper!r}, expected {self.mapper!r}")
        self.digests[k] = digest
        self.objectives.append(result.objective(inst.cluster, inst.venv))


# ----------------------------------------------------------------------
# service: open loop at a fixed rate, then a burst, same trace
# ----------------------------------------------------------------------
@dataclass
class Tenant:
    id: int
    venv: VirtualEnvironment
    lifetime: int


def _stratified(rng: np.random.Generator, n: int, shape: int) -> np.ndarray:
    """*n* uniform draws on [0, 1), one from each of *n* equal bands.

    Which band each arrival gets follows one fixed shuffle (*shape*),
    the same for every seed; the seed draws the value within the band.
    The marginal is that of *n* independent draws, but load rises and
    falls the same way in every trace, so seeds differ in detail rather
    than in shape.
    """
    bands = np.random.default_rng(shape).permutation(n)
    return (bands + rng.random(n)) / n


def _tenants(seed: int, scale: Scale) -> list[Tenant]:
    """Guest counts uniform on ``tenant_guests``, lifetimes geometric
    with mean :data:`MEAN_LIFETIME` arrivals, both stratified."""
    n = scale.tenants
    lo, hi = scale.tenant_guests
    rng = derive(seed, "service", "trace")
    sizes = lo + np.floor(_stratified(rng, n, 0) * (hi - lo + 1)).astype(int)
    p = 1.0 / MEAN_LIFETIME
    lifetimes = np.maximum(1, np.ceil(np.log1p(-_stratified(rng, n, 1)) / math.log1p(-p)))
    return [
        Tenant(
            i,
            generate_virtual_environment(
                int(sizes[i]), workload=LOW_LEVEL, density=TENANT_DENSITY,
                seed=derive(seed, "service", "tenant", i), id_offset=i * 100_000,
            ),
            int(lifetimes[i]),
        )
        for i in range(n)
    ]


def service_events(tenants: list[Tenant]) -> list[tuple[int, str, int]]:
    """``(slot, kind, tenant)`` in enqueue order.

    Tenant *i* arrives at slot *i* and departs before the arrival at
    slot ``i + lifetime``.  Departures are scheduled whatever the
    admission decision: releasing a rejected tenant is a no-op, so the
    schedule does not depend on the service's answers.
    """
    departing: dict[int, list[int]] = {}
    for t in tenants:
        departing.setdefault(t.id + t.lifetime, []).append(t.id)
    events = []
    for slot in range(len(tenants)):
        events += [(slot, "release", tid) for tid in sorted(departing.get(slot, ()))]
        events.append((slot, "admit", slot))
    return events


@dataclass
class Phase:
    wall: float
    latencies: dict[int, float]  # tenant -> due-to-decision seconds
    lateness: list[float]
    decisions: list
    core: ServiceCore
    store: Path | None


async def play(cluster, tenants, events, rate, store: Path | None,
               on_submit: Callable[[int], None] | None = None) -> Phase:
    """Feed *events* to a fresh ``MappingService``; *rate* arrivals per
    second (``None``: every event due at once).

    Every event becomes a task in schedule order, so tickets reach the
    service's queue in schedule order; awaiting one kind inline while
    the other runs as tasks would let a later ticket overtake.  Each
    admission's latency runs from its due time to its decision.
    """
    service = MappingService(
        cluster, config=HMNConfig(), n_workers=2,
        store=str(store) if store is not None else None,
    )
    await service.start()
    latencies: dict[int, float] = {}
    lateness: list[float] = []

    async def admit(tenant: Tenant, due: float):
        if on_submit is not None:
            on_submit(tenant.id)
        decision = await service.submit(MapRequest(tenant=tenant.id, venv=tenant.venv))
        latencies[tenant.id] = time.perf_counter() - due
        return decision

    tasks = []
    start = time.perf_counter()
    for slot, kind, tid in events:
        due = start + (slot / rate if rate else 0.0)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(
            admit(tenants[tid], due) if kind == "admit" else service.release(tid)
        ))
    results = await asyncio.gather(*tasks)
    wall = time.perf_counter() - start
    await service.close()
    decisions = [r for (_, kind, _), r in zip(events, results) if kind == "admit"]
    return Phase(wall, latencies, lateness, decisions, service.core, store)


class ServiceWorkload:
    """One tenant trace played open loop at ``open_rate``, then as a
    burst, twice over, each time against a fresh service with an
    on-disk store.  An admission's latency is the lower of its two
    open-loop plays, and the faster burst sets the throughput: load from
    other tenants of the machine only ever adds time.  The run length is
    set by the schedule, not by ``seconds``."""

    def generate(self, seed: int, scale: Scale, out_dir: Path) -> dict:
        cluster = paper_clusters(derive(seed, "service", "hosts"))["torus"]
        tenants = _tenants(seed, scale)
        warm = generate_virtual_environment(
            scale.tenant_guests[1], workload=LOW_LEVEL, density=TENANT_DENSITY,
            seed=derive(seed, "service", "warm"),
        )
        return {
            "serialized": {0: cluster_to_dict(cluster)},
            "tenants": tenants,
            "warm": [Tenant(0, warm, 1)],
            "events": service_events(tenants),
            "rate": scale.open_rate,
            "dir": out_dir,
        }

    def setup(self, inputs: dict) -> dict:
        """Load the cluster, start a service, admit a largest-size tenant."""
        cluster = _fresh_clusters(inputs["serialized"])[0]
        asyncio.run(play(cluster, inputs["warm"], service_events(inputs["warm"]), None, None))
        return {**inputs, "cluster": cluster}

    @staticmethod
    def _play(ready: dict, rate: float | None, tag: str,
              on_submit: Callable[[int], None] | None = None) -> Phase:
        store = ready["dir"] / f"service-{os.getpid()}-{tag}.store"
        return asyncio.run(play(ready["cluster"], ready["tenants"], ready["events"],
                                rate, store, on_submit))

    def measure(self, ready: dict, seconds: float, trace: bool, out: Outcome,
                trace_path: Path) -> None:
        rate = ready["rate"]
        phases = []
        for i in range(1 if trace else 2):
            phases += [self._play(ready, rate, f"open{i}"), self._play(ready, None, f"burst{i}")]
        opens, bursts = phases[0::2], phases[1::2]
        if trace:
            with LayerTrace() as layers:
                def submitted(tid: int) -> None:
                    layers.submitted[tid] = time.perf_counter()

                t_open = self._play(ready, rate, "traced-open", submitted)
                layers.submitted.clear()  # queue waits are the open loop's only
                first_span = len(layers.spans)
                t_burst = self._play(ready, None, "traced-burst")
            metrics = _layer_metrics(layers, t_burst.wall, t_burst.wall / bursts[0].wall,
                                     out, trace_path, first_span=first_span)
            metrics["bench.generator_late_p50_ms"] = percentile(t_open.lateness, 50) * 1e3
            metrics["bench.generator_late_max_ms"] = max(t_open.lateness) * 1e3
            out.metrics = metrics
            phases += [t_open, t_burst]
        try:
            objectives = self._check(ready, phases, out)
        finally:
            for phase in phases:
                phase.store.unlink(missing_ok=True)
        if not trace:
            latencies = [min(p.latencies[t] for p in opens) for t in opens[0].latencies]
            n = len(opens[0].decisions)
            out.metrics = {
                "p50_ms": statistics.median(latencies) * 1e3,
                "tail_ms": _tail(latencies) * 1e3,
                "throughput_per_s": n / min(p.wall for p in bursts),
                "objective_mean": statistics.fmean(objectives) if objectives else 0.0,
                "success_ratio": opens[0].core.accepted / n,
            }

    @staticmethod
    def _check(ready: dict, phases: list[Phase], out: Outcome) -> list[float]:
        """Checks every phase's outputs; returns the Eq. 10 value of each
        admitted mapping."""
        cluster = ready["cluster"]
        first = phases[0]
        out.attempted = sum(len(p.decisions) for p in phases)
        want = [d.to_dict() for d in first.decisions]
        for phase in phases[1:]:
            out.check([d.to_dict() for d in phase.decisions] == want,
                      "decisions differ between phases of one trace")
            out.check(phase.store.read_bytes() == first.store.read_bytes(),
                      "store bytes differ between phases of one trace")
        # Every admitted mapping, from the durable log, against Eqs. 1-9.
        _, ops = ExperimentStore(first.store).load()
        requests = {op.request_id: op for op in ops if isinstance(op, RequestRecord)}
        lines: list[str] = []
        objectives: list[float] = []
        for op in ops:
            if not isinstance(op, MappingRecord):
                continue
            venv = venv_of_request(requests[op.request_id])
            mapping = Mapping(
                assignments={int(g): h for g, h in op.mapping["assignments"].items()},
                paths={tuple(int(x) for x in key.split(",")): tuple(path)
                       for key, path in op.mapping["paths"].items()},
                mapper=op.mapping["mapper"],
            )
            digest = _checked_digest(cluster, venv, mapping, out)
            if digest is not None:
                lines.append(digest)
                objectives.append(mapping.objective(cluster, venv))
        out.check(len(lines) == first.core.accepted,
                  f"{len(lines)} stored mappings for {first.core.accepted} admissions")
        out.digest = _sha256(lines)
        # Untimed replay of the log through the real admission path.
        try:
            resumed = ServiceCore.resume(cluster, first.store)
        except StoreError as exc:
            out.check(False, f"store replay diverged: {exc}")
            return objectives
        resumed.close()
        core = first.core
        out.check(
            (resumed.accepted, resumed.rejected) == (core.accepted, core.rejected)
            and resumed.state.objective() == core.state.objective()
            and set(resumed.live_tenants) == set(core.live_tenants),
            "resumed service differs from the live one",
        )
        return objectives


WORKLOADS: dict[str, Any] = {
    "paper-grid": MapWorkload(_paper_grid),
    "fat-tree-mono": MapWorkload(_fat_tree_mono),
    "fat-tree-sharded": MapWorkload(_fat_tree_sharded),
    "service": ServiceWorkload(),
}


def _layer_metrics(layers: LayerTrace, wall: float, overhead: float, out: Outcome,
                   trace_path: Path, first_span: int = 0) -> dict[str, float]:
    """Per-layer metrics of a traced region; checks the trace file and
    that the layers' self times add up to the region's timed wall."""
    metrics = layers.metrics()
    metrics["bench.trace_overhead_ratio"] = overhead
    coverage = layers.self_time_sum(first_span) / wall
    metrics["bench.self_time_coverage"] = coverage
    out.check(abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
              f"layer self times cover {coverage:.1%} of the timed wall")
    layers.tracer.write(trace_path)
    try:
        load_trace(trace_path)
    except ValueError as exc:
        out.check(False, str(exc))
    return metrics


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, scale: Scale,
                 out_dir: Path) -> dict:
    """Generate, set up, measure and check one workload; the child's result."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.generate(seed, scale, out_dir)
    setups = []
    for _ in range(SETUP_REPS):
        ready = None  # drop the previous set-up before building the next
        t0 = time.perf_counter()
        ready = workload.setup(inputs)
        setups.append(time.perf_counter() - t0)
    # Collections during the timed calls then scan the program's own
    # garbage, not the benchmark's inputs.
    gc.collect()
    gc.freeze()
    out = Outcome()
    workload.measure(ready, seconds, trace, out, out_dir / f"trace-{name}-{seed}.jsonl")
    if not trace:
        out.metrics["setup_s"] = statistics.median(setups)
        out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name,
        "seed": seed,
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": min(len(out.problems), out.attempted),
        "problems": out.problems[:20],
        "digest": out.digest,
        "metrics": out.metrics,
    }
