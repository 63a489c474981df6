"""Shard-and-stitch mapping: the HMN pipeline at 100k-host scale.

:func:`shard_map` is the sharded twin of
:func:`repro.hmn.pipeline.hmn_map`, dispatched to by the pipeline when
``config.shard`` resolves to two or more pods.  Stages:

1. **partition** — cut the substrate into pods along its natural seams
   (:func:`repro.shard.partition.partition_cluster`), then split the
   *virtual* environment into chunks by union-find over the virtual
   links in descending-``vbw`` order (capped so chunks stay pod-sized)
   and water-fill the chunks onto pods by residual CPU capacity —
   heaviest chunk first, emptiest pod first.  Keeping linked guests in
   one chunk turns the heaviest virtual links into intra-pod (often
   intra-host) links, which is the monolithic Hosting stage's own
   affinity goal.
2. **hosting** — run the vectorized, decision-equivalent Hosting
   (:func:`repro.shard.vectorized.pod_hosting`) inside every pod
   against a pod-local :class:`~repro.shard.vectorized.PodState`.
   Guests a pod cannot take are *rescued*: retried across the other
   pods, fullest-fit first, before the stage is allowed to fail.
3. **migration** — pod-local Migration.  A within-pod move keeps the
   residual-CPU *sum* constant, so the pod-local Eq. 10 delta equals
   the global delta and every accepted move improves the global
   objective too.
4. **networking** — :func:`repro.shard.stitch.stitch_networking`:
   cross-pod links batched into corridor waves through the contracted
   inter-pod graph, one C-kernel call per wave.

Only after the placement stages succeed on the pod views are the
placements replayed onto the global :class:`ClusterState` — whose own
capacity checks then re-verify every single one — and bandwidth is
reserved through :meth:`ClusterState.reserve_path` as usual, so the
returned :class:`Mapping` satisfies exactly the invariants the
monolithic pipeline guarantees (``repro.core.validate`` passes or the
mapper raises).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping, StageReport
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.errors import PlacementError
from repro.hmn.config import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.routing.cache import ENGINE
from repro.shard.parallel import PodPool, resolve_shard_workers
from repro.shard.partition import Partition, partition_cluster
from repro.shard.stitch import stitch_networking
from repro.shard.vectorized import PodState, pod_hosting, pod_migration

__all__ = ["shard_map", "SHARD_QUALITY_RATIO", "SHARD_QUALITY_SLACK"]

#: Documented quality bound for sharding: on any instance both
#: pipelines can solve, the sharded Eq. 10 objective stays within
#: ``mono * SHARD_QUALITY_RATIO + SHARD_QUALITY_SLACK``.  The ratio
#: covers the coarser migration granularity (moves never cross pods);
#: the additive slack (in MIPS, tiny against Table 1 residual spreads
#: of hundreds) keeps the bound meaningful when the monolithic
#: objective is near zero.  The scaling test battery and the
#: ``bench_scaling`` CI gate both enforce exactly this bound.
SHARD_QUALITY_RATIO = 1.5
SHARD_QUALITY_SLACK = 1.0


def _exact_std(pods: list[PodState]) -> float:
    """Eq. 10 over the union of all pod views (exact, like
    :meth:`ResidualCpuTracker.exact_std`)."""
    values = np.concatenate([p.res for p in pods])
    n = len(values)
    total = math.fsum(values)
    sumsq = math.fsum(v * v for v in values)
    var = max(0.0, sumsq / n - (total / n) ** 2)
    return math.sqrt(var)


def _chunk_guests(
    venv: VirtualEnvironment, config: HMNConfig, n_pods: int
) -> list[tuple[int, float, list[int]]]:
    """Union-find the guests into pod-sized chunks along their links.

    Returns ``(min_guest_id, total_vproc, guest_ids)`` triples sorted
    heaviest-first.  Links are merged in the configured processing
    order (descending ``vbw`` by default) while the combined chunk
    stays under ``total_vproc / n_pods``; guest pairs always merge, so
    the Hosting pair-colocation rule keeps its shot at every link.
    """
    parent: dict[int, int] = {}
    demand: dict[int, float] = {}
    size: dict[int, int] = {}
    for g in venv.guests():
        parent[g.id] = g.id
        demand[g.id] = g.vproc
        size[g.id] = 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total_vproc = math.fsum(demand.values())
    cap = total_vproc / n_pods if n_pods else total_vproc
    for link in ordered_vlinks(venv, config):
        ra, rb = find(link.a), find(link.b)
        if ra == rb:
            continue
        if demand[ra] + demand[rb] <= cap or size[ra] + size[rb] <= 2:
            # Deterministic union: smaller root id wins.
            keep, gone = (ra, rb) if ra <= rb else (rb, ra)
            parent[gone] = keep
            demand[keep] += demand[gone]
            size[keep] += size[gone]

    members: dict[int, list[int]] = {}
    for g in sorted(parent):
        members.setdefault(find(g), []).append(g)
    chunks = [(root, demand[root], gids) for root, gids in members.items()]
    chunks.sort(key=lambda c: (-c[1], c[0]))
    return chunks


def _assign_chunks(
    chunks: list[tuple[int, float, list[int]]],
    capacities: list[float],
) -> list[list[int]]:
    """Water-fill: each chunk goes to the pod with the most remaining
    CPU capacity (ties to the lowest pod index)."""
    remaining = list(capacities)
    pod_guests: list[list[int]] = [[] for _ in remaining]
    for _, dem, gids in chunks:
        p = max(range(len(remaining)), key=lambda i: (remaining[i], -i))
        pod_guests[p].extend(gids)
        remaining[p] -= dem
    return pod_guests


def shard_map(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    config: HMNConfig | None = None,
    *,
    state: ClusterState | None = None,
    n_pods: int | None = None,
) -> Mapping:
    """Map *venv* onto *cluster* with the shard-and-stitch pipeline.

    Takes :func:`~repro.hmn.pipeline.hmn_map`'s *state* but no routing
    cache: the stitcher's batched corridor router has no use for the
    monolithic one.  *n_pods* forces a pod count; by default the
    partitioner picks the topology's natural one.

    Raises :class:`PlacementError`/:class:`RoutingError` under exactly
    the monolithic pipeline's heuristic-failure contract, and restores
    a caller-supplied *state* on any failure.
    """
    if config is None:
        config = HMNConfig()
    shared_state = state is not None
    if state is None:
        state = ClusterState(cluster)
    snapshot = state.copy() if shared_state else None

    rec = obs.OBS
    stages: list[StageReport] = []

    def run_stage(name: str, stage_fn):
        with rec.span(f"shard.{name}", engine=ENGINE) as sp:
            t0 = time.perf_counter()
            result = stage_fn(sp)
            elapsed = time.perf_counter() - t0
            stats = result[1] if name == "networking" else result
            stages.append(StageReport(name, elapsed, stats))
            if rec.enabled:
                scalars = {
                    k: v for k, v in stats.items() if isinstance(v, (int, float, str, bool))
                }
                sp.set(seconds=elapsed, **scalars)
                rec.observe("repro_stage_seconds", elapsed, stage=name)
        return result

    with rec.span(
        "shard.map", n_guests=venv.n_guests, n_vlinks=venv.n_vlinks, engine=ENGINE
    ) as root:
        pool: PodPool | None = None
        try:
            # -- stage 1: partition substrate + virtual environment ----
            with rec.span("shard.partition", engine=ENGINE) as sp:
                t0 = time.perf_counter()
                partition = partition_cluster(cluster, n_pods, seed=config.seed)
                pod_states = [
                    PodState.from_state(state, pod) for pod in partition.pods
                ]
                capacities = [float(np.sum(p.res)) for p in pod_states]
                chunks = _chunk_guests(venv, config, partition.n_pods)
                pod_guests = _assign_chunks(chunks, capacities)
                part_stats = {
                    **partition.describe(),
                    "n_chunks": len(chunks),
                    "chunk_guests_max": max((len(c[2]) for c in chunks), default=0),
                }
                elapsed = time.perf_counter() - t0
                stages.append(StageReport("partition", elapsed, part_stats))
                if rec.enabled:
                    sp.set(seconds=elapsed, n_pods=partition.n_pods)
                    rec.observe("repro_stage_seconds", elapsed, stage="partition")

            # -- worker pool (shard_workers >= 2 and enough pods) ------
            # Workers see a read-only shared-memory snapshot of the
            # substrate (published once, below) and return per-pod
            # decision logs; the parent replays each log in pod-id
            # order, which is the serial code path's exact operation
            # sequence — the mapping digest is byte-identical for any
            # worker count.
            n_workers = resolve_shard_workers(config.shard_workers, partition.n_pods)
            if n_workers >= 2:
                with rec.span("shard.pool", n_workers=n_workers):
                    pool = PodPool(state, venv, config, n_workers)

            # -- stage 2: pod-local hosting + overflow rescue ----------
            def do_hosting(sp):
                hosting_stats = {
                    "placements": 0,
                    "pairs_colocated": 0,
                    "isolated_guests": 0,
                    "rescued_guests": 0,
                }
                assigned_pod = {
                    g: p for p, gids in enumerate(pod_guests) for g in gids
                }
                pod_links: list[list] = [[] for _ in partition.pods]
                for link in ordered_vlinks(venv, config):
                    pa = assigned_pod[link.a]
                    if pa == assigned_pod[link.b]:
                        pod_links[pa].append(link)
                failures: list[int] = []
                if pool is None:
                    for p, pod in enumerate(pod_states):
                        with rec.span(
                            "shard.pod", stage="hosting", pod=p,
                            hosts=pod.n_hosts, guests=len(pod_guests[p]),
                        ):
                            st = pod_hosting(
                                pod, venv, pod_links[p], sorted(pod_guests[p]),
                                config, failures=failures,
                            )
                        for k in ("placements", "pairs_colocated", "isolated_guests"):
                            hosting_stats[k] += st[k]
                else:
                    topo = state.topology
                    tasks = [
                        (
                            "hosting", p,
                            np.array(
                                [topo.host_index[h] for h in pod.ids],
                                dtype=np.int64,
                            ),
                            pod_links[p],
                            sorted(pod_guests[p]),
                        )
                        for p, pod in enumerate(pod_states)
                    ]
                    for p, (payload, wspans) in enumerate(pool.run(tasks)):
                        placed_items, st, pod_failures = payload
                        pod = pod_states[p]
                        for g, pos in placed_items:
                            pod.place(venv.guest(g), pos)
                        for k in ("placements", "pairs_colocated", "isolated_guests"):
                            hosting_stats[k] += st[k]
                        failures.extend(pod_failures)
                        if rec.enabled and wspans:
                            rec.adopt(wspans, parent=sp.id)
                # Overflow rescue: retry homeless guests across every
                # other pod, emptiest pod first, heaviest guest first.
                # Rescue crosses pod boundaries, so it always runs in
                # the parent — its placements land in ``pod.placed``
                # *after* the pod's own, which is exactly the order the
                # migration tasks replay.
                if failures:
                    rescue = [venv.guest(g) for g in sorted(set(failures))]
                    rescue.sort(key=lambda g: (-g.vproc, g.id))
                    for guest in rescue:
                        by_room = sorted(
                            range(len(pod_states)),
                            key=lambda i: (-float(np.max(pod_states[i].res)), i),
                        )
                        for p in by_room:
                            pod = pod_states[p]
                            pos = pod.first_fitting(guest, pod.order_residual_desc())
                            if pos is not None:
                                pod.place(guest, pos)
                                hosting_stats["placements"] += 1
                                hosting_stats["rescued_guests"] += 1
                                break
                        else:
                            raise PlacementError(
                                guest.id,
                                "Hosting stage: no host in any pod has enough "
                                "memory/storage",
                            )
                return hosting_stats

            run_stage("hosting", do_hosting)

            # -- stage 3: pod-local migration --------------------------
            if config.migration_enabled:

                def do_migration(sp):
                    before = _exact_std(pod_states)
                    stats = {"migrations": 0, "iterations": 0}
                    if pool is None:
                        for p, pod in enumerate(pod_states):
                            with rec.span("shard.pod", stage="migration", pod=p):
                                st = pod_migration(pod, venv, config)
                            stats["migrations"] += st["migrations"]
                            stats["iterations"] += st["iterations"]
                    else:
                        topo = state.topology
                        # ``placed`` is insertion-ordered, so the log
                        # replays the pod's exact placement sequence
                        # (worker hosting first, then rescue).
                        tasks = [
                            (
                                "migration", p,
                                np.array(
                                    [topo.host_index[h] for h in pod.ids],
                                    dtype=np.int64,
                                ),
                                list(pod.placed.items()),
                            )
                            for p, pod in enumerate(pod_states)
                        ]
                        for p, (payload, wspans) in enumerate(pool.run(tasks)):
                            moves, st = payload
                            pod = pod_states[p]
                            for g, dst in moves:
                                pod.move(venv.guest(g), dst)
                            stats["migrations"] += st["migrations"]
                            stats["iterations"] += st["iterations"]
                            if rec.enabled and wspans:
                                rec.adopt(wspans, parent=sp.id)
                    stats["objective_before"] = before
                    stats["objective_after"] = _exact_std(pod_states)
                    return stats

                run_stage("migration", do_migration)

            # -- replay pod placements onto the global state -----------
            # ClusterState.place re-checks every capacity constraint, so
            # any pod-view bookkeeping bug surfaces here, loudly.
            for pod in pod_states:
                for g, host in sorted(pod.assignment().items()):
                    state.place(venv.guest(g), host)

            # -- stage 4: stitch networking ----------------------------
            paths, networking_stats = run_stage(
                "networking",
                lambda sp: stitch_networking(state, venv, config, partition),
            )
        except Exception:
            if snapshot is not None:
                state.restore_from(snapshot)
            raise
        finally:
            if pool is not None:
                pool.close()

        timings = {f"{s.name}_s": s.elapsed_s for s in stages}
        timings["total_s"] = sum(s.elapsed_s for s in stages)
        timings["routing_calls"] = networking_stats["routing_calls"]
        timings["router_expansions"] = networking_stats["router_expansions"]
        timings["cache_hit_rate"] = networking_stats["cache_hit_rate"]
        timings["engine"] = networking_stats["engine"]
        timings["route_kernel_s"] = networking_stats["route_kernel_s"]
        if rec.enabled:
            root.set(
                total_s=timings["total_s"], n_pods=partition.n_pods,
                n_workers=n_workers,
            )
            rec.count("repro_mappings_total", engine="sharded")

    return Mapping(
        assignments={g.id: state.host_of(g.id) for g in venv.guests()},
        paths=paths,
        mapper="hmn-sharded" if config.migration_enabled else "hmn-sharded-nomigration",
        stages=tuple(stages),
        meta={
            "objective": state.objective(),
            "config": config.describe(),
            "timings": timings,
            "shard": {
                **part_stats,
                **networking_stats.get("stitch", {}),
                "n_workers": n_workers,
                **(dict(pool.stats) if pool is not None else {}),
            },
        },
    )
