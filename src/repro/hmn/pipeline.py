"""The HMN pipeline: Hosting, then Migration, then Networking.

:func:`hmn_map` is the library's headline entry point — "the
sequential execution of three stages" (Section 4) — returning a
:class:`~repro.core.mapping.Mapping` with per-stage telemetry, or
raising a :class:`~repro.errors.MappingError` subclass identifying
which stage failed.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping, StageReport
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.hmn.config import HMNConfig
from repro.hmn.hosting import run_hosting
from repro.hmn.migration import run_migration
from repro.hmn.networking import run_networking
from repro.routing.cache import ENGINE, RoutingCache

__all__ = ["hmn_map"]


def _span_stats(stats: dict) -> dict:
    """Scalar stage counters only — span attrs stay flat and JSON-safe."""
    return {k: v for k, v in stats.items() if isinstance(v, (int, float, str, bool))}


def _with_redundancy(state, venv, config, mapping, *, cache, ledger):
    """Run the redundancy post-stage over a finished primary *mapping*
    and return the mapping extended with its stage report and meta
    block.  A shared *ledger* is rolled back on failure (the caller
    rolls back the state)."""
    import dataclasses

    from repro.redundancy.stage import run_redundancy

    rec = obs.OBS
    ledger_snap = ledger.snapshot() if ledger is not None else None
    with rec.span("hmn.redundancy", engine=ENGINE) as sp:
        t0 = time.perf_counter()
        try:
            meta, stats = run_redundancy(
                state, venv, config, mapping.paths, cache=cache, ledger=ledger
            )
        except BaseException:
            if ledger is not None:
                ledger.restore(ledger_snap)
            raise
        elapsed = time.perf_counter() - t0
        if rec.enabled:
            sp.set(seconds=elapsed, **_span_stats(stats))
            rec.observe("repro_stage_seconds", elapsed, stage="redundancy")
    report = StageReport("redundancy", elapsed, stats)
    new_meta = dict(mapping.meta)
    new_meta["redundancy"] = meta
    timings = dict(new_meta.get("timings", {}))
    if timings:
        timings["redundancy_s"] = elapsed
        timings["total_s"] = timings.get("total_s", 0.0) + elapsed
        new_meta["timings"] = timings
    return dataclasses.replace(
        mapping, stages=mapping.stages + (report,), meta=new_meta
    )


def hmn_map(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    config: HMNConfig | None = None,
    *,
    state: ClusterState | None = None,
    cache: RoutingCache | None = None,
    backup_ledger=None,
) -> Mapping:
    """Map *venv* onto *cluster* with the HMN heuristic.

    Parameters
    ----------
    cluster, venv:
        The physical and virtual environments (Section 3.2 graphs).
    config:
        Pipeline knobs; defaults to the paper's exact heuristic.
    state:
        Optional pre-existing allocation state — pass one to map a new
        virtual environment onto a cluster that already carries
        earlier mappings (multi-tenant extension; the paper assumes an
        empty testbed).  The state is mutated on success and restored
        exactly on any failure, interrupts included.
    cache:
        Optional shared :class:`~repro.routing.cache.RoutingCache`.
        Pass one across repeated mappings of the same cluster to reuse
        its latency tables; a private cache is built otherwise.
    backup_ledger:
        Optional shared :class:`~repro.redundancy.ledger.BackupLedger`
        for ``config.backup_paths`` reservations.  Multi-tenant callers
        (:class:`~repro.service.core.TenantTable`) pass one so backups
        of *different* tenants multiplex the same shared-risk headroom;
        a private per-mapping ledger is built otherwise.  Must wrap the
        same state the mapping runs against.

    Returns
    -------
    Mapping
        Complete, constraint-satisfying mapping; ``mapping.stages``
        carries Hosting/Migration/Networking wall times and counters,
        ``mapping.meta["objective"]`` the final Eq. 10 value
        (recomputed exactly from the residual state at pipeline exit),
        and ``mapping.meta["timings"]`` the flat per-stage
        timing/metrics record (stage seconds, routing calls, cache hit
        rate) the experiment runner and benchmark reports consume.

    Raises
    ------
    PlacementError
        Hosting found a guest no host can take.
    RoutingError
        Networking found a virtual link with no feasible path.
    """
    if config is None:
        config = HMNConfig()

    # Very large substrates go down the shard-and-stitch path (same
    # Mapping contract, pod-parallel decision-equivalent stages).  The
    # resolver returns 0 — stay monolithic — for shard="off", for
    # "auto" below its size floor, and for degenerate pod counts, so
    # every paper-scale mapping is byte-identical to the unsharded one.
    from repro.shard.partition import resolve_pod_target

    redundant = config.redundancy > 0 or config.backup_paths
    target_pods = resolve_pod_target(config.shard, cluster.n_hosts)
    if target_pods >= 2:
        from repro.shard.mapper import shard_map

        if not redundant:
            return shard_map(cluster, venv, config, state=state, n_pods=target_pods)
        # Redundancy rides on top of the sharded primary mapping: run
        # shard_map against an explicit state, then the same post-stage
        # the monolithic path gets.  A failure after the primary
        # committed must roll the whole admission back, so shared
        # callers get a pre-shard snapshot.
        shared_state = state is not None
        if state is None:
            state = ClusterState(cluster)
        if cache is None:
            cache = RoutingCache(cluster)
        pre_shard = state.copy() if shared_state else None
        mapping = shard_map(cluster, venv, config, state=state, n_pods=target_pods)
        try:
            return _with_redundancy(
                state, venv, config, mapping, cache=cache, ledger=backup_ledger
            )
        except BaseException:
            if pre_shard is not None:
                state.restore_from(pre_shard)
            raise

    shared_state = state is not None
    if state is None:
        state = ClusterState(cluster)
    if cache is None:
        cache = RoutingCache(cluster)

    # A failure mid-pipeline must not leak partial placements or
    # bandwidth reservations into a caller-owned (multi-tenant) state.
    snapshot = state.copy() if shared_state else None

    rec = obs.OBS
    stages: list[StageReport] = []

    def run_stage(name: str, stage_fn):
        """One coherent timing layer: StageReport + span per stage."""
        with rec.span(f"hmn.{name}", engine=ENGINE) as sp:
            t0 = time.perf_counter()
            result = stage_fn()
            elapsed = time.perf_counter() - t0
            stats = result[1] if name == "networking" else result
            stages.append(StageReport(name, elapsed, stats))
            if rec.enabled:
                sp.set(seconds=elapsed, **_span_stats(stats))
                rec.observe("repro_stage_seconds", elapsed, stage=name)
        return result

    with rec.span(
        "hmn.map", n_guests=venv.n_guests, n_vlinks=venv.n_vlinks, engine=ENGINE
    ) as root:
        try:
            run_stage("hosting", lambda: run_hosting(state, venv, config))
            if config.migration_enabled:
                run_stage("migration", lambda: run_migration(state, venv, config))
            paths, networking_stats = run_stage(
                "networking", lambda: run_networking(state, venv, config, cache=cache)
            )
        except BaseException:
            if snapshot is not None:
                state.restore_from(snapshot)
            raise

        timings = {f"{s.name}_s": s.elapsed_s for s in stages}
        timings["total_s"] = sum(s.elapsed_s for s in stages)
        timings["routing_calls"] = networking_stats["routing_calls"]
        timings["router_expansions"] = networking_stats["router_expansions"]
        timings["cache_hit_rate"] = networking_stats["cache_hit_rate"]
        timings["engine"] = networking_stats["engine"]
        timings["route_kernel_s"] = networking_stats["route_kernel_s"]
        if rec.enabled:
            root.set(total_s=timings["total_s"], routing_calls=timings["routing_calls"])
            rec.count("repro_mappings_total", engine=ENGINE)

        mapping = Mapping(
            # Restrict to this venv's guests: a shared multi-tenant state
            # also carries placements the caller did not ask about.
            assignments={g.id: state.host_of(g.id) for g in venv.guests()},
            paths=paths,
            mapper="hmn" if config.migration_enabled else "hmn-nomigration",
            stages=tuple(stages),
            meta={
                "objective": state.objective(),
                "config": config.describe(),
                "timings": timings,
            },
        )
        if redundant:
            try:
                mapping = _with_redundancy(
                    state, venv, config, mapping, cache=cache, ledger=backup_ledger
                )
            except BaseException:
                if snapshot is not None:
                    state.restore_from(snapshot)
                raise
    return mapping
