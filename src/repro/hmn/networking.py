"""HMN stage 3 — Networking (Section 4.3).

Routes every virtual link over the physical cluster.  Links are
processed in descending bandwidth order; each is routed with the
modified 1-constrained A*Prune (Algorithm 1, run by the compiled
kernels of :mod:`repro.routing.compiled`), which maximizes the path's
bottleneck **residual** bandwidth under the link's latency bound, and
the link's demand is then reserved on every physical link of the path
so later routes see the reduced residuals (Eq. 9 aggregation).

Links whose endpoint guests share a host are mapped to the trivial
intra-host path and consume nothing — the paper singles these out as
the reason Networking time varies between runs of the same scenario
("links whose guests are in the same host are not mapped, as they are
handled inside the host").

All bottleneck queries flow through a
:class:`~repro.routing.cache.RoutingCache`, which shares the
per-destination latency tables across all links of the stage — the
paper identifies exactly this computation as the dominant mapping cost
(Figure 1 discussion).  Each path is searched afresh against the
residuals the previous links left.

The ``routing_metric="latency"`` ablation replaces Algorithm 1 with a
bandwidth-feasible minimum-latency search (the generic A*Prune of
reference [8] with the latency metric), isolating the value of the
bottleneck-bandwidth objective.
"""

from __future__ import annotations

from typing import Hashable

from repro import obs
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import RoutingError
from repro.hmn.config import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.routing.astar_prune import Constraint, Metric, astar_prune
from repro.routing.cache import ENGINE, RoutingCache

__all__ = ["run_networking"]

NodeId = Hashable


def _route_latency_metric(
    state: ClusterState,
    origin: NodeId,
    destination: NodeId,
    bandwidth: float,
    latency_bound: float,
    config: HMNConfig,
) -> tuple[NodeId, ...]:
    """Ablation router: bandwidth-feasible minimum-latency path."""
    lat = Metric("latency", state.cluster.latency)
    paths = astar_prune(
        state.cluster,
        origin,
        destination,
        length=lat,
        constraints=[Constraint(lat, latency_bound)],
        k=1,
        edge_admissible=lambda u, v: state.residual_bw(u, v) + 1e-12 >= bandwidth,
        max_expansions=config.max_route_expansions,
    )
    if not paths:
        raise RoutingError(
            (origin, destination),
            f"no bandwidth-feasible path within {latency_bound:.3f} ms",
        )
    return paths[0].nodes


def run_networking(
    state: ClusterState,
    venv: VirtualEnvironment,
    config: HMNConfig,
    *,
    cache: RoutingCache | None = None,
) -> tuple[dict[VLinkKey, tuple[NodeId, ...]], dict]:
    """Execute the Networking stage against a fully placed *state*.

    Returns ``(paths, stats)`` where *paths* maps each virtual link key
    to its node path, and mutates *state* by reserving bandwidth along
    every inter-host path.

    All bottleneck queries go through a
    :class:`~repro.routing.cache.RoutingCache` — pass one (e.g. shared
    across the mappings of a multi-tenant cluster) to reuse its latency
    labels; otherwise a private cache is built.

    Raises :class:`~repro.errors.RoutingError` (heuristic failure) when
    some link admits no feasible path under the residual bandwidths.
    """
    if cache is None:
        cache = RoutingCache(state.cluster)
    paths: dict[VLinkKey, tuple[NodeId, ...]] = {}
    colocated = 0
    routed = 0
    total_expansions = 0
    hits_before = cache.label_hits
    queries_before = cache.label_queries
    kernel_before = cache.kernel_seconds

    for link in ordered_vlinks(venv, config):
        src = state.host_of(link.a)
        dst = state.host_of(link.b)
        if src == dst:
            paths[link.key] = (src,)
            colocated += 1
            continue
        if config.routing_metric == "bottleneck":
            result = cache.route(
                state,
                src,
                dst,
                bandwidth=link.vbw,
                latency_bound=link.vlat,
                router=config.router,
                max_expansions=config.max_route_expansions,
            )
            nodes = result.nodes
            total_expansions += result.expansions
        else:
            nodes = _route_latency_metric(state, src, dst, link.vbw, link.vlat, config)
        state.reserve_path(nodes, link.vbw)
        paths[link.key] = nodes
        routed += 1

    queries = cache.label_queries - queries_before
    hits = cache.label_hits - hits_before
    rec = obs.OBS
    if rec.enabled:
        # Aggregate counters once per stage — never per link, so the
        # routing loop above stays uninstrumented (route.query spans
        # come from the cache itself).
        rec.count("repro_links_routed_total", routed, engine=ENGINE)
        rec.count("repro_links_colocated_total", colocated, engine=ENGINE)
        rec.count("repro_router_expansions_total", total_expansions, engine=ENGINE)
    return paths, {
        "links_routed": routed,
        "links_colocated": colocated,
        "router_expansions": total_expansions,
        "dijkstra_tables": cache.label_tables,
        "routing_calls": routed,
        "cache_hit_rate": hits / queries if queries else 0.0,
        "engine": ENGINE,
        "route_kernel_s": cache.kernel_seconds - kernel_before,
        "cache": cache.stats(),
    }
