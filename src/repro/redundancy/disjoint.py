"""Disjoint-path routing through the existing route engine.

Backup paths must avoid the primary path's links (and ideally its
transit nodes) — otherwise the fault that breaks the primary breaks
the backup with it.  Rather than forking a third router,
:func:`route_avoiding` *drains* the excluded edges: it temporarily
reserves their full residual bandwidth on the shared
:class:`~repro.core.state.ClusterState` and issues a normal query
through the :class:`~repro.routing.cache.RoutingCache`.  Both routers
prune edges whose residual is below the demand, so a drained edge is
invisible to them — the compiled router, its C kernel and the
reference routers all honor the exclusion bit-identically, for free.
The ``finally`` release restores the residuals exactly (reservations
are exact subtractions).

:func:`backup_route` is the policy layer: try **node-disjoint** first
(avoid the primary's transit nodes and edges), fall back to
**link-disjoint** (avoid only its edges), give up cleanly with
``None`` when the topology has no second way.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.core.link import EdgeKey, edge_key
from repro.core.state import ClusterState, path_edges
from repro.errors import RoutingError
from repro.routing.bottleneck_prune import BottleneckPath
from repro.routing.cache import RoutingCache

__all__ = ["route_avoiding", "backup_route"]

NodeId = Hashable


def _drain_edges(
    state: ClusterState,
    avoid_edges: Iterable[EdgeKey],
    avoid_nodes: Iterable[NodeId],
) -> list[tuple[EdgeKey, float]]:
    """Reserve the full residual of every excluded edge; returns the
    exact reservations made (for the caller's ``finally`` release)."""
    cluster = state.cluster
    edges: set[EdgeKey] = set(avoid_edges)
    for n in avoid_nodes:
        for nbr in cluster.neighbors(n):
            edges.add(edge_key(n, nbr))
    drained: list[tuple[EdgeKey, float]] = []
    for e in sorted(edges, key=repr):
        residual = state.residual_bw(*e)
        if residual > 0.0:
            state.reserve_path(e, residual)
            drained.append((e, residual))
    return drained


def route_avoiding(
    state: ClusterState,
    cache: RoutingCache,
    origin: NodeId,
    destination: NodeId,
    *,
    bandwidth: float,
    latency_bound: float,
    avoid_edges: Iterable[EdgeKey] = (),
    avoid_nodes: Iterable[NodeId] = (),
    router: str = "algorithm1",
    max_expansions: int = 2_000_000,
) -> BottleneckPath:
    """Bottleneck-route while treating the avoided edges/nodes as gone.

    Exactly :meth:`RoutingCache.route` over a residual graph whose
    avoided edges carry zero bandwidth.  The shared state is restored
    to the byte before any draining on every exit path.  Raises
    :class:`~repro.errors.RoutingError` when no disjoint path exists;
    the caller must not list *origin* or *destination* among
    ``avoid_nodes``.
    """
    drained = _drain_edges(state, avoid_edges, avoid_nodes)
    try:
        return cache.route(
            state,
            origin,
            destination,
            bandwidth=bandwidth,
            latency_bound=latency_bound,
            router=router,
            max_expansions=max_expansions,
        )
    finally:
        for e, residual in drained:
            state.release_path(e, residual)


def backup_route(
    state: ClusterState,
    cache: RoutingCache,
    primary: Sequence[NodeId],
    *,
    bandwidth: float,
    latency_bound: float,
    router: str = "algorithm1",
    max_expansions: int = 2_000_000,
) -> tuple[tuple[NodeId, ...], str] | None:
    """A backup for *primary*: node-disjoint if possible, else
    link-disjoint, else ``None``.

    Returns ``(nodes, disjointness)`` with disjointness ``"node"`` or
    ``"link"``.  The primary's endpoints stay fixed (replicas, not
    backup paths, cover endpoint-host failures); a primary shorter
    than one physical hop has nothing to protect and returns ``None``.
    """
    if len(primary) < 2:
        return None
    origin, destination = primary[0], primary[-1]
    edges = path_edges(primary)
    transit = [n for n in primary[1:-1]]
    attempts: list[tuple[str, list[NodeId]]] = []
    if transit:
        attempts.append(("node", transit))
    attempts.append(("link", []))
    for disjointness, nodes in attempts:
        try:
            result = route_avoiding(
                state,
                cache,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                avoid_edges=edges,
                avoid_nodes=nodes,
                router=router,
                max_expansions=max_expansions,
            )
        except RoutingError:
            continue
        return tuple(result.nodes), disjointness
    return None
