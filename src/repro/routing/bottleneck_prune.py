"""Modified 1-constrained A*Prune (Algorithm 1 of the paper).

This is the router used by HMN's Networking stage.  It differs from the
generic A*Prune of :mod:`repro.routing.astar_prune` in its objective:
instead of minimizing an additive length, it **maximizes the bottleneck
bandwidth** of the path — "the rationale behind the choice of this
metric is to keep the links with the largest amount of bandwidth
available to map the rest of the links" (Section 4.3).

The single constraint is the virtual link's latency bound.  Pruning
uses ``ar[h]``, the Dijkstra minimum latency from ``h`` to the
destination (see :class:`repro.routing.dijkstra.LatencyOracle`): a
partial path is extended to neighbor ``h`` only if

* ``h`` is not already on the path (loop-free, Eq. 7),
* the edge's **residual** bandwidth covers the demand
  ("links whose available bandwidth are smaller than the required
  bandwidth are also pruned"), and
* ``accumulated latency + lat(d, h) + ar[h] <= latency bound``.

Paths are expanded in order of decreasing bottleneck bandwidth, with
ties broken by lower accumulated latency, then fewer hops, then FIFO —
the paper does not fix a tie-break, so we pick one and keep it
deterministic (run-to-run reproducibility matters more here than the
specific choice; the ablation bench quantifies the alternatives).
"""

from __future__ import annotations

import itertools
import heapq
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.core.cluster import PhysicalCluster
from repro.routing.dijkstra import LatencyOracle
from repro.errors import ModelError, RoutingError, UnknownNodeError

__all__ = ["BottleneckPath", "bottleneck_route"]

NodeId = Hashable

INFINITY = float("inf")


@dataclass(frozen=True, slots=True)
class BottleneckPath:
    """Result of Algorithm 1: the path plus its quality measures."""

    nodes: tuple[NodeId, ...]
    bottleneck: float
    latency: float
    expansions: int

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


def bottleneck_route(
    cluster: PhysicalCluster,
    origin: NodeId,
    destination: NodeId,
    *,
    bandwidth: float,
    latency_bound: float,
    residual_bw: Callable[[NodeId, NodeId], float] | None = None,
    oracle: LatencyOracle | None = None,
    max_expansions: int = 2_000_000,
) -> BottleneckPath:
    """Find the feasible path with the greatest bottleneck bandwidth.

    Parameters
    ----------
    cluster:
        Topology to route over.
    origin, destination:
        Endpoint hosts.  ``origin == destination`` returns the trivial
        single-node path with infinite bottleneck (the paper's
        intra-host convention).
    bandwidth:
        The virtual link's demand (Mbit/s); edges with less residual
        bandwidth are pruned.
    latency_bound:
        The virtual link's ``vlat`` (ms); paths that cannot finish
        within it are pruned via the Dijkstra estimate.
    residual_bw:
        Residual-bandwidth accessor, typically
        ``ClusterState.residual_bw``.  Defaults to the cluster's raw
        capacities (useful for a fresh state or for tests).
    oracle:
        Optional shared :class:`LatencyOracle`; pass one when routing
        many links over the same cluster to amortize Dijkstra tables.
    max_expansions:
        Safety valve; exceeded means the instance is pathological and a
        :class:`~repro.errors.RoutingError` is raised.

    Raises
    ------
    RoutingError
        When no loop-free path meets both the bandwidth and latency
        requirements.
    """
    for node in (origin, destination):
        if node not in cluster:
            raise UnknownNodeError(node, "cluster node")
    if bandwidth < 0:
        raise ModelError(f"bandwidth demand must be >= 0, got {bandwidth}")
    if latency_bound < 0:
        raise ModelError(f"latency bound must be >= 0, got {latency_bound}")

    if origin == destination:
        return BottleneckPath((origin,), INFINITY, 0.0, 0)

    if oracle is None:
        oracle = LatencyOracle(cluster)
    ar = oracle.to_destination(destination)

    if ar.get(origin, INFINITY) > latency_bound:
        raise RoutingError(
            (origin, destination),
            f"minimum possible latency {ar.get(origin, INFINITY):.3f} ms exceeds bound "
            f"{latency_bound:.3f} ms",
        )

    if residual_bw is None:
        residual_bw = cluster.bandwidth

    counter = itertools.count()
    # Max-heap on bottleneck via negation.  Entries:
    # (-bottleneck, latency, hops, tiebreak, path, visited)
    heap: list[tuple[float, float, int, int, tuple[NodeId, ...], frozenset[NodeId]]] = [
        (-INFINITY, 0.0, 0, next(counter), (origin,), frozenset((origin,)))
    ]
    expansions = 0
    ar_get = ar.get
    lat_slack = latency_bound + 1e-12
    bw_need = bandwidth - 1e-12
    while heap:
        neg_bbw, lat_acc, hops, _, path, visited = heapq.heappop(heap)
        expansions += 1
        if expansions > max_expansions:
            raise RoutingError(
                (origin, destination),
                f"Algorithm 1 exceeded {max_expansions} expansions",
            )
        head = path[-1]
        if head == destination:
            return BottleneckPath(path, -neg_bbw, lat_acc, expansions)
        for nbr in cluster.neighbors(head):
            if nbr in visited:
                continue
            edge_lat = cluster.latency(head, nbr)
            edge_bw = residual_bw(head, nbr)
            if edge_bw < bw_need:
                continue
            new_lat = lat_acc + edge_lat
            if new_lat + ar_get(nbr, INFINITY) > lat_slack:
                continue
            new_bbw = min(-neg_bbw, edge_bw)
            heapq.heappush(
                heap,
                (-new_bbw, new_lat, hops + 1, next(counter), path + (nbr,), visited | {nbr}),
            )
    raise RoutingError(
        (origin, destination),
        f"no loop-free path with >= {bandwidth:.6g} Mbit/s residual bandwidth within "
        f"{latency_bound:.3f} ms",
    )
