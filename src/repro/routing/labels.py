"""Label-setting bottleneck router — a polynomial exact alternative to
Algorithm 1.

The paper's modified A*Prune (Algorithm 1) enumerates loop-free partial
paths; when the latency budget allows long detours (large clusters, or
loose ``vlat`` bounds) the number of live partial paths explodes
combinatorially — the scaling benches hit the expansion safety valve on
an 80-host torus with doubled latency bounds.  This module solves the
same problem — *maximize the bottleneck residual bandwidth subject to
an accumulated latency bound* — with classic bicriteria **label
setting**:

* each node keeps a Pareto front of labels ``(bottleneck, latency)``;
  a new label is discarded if some existing label has >= bottleneck
  and <= latency (weak dominance, so duplicates die too);
* labels are settled best-bottleneck-first (ties: lower latency), so
  the first label to reach the destination is optimal;
* cycles self-eliminate: with non-negative edge latencies, revisiting
  a node can never produce an undominated label.

Labels per node are bounded by the number of distinct residual
bandwidth values (<= |E|), so the run time is polynomial —
O(|E|^2 log |E|) worst case versus Algorithm 1's exponential — while
returning a path with exactly the same bottleneck value (equivalence is
property-tested against both Algorithm 1 and brute force).

Select it with ``HMNConfig(router="label_setting")``; the default
remains the paper's Algorithm 1.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Hashable

from repro.core.cluster import PhysicalCluster
from repro.errors import ModelError, RoutingError, UnknownNodeError
from repro.routing.bottleneck_prune import BottleneckPath
from repro.routing.dijkstra import LatencyOracle

__all__ = ["bottleneck_route_labels"]

NodeId = Hashable

INFINITY = float("inf")


def bottleneck_route_labels(
    cluster: PhysicalCluster,
    origin: NodeId,
    destination: NodeId,
    *,
    bandwidth: float,
    latency_bound: float,
    residual_bw: Callable[[NodeId, NodeId], float] | None = None,
    oracle: LatencyOracle | None = None,
) -> BottleneckPath:
    """Drop-in alternative to
    :func:`repro.routing.bottleneck_prune.bottleneck_route` (same
    signature contract, same result semantics, polynomial time).

    The ``expansions`` field of the result counts settled labels.
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

    # Pareto fronts: node -> list of (bottleneck, latency) settled or queued.
    fronts: dict[NodeId, list[tuple[float, float]]] = {origin: [(INFINITY, 0.0)]}
    # parent[(node, bottleneck, latency)] = predecessor label key, for
    # path reconstruction.
    parent: dict[tuple[NodeId, float, float], tuple[NodeId, float, float] | None] = {
        (origin, INFINITY, 0.0): None
    }

    counter = itertools.count()
    heap: list[tuple[float, float, int, NodeId]] = [(-INFINITY, 0.0, next(counter), origin)]
    settled = 0
    ar_get = ar.get
    lat_slack = latency_bound + 1e-12
    bw_need = bandwidth - 1e-12

    def dominated(node: NodeId, bbw: float, lat: float) -> bool:
        for b, lt in fronts.get(node, ()):  # fronts stay tiny; linear scan wins
            if b >= bbw and lt <= lat:
                return True
        return False

    while heap:
        neg_bbw, lat, _, node = heapq.heappop(heap)
        bbw = -neg_bbw
        settled += 1
        if node == destination:
            # Reconstruct the path through the parent chain.
            path = []
            key = (node, bbw, lat)
            while key is not None:
                path.append(key[0])
                key = parent[key]
            path.reverse()
            return BottleneckPath(tuple(path), bbw, lat, settled)
        # A popped label may have been dominated after insertion.
        if dominated(node, bbw + 1e-12, lat - 1e-12):
            continue
        for nbr in cluster.neighbors(node):
            edge_lat = cluster.latency(node, nbr)
            edge_bw = residual_bw(node, nbr)
            if edge_bw < bw_need:
                continue
            new_lat = lat + edge_lat
            if new_lat + ar_get(nbr, INFINITY) > lat_slack:
                continue
            new_bbw = bbw if bbw < edge_bw else edge_bw
            if dominated(nbr, new_bbw, new_lat):
                continue
            front = fronts.setdefault(nbr, [])
            # Remove labels the new one dominates, keeping fronts small.
            front[:] = [(b, lt) for b, lt in front if not (new_bbw >= b and new_lat <= lt)]
            front.append((new_bbw, new_lat))
            parent[(nbr, new_bbw, new_lat)] = (node, bbw, lat)
            heapq.heappush(heap, (-new_bbw, new_lat, next(counter), nbr))

    raise RoutingError(
        (origin, destination),
        f"no path with >= {bandwidth:.6g} Mbit/s residual bandwidth within "
        f"{latency_bound:.3f} ms",
    )
