"""Constrained routing over physical clusters.

Implements the path-finding substrate of the paper:

* :mod:`~repro.routing.cache` — the routing front end (shared
  latency labels over the route engine) the Networking stage and the
  retrying baselines route through;
* :mod:`~repro.routing.compiled` — the route engine: index-space
  kernels for Algorithm 1, label setting and latency tables over the
  cluster's :class:`~repro.core.arrays.CompiledTopology`;
* :mod:`~repro.routing.astar_prune` — the generic multi-constraint
  K-shortest-paths A*Prune of Liu & Ramakrishnan (paper reference [8]);
* :mod:`~repro.routing.dfs` — the depth-first baseline routers used by
  the R and HS heuristics.

The **reference routers** stay importable for the conformance
differential and the tests.  They work over user-space node ids and a
``residual_bw(u, v)`` accessor: :mod:`~repro.routing.dijkstra`
(latency tables and :class:`~repro.routing.dijkstra.LatencyOracle`,
Algorithm 1's ``ar`` estimate), :mod:`~repro.routing.bottleneck_prune`
(the paper's modified 1-constrained A*Prune maximizing bottleneck
bandwidth, Algorithm 1) and :mod:`~repro.routing.labels` (its
label-setting equivalent).  No production path calls them.
"""

from repro.routing.astar_prune import (
    Constraint,
    KPath,
    Metric,
    astar_prune,
    k_shortest_latency_paths,
)
from repro.routing.bottleneck_prune import BottleneckPath, bottleneck_route
from repro.routing.cache import RoutingCache
from repro.routing.compiled import (
    CompiledLatencyOracle,
    bottleneck_route_compiled,
    bottleneck_route_labels_compiled,
    compiled_latency_table,
)
from repro.routing.dfs import backtracking_dfs, random_walk_dfs
from repro.routing.labels import bottleneck_route_labels
from repro.routing.dijkstra import LatencyOracle, latency_table, shortest_latency_path

__all__ = [
    "latency_table",
    "shortest_latency_path",
    "LatencyOracle",
    "Metric",
    "Constraint",
    "KPath",
    "astar_prune",
    "k_shortest_latency_paths",
    "BottleneckPath",
    "RoutingCache",
    "bottleneck_route",
    "bottleneck_route_labels",
    "random_walk_dfs",
    "backtracking_dfs",
    "CompiledLatencyOracle",
    "compiled_latency_table",
    "bottleneck_route_compiled",
    "bottleneck_route_labels_compiled",
]
