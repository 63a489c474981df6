"""Index-space routing kernels over a :class:`CompiledTopology`.

This is the route engine: every production routing query runs here,
through :class:`~repro.routing.cache.RoutingCache`.  Each kernel is the
index-space form of one reference router —
:func:`repro.routing.dijkstra.latency_table`,
:func:`repro.routing.bottleneck_prune.bottleneck_route` (Algorithm 1),
and :func:`repro.routing.labels.bottleneck_route_labels` — with every
inner-loop operation reduced to integer heap pushes and flat-array
reads:

* node ids and edge keys are the dense integers of the
  :class:`~repro.core.arrays.CompiledTopology` (interned once per
  cluster);
* residual bandwidth is read straight from the state's live
  :attr:`~repro.core.state.ClusterState.bw_array` by edge index — no
  ``edge_key`` tuple construction, no dict hashing;
* the loop-free ``visited`` set is an integer bitmask (``1 << idx``),
  partial paths are cons cells ``(idx, parent_cell)`` shared
  structurally between siblings, and heap tiebreaks are a plain local
  integer counter.

Equivalence with the reference routers is *by construction*, not
best-effort: adjacency rows are built from the same
``cluster.neighbors`` iteration order the reference routers walk, heap
entries order on the same ``(-bottleneck, latency, hops, seq)`` fields
with ``seq`` assigned in push order, and the bottleneck update
``max(neg_bbw, -edge_bw)`` is bit-exact against ``min(bbw, edge_bw)``
— so both pop, expand, and terminate identically, returning
byte-identical paths, bottlenecks, expansion counts, and failure
messages.  The conformance differential
(:class:`~repro.conformance.differential.DifferentialRoutingCache`)
checks this on every route query of real mappings, and
``tests/test_engine_equivalence.py`` property-tests it.  User-space
node ids appear only at the result boundary.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Hashable

from repro.core.arrays import CompiledTopology
from repro.errors import ModelError, RoutingError, UnknownNodeError
from repro.routing._cbuild import load_kernel
from repro.routing.bottleneck_prune import BottleneckPath

__all__ = [
    "compiled_latency_table",
    "CompiledLatencyOracle",
    "bottleneck_route_compiled",
    "bottleneck_route_labels_compiled",
]

NodeId = Hashable

INFINITY = float("inf")


def compiled_latency_table(topo: CompiledTopology, dest_idx: int):
    """Minimum accumulated latency from every node index to *dest_idx*.

    Returns an ``array('d')`` indexed by node index (unreachable nodes
    hold ``inf``).  The values are identical to the reference
    :func:`~repro.routing.dijkstra.latency_table` — final Dijkstra
    distances are independent of tie-break order, because every settled
    value is a single addition from a previously settled final value.
    """
    dist = topo.inf_table[:]
    dist[dest_idx] = 0.0
    settled = bytearray(topo.n_nodes)
    triples = topo.neighbor_triples
    heap: list[tuple[float, int]] = [(0.0, dest_idx)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        for nbr, lat, _ in triples[node]:
            nd = d + lat
            if nd < dist[nbr]:
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return dist


class CompiledLatencyOracle:
    """Memoized per-destination latency arrays for one compiled topology
    (the index-space twin of :class:`~repro.routing.dijkstra.LatencyOracle`,
    same telemetry contract)."""

    __slots__ = ("topo", "_tables", "queries", "misses")

    def __init__(self, topo: CompiledTopology) -> None:
        self.topo = topo
        self._tables: dict[int, object] = {}
        self.queries = 0
        self.misses = 0

    def to_destination(self, dest_idx: int):
        """Latency array toward node index *dest_idx* (cached)."""
        self.queries += 1
        table = self._tables.get(dest_idx)
        if table is None:
            self.misses += 1
            table = compiled_latency_table(self.topo, dest_idx)
            self._tables[dest_idx] = table
        return table

    @property
    def cached_destinations(self) -> int:
        return len(self._tables)


class _CKernelState:
    """Per-topology call state for the C kernel: stable buffer
    addresses of the CSR arrays plus reusable output scratch.  The
    addresses stay valid because the arrays live on the (referenced)
    topology and are never resized."""

    __slots__ = (
        "topo",
        "off_addr",
        "nbr_addr",
        "edge_addr",
        "lat_addr",
        "out_path",
        "out_path_addr",
        "out_len",
        "out_len_addr",
        "out_bbw",
        "out_bbw_addr",
        "out_lat",
        "out_lat_addr",
        "out_exp",
        "out_exp_addr",
    )

    def __init__(self, topo: CompiledTopology) -> None:
        self.topo = topo
        self.off_addr = topo.adj_offsets.buffer_info()[0]
        self.nbr_addr = topo.adj_nodes.buffer_info()[0]
        self.edge_addr = topo.adj_edges.buffer_info()[0]
        self.lat_addr = topo.adj_lat.buffer_info()[0]
        self.out_path = array("q", [0]) * max(topo.n_nodes, 1)
        self.out_path_addr = self.out_path.buffer_info()[0]
        self.out_len = array("q", [0])
        self.out_len_addr = self.out_len.buffer_info()[0]
        self.out_bbw = array("d", [0.0])
        self.out_bbw_addr = self.out_bbw.buffer_info()[0]
        self.out_lat = array("d", [0.0])
        self.out_lat_addr = self.out_lat.buffer_info()[0]
        self.out_exp = array("q", [0])
        self.out_exp_addr = self.out_exp.buffer_info()[0]


def _validate(topo: CompiledTopology, origin: NodeId, destination: NodeId,
              bandwidth: float, latency_bound: float) -> None:
    node_index = topo.node_index
    for node in (origin, destination):
        if node not in node_index:
            raise UnknownNodeError(node, "cluster node")
    if bandwidth < 0:
        raise ModelError(f"bandwidth demand must be >= 0, got {bandwidth}")
    if latency_bound < 0:
        raise ModelError(f"latency bound must be >= 0, got {latency_bound}")


def bottleneck_route_compiled(
    topo: CompiledTopology,
    bw,
    origin: NodeId,
    destination: NodeId,
    *,
    bandwidth: float,
    latency_bound: float,
    oracle: CompiledLatencyOracle | None = None,
    max_expansions: int = 2_000_000,
) -> BottleneckPath:
    """Algorithm 1 in index space — the compiled twin of
    :func:`~repro.routing.bottleneck_prune.bottleneck_route`.

    Parameters
    ----------
    topo:
        The cluster's compiled topology.
    bw:
        Live residual-bandwidth array indexed by edge index
        (:attr:`ClusterState.bw_array`).
    origin, destination:
        Endpoint hosts in **user space**; the result path is user-space
        too.
    """
    _validate(topo, origin, destination, bandwidth, latency_bound)
    if origin == destination:
        return BottleneckPath((origin,), INFINITY, 0.0, 0)

    if oracle is None:
        oracle = CompiledLatencyOracle(topo)
    node_index = topo.node_index
    src = node_index[origin]
    dst = node_index[destination]
    ar = oracle.to_destination(dst)
    if ar[src] > latency_bound:
        raise RoutingError(
            (origin, destination),
            f"minimum possible latency {ar[src]:.3f} ms exceeds bound "
            f"{latency_bound:.3f} ms",
        )

    lat_slack = latency_bound + 1e-12
    bw_need = bandwidth - 1e-12

    # The C hot loop handles every cluster whose visited set fits a
    # 64-bit mask (all paper instances); its pop order, arithmetic, and
    # pruning are exactly the Python loop's below (see _ckernel.c), so
    # which one runs is unobservable in the results.
    if topo.n_nodes <= 64:
        lib = load_kernel()
        if lib is not None:
            ck = topo.ck
            if ck is None:
                ck = topo.ck = _CKernelState(topo)
            try:
                bw_addr = bw.buffer_info()[0]
                ar_addr = ar.buffer_info()[0]
            except AttributeError:
                bw_addr = None  # non-array buffers: use the Python loop
            if bw_addr is not None:
                rc = lib.ck_bottleneck_route(
                    ck.off_addr, ck.nbr_addr, ck.edge_addr, ck.lat_addr,
                    bw_addr, ar_addr,
                    src, dst, bw_need, lat_slack, max_expansions,
                    ck.out_path_addr, ck.out_len_addr,
                    ck.out_bbw_addr, ck.out_lat_addr, ck.out_exp_addr,
                )
                if rc == 0:
                    nodes = topo.nodes
                    n = ck.out_len[0]
                    return BottleneckPath(
                        tuple(nodes[i] for i in ck.out_path[:n]),
                        ck.out_bbw[0],
                        ck.out_lat[0],
                        ck.out_exp[0],
                    )
                if rc == 1:
                    raise RoutingError(
                        (origin, destination),
                        f"no loop-free path with >= {bandwidth:.6g} Mbit/s residual "
                        f"bandwidth within {latency_bound:.3f} ms",
                    )
                if rc == 2:
                    raise RoutingError(
                        (origin, destination),
                        f"Algorithm 1 exceeded {max_expansions} expansions",
                    )
                # any other code (e.g. allocation failure): fall through
                # to the Python loop

    triples = topo.neighbor_triples
    seq = 0
    # Max-heap on bottleneck via negation; entries
    # (-bottleneck, latency, hops, seq, cons_cell, visited_bitmask)
    # order on the same first four fields as the reference router, and seq
    # is assigned in push order, so pop order matches exactly.
    heap = [(-INFINITY, 0.0, 0, 0, (src, None), 1 << src)]
    expansions = 0
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        neg_bbw, lat_acc, hops, _, cell, visited = pop(heap)
        expansions += 1
        if expansions > max_expansions:
            raise RoutingError(
                (origin, destination),
                f"Algorithm 1 exceeded {max_expansions} expansions",
            )
        head = cell[0]
        if head == dst:
            rev = []
            while cell is not None:
                rev.append(cell[0])
                cell = cell[1]
            rev.reverse()
            nodes = topo.nodes
            return BottleneckPath(
                tuple(nodes[i] for i in rev), -neg_bbw, lat_acc, expansions
            )
        hops += 1
        for nbr, edge_lat, ei in triples[head]:
            bit = 1 << nbr
            if visited & bit:
                continue
            edge_bw = bw[ei]
            if edge_bw < bw_need:
                continue
            new_lat = lat_acc + edge_lat
            if new_lat + ar[nbr] > lat_slack:
                continue
            seq += 1
            push(
                heap,
                (
                    neg_bbw if neg_bbw > -edge_bw else -edge_bw,
                    new_lat,
                    hops,
                    seq,
                    (nbr, cell),
                    visited | bit,
                ),
            )
    raise RoutingError(
        (origin, destination),
        f"no loop-free path with >= {bandwidth:.6g} Mbit/s residual bandwidth within "
        f"{latency_bound:.3f} ms",
    )


def bottleneck_route_labels_compiled(
    topo: CompiledTopology,
    bw,
    origin: NodeId,
    destination: NodeId,
    *,
    bandwidth: float,
    latency_bound: float,
    oracle: CompiledLatencyOracle | None = None,
) -> BottleneckPath:
    """Pareto label setting in index space — the compiled twin of
    :func:`~repro.routing.labels.bottleneck_route_labels` (same
    dominance rules and epsilons; ``expansions`` counts settled labels).
    """
    _validate(topo, origin, destination, bandwidth, latency_bound)
    if origin == destination:
        return BottleneckPath((origin,), INFINITY, 0.0, 0)

    if oracle is None:
        oracle = CompiledLatencyOracle(topo)
    node_index = topo.node_index
    src = node_index[origin]
    dst = node_index[destination]
    ar = oracle.to_destination(dst)
    if ar[src] > latency_bound:
        raise RoutingError(
            (origin, destination),
            f"minimum possible latency {ar[src]:.3f} ms exceeds bound "
            f"{latency_bound:.3f} ms",
        )

    triples = topo.neighbor_triples
    lat_slack = latency_bound + 1e-12
    bw_need = bandwidth - 1e-12

    # Pareto fronts per node index: list of (bottleneck, latency), or
    # None while the node is untouched.
    fronts: list[list[tuple[float, float]] | None] = [None] * topo.n_nodes
    fronts[src] = [(INFINITY, 0.0)]
    # parent[(node_idx, bottleneck, latency)] = predecessor label key.
    parent: dict[tuple[int, float, float], tuple[int, float, float] | None] = {
        (src, INFINITY, 0.0): None
    }

    seq = 0
    heap: list[tuple[float, float, int, int]] = [(-INFINITY, 0.0, 0, src)]
    settled = 0
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        neg_bbw, lat, _, node = pop(heap)
        bbw = -neg_bbw
        settled += 1
        if node == dst:
            rev = []
            key = (node, bbw, lat)
            while key is not None:
                rev.append(key[0])
                key = parent[key]
            rev.reverse()
            nodes = topo.nodes
            return BottleneckPath(tuple(nodes[i] for i in rev), bbw, lat, settled)
        # A popped label may have been dominated after insertion.
        front = fronts[node]
        if front:
            bb = bbw + 1e-12
            la = lat - 1e-12
            if any(b >= bb and lt <= la for b, lt in front):
                continue
        for nbr, edge_lat, ei in triples[node]:
            edge_bw = bw[ei]
            if edge_bw < bw_need:
                continue
            new_lat = lat + edge_lat
            if new_lat + ar[nbr] > lat_slack:
                continue
            new_bbw = bbw if bbw < edge_bw else edge_bw
            front = fronts[nbr]
            if front is None:
                front = fronts[nbr] = []
            else:
                if any(b >= new_bbw and lt <= new_lat for b, lt in front):
                    continue
                # Remove labels the new one dominates, keeping fronts small.
                front[:] = [
                    (b, lt) for b, lt in front if not (new_bbw >= b and new_lat <= lt)
                ]
            front.append((new_bbw, new_lat))
            parent[(nbr, new_bbw, new_lat)] = (node, bbw, lat)
            seq += 1
            push(heap, (-new_bbw, new_lat, seq, nbr))

    raise RoutingError(
        (origin, destination),
        f"no path with >= {bandwidth:.6g} Mbit/s residual bandwidth within "
        f"{latency_bound:.3f} ms",
    )
