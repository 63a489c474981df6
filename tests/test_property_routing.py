"""Property-based tests for the routing substrate.

Invariants:

* every returned path is simple, starts/ends correctly and satisfies
  its constraints (bandwidth per edge, accumulated latency);
* Algorithm 1's bottleneck equals the exhaustive optimum on small
  random graphs, and the fast path (the compiled kernel) is equivalent
  to the accessor path;
* the backtracking DFS finds a path iff the exhaustive check says one
  exists.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterState, Host, PhysicalCluster
from repro.errors import RoutingError
from repro.routing import (
    LatencyOracle,
    backtracking_dfs,
    bottleneck_route,
    bottleneck_route_compiled,
    k_shortest_latency_paths,
)


@st.composite
def random_cluster_strategy(draw):
    """A connected random cluster with varied bw/lat, 4-9 nodes."""
    n = draw(st.integers(min_value=4, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    c = PhysicalCluster()
    for i in range(n):
        c.add_host(Host(i, proc=1.0, mem=1, stor=1.0))
    # spanning tree + extra edges
    for i in range(1, n):
        j = int(rng.integers(i))
        c.connect(i, j, bw=float(rng.uniform(10, 1000)), lat=float(rng.uniform(1, 20)))
    extras = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extras):
        u, v = rng.integers(n, size=2)
        if u != v and not c.has_link(int(u), int(v)):
            c.connect(int(u), int(v), bw=float(rng.uniform(10, 1000)), lat=float(rng.uniform(1, 20)))
    return c


def exhaustive_best_bottleneck(cluster, src, dst, bandwidth, latency_bound):
    g = nx.Graph()
    for link in cluster.links():
        g.add_edge(link.u, link.v, bw=link.bw, lat=link.lat)
    best = None
    for path in nx.all_simple_paths(g, src, dst):
        lat = sum(g.edges[u, v]["lat"] for u, v in zip(path, path[1:]))
        bbw = min(g.edges[u, v]["bw"] for u, v in zip(path, path[1:]))
        if lat <= latency_bound + 1e-12 and bbw + 1e-12 >= bandwidth:
            if best is None or bbw > best:
                best = bbw
    return best


class TestBottleneckOptimality:
    @settings(max_examples=50, deadline=None)
    @given(random_cluster_strategy(), st.integers(0, 10_000))
    def test_matches_exhaustive_optimum(self, cluster, pair_seed):
        rng = np.random.default_rng(pair_seed)
        src, dst = (int(x) for x in rng.choice(cluster.n_hosts, size=2, replace=False))
        bandwidth = float(rng.uniform(0, 300))
        latency_bound = float(rng.uniform(10, 80))
        expected = exhaustive_best_bottleneck(cluster, src, dst, bandwidth, latency_bound)
        try:
            result = bottleneck_route(
                cluster, src, dst, bandwidth=bandwidth, latency_bound=latency_bound
            )
        except RoutingError:
            assert expected is None
            return
        assert expected is not None
        assert math.isclose(result.bottleneck, expected, rel_tol=1e-9)
        # path validity
        assert result.nodes[0] == src and result.nodes[-1] == dst
        assert len(set(result.nodes)) == len(result.nodes)
        lat = sum(cluster.latency(u, v) for u, v in zip(result.nodes, result.nodes[1:]))
        assert lat <= latency_bound + 1e-9
        for u, v in zip(result.nodes, result.nodes[1:]):
            assert cluster.bandwidth(u, v) + 1e-9 >= bandwidth

    @settings(max_examples=30, deadline=None)
    @given(random_cluster_strategy(), st.integers(0, 10_000))
    def test_fast_path_equivalence(self, cluster, pair_seed):
        rng = np.random.default_rng(pair_seed)
        src, dst = (int(x) for x in rng.choice(cluster.n_hosts, size=2, replace=False))
        state = ClusterState(cluster)
        oracle = LatencyOracle(cluster)
        kwargs = dict(bandwidth=float(rng.uniform(0, 200)), latency_bound=float(rng.uniform(10, 80)))
        try:
            slow = bottleneck_route(cluster, src, dst, residual_bw=state.residual_bw,
                                    oracle=oracle, **kwargs)
        except RoutingError:
            try:
                bottleneck_route_compiled(state.topology, state.bw_array, src, dst, **kwargs)
                raise AssertionError("fast path succeeded where accessor path failed")
            except RoutingError:
                return
        fast = bottleneck_route_compiled(state.topology, state.bw_array, src, dst, **kwargs)
        assert slow.nodes == fast.nodes
        assert math.isclose(slow.bottleneck, fast.bottleneck, rel_tol=1e-12)


class TestDfsCompleteness:
    @settings(max_examples=50, deadline=None)
    @given(random_cluster_strategy(), st.integers(0, 10_000))
    def test_backtracking_finds_iff_exists(self, cluster, pair_seed):
        rng = np.random.default_rng(pair_seed)
        src, dst = (int(x) for x in rng.choice(cluster.n_hosts, size=2, replace=False))
        bandwidth = float(rng.uniform(0, 300))
        latency_bound = float(rng.uniform(5, 60))
        exists = exhaustive_best_bottleneck(cluster, src, dst, bandwidth, latency_bound) is not None
        try:
            path = backtracking_dfs(
                cluster, src, dst, bandwidth=bandwidth, latency_bound=latency_bound, rng=rng
            )
        except RoutingError:
            assert not exists
            return
        assert exists
        lat = sum(cluster.latency(u, v) for u, v in zip(path, path[1:]))
        assert lat <= latency_bound + 1e-9
        assert len(set(path)) == len(path)


class TestKShortestProperties:
    @settings(max_examples=30, deadline=None)
    @given(random_cluster_strategy(), st.integers(0, 10_000), st.integers(1, 6))
    def test_matches_networkx_ordering(self, cluster, pair_seed, k):
        rng = np.random.default_rng(pair_seed)
        src, dst = (int(x) for x in rng.choice(cluster.n_hosts, size=2, replace=False))
        ours = k_shortest_latency_paths(cluster, src, dst, k=k)
        g = nx.Graph()
        for link in cluster.links():
            g.add_edge(link.u, link.v, weight=link.lat)
        reference = list(
            itertools.islice(nx.shortest_simple_paths(g, src, dst, weight="weight"), k)
        )
        assert len(ours) == len(reference)
        for mine, ref in zip(ours, reference):
            ref_len = sum(cluster.latency(u, v) for u, v in zip(ref, ref[1:]))
            assert math.isclose(mine.length, ref_len, rel_tol=1e-9)
