"""Routing microbenchmarks.

Isolates the cost of the path-finding substrate — the component the
paper identifies as the mapping-time bottleneck ("Most part of mapping
time is spent in the Networking stage").  The head-to-heads time the
compiled route kernels against the reference routers they must match
bit for bit, both reading the same residual state (the reference
through its ``residual_bw=`` accessor).
"""

from __future__ import annotations

import numpy as np
import pytest

from _config import BASE_SEED
from repro.core import ClusterState, compile_topology
from repro.routing import (
    CompiledLatencyOracle,
    LatencyOracle,
    backtracking_dfs,
    bottleneck_route,
    bottleneck_route_compiled,
    bottleneck_route_labels,
    bottleneck_route_labels_compiled,
    k_shortest_latency_paths,
    latency_table,
    random_walk_dfs,
)
from repro.topology import hypercube_cluster, paper_switched, paper_torus


@pytest.fixture(scope="module")
def torus():
    return paper_torus(seed=BASE_SEED)


@pytest.fixture(scope="module")
def pairs(torus):
    rng = np.random.default_rng(BASE_SEED)
    hosts = torus.host_ids
    return [tuple(int(x) for x in rng.choice(len(hosts), size=2, replace=False)) for _ in range(50)]


def _router(cluster, state, kind: str, *, labels: bool = False):
    """One query function per head-to-head arm: the reference router
    over the ``residual_bw`` accessor, or the compiled kernel over the
    live bandwidth array.  Oracles are shared across the arm's queries,
    as the Networking stage shares them."""
    if kind == "reference":
        oracle = LatencyOracle(cluster)
        route = bottleneck_route_labels if labels else bottleneck_route

        def query(a, b, **kwargs):
            return route(
                cluster, a, b, residual_bw=state.residual_bw, oracle=oracle, **kwargs
            )
    else:
        topo = compile_topology(cluster)
        oracle = CompiledLatencyOracle(topo)
        route = bottleneck_route_labels_compiled if labels else bottleneck_route_compiled

        def query(a, b, **kwargs):
            return route(topo, state.bw_array, a, b, oracle=oracle, **kwargs)

    return query


def test_bottleneck_route_switched(benchmark, pairs):
    cluster = paper_switched(seed=BASE_SEED)
    query = _router(cluster, ClusterState(cluster), "compiled")
    hosts = cluster.host_ids

    def run():
        for a, b in pairs:
            query(hosts[a], hosts[b], bandwidth=0.5, latency_bound=60.0)

    benchmark(run)


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_bottleneck_route_engine(benchmark, torus, pairs, engine):
    """Algorithm 1 head-to-head: the reference router vs the
    index-space kernel (C hot loop when a compiler is available).  Same
    50 queries, byte-identical answers."""
    query = _router(torus, ClusterState(torus), engine)

    def run():
        return [query(a, b, bandwidth=0.5, latency_bound=60.0) for a, b in pairs]

    results = benchmark(run)
    benchmark.extra_info["total_expansions"] = sum(r.expansions for r in results)


def test_engines_agree_on_bench_queries(torus, pairs):
    """Not a benchmark: kernel and reference router must return
    identical paths, bottlenecks, latencies and expansion counts on the
    exact query set the head-to-head above times."""
    state = ClusterState(torus)
    reference = _router(torus, state, "reference")
    compiled = _router(torus, state, "compiled")
    for a, b in pairs:
        d = reference(a, b, bandwidth=0.5, latency_bound=60.0)
        c = compiled(a, b, bandwidth=0.5, latency_bound=60.0)
        assert (d.nodes, d.bottleneck, d.latency, d.expansions) == (
            c.nodes, c.bottleneck, c.latency, c.expansions
        )


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_label_setting_engine(benchmark, torus, pairs, engine):
    """Label-setting head-to-head (the polynomial router)."""
    query = _router(torus, ClusterState(torus), engine, labels=True)

    def run():
        for a, b in pairs:
            query(a, b, bandwidth=0.5, latency_bound=60.0)

    benchmark(run)


def test_dijkstra_table(benchmark, torus):
    benchmark(lambda: [latency_table(torus, d) for d in torus.host_ids[:10]])


def test_random_walk_dfs(benchmark, torus, pairs):
    def run():
        rng = np.random.default_rng(BASE_SEED)
        found = 0
        for a, b in pairs:
            try:
                random_walk_dfs(torus, a, b, bandwidth=0.5, latency_bound=60.0, rng=rng)
                found += 1
            except Exception:
                pass
        return found

    benchmark(run)


def test_backtracking_dfs(benchmark, torus, pairs):
    def run():
        for a, b in pairs:
            backtracking_dfs(torus, a, b, bandwidth=0.5, latency_bound=60.0)

    benchmark(run)


def test_k_shortest_paths_hypercube(benchmark):
    """Worst-case path diversity: K shortest on a 6-cube."""
    cube = hypercube_cluster(6, seed=BASE_SEED)

    def run():
        return k_shortest_latency_paths(cube, 0, 63, k=20)

    paths = benchmark(run)
    assert len(paths) == 20


def test_label_setting_on_loose_bounds(benchmark, torus, pairs):
    """The regime where Algorithm 1 explodes: a 3x-looser latency bound
    still routes in polynomial time with label setting."""
    query = _router(torus, ClusterState(torus), "compiled", labels=True)

    def run():
        for a, b in pairs[:10]:
            query(a, b, bandwidth=0.5, latency_bound=180.0)

    benchmark(run)
