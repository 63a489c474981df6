"""Tests for the routing front end (``repro.routing.RoutingCache``).

Every query runs the route kernel against the caller's live residual
table, so answers must equal an independent recomputation on randomized
topologies — including the infeasible case — and must follow the
residuals as reservations come and go.  The label layer is the only
reuse: the pipeline must report a non-zero label hit rate on the
switched and fat-tree fabrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterState
from repro.errors import ModelError, RoutingError
from repro.hmn.pipeline import hmn_map
from repro.routing import LatencyOracle, RoutingCache, bottleneck_route
from repro.topology import fat_tree_cluster, random_cluster, switched_cluster
from repro.workload import HIGH_LEVEL, Scenario


class TestCacheCorrectness:
    def test_reservation_invalidates(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        first = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert first.nodes == (0, 2, 3)  # bottom path: wide enough, in bound
        # Consume the bottom path; the earlier answer no longer fits.
        state.reserve_path([0, 2, 3], 960.0)
        second = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert second.nodes == (0, 1, 3)

    def test_admit_depart_admit_serves_no_stale_path(self, diamond):
        """The service's churn pattern: reserve, release, re-query.  The
        post-release query must see the restored residuals."""
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        first = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert first.nodes == (0, 2, 3)
        # Admit: the tenant consumes the bottom path almost entirely.
        state.reserve_path([0, 2, 3], 960.0)
        while_full = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert while_full.nodes == (0, 1, 3)
        # Depart: capacity returns.
        state.release_path([0, 2, 3], 960.0)
        again = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert again == first

    def test_matches_uncached_router_on_random_topologies(self):
        rng = np.random.default_rng(7)
        for seed in (0, 1, 2):
            cluster = random_cluster(10, density=0.3, seed=seed)
            state = ClusterState(cluster)
            cache = RoutingCache(cluster)
            hosts = list(cluster.host_ids)
            for _ in range(25):
                o, d = rng.choice(len(hosts), size=2, replace=False)
                o, d = hosts[int(o)], hosts[int(d)]
                bw = float(rng.uniform(1.0, 200.0))
                lat = float(rng.uniform(20.0, 200.0))
                # Independent reference: accessor-mode routing with a
                # fresh oracle, nothing shared with the cache.
                try:
                    want = bottleneck_route(
                        cluster, o, d, bandwidth=bw, latency_bound=lat,
                        residual_bw=state.residual_bw, oracle=LatencyOracle(cluster),
                    )
                except RoutingError:
                    with pytest.raises(RoutingError):
                        cache.route(state, o, d, bandwidth=bw, latency_bound=lat)
                    continue
                got = cache.route(state, o, d, bandwidth=bw, latency_bound=lat)
                assert got.nodes == want.nodes
                assert got.bottleneck == pytest.approx(want.bottleneck)
                assert got.latency == pytest.approx(want.latency)
                # Mutate residuals so later iterations route over a
                # changed table, not just the full-capacity one.
                if rng.uniform() < 0.5:
                    state.reserve_path(list(want.nodes), bw)

    def test_label_setting_router_cached_separately(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        a = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        b = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0,
                        router="label_setting")
        assert a.nodes == b.nodes

    def test_foreign_state_and_oracle_rejected(self, line3, diamond):
        cache = RoutingCache(line3)
        with pytest.raises(ModelError):
            cache.route(ClusterState(diamond), 0, 3, bandwidth=1.0, latency_bound=100.0)
        # The cache's latency oracle belongs to the topology it first
        # saw; a state over the recompiled topology is refused.
        cache.route(ClusterState(line3), 0, 2, bandwidth=1.0, latency_bound=100.0)
        line3.connect(0, 2, bw=1000.0, lat=5.0)
        with pytest.raises(ModelError, match="topology"):
            cache.route(ClusterState(line3), 0, 2, bandwidth=2.0, latency_bound=100.0)

    def test_stats_shape(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        cache.route(state, 0, 3, bandwidth=1.0, latency_bound=100.0)
        with pytest.raises(RoutingError):
            cache.route(state, 0, 3, bandwidth=5000.0, latency_bound=100.0)
        stats = cache.stats()
        assert set(stats) == {
            "engine", "label_queries", "label_hits", "path_queries", "path_hits",
            "hit_rate", "kernel_seconds",
        }
        assert stats["engine"] == "compiled"
        assert stats["path_queries"] == 2, "infeasible queries count too"
        assert stats["path_hits"] == 0
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["kernel_seconds"] >= 0.0


class TestPipelineHitRate:
    """Acceptance criterion: hit rate reported and > 0 on the fabrics."""

    @pytest.mark.parametrize("make_cluster", [
        lambda: switched_cluster(8, seed=3),
        lambda: fat_tree_cluster(4, seed=3),
    ], ids=["switched", "fat-tree"])
    def test_hit_rate_positive(self, make_cluster):
        cluster = make_cluster()
        scenario = Scenario(ratio=2.5, density=0.05, workload=HIGH_LEVEL)
        venv = scenario.build_venv(cluster, seed=11)
        mapping = hmn_map(cluster, venv)
        timings = mapping.meta["timings"]
        assert timings["routing_calls"] > 0
        assert timings["cache_hit_rate"] > 0.0
