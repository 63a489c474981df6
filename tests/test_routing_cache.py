"""Tests for the memoized routing layer and its epoch invalidation.

The cache's safety argument rests on one invariant: a
``ClusterState.bw_epoch`` token is only ever shared by states whose
residual-bandwidth tables are bit-identical.  These tests pin that
invariant (reservation/release must bump, no-ops must not), then check
the consequence — cached answers equal uncached recomputation on
randomized topologies, including the negatively-cached failure case —
and finally that the pipeline reports a non-zero hit rate on the
switched and fat-tree fabrics (the acceptance criterion).
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


class TestEpochInvalidation:
    def test_fresh_state_is_epoch_zero(self, line3):
        assert ClusterState(line3).bw_epoch == 0

    def test_reserve_bumps_epoch(self, line3):
        state = ClusterState(line3)
        state.reserve_path([0, 1, 2], 10.0)
        assert state.bw_epoch > 0

    def test_release_bumps_epoch(self, line3):
        state = ClusterState(line3)
        state.reserve_path([0, 1], 10.0)
        before = state.bw_epoch
        state.release_path([0, 1], 10.0)
        assert state.bw_epoch > before

    def test_epochs_strictly_increase(self, line3):
        state = ClusterState(line3)
        seen = [state.bw_epoch]
        for _ in range(5):
            state.reserve_path([0, 1], 1.0)
            seen.append(state.bw_epoch)
        assert seen == sorted(set(seen)), "tokens must be fresh every time"

    def test_noop_reservations_do_not_bump(self, line3):
        state = ClusterState(line3)
        state.reserve_path([1], 50.0)  # single node: no edges
        state.reserve_path([0, 1, 2], 0.0)  # zero demand
        assert state.bw_epoch == 0, "residuals unchanged, token must survive"

    def test_failed_reservation_does_not_bump(self, line3):
        state = ClusterState(line3)
        with pytest.raises(Exception):
            state.reserve_path([0, 1], 1e9)
        assert state.bw_epoch == 0

    def test_copy_shares_token_restore_restores_it(self, line3):
        state = ClusterState(line3)
        state.reserve_path([0, 1], 10.0)
        snap = state.copy()
        # Identical tables -> the token may (and does) carry over.
        assert snap.bw_epoch == state.bw_epoch
        state.reserve_path([1, 2], 5.0)
        assert state.bw_epoch != snap.bw_epoch
        state.restore_from(snap)
        assert state.bw_epoch == snap.bw_epoch
        assert state.residual_bw(1, 2) == pytest.approx(1000.0)

    def test_two_fresh_states_share_epoch_zero(self, line3):
        # Full-capacity tables are identical by construction, so the
        # virgin token is legitimately shared across states.
        assert ClusterState(line3).bw_epoch == ClusterState(line3).bw_epoch == 0


class TestCacheCorrectness:
    def test_hit_returns_identical_path(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        first = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        again = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert again is first
        assert cache.path_hits == 1

    def test_reservation_invalidates(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        first = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert first.nodes == (0, 2, 3)  # bottom path: wide enough, in bound
        # Consume the bottom path; the cached answer must NOT be replayed.
        state.reserve_path([0, 2, 3], 960.0)
        second = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert second.nodes == (0, 1, 3)
        assert cache.path_hits == 0, "epoch changed, so both queries were misses"

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
                # fresh oracle, no memo anywhere.
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
                # Mutate residuals so later iterations exercise
                # invalidation, not just a warm cache.
                if rng.uniform() < 0.5:
                    state.reserve_path(list(want.nodes), bw)

    def test_negative_caching_replays_failure(self, line3):
        state = ClusterState(line3)
        cache = RoutingCache(line3)
        with pytest.raises(RoutingError) as first:
            cache.route(state, 0, 2, bandwidth=5000.0, latency_bound=100.0)
        queries_before = cache.path_queries
        with pytest.raises(RoutingError) as second:
            cache.route(state, 0, 2, bandwidth=5000.0, latency_bound=100.0)
        assert str(second.value) == str(first.value)
        assert cache.path_queries == queries_before + 1
        assert cache.path_hits == 1

    def test_cross_state_epoch_zero_reuse(self, diamond):
        # The RA baseline's retry loop: every try starts from a fresh
        # state, whose table is the full-capacity one -> cache hit.
        cache = RoutingCache(diamond)
        first = cache.route(ClusterState(diamond), 0, 3, bandwidth=50.0, latency_bound=100.0)
        second = cache.route(ClusterState(diamond), 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert second is first
        assert cache.path_hits == 1

    def test_label_setting_router_cached_separately(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        a = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        b = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0,
                        router="label_setting")
        assert cache.path_hits == 0, "different routers must not share entries"
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

    def test_eviction_keeps_cache_bounded(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond, max_paths=4)
        for bw in range(1, 10):
            cache.route(state, 0, 3, bandwidth=float(bw), latency_bound=100.0)
        assert len(cache._paths) <= 4
        # Evicted or not, answers stay correct.
        path = cache.route(state, 0, 3, bandwidth=1.0, latency_bound=100.0)
        assert path.nodes in ((0, 2, 3), (0, 1, 3))

    def test_stats_shape(self, diamond):
        cache = RoutingCache(diamond)
        cache.route(ClusterState(diamond), 0, 3, bandwidth=1.0, latency_bound=100.0)
        stats = cache.stats()
        assert set(stats) == {
            "engine", "label_queries", "label_hits", "path_queries", "path_hits",
            "hit_rate", "kernel_seconds",
        }
        assert stats["engine"] == "compiled"
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["kernel_seconds"] >= 0.0


class TestDropStale:
    """Satellite of the admission service: ``release_tenant`` prunes the
    cache so a long-lived service doesn't accumulate one dead epoch of
    memos per departure.  Safety never depended on this — epoch tokens
    are globally unique and never reused, so a stale entry cannot be
    *served* — which the service-shaped scenario below double-checks."""

    def test_drop_stale_prunes_other_epochs(self, diamond):
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        state.reserve_path([0, 2, 3], 10.0)
        cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert len(cache._paths) == 2
        dropped = cache.drop_stale(state.bw_epoch)
        assert dropped == 1
        assert all(key[0] == state.bw_epoch for key in cache._paths)

    def test_drop_stale_prunes_negative_entries_too(self, line3):
        state = ClusterState(line3)
        cache = RoutingCache(line3)
        with pytest.raises(RoutingError):
            cache.route(state, 0, 2, bandwidth=5000.0, latency_bound=100.0)
        state.reserve_path([0, 1], 1.0)
        assert cache.drop_stale(state.bw_epoch) == 1
        assert not cache._failures

    def test_admit_depart_admit_serves_no_stale_path(self, diamond):
        """The service's churn pattern: reserve, release, re-query.  The
        post-release query must recompute against the restored residuals
        (the old entry's epoch is dead), and pruning must leave exactly
        the live-epoch memo behind."""
        state = ClusterState(diamond)
        cache = RoutingCache(diamond)
        first = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert first.nodes == (0, 2, 3)
        # Admit: the tenant consumes the bottom path almost entirely.
        state.reserve_path([0, 2, 3], 960.0)
        while_full = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert while_full.nodes == (0, 1, 3), "must not serve the stale memo"
        # Depart: capacity returns, epoch bumps again.
        state.release_path([0, 2, 3], 960.0)
        cache.drop_stale(state.bw_epoch)
        assert not cache._paths, "every memoized epoch is now dead"
        again = cache.route(state, 0, 3, bandwidth=50.0, latency_bound=100.0)
        assert again.nodes == first.nodes
        assert [key[0] for key in cache._paths] == [state.bw_epoch]


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
