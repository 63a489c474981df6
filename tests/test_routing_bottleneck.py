"""Unit tests for Algorithm 1 (repro.routing.bottleneck_prune)."""

from __future__ import annotations

import pytest

from repro.core import ClusterState, Host, PhysicalCluster
from repro.errors import ModelError, RoutingError
from repro.routing import LatencyOracle, bottleneck_route, bottleneck_route_compiled


class TestObjective:
    def test_prefers_wider_path(self, diamond):
        # Top path bw 100 (lat 10), bottom path bw 1000 (lat 40).
        result = bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=100.0)
        assert result.nodes == (0, 2, 3)
        assert result.bottleneck == pytest.approx(1000.0)
        assert result.latency == pytest.approx(40.0)

    def test_latency_bound_forces_narrow_path(self, diamond):
        result = bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=15.0)
        assert result.nodes == (0, 1, 3)
        assert result.bottleneck == pytest.approx(100.0)

    def test_bandwidth_demand_prunes_narrow_path(self, diamond):
        result = bottleneck_route(diamond, 0, 3, bandwidth=500.0, latency_bound=100.0)
        assert result.nodes == (0, 2, 3)

    def test_respects_residuals(self, diamond):
        state = ClusterState(diamond)
        state.reserve_path([0, 2, 3], 950.0)  # bottom path now thinner than top
        result = bottleneck_route(
            diamond, 0, 3, bandwidth=1.0, latency_bound=100.0, residual_bw=state.residual_bw
        )
        assert result.nodes == (0, 1, 3)
        assert result.bottleneck == pytest.approx(100.0)

    def test_trivial_intra_host(self, diamond):
        result = bottleneck_route(diamond, 2, 2, bandwidth=5.0, latency_bound=0.0)
        assert result.nodes == (2,)
        assert result.bottleneck == float("inf")
        assert result.latency == 0.0

    def test_bottleneck_is_true_maximum(self, diamond):
        # Exhaustively check against all simple paths.
        import networkx as nx

        g = nx.Graph()
        for link in diamond.links():
            g.add_edge(link.u, link.v, bw=link.bw, lat=link.lat)
        best = max(
            min(g.edges[u, v]["bw"] for u, v in zip(p, p[1:]))
            for p in nx.all_simple_paths(g, 0, 3)
            if sum(g.edges[u, v]["lat"] for u, v in zip(p, p[1:])) <= 100.0
        )
        result = bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=100.0)
        assert result.bottleneck == pytest.approx(best)


class TestFailures:
    def test_no_bandwidth_anywhere(self, diamond):
        with pytest.raises(RoutingError):
            bottleneck_route(diamond, 0, 3, bandwidth=5000.0, latency_bound=100.0)

    def test_latency_infeasible_fails_fast(self, diamond):
        with pytest.raises(RoutingError, match="minimum possible latency"):
            bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=5.0)

    def test_expansion_budget(self, diamond):
        with pytest.raises(RoutingError, match="expansions"):
            bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=100.0, max_expansions=1)

    def test_negative_inputs_rejected(self, diamond):
        with pytest.raises(ModelError):
            bottleneck_route(diamond, 0, 3, bandwidth=-1.0, latency_bound=10.0)
        with pytest.raises(ModelError):
            bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=-10.0)


class TestFastPath:
    """The compiled kernel (the production fast path) against this
    reference router on the same residual state."""

    def test_equivalence_with_accessor_path(self, diamond):
        state = ClusterState(diamond)
        state.reserve_path([0, 1, 3], 60.0)
        oracle = LatencyOracle(diamond)
        for a in diamond.host_ids:
            for b in diamond.host_ids:
                if a == b:
                    continue
                slow = bottleneck_route(
                    diamond, a, b, bandwidth=30.0, latency_bound=100.0,
                    residual_bw=state.residual_bw, oracle=oracle,
                )
                fast = bottleneck_route_compiled(
                    state.topology, state.bw_array, a, b,
                    bandwidth=30.0, latency_bound=100.0,
                )
                assert slow.nodes == fast.nodes
                assert slow.bottleneck == pytest.approx(fast.bottleneck)
                assert slow.latency == pytest.approx(fast.latency)

    def test_fast_path_sees_live_reservations(self, diamond):
        state = ClusterState(diamond)
        before = bottleneck_route_compiled(
            state.topology, state.bw_array, 0, 3, bandwidth=1.0, latency_bound=100.0,
        )
        assert before.nodes == (0, 2, 3)
        state.reserve_path([0, 2, 3], 950.0)
        after = bottleneck_route_compiled(
            state.topology, state.bw_array, 0, 3, bandwidth=1.0, latency_bound=100.0,
        )
        assert after.nodes == (0, 1, 3)


class TestDeterminism:
    def test_repeated_calls_identical(self, diamond):
        results = {
            bottleneck_route(diamond, 0, 3, bandwidth=1.0, latency_bound=100.0).nodes
            for _ in range(10)
        }
        assert len(results) == 1

    def test_tie_break_prefers_lower_latency(self):
        # Two equal-bandwidth paths, one shorter in latency.
        c = PhysicalCluster()
        for i in range(4):
            c.add_host(Host(i, proc=1.0, mem=1, stor=1.0))
        c.connect(0, 1, bw=100.0, lat=1.0)
        c.connect(1, 3, bw=100.0, lat=1.0)
        c.connect(0, 2, bw=100.0, lat=5.0)
        c.connect(2, 3, bw=100.0, lat=5.0)
        result = bottleneck_route(c, 0, 3, bandwidth=1.0, latency_bound=100.0)
        assert result.nodes == (0, 1, 3)
