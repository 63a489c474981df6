"""Tests for the label-setting bottleneck router (repro.routing.labels).

The contract: drop-in equivalent of Algorithm 1 — identical feasibility
and identical *bottleneck value* (the returned path may differ when
several paths tie, but must itself be feasible and optimal).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterState, Host, PhysicalCluster, validate_mapping
from repro.errors import ModelError, RoutingError
from repro.hmn import HMNConfig, hmn_map
from repro.routing import (
    LatencyOracle,
    bottleneck_route,
    bottleneck_route_labels,
    bottleneck_route_labels_compiled,
)

from tests.test_property_routing import random_cluster_strategy


class TestBasics:
    def test_prefers_wider_path(self, diamond):
        result = bottleneck_route_labels(diamond, 0, 3, bandwidth=1.0, latency_bound=100.0)
        assert result.nodes == (0, 2, 3)
        assert result.bottleneck == pytest.approx(1000.0)

    def test_latency_bound_forces_narrow_path(self, diamond):
        result = bottleneck_route_labels(diamond, 0, 3, bandwidth=1.0, latency_bound=15.0)
        assert result.nodes == (0, 1, 3)

    def test_trivial(self, diamond):
        result = bottleneck_route_labels(diamond, 1, 1, bandwidth=1.0, latency_bound=0.0)
        assert result.nodes == (1,)

    def test_failures(self, diamond):
        with pytest.raises(RoutingError):
            bottleneck_route_labels(diamond, 0, 3, bandwidth=5000.0, latency_bound=100.0)
        with pytest.raises(RoutingError, match="minimum possible latency"):
            bottleneck_route_labels(diamond, 0, 3, bandwidth=1.0, latency_bound=5.0)
        with pytest.raises(ModelError):
            bottleneck_route_labels(diamond, 0, 3, bandwidth=-1.0, latency_bound=5.0)

    def test_zero_latency_cycles_terminate(self):
        """Zero-latency links could cycle forever without dominance
        pruning of equal labels."""
        c = PhysicalCluster()
        for i in range(4):
            c.add_host(Host(i, proc=1.0, mem=1, stor=1.0))
        c.connect(0, 1, bw=100.0, lat=0.0)
        c.connect(1, 2, bw=100.0, lat=0.0)
        c.connect(2, 0, bw=100.0, lat=0.0)
        c.connect(2, 3, bw=50.0, lat=0.0)
        result = bottleneck_route_labels(c, 0, 3, bandwidth=1.0, latency_bound=10.0)
        assert result.nodes[-1] == 3
        assert result.bottleneck == pytest.approx(50.0)


class TestEquivalenceWithAlgorithm1:
    @settings(max_examples=60, deadline=None)
    @given(random_cluster_strategy(), st.integers(0, 10_000))
    def test_same_bottleneck_and_feasibility(self, cluster, pair_seed):
        rng = np.random.default_rng(pair_seed)
        src, dst = (int(x) for x in rng.choice(cluster.n_hosts, size=2, replace=False))
        bandwidth = float(rng.uniform(0, 300))
        latency_bound = float(rng.uniform(5, 120))
        oracle = LatencyOracle(cluster)
        try:
            a1 = bottleneck_route(
                cluster, src, dst, bandwidth=bandwidth, latency_bound=latency_bound,
                oracle=oracle,
            )
        except RoutingError:
            with pytest.raises(RoutingError):
                bottleneck_route_labels(
                    cluster, src, dst, bandwidth=bandwidth, latency_bound=latency_bound,
                    oracle=oracle,
                )
            return
        labels = bottleneck_route_labels(
            cluster, src, dst, bandwidth=bandwidth, latency_bound=latency_bound,
            oracle=oracle,
        )
        assert math.isclose(labels.bottleneck, a1.bottleneck, rel_tol=1e-9)
        # returned path is itself feasible and loop-free
        assert labels.nodes[0] == src and labels.nodes[-1] == dst
        assert len(set(labels.nodes)) == len(labels.nodes)
        lat = sum(cluster.latency(u, v) for u, v in zip(labels.nodes, labels.nodes[1:]))
        assert lat <= latency_bound + 1e-9
        for u, v in zip(labels.nodes, labels.nodes[1:]):
            assert cluster.bandwidth(u, v) + 1e-9 >= bandwidth
        bbw = min(cluster.bandwidth(u, v) for u, v in zip(labels.nodes, labels.nodes[1:]))
        assert math.isclose(bbw, labels.bottleneck, rel_tol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(random_cluster_strategy(), st.integers(0, 10_000))
    def test_fast_path_equivalence(self, cluster, pair_seed):
        rng = np.random.default_rng(pair_seed)
        src, dst = (int(x) for x in rng.choice(cluster.n_hosts, size=2, replace=False))
        state = ClusterState(cluster)
        topo, bw = state.topology, state.bw_array
        kwargs = dict(bandwidth=float(rng.uniform(0, 200)), latency_bound=float(rng.uniform(10, 80)))
        try:
            slow = bottleneck_route_labels(cluster, src, dst,
                                           residual_bw=state.residual_bw, **kwargs)
        except RoutingError:
            with pytest.raises(RoutingError):
                bottleneck_route_labels_compiled(topo, bw, src, dst, **kwargs)
            return
        fast = bottleneck_route_labels_compiled(topo, bw, src, dst, **kwargs)
        assert math.isclose(slow.bottleneck, fast.bottleneck, rel_tol=1e-12)


class TestPipelineIntegration:
    def test_hmn_with_label_setting_router(self):
        from repro.workload import HIGH_LEVEL, generate_virtual_environment
        from repro.topology import paper_torus

        cluster = paper_torus(seed=51)
        venv = generate_virtual_environment(80, workload=HIGH_LEVEL, seed=52)
        a1 = hmn_map(cluster, venv, HMNConfig())
        ls = hmn_map(cluster, venv, HMNConfig(router="label_setting"))
        validate_mapping(cluster, venv, ls)
        # identical placements (routing choice does not affect stages 1-2)
        assert dict(a1.assignments) == dict(ls.assignments)
        assert a1.meta["objective"] == pytest.approx(ls.meta["objective"])

    def test_invalid_router_rejected(self):
        with pytest.raises(ModelError):
            HMNConfig(router="teleport")
