"""Targeted tests for branches the main suites do not reach."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ClusterState,
    Guest,
    Host,
    PhysicalCluster,
    VirtualEnvironment,
    VirtualLink,
)
from repro.errors import ModelError, PlacementError, RoutingError
from repro.hmn import HMNConfig, run_hosting, run_networking
from repro.seeding import round_robin, rng_from


class TestHostingSplitWraparound:
    def test_light_guest_wraps_to_earlier_host(self):
        """Split placement: the heavy guest lands late in the CPU order,
        and only an *earlier* host fits the light one — the wrap-around
        interpretation (module docstring) must kick in."""
        c = PhysicalCluster()
        # CPU order: 0 (3000) > 1 (2000) > 2 (1000).
        # Memory: only host 2 fits the heavy guest; only host 0 fits the
        # light one.  The pair fits nowhere together.
        c.add_host(Host(0, proc=3000.0, mem=100, stor=10_000.0))
        c.add_host(Host(1, proc=2000.0, mem=10, stor=10_000.0))
        c.add_host(Host(2, proc=1000.0, mem=500, stor=10_000.0))
        c.connect(0, 1, bw=1000.0, lat=5.0)
        c.connect(1, 2, bw=1000.0, lat=5.0)
        v = VirtualEnvironment()
        v.add_guest(Guest(0, vproc=200.0, vmem=400, vstor=1.0))  # heavy (cpu)
        v.add_guest(Guest(1, vproc=50.0, vmem=80, vstor=1.0))  # light
        v.add_vlink(VirtualLink(0, 1, vbw=5.0, vlat=100.0))
        state = ClusterState(c)
        run_hosting(state, v, HMNConfig())
        assert state.host_of(0) == 2  # the only host with 400 MiB free
        assert state.host_of(1) == 0  # wrapped back past host 2

    def test_split_fails_when_light_fits_nowhere(self):
        c = PhysicalCluster()
        c.add_host(Host(0, proc=3000.0, mem=400, stor=10_000.0))
        c.add_host(Host(1, proc=2000.0, mem=10, stor=10_000.0))
        c.connect(0, 1, bw=1000.0, lat=5.0)
        v = VirtualEnvironment()
        v.add_guest(Guest(0, vproc=200.0, vmem=400, vstor=1.0))
        v.add_guest(Guest(1, vproc=50.0, vmem=80, vstor=1.0))
        v.add_vlink(VirtualLink(0, 1, vbw=5.0, vlat=100.0))
        with pytest.raises(PlacementError):
            run_hosting(ClusterState(c), v, HMNConfig())


class TestNetworkingLatencyMetricFailure:
    def test_latency_router_raises_routing_error(self, line3):
        v = VirtualEnvironment()
        v.add_guest(Guest(0, vproc=1.0, vmem=1, vstor=1.0))
        v.add_guest(Guest(1, vproc=1.0, vmem=1, vstor=1.0))
        v.add_vlink(VirtualLink(0, 1, vbw=2000.0, vlat=100.0))  # no bandwidth
        state = ClusterState(line3)
        state.place(v.guest(0), 0)
        state.place(v.guest(1), 2)
        with pytest.raises(RoutingError):
            run_networking(state, v, HMNConfig(routing_metric="latency"))


class TestSeedingUtilities:
    def test_round_robin_cycles(self):
        gens = [rng_from(1), rng_from(2)]
        it = round_robin(gens)
        seen = [next(it) for _ in range(5)]
        assert seen == [gens[0], gens[1], gens[0], gens[1], gens[0]]

    def test_round_robin_empty_rejected(self):
        with pytest.raises(ValueError):
            next(round_robin([]))


class TestDescribeHelpers:
    def test_cluster_describe_lists_everything(self, star4):
        text = star4.describe()
        assert "Host" in text and "Link" in text
        assert text.count("Link") == star4.n_links

    def test_venv_describe(self, venv_triangle):
        text = venv_triangle.describe()
        assert "Guest" in text and "VLink" in text


class TestRouterTrivialFastPath:
    def test_same_endpoint_with_graph_args(self, diamond):
        """The compiled kernels (topology + live bandwidth array) take
        the same trivial intra-host fast path as the reference routers."""
        from repro.core import ClusterState
        from repro.routing import bottleneck_route_compiled, bottleneck_route_labels_compiled

        state = ClusterState(diamond)
        for fn in (bottleneck_route_compiled, bottleneck_route_labels_compiled):
            result = fn(
                state.topology, state.bw_array, 1, 1, bandwidth=1.0, latency_bound=0.0,
            )
            assert result.nodes == (1,)


class TestRangeEdge:
    def test_scaled_negative_rejected(self):
        from repro.workload import Range

        with pytest.raises(ModelError):
            Range(1.0, 2.0).scaled(-1.0)

    def test_normal_mode_resampling_respects_narrow_range(self):
        from repro.workload import Range

        rng = np.random.default_rng(0)
        r = Range(0.0, 1e-12, mode="normal")
        xs = r.sample(rng, size=100)
        assert (xs >= 0.0).all() and (xs <= 1e-12).all()


class TestClusterStateMisc:
    def test_repr_mentions_objective(self, state_line3):
        assert "objective" in repr(state_line3)

    def test_placed_guest_roundtrip(self, state_line3):
        g = Guest(7, vproc=10.0, vmem=16, vstor=1.0)
        state_line3.place(g, 1)
        assert state_line3.placed_guest(7) == g
        with pytest.raises(ModelError):
            state_line3.placed_guest(8)

    def test_guests_on_unknown_host(self, state_line3):
        from repro.errors import UnknownNodeError

        with pytest.raises(UnknownNodeError):
            state_line3.guests_on(42)


class TestMappingEdge:
    def test_hosts_used_preserves_first_seen_order(self):
        from repro.core import Mapping

        m = Mapping(assignments={3: "b", 1: "a", 2: "b"}, paths={})
        assert m.hosts_used() == ("b", "a")

    def test_empty_mapping(self):
        from repro.core import Mapping

        m = Mapping(assignments={}, paths={})
        assert m.n_guests == 0
        assert m.hosts_used() == ()
        assert m.total_hops() == 0
        assert m.n_colocated() == 0
