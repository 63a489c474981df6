"""Unit tests for the HMN Hosting stage (and the oracle's pair-fit helper)."""

from __future__ import annotations

import pytest

from repro.core import ClusterState, Guest, Host, PhysicalCluster, VirtualEnvironment, VirtualLink
from repro.errors import PlacementError
from repro.conformance.stages import fits_together
from repro.hmn import HMNConfig, ordered_vlinks, run_hosting


def cluster2(mem0=4096, mem1=4096, proc0=3000.0, proc1=1000.0):
    c = PhysicalCluster()
    c.add_host(Host(0, proc=proc0, mem=mem0, stor=100_000.0))
    c.add_host(Host(1, proc=proc1, mem=mem1, stor=100_000.0))
    c.connect(0, 1, bw=1000.0, lat=5.0)
    return c


def venv_chain(*pairs, guests=None):
    v = VirtualEnvironment()
    n = max(max(a, b) for a, b, _ in pairs) + 1
    for i in range(n):
        spec = (guests or {}).get(i, {})
        v.add_guest(
            Guest(
                i,
                vproc=spec.get("vproc", 100.0),
                vmem=spec.get("vmem", 256),
                vstor=spec.get("vstor", 10.0),
            )
        )
    for a, b, vbw in pairs:
        v.add_vlink(VirtualLink(a, b, vbw=vbw, vlat=100.0))
    return v


class TestOrdering:
    def test_vbw_descending_default(self, venv_triangle):
        links = ordered_vlinks(venv_triangle, HMNConfig())
        assert [e.vbw for e in links] == [30.0, 20.0, 10.0]

    def test_vbw_ascending(self, venv_triangle):
        links = ordered_vlinks(venv_triangle, HMNConfig(link_order="vbw_asc"))
        assert [e.vbw for e in links] == [10.0, 20.0, 30.0]

    def test_random_is_seeded(self, venv_triangle):
        a = ordered_vlinks(venv_triangle, HMNConfig(link_order="random", seed=5))
        b = ordered_vlinks(venv_triangle, HMNConfig(link_order="random", seed=5))
        assert a == b

    def test_tie_break_by_key(self):
        v = venv_chain((0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0))
        links = ordered_vlinks(v, HMNConfig())
        assert [e.key for e in links] == [(0, 1), (0, 2), (1, 2)]


class TestPairPlacement:
    def test_both_guests_colocate_on_top_host(self):
        c = cluster2()
        state = ClusterState(c)
        v = venv_chain((0, 1, 10.0))
        stats = run_hosting(state, v, HMNConfig())
        # Host 0 has the most residual CPU; the pair fits -> co-located.
        assert state.host_of(0) == 0 and state.host_of(1) == 0
        assert stats["pairs_colocated"] == 1

    def test_pair_splits_when_no_joint_fit(self):
        c = cluster2(mem0=300, mem1=300)  # each host fits only one 256-MiB guest
        state = ClusterState(c)
        v = venv_chain((0, 1, 10.0), guests={0: {"vproc": 50.0}, 1: {"vproc": 200.0}})
        run_hosting(state, v, HMNConfig())
        # CPU-heaviest guest (1) goes first, to host 0 (most residual CPU).
        assert state.host_of(1) == 0
        assert state.host_of(0) == 1

    def test_peer_joins_existing_host_when_fits(self):
        c = cluster2()
        state = ClusterState(c)
        v = venv_chain((0, 1, 30.0), (1, 2, 20.0))
        run_hosting(state, v, HMNConfig())
        # Pair (0,1) lands on host 0; then guest 2 joins guest 1's host.
        assert state.host_of(2) == state.host_of(1)

    def test_peer_overflows_to_other_host(self):
        c = cluster2(mem0=600, mem1=4096)  # host0 fits the pair but not a third
        state = ClusterState(c)
        v = venv_chain((0, 1, 30.0), (1, 2, 20.0))
        run_hosting(state, v, HMNConfig())
        assert state.host_of(0) == 0 and state.host_of(1) == 0
        assert state.host_of(2) == 1

    def test_high_bandwidth_pairs_placed_first(self):
        # Two disjoint pairs; only one host can take a pair jointly.
        c = cluster2(mem0=600, mem1=300)
        state = ClusterState(c)
        v = venv_chain((0, 1, 99.0), (2, 3, 1.0))
        with pytest.raises(PlacementError):
            # guests 2,3 cannot both fit anywhere: placement must fail...
            run_hosting(state, v, HMNConfig())
        # ...but the high-bandwidth pair was attempted first and co-located.
        assert state.host_of(0) == 0 and state.host_of(1) == 0


class TestFailuresAndExtensions:
    def test_unplaceable_guest_raises(self):
        c = cluster2(mem0=100, mem1=100)
        state = ClusterState(c)
        v = venv_chain((0, 1, 1.0))
        with pytest.raises(PlacementError):
            run_hosting(state, v, HMNConfig())

    def test_isolated_guests_are_placed(self):
        c = cluster2()
        state = ClusterState(c)
        v = VirtualEnvironment()
        for i in range(3):
            v.add_guest(Guest(i, vproc=100.0, vmem=128, vstor=1.0))
        v.add_vlink(VirtualLink(0, 1, vbw=1.0, vlat=50.0))
        stats = run_hosting(state, v, HMNConfig())
        assert state.is_placed(2)
        assert stats["isolated_guests"] == 1

    def test_all_guests_placed_paper_scale(self):
        from repro.topology import paper_torus
        from repro.workload import HIGH_LEVEL, generate_virtual_environment

        cluster = paper_torus(seed=3)
        venv = generate_virtual_environment(100, workload=HIGH_LEVEL, seed=4)
        state = ClusterState(cluster)
        stats = run_hosting(state, venv, HMNConfig())
        assert state.n_placed == 100
        assert stats["placements"] == 100
        # hard constraints hold by construction
        for h in cluster.host_ids:
            assert state.residual_mem(h) >= 0
            assert state.residual_stor(h) >= 0

    def test_fits_together(self):
        c = cluster2(mem0=500)
        state = ClusterState(c)
        a = Guest(0, vproc=1.0, vmem=250, vstor=1.0)
        b = Guest(1, vproc=1.0, vmem=250, vstor=1.0)
        big = Guest(2, vproc=1.0, vmem=251, vstor=1.0)
        assert fits_together(state, a, b, 0)
        assert not fits_together(state, a, big, 0)


class TestAffinityProperty:
    def test_hosting_colocates_more_than_random(self, rng):
        """The stage's purpose: high-bandwidth links become intra-host."""
        from repro.topology import paper_torus
        from repro.workload import HIGH_LEVEL, generate_virtual_environment

        cluster = paper_torus(seed=3)
        venv = generate_virtual_environment(100, workload=HIGH_LEVEL, seed=4)

        state = ClusterState(cluster)
        run_hosting(state, venv, HMNConfig())
        hosted_colocated = sum(
            1 for e in venv.vlinks() if state.host_of(e.a) == state.host_of(e.b)
        )

        random_assign = {g.id: int(rng.choice(cluster.host_ids)) for g in venv.guests()}
        random_colocated = sum(
            1 for e in venv.vlinks() if random_assign[e.a] == random_assign[e.b]
        )
        assert hosted_colocated > random_colocated
