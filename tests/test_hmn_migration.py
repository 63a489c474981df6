"""Unit tests for the HMN Migration stage (and the oracle's selection helpers)."""

from __future__ import annotations

import pytest

from repro.core import ClusterState, Guest, Host, PhysicalCluster, VirtualEnvironment, VirtualLink
from repro.conformance.stages import intra_host_bandwidth, origin_hosts, pick_migration_guest
from repro.hmn import HMNConfig, run_migration


def flat_cluster(n=3, proc=1000.0):
    c = PhysicalCluster()
    for i in range(n):
        c.add_host(Host(i, proc=proc, mem=100_000, stor=100_000.0))
    for i in range(n - 1):
        c.connect(i, i + 1, bw=1000.0, lat=5.0)
    return c


def simple_venv(vprocs, links=()):
    v = VirtualEnvironment()
    for i, p in enumerate(vprocs):
        v.add_guest(Guest(i, vproc=float(p), vmem=1, vstor=1.0))
    for a, b, vbw in links:
        v.add_vlink(VirtualLink(a, b, vbw=vbw, vlat=100.0))
    return v


class TestIntraHostBandwidth:
    def test_counts_only_colocated_links(self):
        c = flat_cluster()
        v = simple_venv([10, 10, 10], links=[(0, 1, 5.0), (0, 2, 7.0)])
        state = ClusterState(c)
        state.place(v.guest(0), 0)
        state.place(v.guest(1), 0)
        state.place(v.guest(2), 1)
        assert intra_host_bandwidth(state, v, 0) == pytest.approx(5.0)
        assert intra_host_bandwidth(state, v, 2) == pytest.approx(0.0)


class TestGuestSelection:
    def test_min_intra_bw_policy(self):
        c = flat_cluster()
        v = simple_venv([10, 10, 10], links=[(0, 1, 50.0), (1, 2, 1.0)])
        state = ClusterState(c)
        for i in range(3):
            state.place(v.guest(i), 0)
        # guest 2 has the smallest co-resident bandwidth sum (1.0)
        assert pick_migration_guest(state, v, 0, HMNConfig()) == 2

    def test_max_vproc_policy(self):
        c = flat_cluster()
        v = simple_venv([10, 99, 20])
        state = ClusterState(c)
        for i in range(3):
            state.place(v.guest(i), 0)
        assert pick_migration_guest(state, v, 0, HMNConfig(migration_policy="max_vproc")) == 1

    def test_empty_host_returns_none(self):
        c = flat_cluster()
        v = simple_venv([10])
        state = ClusterState(c)
        assert pick_migration_guest(state, v, 0, HMNConfig()) is None

    def test_tie_break_on_guest_id(self):
        c = flat_cluster()
        v = simple_venv([10, 10])
        state = ClusterState(c)
        state.place(v.guest(0), 0)
        state.place(v.guest(1), 0)
        assert pick_migration_guest(state, v, 0, HMNConfig()) == 0


class TestOriginSelection:
    def test_loaded_min_residual_skips_empty_hosts(self):
        c = PhysicalCluster()
        c.add_host(Host(0, proc=3000.0, mem=100_000, stor=100_000.0))
        c.add_host(Host(1, proc=500.0, mem=100_000, stor=100_000.0))  # tiny, empty
        c.connect(0, 1, bw=1000.0, lat=5.0)
        v = simple_venv([100])
        state = ClusterState(c)
        state.place(v.guest(0), 0)
        # strict reading picks the empty tiny host; default skips it
        assert origin_hosts(state, HMNConfig(migration_origin="strict_min_residual"))[0] == 1
        assert origin_hosts(state, HMNConfig())[0] == 0

    def test_max_usage_origin(self):
        c = flat_cluster()
        v = simple_venv([500, 100])
        state = ClusterState(c)
        state.place(v.guest(0), 1)
        state.place(v.guest(1), 2)
        assert origin_hosts(state, HMNConfig(migration_origin="max_usage"))[0] == 1


class TestMigrationLoop:
    def test_balances_homogeneous_overload(self):
        """All guests start on one host of three equal hosts; migration
        must spread them until the objective stops improving."""
        c = flat_cluster(3, proc=1000.0)
        v = simple_venv([100] * 9)
        state = ClusterState(c)
        for i in range(9):
            state.place(v.guest(i), 0)
        before = state.objective()
        stats = run_migration(state, v, HMNConfig())
        assert stats["migrations"] > 0
        assert state.objective() < before
        counts = [len(state.guests_on(h)) for h in c.host_ids]
        assert counts == [3, 3, 3]
        assert state.objective() == pytest.approx(0.0)

    def test_every_iteration_improves(self):
        c = flat_cluster(4, proc=2000.0)
        v = simple_venv([150] * 12, links=[(i, (i + 1) % 12, 1.0) for i in range(12)])
        state = ClusterState(c)
        for i in range(12):
            state.place(v.guest(i), i % 2)  # lopsided start
        history = [state.objective()]
        cfg = HMNConfig()
        while True:
            stats = run_migration(state, v, HMNConfig(migration_max_iterations=1))
            if stats["migrations"] == 0:
                break
            history.append(state.objective())
        assert all(b < a - 1e-12 for a, b in zip(history, history[1:]))

    def test_respects_memory_fit(self):
        c = PhysicalCluster()
        c.add_host(Host(0, proc=1000.0, mem=100_000, stor=100_000.0))
        c.add_host(Host(1, proc=1000.0, mem=0, stor=100_000.0))  # no memory
        c.connect(0, 1, bw=1000.0, lat=5.0)
        v = simple_venv([100] * 4)
        state = ClusterState(c)
        for i in range(4):
            state.place(v.guest(i), 0)
        run_migration(state, v, HMNConfig())
        # nothing can move to host 1 despite the imbalance
        assert len(state.guests_on(1)) == 0

    def test_stops_when_balanced(self):
        c = flat_cluster(2, proc=1000.0)
        v = simple_venv([100, 100])
        state = ClusterState(c)
        state.place(v.guest(0), 0)
        state.place(v.guest(1), 1)
        stats = run_migration(state, v, HMNConfig())
        assert stats["migrations"] == 0
        assert stats["iterations"] == 1

    def test_migration_prefers_low_traffic_guest(self):
        """The chosen guest is the one whose links stay cheapest."""
        c = flat_cluster(2, proc=1000.0)
        v = simple_venv([100, 100, 100], links=[(0, 1, 80.0), (1, 2, 80.0)])
        state = ClusterState(c)
        for i in range(3):
            state.place(v.guest(i), 0)
        run_migration(state, v, HMNConfig())
        # guest 0 and 2 tie on intra-bw after first move; the first move
        # must take one of the edge guests (0 or 2), never the hub guest 1.
        assert state.host_of(1) == 0

    def test_max_iterations_bound(self):
        c = flat_cluster(3, proc=1000.0)
        v = simple_venv([100] * 9)
        state = ClusterState(c)
        for i in range(9):
            state.place(v.guest(i), 0)
        stats = run_migration(state, v, HMNConfig(migration_max_iterations=2))
        assert stats["iterations"] <= 2

    def test_exhaustive_origin_beats_single_origin(self):
        """A stuck most-loaded host must not end the exhaustive variant."""
        c = PhysicalCluster()
        c.add_host(Host(0, proc=1000.0, mem=1000, stor=100_000.0))
        c.add_host(Host(1, proc=1000.0, mem=1000, stor=100_000.0))
        c.add_host(Host(2, proc=1000.0, mem=2000, stor=100_000.0))
        c.connect(0, 1, bw=1000.0, lat=5.0)
        c.connect(1, 2, bw=1000.0, lat=5.0)
        v = VirtualEnvironment()
        # host 0: one immovable fat guest (memory 1000 fits only host 2's
        # free space... blocked by design); host 1: two movable ones.
        v.add_guest(Guest(0, vproc=500.0, vmem=1000, vstor=1.0))
        v.add_guest(Guest(1, vproc=200.0, vmem=100, vstor=1.0))
        v.add_guest(Guest(2, vproc=200.0, vmem=100, vstor=1.0))
        state = ClusterState(c)
        state.place(v.guest(0), 0)
        state.place(v.guest(1), 1)
        state.place(v.guest(2), 1)
        # strict single-origin: origin is host 0 (residual 500); its guest
        # cannot fit anywhere better -> loop ends with no moves.
        s1 = state.copy()
        run_migration(s1, v, HMNConfig())
        # exhaustive: falls through to host 1 and improves.
        s2 = state.copy()
        stats = run_migration(s2, v, HMNConfig(migration_exhaustive=True))
        assert s2.objective() <= s1.objective()
        assert stats["migrations"] >= 1
