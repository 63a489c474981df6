"""Unit tests for repro.core.state (ClusterState)."""

from __future__ import annotations

import pytest

from repro.core import ClusterState, Guest, Host, PhysicalCluster, path_edges
from repro.errors import CapacityError, ModelError, UnknownNodeError


def g(i: int, vproc=100.0, vmem=256, vstor=100.0) -> Guest:
    return Guest(i, vproc=vproc, vmem=vmem, vstor=vstor)


class TestPathEdges:
    def test_empty_and_single(self):
        assert path_edges([]) == []
        assert path_edges([3]) == []

    def test_pairs_canonical(self):
        assert path_edges([2, 1, 3]) == [(1, 2), (1, 3)]


class TestPlacement:
    def test_place_consumes_resources(self, state_line3):
        state_line3.place(g(0, vproc=100, vmem=256, vstor=64), 0)
        assert state_line3.residual_mem(0) == 3072 - 256
        assert state_line3.residual_stor(0) == pytest.approx(3072 - 64)
        assert state_line3.residual_proc(0) == pytest.approx(2900.0)
        assert state_line3.host_of(0) == 0
        assert state_line3.guests_on(0) == frozenset({0})
        assert state_line3.n_placed == 1

    def test_unplace_restores_exactly(self, state_line3):
        before = (
            state_line3.residual_mem(1),
            state_line3.residual_stor(1),
            state_line3.residual_proc(1),
        )
        state_line3.place(g(0), 1)
        assert state_line3.unplace(0) == 1
        after = (
            state_line3.residual_mem(1),
            state_line3.residual_stor(1),
            state_line3.residual_proc(1),
        )
        assert before == after
        assert not state_line3.is_placed(0)

    def test_double_place_rejected(self, state_line3):
        state_line3.place(g(0), 0)
        with pytest.raises(ModelError, match="already placed"):
            state_line3.place(g(0), 1)

    def test_memory_overflow_rejected_without_mutation(self, state_line3):
        big = g(0, vmem=4096)
        with pytest.raises(CapacityError):
            state_line3.place(big, 2)
        assert state_line3.residual_mem(2) == 1024
        assert not state_line3.is_placed(0)

    def test_storage_overflow_rejected(self, state_line3):
        big = g(0, vstor=9999.0)
        with pytest.raises(CapacityError):
            state_line3.place(big, 0)

    def test_cpu_overcommit_allowed(self, state_line3):
        # CPU is soft (paper: "We are not considering CPU as a constraint").
        state_line3.place(g(0, vproc=5000.0, vmem=1, vstor=1.0), 2)
        assert state_line3.residual_proc(2) == pytest.approx(1000.0 - 5000.0)

    def test_fits(self, state_line3):
        assert state_line3.fits(g(0, vmem=1024), 2)
        assert not state_line3.fits(g(0, vmem=1025), 2)

    def test_move_atomic(self, state_line3):
        state_line3.place(g(0, vmem=512), 0)
        state_line3.move(0, 2)
        assert state_line3.host_of(0) == 2
        assert state_line3.residual_mem(0) == 3072
        # move to a host where it does not fit leaves state untouched
        state_line3.place(g(1, vmem=1024), 1)
        with pytest.raises(CapacityError):
            state_line3.move(1, 2)  # host 2 already holds guest 0 (512 used)
        assert state_line3.host_of(1) == 1

    def test_move_to_same_host_is_noop(self, state_line3):
        state_line3.place(g(0), 0)
        state_line3.move(0, 0)
        assert state_line3.host_of(0) == 0

    def test_unplace_unknown_guest(self, state_line3):
        with pytest.raises(ModelError, match="not placed"):
            state_line3.unplace(77)

    def test_assignments_snapshot(self, state_line3):
        state_line3.place(g(0), 0)
        snap = state_line3.assignments
        snap[99] = 1  # mutating the snapshot must not touch the state
        assert not state_line3.is_placed(99)


class TestBandwidth:
    def test_reserve_and_release(self, state_line3):
        state_line3.reserve_path([0, 1, 2], 100.0)
        assert state_line3.residual_bw(0, 1) == pytest.approx(900.0)
        assert state_line3.residual_bw(1, 2) == pytest.approx(900.0)
        state_line3.release_path([0, 1, 2], 100.0)
        assert state_line3.residual_bw(0, 1) == pytest.approx(1000.0)

    def test_reserve_atomic_on_failure(self, state_line3):
        state_line3.reserve_path([1, 2], 950.0)
        with pytest.raises(CapacityError):
            state_line3.reserve_path([0, 1, 2], 100.0)  # second edge lacks bw
        # first edge untouched by the failed reservation
        assert state_line3.residual_bw(0, 1) == pytest.approx(1000.0)

    def test_reserve_exact_capacity(self, state_line3):
        state_line3.reserve_path([0, 1], 1000.0)
        assert state_line3.residual_bw(0, 1) == pytest.approx(0.0)
        with pytest.raises(CapacityError):
            state_line3.reserve_path([0, 1], 0.001)

    def test_intra_host_path_reserves_nothing(self, state_line3):
        state_line3.reserve_path([1], 500.0)
        assert state_line3.residual_bw(0, 1) == pytest.approx(1000.0)

    def test_can_reserve(self, state_line3):
        assert state_line3.can_reserve([0, 1, 2], 1000.0)
        assert not state_line3.can_reserve([0, 1, 2], 1000.1)
        assert state_line3.can_reserve([], 9999.0)

    def test_unknown_edge_rejected(self, state_line3):
        with pytest.raises(UnknownNodeError):
            state_line3.reserve_path([0, 2], 1.0)

    def test_can_reserve_unknown_edge_raises(self, state_line3):
        # Regression: can_reserve used to return False silently for a
        # nonexistent edge, masking typos in caller-supplied paths; it
        # must raise UnknownNodeError like reserve_path does.
        with pytest.raises(UnknownNodeError):
            state_line3.can_reserve([0, 2], 1.0)
        with pytest.raises(UnknownNodeError):
            state_line3.can_reserve([0, "no-such-node"], 1.0)

    def test_release_path_atomic_on_over_capacity(self, state_line3):
        # Regression: a release that overflows capacity mid-path used
        # to leave earlier edges already credited.  It must validate
        # every edge before mutating any residual (reserve_path's
        # atomicity contract).
        state_line3.reserve_path([0, 1], 100.0)  # only edge (0,1) has headroom
        before = state_line3.bw_array[:]
        with pytest.raises(ModelError, match="exceeds capacity"):
            state_line3.release_path([0, 1, 2], 50.0)  # edge (1,2) would overflow
        assert state_line3.residual_bw(0, 1) == pytest.approx(900.0)
        assert state_line3.residual_bw(1, 2) == pytest.approx(1000.0)
        assert state_line3.bw_array == before  # no edge was credited

    def test_over_release_detected(self, state_line3):
        with pytest.raises(ModelError, match="exceeds capacity"):
            state_line3.release_path([0, 1], 1.0)

    def test_negative_amounts_rejected(self, state_line3):
        with pytest.raises(ModelError):
            state_line3.reserve_path([0, 1], -1.0)
        with pytest.raises(ModelError):
            state_line3.release_path([0, 1], -1.0)

    def test_intra_host_residual_is_infinite(self, state_line3):
        assert state_line3.residual_bw(1, 1) == float("inf")


class TestLifecycle:
    def test_copy_is_deep(self, state_line3):
        state_line3.place(g(0), 0)
        state_line3.reserve_path([0, 1], 100.0)
        clone = state_line3.copy()
        clone.place(g(1), 1)
        clone.reserve_path([0, 1], 100.0)
        assert not state_line3.is_placed(1)
        assert state_line3.residual_bw(0, 1) == pytest.approx(900.0)
        assert clone.residual_bw(0, 1) == pytest.approx(800.0)

    def test_objective_matches_tracker(self, state_line3):
        import numpy as np

        state_line3.place(g(0, vproc=500.0), 0)
        expected = np.std([2500.0, 2000.0, 1000.0])
        assert state_line3.objective() == pytest.approx(float(expected))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ModelError):
            ClusterState(PhysicalCluster())

    def test_place_all(self, line3, venv_pair):
        state = ClusterState(line3)
        state.place_all(venv_pair.guests(), {0: 0, 1: 2})
        assert state.host_of(0) == 0 and state.host_of(1) == 2

    def test_bandwidth_usage(self, state_line3):
        state_line3.reserve_path([0, 1], 250.0)
        usage = state_line3.bandwidth_usage()
        assert usage[(0, 1)] == pytest.approx(250.0)
        assert usage[(1, 2)] == pytest.approx(0.0)
