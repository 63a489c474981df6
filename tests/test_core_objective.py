"""Unit tests for repro.core.objective (Eq. 10 and the O(1) tracker)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusterState,
    Guest,
    Host,
    PhysicalCluster,
    ResidualCpuTracker,
    VirtualEnvironment,
    balance_lower_bound,
    load_balance_factor,
    objective_of_assignment,
    residual_proc,
)
from repro.errors import ModelError, UnknownNodeError


def cluster_caps(*caps: float) -> PhysicalCluster:
    return PhysicalCluster.from_parts(
        Host(i, proc=c, mem=10_000, stor=10_000.0) for i, c in enumerate(caps)
    )


class TestDirectEvaluation:
    def test_load_balance_factor_is_population_std(self):
        values = [3.0, 1.0, 2.0]
        assert load_balance_factor(values) == pytest.approx(float(np.std(values)))

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            load_balance_factor([])

    def test_residual_proc_order_and_values(self):
        c = cluster_caps(3000.0, 1000.0)
        v = VirtualEnvironment.from_parts(
            [Guest(0, vproc=500.0, vmem=1, vstor=1.0), Guest(1, vproc=250.0, vmem=1, vstor=1.0)]
        )
        res = residual_proc(c, v, {0: 0, 1: 1})
        assert res.tolist() == [2500.0, 750.0]

    def test_residual_proc_partial_assignment(self):
        c = cluster_caps(3000.0, 1000.0)
        v = VirtualEnvironment.from_parts([Guest(0, vproc=500.0, vmem=1, vstor=1.0)])
        res = residual_proc(c, v, {})
        assert res.tolist() == [3000.0, 1000.0]

    def test_residual_proc_unknown_host(self):
        c = cluster_caps(3000.0)
        v = VirtualEnvironment.from_parts([Guest(0, vproc=1.0, vmem=1, vstor=1.0)])
        with pytest.raises(UnknownNodeError):
            residual_proc(c, v, {0: 42})

    def test_objective_of_assignment(self):
        c = cluster_caps(2000.0, 2000.0)
        v = VirtualEnvironment.from_parts([Guest(0, vproc=1000.0, vmem=1, vstor=1.0)])
        # residuals (1000, 2000) -> std 500
        assert objective_of_assignment(c, v, {0: 0}) == pytest.approx(500.0)


class TestTracker:
    def test_matches_numpy_after_random_trace(self, rng):
        caps = {i: float(c) for i, c in enumerate(rng.uniform(500, 3000, size=12))}
        tracker = ResidualCpuTracker(caps)
        shadow = dict(caps)
        for _ in range(300):
            host = int(rng.integers(12))
            delta = float(rng.uniform(-80, 120))
            tracker.apply_demand(host, delta)
            shadow[host] -= delta
            assert tracker.std() == pytest.approx(float(np.std(list(shadow.values()))), rel=1e-9)
            assert tracker.mean() == pytest.approx(float(np.mean(list(shadow.values()))), rel=1e-9)

    def test_std_if_moved_matches_real_move(self, rng):
        caps = {i: float(c) for i, c in enumerate(rng.uniform(500, 3000, size=8))}
        tracker = ResidualCpuTracker(caps)
        for _ in range(50):
            src, dst = rng.choice(8, size=2, replace=False)
            vproc = float(rng.uniform(10, 300))
            predicted = tracker.std_if_moved(int(src), int(dst), vproc)
            probe = tracker.copy()
            probe.release_demand(int(src), vproc)
            probe.apply_demand(int(dst), vproc)
            assert predicted == pytest.approx(probe.std(), rel=1e-9)

    def test_std_if_moved_same_host_is_identity(self):
        tracker = ResidualCpuTracker({0: 100.0, 1: 200.0})
        assert tracker.std_if_moved(0, 0, 50.0) == pytest.approx(tracker.std())

    def test_release_inverts_apply(self):
        tracker = ResidualCpuTracker({0: 100.0, 1: 200.0})
        before = tracker.std()
        tracker.apply_demand(0, 42.0)
        tracker.release_demand(0, 42.0)
        assert tracker.std() == pytest.approx(before)

    def test_host_orderings(self):
        tracker = ResidualCpuTracker({0: 300.0, 1: 100.0, 2: 200.0})
        assert tracker.hosts_by_load_descending() == [1, 2, 0]
        assert tracker.hosts_by_residual_descending() == [0, 2, 1]

    def test_tie_break_is_deterministic(self):
        tracker = ResidualCpuTracker({5: 100.0, 3: 100.0})
        assert tracker.hosts_by_load_descending() == [3, 5]  # "3" < "5" stringwise

    def test_from_cluster(self, line3):
        tracker = ResidualCpuTracker.from_cluster(line3)
        assert tracker.residuals() == {0: 3000.0, 1: 2000.0, 2: 1000.0}

    def test_unknown_host_raises(self):
        tracker = ResidualCpuTracker({0: 1.0})
        with pytest.raises(UnknownNodeError):
            tracker.residual(9)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            ResidualCpuTracker({})

    def test_negative_residuals_supported(self):
        tracker = ResidualCpuTracker({0: 100.0})
        tracker.apply_demand(0, 500.0)
        assert tracker.residual(0) == -400.0
        assert tracker.std() == 0.0  # single host: no spread


def fsum_passes(values) -> tuple[str, str, str]:
    """The three ``math.fsum`` passes Eq. 10 is defined by, as bit
    patterns: running sum, running sum of squares, variance."""
    values = list(values)
    total = math.fsum(values)
    mean = total / len(values)
    var = max(math.fsum((v - mean) ** 2 for v in values) / len(values), 0.0)
    return total.hex(), math.fsum(v * v for v in values).hex(), var.hex()


def tracker_bits(tracker: ResidualCpuTracker) -> tuple[str, str, str]:
    var = tracker.exact_variance()
    return tracker.running_sum.hex(), tracker.running_sumsq.hex(), var.hex()


#: Residual values with ties, both zeros, a subnormal and magnitudes far
#: apart, so expansions need several floats and means land anywhere.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1000.0, 2933.7, -417.25, 1e-9, 3e15]),
    st.floats(-5000.0, 5000.0, allow_nan=False),
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["move", "apply", "write", "inf", "copy", "restore"]),
        st.integers(0, 63),
        st.integers(0, 63),
        VALUES,
        st.booleans(),  # read after this operation
    ),
    max_size=60,
)


class TestExactSums:
    """``exact_variance`` keeps its sums between reads; every read must
    give the bits of the three ``math.fsum`` passes."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(VALUES, min_size=1, max_size=24), OPS)
    def test_tracker_matches_fsum_passes(self, initial, ops):
        n = len(initial)
        tracker = ResidualCpuTracker(dict(enumerate(initial)))
        snapshot = tracker.copy()
        for op, a, b, value, read in ops:
            a, b = a % n, b % n
            if op == "move":  # a move keeps the sum; rounding may not
                tracker.apply_demand(a, abs(value))
                tracker.release_demand(b, abs(value))
            elif op == "apply":  # a placement moves the rounded mean
                tracker.apply_demand(a, value)
            elif op == "write":  # a writer that bypasses the tracker
                tracker._residual[a] = value
            elif op == "inf":
                tracker._residual[a] = math.inf
            elif op == "copy":
                tracker, snapshot = tracker.copy(), tracker
            elif op == "restore":
                tracker.restore_from(snapshot)
            if read:
                assert tracker_bits(tracker) == fsum_passes(tracker._residual)
        assert tracker_bits(tracker) == fsum_passes(tracker._residual)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(100.0, 4000.0), min_size=2, max_size=12),
        st.lists(
            st.tuples(
                st.sampled_from(["place", "unplace", "write", "copy", "restore"]),
                st.integers(0, 11),
                st.floats(0.0, 900.0),
                st.booleans(),  # read after this operation
            ),
            max_size=40,
        ),
    )
    def test_cluster_state_objective_matches_fsum_passes(self, caps, ops):
        """Through :class:`ClusterState`: placements, snapshots,
        restores, and writes through the shared ``ArrayState`` array."""
        cluster = cluster_caps(*caps)
        state = ClusterState(cluster)
        snap = state.copy()
        next_id = 0
        for op, i, value, read in ops:
            host = cluster.host_ids[i % len(caps)]
            if op == "place":
                state.place(Guest(next_id, vproc=value, vmem=1, vstor=1.0), host)
                next_id += 1
            elif op == "unplace" and state.assignments:
                state.unplace(min(state.assignments))
            elif op == "write":
                state.arrays.cpu[i % len(caps)] = value
            elif op == "copy":
                snap = state.copy()
            elif op == "restore":
                state.restore_from(snap)
            if read:
                assert tracker_bits(state.cpu) == fsum_passes(state.arrays.cpu)
        assert tracker_bits(state.cpu) == fsum_passes(state.arrays.cpu)


class TestBalanceLowerBound:
    def test_zero_demand_is_capacity_std(self):
        c = cluster_caps(3000.0, 2000.0, 1000.0)
        assert balance_lower_bound(c, 0.0) == pytest.approx(float(np.std([3000, 2000, 1000])))

    def test_waterfill_partial(self):
        c = cluster_caps(3000.0, 2000.0, 1000.0)
        # demand 1000 shaves the top host to 2000 -> residuals (2000, 2000, 1000)
        assert balance_lower_bound(c, 1000.0) == pytest.approx(float(np.std([2000, 2000, 1000])))

    def test_waterfill_to_flat(self):
        c = cluster_caps(3000.0, 2000.0, 1000.0)
        assert balance_lower_bound(c, 3000.0) == pytest.approx(0.0)

    def test_overdemand_stays_zero(self):
        c = cluster_caps(3000.0, 1000.0)
        assert balance_lower_bound(c, 99_999.0) == pytest.approx(0.0)

    def test_bound_is_a_true_lower_bound(self, rng):
        caps = rng.uniform(1000, 3000, size=10)
        c = cluster_caps(*caps)
        guests = [Guest(i, vproc=float(rng.uniform(20, 200)), vmem=1, vstor=1.0) for i in range(40)]
        v = VirtualEnvironment.from_parts(guests)
        assignment = {i: int(rng.integers(10)) for i in range(40)}
        achieved = objective_of_assignment(c, v, assignment)
        bound = balance_lower_bound(c, v.total_vproc())
        assert bound <= achieved + 1e-9

    def test_negative_demand_rejected(self):
        with pytest.raises(ModelError):
            balance_lower_bound(cluster_caps(1.0), -1.0)
