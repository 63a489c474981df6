"""Differential property test: incremental state vs from-scratch recompute.

``ClusterState`` maintains residuals and the Eq. 10 objective
incrementally (O(1) per placement) for the pipeline's hot loops, and
the batch harness trusts those numbers in every reported record.  This
test drives a state through arbitrary sequences of place / migrate /
unplace operations (plus bandwidth reserve/release for the residual-bw
table) and then demands that everything the state reports matches an
independent from-scratch recomputation:

* ``state.objective()`` within **1e-12 relative** of a two-pass
  ``math.fsum`` evaluation of Eq. 10 over the final assignment (the
  exactness contract introduced for the brute-force comparison);
* per-host residual CPU/storage within 1e-12 relative (1e-9 absolute —
  residuals legitimately cross zero, CPU is a soft constraint);
* per-host residual memory exactly (integers);
* per-edge residual bandwidth within the same float tolerance, and the
  residual-bandwidth array bit-equal to a model array after every op.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterState, Guest, Host, PhysicalCluster
from repro.core.link import edge_key

pytestmark = pytest.mark.slow

REL = 1e-12
ABS = 1e-9


def build_cluster(host_specs) -> PhysicalCluster:
    c = PhysicalCluster()
    for i, (proc, mem, stor) in enumerate(host_specs):
        c.add_host(Host(i, proc=proc, mem=mem, stor=stor))
    # Ring wiring so reserve/release ops always have edges to act on.
    n = len(host_specs)
    if n > 1:
        for i in range(n):
            j = (i + 1) % n
            if not c.has_link(i, j):
                c.connect(i, j, bw=1000.0, lat=5.0)
    return c


def exact_objective(cluster, guests, assignment) -> float:
    """Eq. 10 via two-pass math.fsum, no incremental aggregates."""
    load = {h.id: 0.0 for h in cluster.hosts()}
    for gid, hid in assignment.items():
        load[hid] += guests[gid].vproc
    residuals = [h.proc - load[h.id] for h in cluster.hosts()]
    mean = math.fsum(residuals) / len(residuals)
    var = math.fsum((r - mean) ** 2 for r in residuals) / len(residuals)
    return math.sqrt(max(var, 0.0))


hosts_strategy = st.lists(
    st.tuples(
        st.floats(min_value=100.0, max_value=5000.0),
        st.integers(min_value=256, max_value=8192),
        st.floats(min_value=100.0, max_value=5000.0),
    ),
    min_size=2,
    max_size=6,
)

guests_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=900.0),
        st.integers(min_value=1, max_value=1024),
        st.floats(min_value=0.1, max_value=500.0),
    ),
    min_size=1,
    max_size=10,
)

# Abstract op stream; indices are taken modulo the live guest/host
# counts, invalid ops (double place, unplace of unplaced, capacity
# overflow) are skipped — the *sequencing* is what hypothesis explores.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["place", "move", "unplace", "reserve", "release"]),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=99),
        st.floats(min_value=0.0, max_value=400.0),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(hosts=hosts_strategy, guest_specs=guests_strategy, ops=ops_strategy)
def test_incremental_matches_recompute(hosts, guest_specs, ops):
    cluster = build_cluster(hosts)
    guests = {
        i: Guest(i, vproc=vp, vmem=vm, vstor=vs)
        for i, (vp, vm, vs) in enumerate(guest_specs)
    }
    n_hosts = cluster.n_hosts
    state = ClusterState(cluster)

    assignment: dict[int, int] = {}  # model, maintained independently
    bw_used: dict[tuple, float] = {}  # edge -> reserved bandwidth
    bw_model = state.bw_array[:]  # the residual array, op by op

    for verb, a, b, amount in ops:
        gid = a % len(guests)
        hid = b % n_hosts
        if verb == "place" and gid not in assignment:
            if state.fits(guests[gid], hid):
                state.place(guests[gid], hid)
                assignment[gid] = hid
        elif verb == "move" and gid in assignment:
            try:
                state.move(gid, hid)
            except Exception:
                assert state.host_of(gid) == assignment[gid]  # atomic failure
            else:
                assignment[gid] = hid
        elif verb == "unplace" and gid in assignment:
            assert state.unplace(gid) == assignment.pop(gid)
        elif verb in ("reserve", "release"):
            u, v = hid, (hid + 1) % n_hosts
            if u == v:
                continue
            edge = (u, v) if u <= v else (v, u)
            e = state.topology.edge_index[edge_key(u, v)]
            path = [u, v]
            if verb == "reserve":
                if state.can_reserve(path, amount):
                    state.reserve_path(path, amount)
                    bw_used[edge] = bw_used.get(edge, 0.0) + amount
                    bw_model[e] -= amount
            else:
                give_back = min(amount, bw_used.get(edge, 0.0))
                if give_back > 0.0:
                    state.release_path(path, give_back)
                    bw_used[edge] = bw_used[edge] - give_back
                    bw_model[e] += give_back
        # Only reservations and releases move bandwidth, by exactly
        # their amount on exactly their edge.
        assert state.bw_array == bw_model

    # --- objective: exact to 1e-12 relative -------------------------------
    want = exact_objective(cluster, guests, assignment)
    got = state.objective()
    assert math.isclose(got, want, rel_tol=REL, abs_tol=ABS)

    # --- per-host residuals ----------------------------------------------
    for host in cluster.hosts():
        placed = [guests[g] for g, h in assignment.items() if h == host.id]
        assert state.residual_mem(host.id) == host.mem - sum(g.vmem for g in placed)
        assert math.isclose(
            state.residual_proc(host.id),
            host.proc - math.fsum(g.vproc for g in placed),
            rel_tol=REL, abs_tol=ABS,
        )
        assert math.isclose(
            state.residual_stor(host.id),
            host.stor - math.fsum(g.vstor for g in placed),
            rel_tol=REL, abs_tol=ABS,
        )

    # --- residual bandwidth ----------------------------------------------
    for (u, v), used in bw_used.items():
        assert math.isclose(
            state.residual_bw(u, v),
            cluster.link(u, v).bw - used,
            rel_tol=REL, abs_tol=ABS,
        )

    # --- replaying the final assignment reproduces the state --------------
    replay = ClusterState(cluster)
    for gid, hid in assignment.items():
        replay.place(guests[gid], hid)
    assert math.isclose(replay.objective(), got, rel_tol=REL, abs_tol=ABS)


@settings(max_examples=30, deadline=None)
@given(hosts=hosts_strategy, guest_specs=guests_strategy, ops=ops_strategy)
def test_unwinding_all_ops_restores_virgin_objective(hosts, guest_specs, ops):
    """Placing then unplacing everything returns the exact empty objective."""
    cluster = build_cluster(hosts)
    guests = {
        i: Guest(i, vproc=vp, vmem=vm, vstor=vs)
        for i, (vp, vm, vs) in enumerate(guest_specs)
    }
    state = ClusterState(cluster)
    virgin = state.objective()
    placed = []
    for verb, a, b, _ in ops:
        gid = a % len(guests)
        hid = b % cluster.n_hosts
        if verb == "place" and gid not in placed and state.fits(guests[gid], hid):
            state.place(guests[gid], hid)
            placed.append(gid)
    for gid in placed:
        state.unplace(gid)
    # objective() recomputes from the residual values, and unplace
    # restores residuals additively — so the round trip is exact only if
    # both halves are; this is the drift regression the exact.py brute-
    # force comparison first exposed.
    assert math.isclose(state.objective(), virgin, rel_tol=REL, abs_tol=ABS)
