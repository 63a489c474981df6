"""What a :class:`PodState` keeps between decisions, against a recompute.

The pod stages keep the residual-descending host order and each guest's
intra-host bandwidth from one decision to the next instead of
recomputing them (the exact Eq. 10 sums are tested with the tracker in
``test_core_objective.py``).  Each test compares what is kept with the
value recomputed from scratch: the order with a stable sort on
``(-residual, str(id))``, the origin and destination picks with the
orders the list-walking oracle sorts by, and every memoized bandwidth
with ``_intra_bw``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterState, Guest, Host, PhysicalCluster, VirtualEnvironment
from repro.hmn import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.shard import vectorized as vec
from repro.shard.vectorized import PodState, pod_hosting, pod_migration
from repro.topology import torus_cluster
from repro.workload import LOW_LEVEL, generate_virtual_environment

ORIGINS = ("loaded_min_residual", "strict_min_residual", "max_usage")

#: Host ids whose string order differs from their numeric order, and two
#: (1 and "1") whose strings tie, so position breaks the tie.
HOST_IDS = (0, 1, 2, 3, 9, 10, 11, 20, 100, "1", "10", "b", ("x", 2))
#: Residuals and demands with ties and both zeros.
RESIDUALS = (0.0, -0.0, 100.0, 250.5, 1000.0, -50.0)
DEMANDS = (0.0, 50.0, 100.0, 150.5, 250.5)


def stable_sorted(pod: PodState, key) -> list[int]:
    """``np.lexsort`` on ``(key, str(id))``: stable, so position breaks
    the remaining ties."""
    strs = np.array([str(h) for h in pod.ids])
    return np.lexsort((strs, key)).tolist()


def oracle_origins(pod: PodState, origin: str) -> list[int]:
    """The origin order sorted in full, as the oracle's ``origin_hosts``
    sorts it."""
    if origin == "max_usage":
        usage = pod.cap - pod.res
        return [i for i in stable_sorted(pod, -usage) if usage[i] > 0]
    ordered = stable_sorted(pod, pod.res)
    if origin == "strict_min_residual":
        return ordered
    return [i for i in ordered if pod.occupied[i] or pod.guests_on(i)]


@st.composite
def pods(draw):
    """A pod built directly (any residual, ``-0.0`` included) or from a
    state with this venv's and another tenant's guests already placed;
    and the venv whose guests the operations move."""
    ids = draw(st.lists(st.sampled_from(HOST_IDS), min_size=1, max_size=8, unique=True))
    n = len(ids)
    guests = [
        Guest(g, vproc=draw(st.sampled_from(DEMANDS)), vmem=1, vstor=1.0)
        for g in range(draw(st.integers(1, 12)))
    ]
    venv = VirtualEnvironment.from_parts(guests)
    if draw(st.booleans()):
        res = draw(st.lists(st.sampled_from(RESIDUALS), min_size=n, max_size=n))
        pod = PodState(
            ids, [10_000.0] * n, [10_000.0] * n, res, [1000.0] * n,
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        )
        return pod, venv
    cluster = PhysicalCluster.from_parts(
        Host(h, proc=draw(st.sampled_from((100.0, 250.5, 1000.0))), mem=10_000, stor=10_000.0)
        for h in ids
    )
    state = ClusterState(cluster)
    for guest in guests + [Guest(1000 + i, vproc=100.0, vmem=1, vstor=1.0) for i in range(3)]:
        if draw(st.booleans()):
            state.place(guest, draw(st.sampled_from(ids)))
    if draw(st.booleans()):
        state.block_host(draw(st.sampled_from(ids)))
    order = draw(st.permutations(ids))
    return PodState.from_state(state, order, venv), venv


OPS = st.lists(
    st.tuples(
        st.sampled_from(["place", "unplace", "move"]),
        st.integers(0, 11),  # guest
        st.integers(0, 7),  # host position
        st.booleans(),  # read the orders after this operation
    ),
    max_size=40,
)


def check_orders(pod: PodState, mask: list[bool]) -> None:
    desc = stable_sorted(pod, -pod.res)
    assert pod.order_residual_desc() == desc
    assert [pod.order_index(p) for p in desc] == list(range(pod.n_hosts))
    for origin in ORIGINS:
        config = HMNConfig(migration_origin=origin)
        assert list(vec._origin_positions(pod, config)) == oracle_origins(pod, origin)
    admitted = np.array([mask[i % len(mask)] for i in range(pod.n_hosts)])
    first = next((p for p in desc if admitted[p]), None)
    assert vec._first(pod, -pod.res, admitted) == first


class TestKeptOrders:
    @settings(max_examples=200, deadline=None)
    @given(pods(), OPS, st.lists(st.booleans(), min_size=1, max_size=8))
    def test_orders_match_stable_sort(self, pod_venv, ops, mask):
        pod, venv = pod_venv
        n = pod.n_hosts
        for op, g, pos, read in ops:
            if g not in venv:
                continue
            guest, pos = venv.guest(g), pos % n
            placed = g in pod.placed
            if op == "place" and not placed and not pod.blocked[pos]:
                pod.place(guest, pos)
            elif op == "unplace" and placed:
                pod.unplace(guest)
            elif op == "move" and placed and not pod.blocked[pos]:
                pod.move(guest, pos)
            if read:
                check_orders(pod, mask)
        check_orders(pod, mask)

    def test_residual_ties_break_on_str_then_position(self):
        pod = PodState(
            [10, 9, "1", 1, 2], [1.0] * 5, [1.0] * 5, [5.0, 5.0, 5.0, 5.0, -0.0],
            [5.0] * 5, [False] * 5, [False] * 5,
        )
        # "1" < "10" < "9"; the two "1" hosts keep their positions.
        assert pod.order_residual_desc() == [2, 3, 0, 1, 4]
        pod.place(Guest(0, vproc=0.0, vmem=0, vstor=0.0), 4)
        pod.place(Guest(1, vproc=5.0, vmem=0, vstor=0.0), 2)
        assert pod.res[2] == 0.0 and pod.res[4] == 0.0
        assert pod.order_residual_desc() == [3, 0, 1, 2, 4]


def _venvs():
    for seed in range(6):
        yield torus_cluster(4, 5, seed=seed), generate_virtual_environment(
            60, workload=LOW_LEVEL, seed=seed
        )


class TestIntraBandwidthMemo:
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_memo_equals_recompute_after_every_move(self, monkeypatch, exhaustive):
        """Every pick (each one follows the previous accepted move) and
        the stage's end see a memo that equals ``_intra_bw``
        recomputed."""
        real_pick = vec._pick_guest
        memos: list[dict] = []

        def checked_pick(pod, venv, pos, config, intra_bw):
            assert intra_bw == {g: vec._intra_bw(pod, venv, g) for g in intra_bw}
            if not memos or memos[-1] is not intra_bw:
                memos.append(intra_bw)
            return real_pick(pod, venv, pos, config, intra_bw)

        monkeypatch.setattr(vec, "_pick_guest", checked_pick)
        config = HMNConfig(migration_exhaustive=exhaustive)
        moved = 0
        for cluster, venv in _venvs():
            pod = PodState.from_state(ClusterState(cluster), cluster.host_ids)
            pod_hosting(pod, venv, ordered_vlinks(venv, config), list(venv.guest_ids), config)
            stats = pod_migration(pod, venv, config)
            moved += stats["migrations"]
            memo = memos[-1]
            assert memo and memo == {g: vec._intra_bw(pod, venv, g) for g in memo}
        assert moved > 0
