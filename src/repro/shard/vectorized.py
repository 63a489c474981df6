"""Hosting and Migration over flat arrays: the production stages.

Every map runs Hosting (Section 4.1) and Migration (Section 4.2)
through this module.  A monolithic map is one pod that spans the whole
cluster: :func:`repro.hmn.hosting.run_hosting` and
:func:`repro.hmn.migration.run_migration` gather it with
:meth:`PodState.from_state`, run the stage, and replay its decisions
onto the :class:`~repro.core.state.ClusterState`.  The sharded mapper
(:mod:`repro.shard.mapper`) runs one pod per partition cell.

A :class:`PodState` holds the pod's residual capacities in flat
``array('d')`` buffers with numpy views over the same memory.  A
decision changes one or two residuals, so nothing is recomputed from
scratch between decisions:

* the residual-descending host order is a Python list kept sorted by
  ``(-residual, rank of str(id))``; a position whose residual changed
  is filed again by bisection when the order is next read, and the
  Hosting first-fit scans walk it from the head;
* Migration picks its origin and its destination with a masked
  minimum over ``(residual, rank)`` instead of sorting every host, and
  scores every candidate destination in one vectorized pass;
* the exact Eq. 10 value is kept by the tracker
  (:meth:`~repro.core.objective.ResidualCpuTracker.exact_variance`),
  and the intra-host bandwidth of each guest is memoized for the
  stage and recomputed only for a moved guest and its peers.

It also holds what a shared state adds: each host's CPU capacity, and
whether the host carries guests this mapping may not move (other
tenants').  Both migration-origin rules read them.

**Decision equivalence with the oracle is the contract.**  The
list-walking stages in :mod:`repro.conformance.stages` state the
paper's rules host by host; these stages must pick exactly the same
placements and moves, on empty and pre-loaded states alike
(``tests/test_shard_equivalence.py`` and the fuzzer's ``stage`` arm
check it).  That is why every comparison below reproduces the
reference formulas verbatim (same float operations in the same order:
the Migration candidate evaluation replays
:meth:`~repro.core.objective.ResidualCpuTracker.std_if_moved`
elementwise, including its cancellation guard), and why ties break on
the rank of ``str(host_id)`` and then on position: the total order of
:meth:`~repro.core.objective.ResidualCpuTracker.hosts_by_residual_descending`,
whose sort is stable.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from itertools import islice
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.guest import Guest
from repro.core.objective import ResidualCpuTracker
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.errors import CapacityError, ModelError, PlacementError
from repro.hmn.config import HMNConfig
from repro.seeding import rng_from

__all__ = ["PodState", "pod_hosting", "pod_migration"]

NodeId = Hashable

# A move must beat the current objective by more than float noise to
# count as an improvement, or adversarial ties could cycle forever.
# The tracker's running-sum-of-squares form cancels to ~1e-6 absolute
# error at Table 1 magnitudes (thousands of MIPS squared), so the
# epsilon sits above that floor; real improvements are >= 1e-2 MIPS.
_IMPROVEMENT_EPS = 1e-5


def _doubles(values: Iterable[float]) -> array:
    """A fresh ``array('d')`` of *values*; numpy views share its memory."""
    return array("d", np.fromiter(values, dtype=np.float64).tobytes())


class PodState:
    """Residual capacities of one pod's hosts, numpy-indexable.

    Positions (0..n-1) follow the order *host_ids* was given in.
    ``mem``, ``stor`` and ``res`` are numpy views over ``array('d')``
    buffers, so scalar reads and writes stay cheap and vectorized scans
    read the same memory; the CPU buffer is the one the
    :class:`ResidualCpuTracker` wraps.  ``cap`` is each host's CPU
    capacity and ``occupied`` whether it holds guests that are not this
    pod's to move; neither changes while a stage runs.  ``loaded`` is
    whether the host holds any guest, this pod's or another tenant's.
    ``rank`` is each position's place in the stable order of
    ``str(host_id)``, the tie-break of every host order.
    """

    __slots__ = (
        "ids", "index", "rank", "mem", "stor", "res", "cap", "blocked",
        "occupied", "loaded", "tracker", "placed", "_guests_on",
        "_mem", "_stor", "_res", "_blocked", "_rank", "_desc", "_key", "_stale",
    )

    def __init__(
        self,
        host_ids: Sequence[NodeId],
        mem: Iterable[float],
        stor: Iterable[float],
        proc: Iterable[float],
        cap: Iterable[float],
        blocked: Iterable[bool],
        occupied: Iterable[bool],
    ) -> None:
        if not host_ids:
            raise ModelError("a pod needs at least one host")
        self.ids: tuple[NodeId, ...] = tuple(host_ids)
        n = len(self.ids)
        self.index = {h: i for i, h in enumerate(self.ids)}
        strs = [str(h) for h in self.ids]
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[sorted(range(n), key=strs.__getitem__)] = np.arange(n)
        self._rank: list[int] = self.rank.tolist()
        self._mem = _doubles(mem)
        self._stor = _doubles(stor)
        self._res = _doubles(proc)
        self.mem = np.frombuffer(self._mem, dtype=np.float64)
        self.stor = np.frombuffer(self._stor, dtype=np.float64)
        self.res = np.frombuffer(self._res, dtype=np.float64)
        self.cap = np.array(list(cap), dtype=np.float64)
        self.tracker = ResidualCpuTracker.wrapping(
            self.ids,
            self.index,
            self._res,
            math.fsum(self._res),
            math.fsum(v * v for v in self._res),
        )
        self.blocked = np.array(list(blocked), dtype=bool)
        self._blocked: list[bool] = self.blocked.tolist()
        self.occupied = np.array(list(occupied), dtype=bool)
        sizes = (self.mem, self.stor, self.res, self.cap, self.blocked, self.occupied)
        if any(len(a) != n for a in sizes):
            raise ModelError("PodState arrays must all match the host count")
        self.loaded = self.occupied.copy()
        self.placed: dict[int, int] = {}
        self._guests_on: dict[int, set[int]] = {}
        # The residual-descending order, built on first read: positions
        # sorted by the key each one is filed under in ``_key``.
        self._desc: list[int] | None = None
        self._key: list[tuple[float, int]] = []
        self._stale: set[int] = set()

    @classmethod
    def from_state(
        cls,
        state: ClusterState,
        host_ids: Sequence[NodeId],
        venv: VirtualEnvironment | None = None,
    ) -> "PodState":
        """Gather a pod view from the live (possibly multi-tenant) state.

        Guests of *venv* already on the state become this pod's own
        placements, taken as they stand (their demand is already in the
        residuals).  Every other guest marks its host ``occupied``.
        """
        on = [state.guests_on(h) for h in host_ids]
        own = [{g for g in guests if venv is not None and g in venv} for guests in on]
        pod = cls(
            host_ids,
            (state.residual_mem(h) for h in host_ids),
            (state.residual_stor(h) for h in host_ids),
            (state.cpu.residual(h) for h in host_ids),
            (state.cluster.host(h).proc for h in host_ids),
            (state.is_blocked(h) for h in host_ids),
            (len(mine) < len(guests) for mine, guests in zip(own, on)),
        )
        for pos, mine in enumerate(own):
            if mine:
                pod._guests_on[pos] = mine
                pod.loaded[pos] = True
                pod.placed.update((g, pos) for g in sorted(mine))
        return pod

    @property
    def n_hosts(self) -> int:
        return len(self.ids)

    # ------------------------------------------------------------------
    # the residual-descending order, kept between decisions
    # ------------------------------------------------------------------
    def order_residual_desc(self) -> list[int]:
        """Positions sorted like ``hosts_by_residual_descending()``:
        residual CPU descending, ties on ``str(id)`` ascending, then on
        position.

        The list is kept between calls and returned as is (callers must
        not change it): each position whose residual changed since the
        last call is taken out and filed again by bisection.
        """
        key = self._key
        if self._desc is None:
            key[:] = zip([-v for v in self._res], self._rank)
            self._desc = sorted(range(self.n_hosts), key=key.__getitem__)
        else:
            desc, res, rank = self._desc, self._res, self._rank
            for pos in self._stale:
                new = (-res[pos], rank[pos])
                if new != key[pos]:
                    del desc[bisect_left(desc, key[pos], key=key.__getitem__)]
                    key[pos] = new
                    insort(desc, pos, key=key.__getitem__)
        self._stale.clear()
        return self._desc

    def order_index(self, pos: int) -> int:
        """Where *pos* stands in :meth:`order_residual_desc`."""
        order = self.order_residual_desc()
        return bisect_left(order, self._key[pos], key=self._key.__getitem__)

    def first_fitting(self, guest: Guest, order: Iterable[int]) -> int | None:
        """First position in *order* where *guest* fits (mem+stor, not
        blocked) — the ``state.fits`` scan."""
        vmem, vstor = guest.vmem, guest.vstor
        mem, stor, blocked = self._mem, self._stor, self._blocked
        for pos in order:
            if mem[pos] >= vmem and stor[pos] >= vstor and not blocked[pos]:
                return pos
        return None

    # ------------------------------------------------------------------
    # mutation (mirrors ClusterState.place/unplace/move)
    # ------------------------------------------------------------------
    def place(self, guest: Guest, pos: int) -> None:
        if guest.id in self.placed:
            raise ModelError(f"guest {guest.id!r} is already placed in this pod")
        if self._blocked[pos]:
            raise CapacityError(
                f"guest {guest.id!r} cannot be placed on blocked host {self.ids[pos]!r}"
            )
        if self._mem[pos] < guest.vmem or self._stor[pos] < guest.vstor:
            raise CapacityError(
                f"guest {guest.id!r} does not fit on host {self.ids[pos]!r}"
            )
        self._mem[pos] -= guest.vmem
        self._stor[pos] -= guest.vstor
        self.tracker.apply_demand(self.ids[pos], guest.vproc)
        self.placed[guest.id] = pos
        self._guests_on.setdefault(pos, set()).add(guest.id)
        self.loaded[pos] = True
        self._stale.add(pos)

    def unplace(self, guest: Guest) -> int:
        pos = self.placed.pop(guest.id)
        self._mem[pos] += guest.vmem
        self._stor[pos] += guest.vstor
        self.tracker.release_demand(self.ids[pos], guest.vproc)
        guests = self._guests_on[pos]
        guests.discard(guest.id)
        if not guests and not self.occupied[pos]:
            self.loaded[pos] = False
        self._stale.add(pos)
        return pos

    def move(self, guest: Guest, dst: int) -> None:
        src = self.placed[guest.id]
        if src == dst:
            return
        if (
            self._blocked[dst]
            or self._mem[dst] < guest.vmem
            or self._stor[dst] < guest.vstor
        ):
            raise CapacityError(
                f"guest {guest.id!r} does not fit on host {self.ids[dst]!r}"
            )
        self.unplace(guest)
        self.place(guest, dst)

    def guests_on(self, pos: int) -> set[int]:
        return self._guests_on.get(pos, set())

    def assignment(self) -> dict[int, NodeId]:
        """guest id -> host id for everything placed in this pod."""
        return {g: self.ids[pos] for g, pos in self.placed.items()}


# ----------------------------------------------------------------------
# Hosting (Section 4.1, vectorized)
# ----------------------------------------------------------------------
def pod_hosting(
    pod: PodState,
    venv: VirtualEnvironment,
    links: Sequence,
    guest_ids: Sequence[int],
    config: HMNConfig,
    *,
    failures: list[int] | None = None,
) -> dict:
    """Run the Hosting stage inside one pod.

    The rule and its interpretation notes (split-placement wrap-around,
    isolated guests) are in :mod:`repro.hmn.hosting`.  *links* are the
    pod-internal virtual links, already in the configured processing
    order; *guest_ids* are all guests assigned to this pod (guests
    untouched by *links* — including guests whose only links cross
    pods — take the isolated-guest path).

    Raises :class:`PlacementError` when the pod cannot take a guest —
    unless *failures* is given, in which case unplaceable guest ids are
    collected there and the stage keeps going, so the sharded mapper
    can retry them in other pods (overflow rescue) before giving up.
    """
    pairs_colocated = 0
    placements = 0

    def unplaceable(guest_id: int) -> None:
        if failures is None:
            raise PlacementError(
                guest_id, "Hosting stage: no host has enough memory/storage"
            )
        failures.append(guest_id)

    for link in links:
        a_placed = link.a in pod.placed
        b_placed = link.b in pod.placed
        if a_placed and b_placed:
            continue

        order = pod.order_residual_desc()
        if not a_placed and not b_placed:
            ga = venv.guest(link.a)
            gb = venv.guest(link.b)
            head = order[0]
            # fits_together: joint mem+stor on the current CPU head
            # (reference quirk: blocked is *not* consulted here).
            if (
                pod._mem[head] >= ga.vmem + gb.vmem
                and pod._stor[head] >= ga.vstor + gb.vstor
            ):
                pod.place(ga, head)
                pod.place(gb, head)
                pairs_colocated += 1
                placements += 2
                continue
            heavy, light = (ga, gb) if ga.vproc >= gb.vproc else (gb, ga)
            heavy_pos = pod.first_fitting(heavy, order)
            if heavy_pos is None:
                unplaceable(heavy.id)
                # Rescue mode: the pair is broken anyway, so the light
                # guest just takes the plain first-fit path.
                light_pos = pod.first_fitting(light, order)
                if light_pos is None:
                    unplaceable(light.id)
                else:
                    pod.place(light, light_pos)
                    placements += 1
                continue
            pod.place(heavy, heavy_pos)
            placements += 1
            # Second guest: continue down the re-sorted order from just
            # after the first guest's host, wrapping to the untried
            # hosts before it.
            idx = pod.order_index(heavy_pos)
            order = pod.order_residual_desc()
            light_pos = pod.first_fitting(light, order[idx + 1 :] + order[:idx])
            if light_pos is None:
                unplaceable(light.id)
                continue
            pod.place(light, light_pos)
            placements += 1
        else:
            placed_id, unplaced_id = (link.a, link.b) if a_placed else (link.b, link.a)
            guest = venv.guest(unplaced_id)
            peer_pos = pod.placed[placed_id]
            if (
                not pod._blocked[peer_pos]
                and pod._mem[peer_pos] >= guest.vmem
                and pod._stor[peer_pos] >= guest.vstor
            ):
                pod.place(guest, peer_pos)
            else:
                pos = pod.first_fitting(guest, order)
                if pos is None:
                    unplaceable(guest.id)
                    continue
                pod.place(guest, pos)
            placements += 1

    # Guests no link placed, heaviest first, on the most CPU-available
    # fitting host.
    isolated = 0
    leftovers = [venv.guest(g) for g in guest_ids if g not in pod.placed]
    leftovers.sort(key=lambda g: (-g.vproc, g.id))
    for guest in leftovers:
        pos = pod.first_fitting(guest, pod.order_residual_desc())
        if pos is None:
            unplaceable(guest.id)
            continue
        pod.place(guest, pos)
        isolated += 1
        placements += 1

    return {
        "placements": placements,
        "pairs_colocated": pairs_colocated,
        "isolated_guests": isolated,
    }


# ----------------------------------------------------------------------
# Migration (Section 4.2, vectorized destination sweep)
# ----------------------------------------------------------------------
def _intra_bw(pod: PodState, venv: VirtualEnvironment, guest_id: int) -> float:
    """Reference ``intra_host_bandwidth`` against the pod assignment."""
    pos = pod.placed[guest_id]
    total = 0.0
    for link in venv.vlinks_of(guest_id):
        other = link.other(guest_id)
        if pod.placed.get(other) == pos:
            total += link.vbw
    return total


def _pick_guest(
    pod: PodState,
    venv: VirtualEnvironment,
    pos: int,
    config: HMNConfig,
    intra_bw: dict[int, float],
) -> int | None:
    """The guest to move off *pos*.  *intra_bw* memoizes
    :func:`_intra_bw` for the stage; the caller drops a moved guest and
    its peers from it."""
    guests = sorted(g for g in pod.guests_on(pos) if g in venv)
    if not guests:
        return None
    if config.migration_policy == "min_intra_bw":
        for g in guests:
            if g not in intra_bw:
                intra_bw[g] = _intra_bw(pod, venv, g)
        return min(guests, key=lambda g: (intra_bw[g], g))
    if config.migration_policy == "max_vproc":
        return max(guests, key=lambda g: (venv.guest(g).vproc, -g))
    rng = rng_from(config.seed)
    return int(guests[int(rng.integers(len(guests)))])


def _first(pod: PodState, key: np.ndarray, mask: np.ndarray) -> int | None:
    """The position *mask* admits with the smallest ``(key, rank)``: the
    first of them in a stable sort on ``(key, str(id))``."""
    admitted = np.flatnonzero(mask)
    if not admitted.size:
        return None
    keys = key[admitted]
    tied = admitted[keys == keys.min()]
    return int(tied[np.argmin(pod.rank[tied])])


def _origin_positions(pod: PodState, config: HMNConfig) -> Iterator[int]:
    """Candidate migration origins, most loaded first, one at a time.

    Every rule counts the whole host, other tenants' guests included:
    ``max_usage`` measures usage from the host's capacity, and the
    default keeps hosts that hold any guest.  The stage stops at the
    first origin with none of this pod's guests, so origins are picked
    lazily rather than sorted.
    """
    if config.migration_origin == "max_usage":
        usage = pod.cap - pod.res
        key, mask = -usage, usage > 0
    elif config.migration_origin == "strict_min_residual":
        key, mask = pod.res, np.ones(pod.n_hosts, dtype=bool)
    else:
        key, mask = pod.res, pod.loaded.copy()
    while (pos := _first(pod, key, mask)) is not None:
        yield pos
        mask[pos] = False


def _candidate_stds(pod: PodState, src: int, vproc: float) -> np.ndarray:
    """``std_if_moved(src, ·, vproc)`` for every host at once.

    Replays the tracker's formula elementwise (same operation order ⇒
    bit-identical doubles), falling back to the tracker itself for the
    rare candidates that trip its cancellation guard.
    """
    tracker = pod.tracker
    n = pod.n_hosts
    rs = float(pod.res[src])
    new_rs = rs + vproc
    rd = pod.res
    new_rd = rd - vproc
    sumsq = tracker.running_sumsq - rs * rs - rd * rd + new_rs * new_rs + new_rd * new_rd
    mean_sq = (tracker.running_sum / n) ** 2
    var = sumsq / n - mean_sq
    guard = var < ResidualCpuTracker._CANCELLATION_GUARD * max(mean_sq, 1.0)
    std = np.sqrt(np.maximum(var, 0.0))
    if guard.any():
        for i in np.nonzero(guard)[0]:
            std[i] = tracker.std_if_moved(pod.ids[src], pod.ids[int(i)], vproc)
    return std


def pod_migration(
    pod: PodState,
    venv: VirtualEnvironment,
    config: HMNConfig,
    *,
    move_log: "list[tuple[int, int]] | None" = None,
) -> dict:
    """Run the Migration stage inside one pod (vectorized sweep).

    The loop, and what "most loaded" means on heterogeneous clusters,
    are in :mod:`repro.hmn.migration`.  The improvement criterion is
    the pod-local Eq. 10.  Because a move keeps the residual *sum*
    constant, the global and pod-local variance deltas are the same
    quantity (``Δsumsq / n``), so every pod-local improvement is a
    global improvement too — sharding changes the threshold
    granularity, not the direction of descent.

    When *move_log* is given, every accepted move is appended as
    ``(guest_id, dst_position)`` in execution order, so a caller in
    another process (:mod:`repro.shard.parallel`) can replay the exact
    float-operation sequence on its own copy of the pod.
    """
    before = pod.tracker.exact_std()
    migrations = 0
    iterations = 0
    intra_bw: dict[int, float] = {}

    while iterations < config.migration_max_iterations:
        iterations += 1
        current = pod.tracker.exact_std()

        origins = _origin_positions(pod, config)
        moved = False
        for origin in islice(origins, None if config.migration_exhaustive else 1):
            guest_id = _pick_guest(pod, venv, origin, config, intra_bw)
            if guest_id is None:
                break
            guest = venv.guest(guest_id)
            src = pod.placed[guest_id]

            stds = _candidate_stds(pod, src, guest.vproc)
            improving = stds < current - _IMPROVEMENT_EPS
            improving &= (
                (pod.mem >= guest.vmem) & (pod.stor >= guest.vstor) & ~pod.blocked
            )
            improving[src] = False
            dst = _first(pod, -pod.res, improving)
            if dst is not None:
                pod.move(guest, dst)
                if move_log is not None:
                    move_log.append((guest_id, dst))
                # Only the moved guest and its peers on the two hosts
                # gain or lose a co-resident.
                intra_bw.pop(guest_id, None)
                for link in venv.vlinks_of(guest_id):
                    peer = link.other(guest_id)
                    if pod.placed.get(peer) in (src, dst):
                        intra_bw.pop(peer, None)
                moved = True
                migrations += 1
                break

        if not moved:
            break

    return {
        "migrations": migrations,
        "iterations": iterations,
        "objective_before": before,
        "objective_after": pod.tracker.exact_std(),
    }
