"""The reference Hosting and Migration stages: the oracle for the pod stages.

These are the paper's rules (Sections 4.1 and 4.2) written the plain
way: walk the host list, call :class:`~repro.core.state.ClusterState`
per host, mutate the state as each decision is made.  Production runs
the vectorized stages of :mod:`repro.shard.vectorized`; the rules and
their interpretation notes are documented with them, in
:mod:`repro.hmn.hosting` and :mod:`repro.hmn.migration`.  This module
stays only to check them: ``tests/test_shard_equivalence.py`` and the
fuzzer's ``stage`` arm run both from copies of one state and require
equal assignments, stage statistics, failures and bit-equal residuals.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.guest import Guest
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.errors import CapacityError, PlacementError
from repro.hmn.config import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.seeding import rng_from
from repro.shard.vectorized import _IMPROVEMENT_EPS

__all__ = [
    "reference_hosting",
    "reference_migration",
    "fits_together",
    "intra_host_bandwidth",
    "pick_migration_guest",
    "origin_hosts",
]

NodeId = Hashable


# ----------------------------------------------------------------------
# Hosting (Section 4.1)
# ----------------------------------------------------------------------
def fits_together(state: ClusterState, a: Guest, b: Guest, host_id: NodeId) -> bool:
    """Whether guests *a* and *b* jointly fit on *host_id* right now."""
    return (
        state.residual_mem(host_id) >= a.vmem + b.vmem
        and state.residual_stor(host_id) >= a.vstor + b.vstor
    )


def _first_fitting(state: ClusterState, guest: Guest, hosts: list[NodeId]) -> NodeId | None:
    for h in hosts:
        if state.fits(guest, h):
            return h
    return None


def _place_or_fail(state: ClusterState, guest: Guest, hosts: list[NodeId]) -> NodeId:
    host = _first_fitting(state, guest, hosts)
    if host is None:
        raise PlacementError(guest.id, "Hosting stage: no host has enough memory/storage")
    state.place(guest, host)
    return host


def reference_hosting(state: ClusterState, venv: VirtualEnvironment, config: HMNConfig) -> dict:
    """The Hosting stage, host list by host list, mutating *state*.

    Returns the statistics :func:`repro.hmn.hosting.run_hosting` does.
    """
    pairs_colocated = 0
    placements = 0

    for link in ordered_vlinks(venv, config):
        a_placed = state.is_placed(link.a)
        b_placed = state.is_placed(link.b)
        if a_placed and b_placed:
            continue

        hosts = state.cpu.hosts_by_residual_descending()
        if not a_placed and not b_placed:
            ga = venv.guest(link.a)
            gb = venv.guest(link.b)
            head = hosts[0]
            if fits_together(state, ga, gb, head):
                state.place(ga, head)
                state.place(gb, head)
                pairs_colocated += 1
                placements += 2
                continue
            # Split placement: heaviest CPU demand first.
            heavy, light = (ga, gb) if ga.vproc >= gb.vproc else (gb, ga)
            heavy_host = _first_fitting(state, heavy, hosts)
            if heavy_host is None:
                raise PlacementError(heavy.id, "Hosting stage: no host has enough memory/storage")
            state.place(heavy, heavy_host)
            placements += 1
            hosts = state.cpu.hosts_by_residual_descending()
            idx = hosts.index(heavy_host)
            scan = hosts[idx + 1 :] + hosts[:idx]
            light_host = _first_fitting(state, light, scan)
            if light_host is None:
                raise PlacementError(light.id, "Hosting stage: no host has enough memory/storage")
            state.place(light, light_host)
            placements += 1
        else:
            placed_id, unplaced_id = (link.a, link.b) if a_placed else (link.b, link.a)
            guest = venv.guest(unplaced_id)
            peer_host = state.host_of(placed_id)
            if state.fits(guest, peer_host):
                state.place(guest, peer_host)
            else:
                _place_or_fail(state, guest, hosts)
            placements += 1

    isolated = 0
    leftovers = [g for g in venv.guests() if not state.is_placed(g.id)]
    leftovers.sort(key=lambda g: (-g.vproc, g.id))
    for guest in leftovers:
        _place_or_fail(state, guest, state.cpu.hosts_by_residual_descending())
        isolated += 1
        placements += 1

    return {
        "placements": placements,
        "pairs_colocated": pairs_colocated,
        "isolated_guests": isolated,
    }


# ----------------------------------------------------------------------
# Migration (Section 4.2)
# ----------------------------------------------------------------------
def intra_host_bandwidth(state: ClusterState, venv: VirtualEnvironment, guest_id: int) -> float:
    """Sum of ``vbw`` over the guest's links to co-resident guests."""
    host = state.host_of(guest_id)
    total = 0.0
    for link in venv.vlinks_of(guest_id):
        other = link.other(guest_id)
        if state.is_placed(other) and state.host_of(other) == host:
            total += link.vbw
    return total


def pick_migration_guest(
    state: ClusterState,
    venv: VirtualEnvironment,
    host_id: NodeId,
    config: HMNConfig,
) -> int | None:
    """The guest to migrate off *host_id* under the configured policy,
    or ``None`` when the host holds none of *venv*'s guests.  Ties
    break on guest id."""
    guests = sorted(g for g in state.guests_on(host_id) if g in venv)
    if not guests:
        return None
    if config.migration_policy == "min_intra_bw":
        return min(guests, key=lambda g: (intra_host_bandwidth(state, venv, g), g))
    if config.migration_policy == "max_vproc":
        return max(guests, key=lambda g: (venv.guest(g).vproc, -g))
    rng = rng_from(config.seed)
    return int(guests[int(rng.integers(len(guests)))])


def origin_hosts(state: ClusterState, config: HMNConfig) -> list[NodeId]:
    """Candidate migration origins, most loaded first."""
    if config.migration_origin == "max_usage":
        usage = {
            h.id: h.proc - state.residual_proc(h.id) for h in state.cluster.hosts()
        }
        hosts = [h for h, u in usage.items() if u > 0]
        hosts.sort(key=lambda h: (-usage[h], str(h)))
        return hosts
    ordered = state.cpu.hosts_by_load_descending()
    if config.migration_origin == "strict_min_residual":
        return ordered
    return [h for h in ordered if state.guests_on(h)]


def reference_migration(state: ClusterState, venv: VirtualEnvironment, config: HMNConfig) -> dict:
    """The Migration stage, one candidate destination at a time,
    mutating *state*.

    Returns the statistics :func:`repro.hmn.migration.run_migration`
    does.
    """
    before = state.objective()
    migrations = 0
    iterations = 0

    while iterations < config.migration_max_iterations:
        iterations += 1
        current = state.objective()

        origins = origin_hosts(state, config)
        if not config.migration_exhaustive:
            origins = origins[:1]

        moved = False
        for origin in origins:
            guest_id = pick_migration_guest(state, venv, origin, config)
            if guest_id is None:
                break
            guest = state.placed_guest(guest_id)
            src = state.host_of(guest_id)

            for dst in state.cpu.hosts_by_residual_descending():
                if dst == src:
                    continue
                if state.cpu.std_if_moved(src, dst, guest.vproc) >= current - _IMPROVEMENT_EPS:
                    continue
                try:
                    state.move(guest_id, dst)
                except CapacityError:
                    continue
                moved = True
                migrations += 1
                break
            if moved:
                break

        if not moved:
            break

    return {
        "migrations": migrations,
        "iterations": iterations,
        "objective_before": before,
        "objective_after": state.objective(),
    }
