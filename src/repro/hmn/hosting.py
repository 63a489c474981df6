"""HMN stage 1 — Hosting (Section 4.1).

A preliminary assignment of guests to hosts by **network affinity**:
virtual links are visited in descending bandwidth order, and wherever
possible both endpoint guests land on the same host, turning the
highest-bandwidth virtual links into free intra-host links ("it is
done in order to reduce the use of physical links, which are one
environment constraint").

Per the paper, the host list is kept in descending order of *available*
CPU and re-sorted after every assignment; for each link:

* both endpoints already mapped — nothing to do;
* neither mapped — try to co-locate both on the current head of the
  host list; if the pair does not fit there together, the most
  CPU-intensive guest goes to the first host (in list order) that fits
  it, and the other guest to the next host after that which fits;
* exactly one mapped — the unmapped guest joins its peer's host if it
  fits, otherwise the first host in list order that fits.

If no host can take a guest the stage — and the whole heuristic —
fails (:class:`~repro.errors.PlacementError`).

Interpretation notes (the paper is silent on both):

* when the split-placement scan for the second guest reaches the end
  of the host list, we wrap around to the hosts before the first
  guest's host rather than failing — those hosts were never offered
  the second guest, and failing there would be an artifact of list
  order, not of capacity;
* guests with no virtual links are never visited by the link loop, so
  after it we place any such isolated guests (in descending ``vproc``
  order) on the most-CPU-available fitting host.  The paper's
  generator guarantees connected virtual graphs, so this path never
  triggers in the reproduction experiments.

The rule runs as :func:`repro.shard.vectorized.pod_hosting` on one pod
that spans the cluster.
"""

from __future__ import annotations

from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.hmn.config import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.shard.vectorized import PodState, pod_hosting

__all__ = ["run_hosting"]


def run_hosting(state: ClusterState, venv: VirtualEnvironment, config: HMNConfig) -> dict:
    """Execute the Hosting stage, mutating *state*.

    The stage decides on a whole-cluster :class:`PodState`; its
    placements are then made on *state* in the order the stage made
    them — also when it raises, so a failed Hosting leaves what it
    placed, as the rule does.

    Returns stage statistics: ``pairs_colocated`` (links whose endpoints
    were placed together by the pair rule), ``placements``,
    ``isolated_guests`` (extension path, see module docstring).
    """
    pod = PodState.from_state(state, state.cluster.host_ids)
    try:
        return pod_hosting(
            pod, venv, ordered_vlinks(venv, config), [g.id for g in venv.guests()], config
        )
    finally:
        for guest_id, pos in pod.placed.items():
            state.place(venv.guest(guest_id), pod.ids[pos])
