"""HMN stage 2 — Migration (Section 4.2).

Iterative load-balance improvement over the Hosting assignment.  Each
iteration:

1. select the **most loaded** host as the migration origin (see below);
2. on it, choose the guest with the **smallest sum of virtual-link
   bandwidth to co-resident guests** — moving it off-host creates the
   least new physical traffic;
3. scan candidate destinations from **least loaded** upward; the first
   host where (a) the guest fits and (b) the post-move Eq. 10 value is
   strictly smaller receives the guest;
4. repeat while moves keep improving; stop at the first iteration in
   which the chosen guest has no improving destination ("when no
   further improvement is possible by migrating a guest from the
   highest loaded host").

**"Most loaded" on heterogeneous clusters.**  The paper's load metric
is residual CPU, but the literal minimum-residual host can be an empty
low-end machine — there is nothing to migrate off it, and a literal
reading halts the stage after zero moves whenever the smallest host
happens to be idle.  The default
(``migration_origin="loaded_min_residual"``) therefore takes the
minimum-residual host *among hosts holding at least one guest*; the
literal reading (``"strict_min_residual"``) and a usage-based one
(``"max_usage"``, capacity minus residual) are available for the
ablation bench.  DESIGN.md discusses the choice.  On a shared state
every rule counts the whole host, other tenants' guests included, and
only this environment's guests move: the stage stops when the origin
holds none of them.

The Eq. 10 value of every candidate destination is evaluated at once
(the tracker's O(1) ``std_if_moved`` formula, replayed elementwise),
and the origin and the destination are masked minimums, not sorts.
The exact Eq. 10 value and each guest's intra-host bandwidth are kept
from one iteration to the next and updated for the hosts and guests a
move touched, so an iteration costs a few vectorized passes plus
O(changed) Python — this is the stage the paper runs thousands of
times on 2000-guest instances.

Termination: every accepted move strictly decreases Eq. 10 by more
than an epsilon, the objective is bounded below by zero, and each
iteration without a move exits the loop — so the loop always
terminates; ``migration_max_iterations`` is a pure safety valve.

The loop runs as :func:`repro.shard.vectorized.pod_migration` on one
pod that spans the cluster.
"""

from __future__ import annotations

from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.hmn.config import HMNConfig
from repro.shard.vectorized import PodState, pod_migration

__all__ = ["run_migration"]


def run_migration(state: ClusterState, venv: VirtualEnvironment, config: HMNConfig) -> dict:
    """Execute the Migration stage, mutating *state*.

    The stage decides on a whole-cluster :class:`PodState` holding
    *venv*'s placed guests; its moves are then made on *state* in the
    order the stage made them, also when it raises.

    Returns stage statistics: ``migrations`` performed, ``iterations``
    of the outer loop, and the objective ``before``/``after``.
    """
    pod = PodState.from_state(state, state.cluster.host_ids, venv)
    moves: list[tuple[int, int]] = []
    try:
        return pod_migration(pod, venv, config, move_log=moves)
    finally:
        for guest_id, pos in moves:
            state.move(guest_id, pod.ids[pos])
