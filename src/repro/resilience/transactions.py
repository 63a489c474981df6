"""Joint snapshot/rollback transactions over shared cluster state.

The chaos operator mutates one *shared*
:class:`~repro.core.state.ClusterState` and must never leak a
half-applied attempt into it: every repair and failover is a
transaction that either commits whole or restores the exact pre-attempt
state.  This module is that ``state.copy()`` / ``state.restore_from()``
discipline factored out of the operator's heal loop and failover path.
(Admissions need no wrapper: :func:`~repro.hmn.pipeline.hmn_map`
already restores a caller-owned state on any failure.)

A transaction may protect more than the cluster state: the operator's
repairs also roll back its bandwidth-mask ledger, the redundancy
:class:`~repro.redundancy.ledger.BackupLedger`, and per-tenant replica
tables.  Those ride along as *(take, restore)* participant pairs —
``take()`` captures a snapshot value before the block runs, and
``restore(snapshot)`` is called with it if the block raises.

Rollback is exception-driven and re-raising: the ``with`` block either
completes (commit — nothing happens on exit) or raises (every
participant is restored, then the state, and the exception propagates
for the caller's policy layer to handle).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import ClusterState

__all__ = ["joint_transaction"]

#: A rollback participant: ``take()`` captures, ``restore(snap)`` undoes.
Participant = Tuple[Callable[[], Any], Callable[[Any], None]]


@contextmanager
def joint_transaction(
    state: "ClusterState", *participants: Participant
) -> Iterator["ClusterState"]:
    """Run the block transactionally against *state* (plus riders).

    Snapshots *state* (an O(n) array copy — see
    :meth:`~repro.core.state.ClusterState.copy`) and captures every
    participant **before** the block runs; if the block raises *any*
    exception, the state is restored in place first (live array views
    stay valid), then each participant in registration order, and the
    exception is re-raised.  On normal exit nothing is touched — the
    block's mutations are the commit.

    Yields the state snapshot, for callers that want to diff against
    the pre-transaction residuals.
    """
    saved = [(restore, take()) for take, restore in participants]
    snapshot = state.copy()
    try:
        yield snapshot
    except BaseException:
        state.restore_from(snapshot)
        for restore, value in saved:
            restore(value)
        raise
