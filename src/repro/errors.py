"""Exception hierarchy for the :mod:`repro` library.

Every failure mode of the mapping pipeline raises a subclass of
:class:`ReproError`, so callers can catch the library's failures with a
single ``except`` clause while still being able to distinguish *why* a
mapping attempt failed (placement vs. routing vs. invalid input).

The paper's heuristics "fail" in well-defined situations (Section 4:
"If in some moment no host supports an unassigned guest, the heuristic
fails"; "If in some moment a path for a virtual link cannot be found, the
heuristic fails").  Those are modelled as :class:`MappingError` subclasses
rather than sentinel return values, which keeps the mapper implementations
honest: a mapper either returns a complete, valid mapping or raises.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "ConfigError",
    "UnknownNodeError",
    "DuplicateNodeError",
    "DuplicateGuestError",
    "CapacityError",
    "MappingError",
    "PlacementError",
    "RoutingError",
    "RetriesExhaustedError",
    "ValidationError",
    "SimulationError",
    "StoreError",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ModelError(ReproError):
    """Invalid construction or use of the physical/virtual model."""


class ConfigError(ModelError):
    """Invalid configuration: a positional argument, an unknown option,
    or an out-of-range value passed to a keyword-only config type
    (:class:`~repro.hmn.config.HMNConfig`,
    :class:`~repro.resilience.operator.RepairPolicy`).  Subclasses
    :class:`ModelError` so existing handlers keep working."""


class UnknownNodeError(ModelError, KeyError):
    """A host/guest/switch id was referenced but never added."""

    def __init__(self, node_id: object, kind: str = "node") -> None:
        super().__init__(f"unknown {kind}: {node_id!r}")
        self.node_id = node_id
        self.kind = kind

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0]


class DuplicateNodeError(ModelError):
    """A host/guest/switch id was added twice."""

    def __init__(self, node_id: object, kind: str = "node") -> None:
        super().__init__(f"duplicate {kind}: {node_id!r}")
        self.node_id = node_id
        self.kind = kind


class DuplicateGuestError(ModelError):
    """A request's guest id is already placed on the shared state, by
    another tenant; ``guest_id`` is the first such id in the request's
    guest order and ``host`` where it sits."""

    def __init__(self, guest_id: object, host: object) -> None:
        super().__init__(f"guest {guest_id!r} is already placed on host {host!r}")
        self.guest_id = guest_id
        self.host = host


class CapacityError(ModelError):
    """An allocation would drive a hard resource (memory, storage,
    bandwidth) below zero."""


class MappingError(ReproError):
    """A mapper could not produce a valid mapping."""


class PlacementError(MappingError):
    """No host can accommodate a guest (Hosting stage failure)."""

    def __init__(self, guest_id: object, detail: str = "") -> None:
        msg = f"no host can accommodate guest {guest_id!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.guest_id = guest_id


class RoutingError(MappingError):
    """No feasible physical path exists for a virtual link
    (Networking stage failure)."""

    def __init__(self, vlink: object, detail: str = "") -> None:
        msg = f"no feasible path for virtual link {vlink!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.vlink = vlink


class RetriesExhaustedError(MappingError):
    """A randomized mapper exceeded its retry budget (the paper's random
    baseline gives up after 100 000 tries)."""

    def __init__(self, tries: int) -> None:
        super().__init__(f"no valid mapping found after {tries} tries")
        self.tries = tries


class ValidationError(ReproError):
    """A produced mapping violates the problem constraints (Eqs. 1-9 of
    the paper).  Raised by :mod:`repro.core.validate`.

    ``constraint``/``detail`` describe the first violation (kept for
    compatibility with handlers that branch on one constraint name);
    ``violations`` carries *every* violation the validator found, as
    the structured :class:`~repro.core.validate.Violation` objects, so
    a multiply-broken mapping reports its full damage in one raise.
    """

    def __init__(self, constraint: str, detail: str, violations: tuple = ()) -> None:
        msg = f"constraint {constraint} violated: {detail}"
        rest = tuple(violations)[1:]
        if rest:
            msg += "; also: " + "; ".join(str(v) for v in rest)
        super().__init__(msg)
        self.constraint = constraint
        self.detail = detail
        self.violations = tuple(violations)


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class StoreError(ModelError):
    """The service experiment store is unreadable or inconsistent: a
    corrupt/truncated record, a format or cluster mismatch on reopen,
    or a replayed decision that no longer matches the stored one
    (:mod:`repro.service.store`).  Subclasses :class:`ModelError` so
    generic model-error handlers keep working."""
