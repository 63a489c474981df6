"""The typed request/response surface of the admission service.

Three value types:

* :class:`MapRequest` — what a tenant submits: an id, a virtual
  environment, optional per-request :class:`~repro.hmn.config.HMNConfig`
  overrides, a priority and an optional queue-wait deadline;
* :class:`AdmissionDecision` — what the service answers: admitted or
  not, why not, and the bookkeeping (arrival index, guest count,
  post-admission objective) the acceptance-ratio studies consume.
  Decisions round-trip through :meth:`AdmissionDecision.to_dict` /
  ``from_dict`` with a fixed schema — the experiment store's record
  format, and the canonical form the determinism tests byte-compare;
* :class:`AdmissionConfig` — the keyword-only knob object for replay
  runs (:func:`repro.service.replay.replay_admissions`), aligning the
  admission entry point with ``map_virtual_env``/``run_chaos``:
  positional or unknown arguments raise
  :class:`~repro.errors.ConfigError` naming the valid options.

All three are frozen: a request is immutable once submitted (workers
share it across threads), and a decision is immutable once committed
(the store is append-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping as TMapping

from repro.core.venv import VirtualEnvironment
from repro.errors import ConfigError, ModelError
from repro.hmn.config import HMNConfig, keyword_only

__all__ = [
    "MapRequest",
    "AdmissionDecision",
    "AdmissionConfig",
    "ReplayReport",
]


@dataclass(frozen=True, slots=True)
class MapRequest:
    """One tenant's admission request.

    Parameters
    ----------
    tenant:
        Tenant identity (int or str); at most one live tenancy per id —
        a duplicate while live is decided ``DuplicateTenantError``.
    venv:
        The virtual environment to map.
    config:
        Optional per-request :class:`HMNConfig` override (plain dicts
        are coerced through :meth:`HMNConfig.from_dict`); ``None`` uses
        the service's config.
    priority:
        Queue priority — higher dequeues first; ties serve in
        submission order.
    deadline:
        Optional queue-wait budget in seconds.  A request still queued
        when it expires is decided ``DeadlineExpired`` without touching
        the cluster state.
    """

    tenant: int | str
    venv: VirtualEnvironment
    config: HMNConfig | None = None
    priority: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tenant, (int, str)) or isinstance(self.tenant, bool):
            raise ModelError(
                f"tenant id must be an int or str, got {type(self.tenant).__name__}"
            )
        if not isinstance(self.venv, VirtualEnvironment):
            raise ModelError(
                f"venv must be a VirtualEnvironment, got {type(self.venv).__name__}"
            )
        if self.config is not None and not isinstance(self.config, HMNConfig):
            object.__setattr__(self, "config", HMNConfig.from_dict(self.config))
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise ModelError(f"priority must be an int, got {self.priority!r}")
        if self.deadline is not None:
            deadline = float(self.deadline)
            if deadline < 0:
                raise ModelError(f"deadline must be non-negative, got {deadline}")
            object.__setattr__(self, "deadline", deadline)


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """The service's answer to one :class:`MapRequest`.

    ``request_id`` is the commit-order index the service assigned (the
    store's primary key); ``arrived_at`` the virtual arrival time (the
    replay driver's event index — equal to ``request_id`` in closed-loop
    runs).  ``failure`` is the empty string on admission, else the
    exception class name (``PlacementError``, ``RoutingError``,
    ``DuplicateGuestError`` for a guest id another tenant already holds,
    ...) or one of the service verdicts (``DuplicateTenantError``,
    ``DeadlineExpired``).  ``objective`` is the whole-cluster Eq. 10
    value right after this admission committed (``None`` on rejection);
    ``departed_at`` is annotated by the replay driver for lifetime
    studies and stays ``None`` for live service decisions.
    """

    request_id: int
    tenant: int | str
    admitted: bool
    n_guests: int
    arrived_at: int
    failure: str = ""
    objective: float | None = None
    departed_at: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Fixed-schema JSON form (the store record payload)."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "admitted": self.admitted,
            "n_guests": self.n_guests,
            "arrived_at": self.arrived_at,
            "failure": self.failure,
            "objective": self.objective,
            "departed_at": self.departed_at,
        }

    @classmethod
    def from_dict(cls, data: TMapping[str, Any]) -> "AdmissionDecision":
        """Inverse of :meth:`to_dict`."""
        return cls(
            request_id=int(data["request_id"]),
            tenant=data["tenant"],
            admitted=bool(data["admitted"]),
            n_guests=int(data["n_guests"]),
            arrived_at=int(data["arrived_at"]),
            failure=str(data.get("failure", "")),
            objective=data.get("objective"),
            departed_at=data.get("departed_at"),
        )


@keyword_only
@dataclass(frozen=True, slots=True, kw_only=True)
class AdmissionConfig:
    """Knobs of an admission replay run.

    All parameters are keyword-only; positional or unknown arguments
    raise :class:`~repro.errors.ConfigError` listing the valid options
    — the same contract as :class:`HMNConfig` and
    :class:`~repro.resilience.operator.RepairPolicy`.

    Parameters
    ----------
    n_tenants:
        Number of arrivals to drive.
    mean_lifetime:
        Mean number of subsequent arrivals a tenant stays for
        (geometric); higher means more concurrency and more rejections.
    seed:
        Root seed of the arrival/lifetime stream.
    hmn:
        The pipeline config admissions map under (plain dicts are
        coerced; ``None`` means defaults).
    """

    n_tenants: int = 50
    mean_lifetime: float = 5.0
    seed: int | None = None
    hmn: HMNConfig | None = None

    def __post_init__(self) -> None:
        if isinstance(self.n_tenants, bool) or not isinstance(self.n_tenants, int):
            raise ConfigError(f"n_tenants must be an int, got {self.n_tenants!r}")
        if self.n_tenants < 1:
            raise ConfigError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if not isinstance(self.mean_lifetime, (int, float)) or isinstance(
            self.mean_lifetime, bool
        ):
            raise ConfigError(
                f"mean_lifetime must be a number, got {self.mean_lifetime!r}"
            )
        if self.mean_lifetime <= 0:
            raise ConfigError(
                f"mean_lifetime must be positive, got {self.mean_lifetime}"
            )
        object.__setattr__(self, "mean_lifetime", float(self.mean_lifetime))
        if self.hmn is not None and not isinstance(self.hmn, HMNConfig):
            object.__setattr__(self, "hmn", HMNConfig.from_dict(self.hmn))

    def describe(self) -> dict[str, Any]:
        """JSON-friendly summary (``hmn`` expanded recursively)."""
        return {
            "n_tenants": self.n_tenants,
            "mean_lifetime": self.mean_lifetime,
            "seed": self.seed,
            "hmn": self.hmn.describe() if self.hmn is not None else None,
        }

    @classmethod
    def from_dict(cls, data: TMapping[str, Any]) -> "AdmissionConfig":
        """Inverse of :meth:`describe` (unknown keys raise
        :class:`~repro.errors.ConfigError` via the constructor)."""
        if not isinstance(data, TMapping):
            raise ConfigError(
                f"AdmissionConfig.from_dict expects a mapping, "
                f"got {type(data).__name__}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class ReplayReport:
    """Aggregate outcome of one admission replay.

    The per-tenant trace is a tuple of :class:`AdmissionDecision` (with
    ``departed_at`` annotated from the lifetime draws).
    """

    decisions: tuple[AdmissionDecision, ...]
    accepted: int
    rejected: int
    #: Mean fraction of cluster memory in use, sampled at each arrival.
    mean_memory_utilization: float
    peak_concurrent_tenants: int

    @property
    def acceptance_ratio(self) -> float:
        total = self.accepted + self.rejected
        return self.accepted / total if total else 1.0
