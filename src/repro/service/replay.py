"""Deterministic arrival/departure drivers over the admission engine.

The multi-tenant admission loop, built as a thin driver over
:class:`~repro.service.core.ServiceCore` — the *same* decision path
the live asyncio service executes, so batch studies and the service
cannot drift apart.  The event order (and therefore every
draw from the shared generator) is fixed, which keeps replayed
admission traces byte-identical across runs (digest-pinned in the
tests):

1. process due departures (earliest first);
2. sample memory utilization and peak concurrency;
3. draw the arriving tenant's environment from the shared stream;
4. admit (one transactional decision);
5. on admission, draw the geometric lifetime and schedule departure.

:func:`replay_admissions` drives the core directly (no queue — the
fastest path, used by the benchmarks);
:func:`replay_through` feeds the same arrivals through a running
:class:`~repro.service.service.ServiceHandle`, one at a time, for
end-to-end smoke coverage of the queue/worker/commit machinery.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Any, Callable, Mapping as TMapping

import numpy as np

from repro.core.cluster import PhysicalCluster
from repro.core.venv import VirtualEnvironment
from repro.errors import StoreError
from repro.seeding import rng_from
from repro.service.core import ServiceCore
from repro.service.store import ExperimentStore
from repro.service.types import AdmissionConfig, AdmissionDecision, MapRequest, ReplayReport

__all__ = ["replay_admissions", "replay_through"]

MakeVenv = Callable[[int, np.random.Generator], VirtualEnvironment]


def _coerce(config) -> AdmissionConfig:
    if config is None:
        return AdmissionConfig()
    if isinstance(config, AdmissionConfig):
        return config
    return AdmissionConfig.from_dict(config)


def _drive(
    cfg: AdmissionConfig,
    make_venv: MakeVenv,
    total_mem: float,
    host_ids,
    residual_mem: Callable[[Any], float],
    admit: Callable[[int, VirtualEnvironment], AdmissionDecision],
    release: Callable[[int], None],
) -> ReplayReport:
    """The shared event loop; ``admit``/``release`` plug in the engine."""
    rng = rng_from(cfg.seed)
    #: departures as (depart_time, tenant)
    departures: list[tuple[float, int]] = []
    decisions: list[AdmissionDecision] = []
    accepted = rejected = 0
    utilizations: list[float] = []
    peak = 0

    for t in range(cfg.n_tenants):
        while departures and departures[0][0] <= t:
            _, old = heapq.heappop(departures)
            release(old)

        used_mem = total_mem - sum(residual_mem(h) for h in host_ids)
        utilizations.append(used_mem / total_mem if total_mem else 0.0)
        peak = max(peak, len(departures))

        venv = make_venv(t, rng)
        decision = admit(t, venv)
        if not decision.admitted:
            rejected += 1
            decisions.append(decision)
            continue
        accepted += 1
        lifetime = float(rng.geometric(1.0 / cfg.mean_lifetime))
        depart_at = t + lifetime
        heapq.heappush(departures, (depart_at, t))
        decisions.append(
            dataclasses.replace(decision, departed_at=int(depart_at))
        )

    return ReplayReport(
        decisions=tuple(decisions),
        accepted=accepted,
        rejected=rejected,
        mean_memory_utilization=float(np.mean(utilizations)) if utilizations else 0.0,
        peak_concurrent_tenants=peak,
    )


def replay_admissions(
    cluster: PhysicalCluster,
    *,
    make_venv: MakeVenv,
    config: AdmissionConfig | TMapping[str, Any] | None = None,
    store: ExperimentStore | str | None = None,
    metrics=None,
) -> ReplayReport:
    """Run an arrive/hold/depart trace through the admission engine.

    *config* is a keyword-only :class:`AdmissionConfig` (plain dicts
    coerced; unknown keys raise :class:`~repro.errors.ConfigError`
    naming the valid options), decisions come back as
    :class:`AdmissionDecision` values, and an optional *store* (path or
    :class:`ExperimentStore`) persists the run in the service's log
    format.  ``departed_at`` in the report is a driver annotation from
    the lifetime draws; store records keep it ``None``, since a live
    service cannot know departures in advance either.
    """
    cfg = _coerce(config)
    core = ServiceCore(cluster, config=cfg.hmn, metrics=metrics)
    if store is not None:
        if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
            store = ExperimentStore(store)
        if store.exists:
            raise StoreError(
                f"{store.path}: replay refuses to append to an existing "
                f"store (resume it with ServiceCore.resume, or pick a "
                f"fresh path)"
            )
        store.initialize(cluster, core.config)
        core.store = store
    try:
        return _drive(
            cfg,
            make_venv,
            cluster.total_mem(),
            cluster.host_ids,
            core.state.residual_mem,
            lambda t, venv: core.admit(MapRequest(tenant=t, venv=venv)),
            core.release,
        )
    finally:
        core.close()


def replay_through(
    handle,
    *,
    make_venv: MakeVenv,
    config: AdmissionConfig | TMapping[str, Any] | None = None,
) -> ReplayReport:
    """Drive the same trace through a live service, closed-loop.

    *handle* is a started :class:`~repro.service.service.ServiceHandle`;
    each arrival is submitted and awaited before the next event fires,
    so request ids equal arrival indices and the decisions (and store
    bytes) are identical to :func:`replay_admissions` over the same
    seed — the end-to-end determinism check behind the service smoke.
    """
    cfg = _coerce(config)
    core = handle.core
    return _drive(
        cfg,
        make_venv,
        core.cluster.total_mem(),
        core.cluster.host_ids,
        core.state.residual_mem,
        lambda t, venv: handle.submit(MapRequest(tenant=t, venv=venv)),
        handle.release,
    )
