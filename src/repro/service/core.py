"""The admission engine: one shared state, transactional decisions.

:class:`ServiceCore` is the synchronous heart both front ends drive —
the asyncio queue/worker service (:mod:`repro.service.service`) and the
deterministic replay driver (:mod:`repro.service.replay`).  Keeping the
decision path in one place is what makes the service's determinism
property checkable at all: a live closed-loop run and a batch replay of
the same arrival sequence execute byte-identical admission code.

Every admission is a :func:`~repro.resilience.transactions.joint_transaction`
over the shared :class:`~repro.core.state.ClusterState` — the same
snapshot/rollback discipline the chaos operator repairs under — so a
failed or crashed attempt leaves no placements or reservations behind.
Commits append ``request``/``decision``/``mapping`` records to the
:class:`~repro.service.store.ExperimentStore`; restarts *replay* that
log through this same code path (:meth:`ServiceCore.resume`), verifying
each recomputed decision against the stored one, so a resumed service
carries bit-exact residual tables and tenant accounting.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.errors import MappingError, StoreError
from repro.hmn.config import HMNConfig
from repro.hmn.pipeline import hmn_map
from repro.io import cluster_from_dict, cluster_to_dict
from repro.resilience.transactions import joint_transaction
from repro.routing.cache import RoutingCache
from repro.service.store import (
    DecisionRecord,
    ExperimentStore,
    MappingRecord,
    MetaRecord,
    ReleaseRecord,
    RequestRecord,
    mapping_payload,
    request_payload_of,
    venv_of_request,
)
from repro.service.types import AdmissionDecision, MapRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import MetricsRegistry

__all__ = ["ServiceCore", "release_tenant"]

#: SLO quantiles surfaced as gauges (exact, from the raw latency list).
SLO_QUANTILES = (0.5, 0.99)


def release_tenant(
    state: ClusterState,
    venv: VirtualEnvironment,
    mapping: Mapping,
    *,
    cache: RoutingCache | None = None,
) -> None:
    """Return a departed tenant's allocations to the shared *state*.

    Unplaces every guest of *venv* and releases the bandwidth of every
    multi-node path in *mapping* — the inverse of admitting the tenant
    with ``hmn_map(..., state=state)``.  Shared by the admission
    service and the chaos operator (:mod:`repro.resilience`), which
    must agree exactly on what departure means for the residual tables.

    When the admitting :class:`RoutingCache` is passed, its memo is
    pruned down to the post-release epoch.  This is hygiene, not
    correctness: epoch tokens are globally unique and never reused, so
    a stale entry can never be *served* after the release bumps the
    epoch — but in a long-lived service the dead entries accumulate
    (one epoch retired per departure) and crowd live entries out of the
    cache's ``max_paths`` budget.  One-shot callers (the chaos
    operator's masking dance re-reserves on the same edges constantly)
    may keep passing no cache, exactly as before.
    """
    for guest in venv.guests():
        state.unplace(guest.id)
    for key, nodes in mapping.paths.items():
        if len(nodes) > 1:
            state.release_path(nodes, venv.vlink(*key).vbw)
    if cache is not None:
        cache.drop_stale(state.bw_epoch)


@dataclass
class _LiveTenant:
    """One live tenancy: what release needs to undo it."""

    request_id: int
    venv: VirtualEnvironment
    mapping: Mapping


class ServiceCore:
    """Admission decisions over one shared cluster state.

    Parameters
    ----------
    cluster:
        The substrate all tenants share.
    config:
        Default :class:`HMNConfig` for requests without an override.
    store:
        An already-positioned :class:`ExperimentStore` (fresh stores
        must have been ``initialize``\\ d); ``None`` keeps no log.
        Prefer :meth:`open`, which handles fresh-vs-resume.
    metrics:
        Registry for the service instruments (requests total, admit
        latency histogram, p50/p99 gauges, live-tenant gauge); a fresh
        private one is created when omitted.
    """

    def __init__(
        self,
        cluster: PhysicalCluster,
        *,
        config: HMNConfig | None = None,
        store: ExperimentStore | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        from repro.obs import MetricsRegistry

        self.cluster = cluster
        self.config = config if config is not None else HMNConfig()
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.state = ClusterState(cluster)
        self.cache = RoutingCache(cluster)
        self._live: dict[Any, _LiveTenant] = {}
        self.accepted = 0
        self.rejected = 0
        self._next_request_id = 0
        self._latencies: list[float] = []
        self._replaying = False

    # ------------------------------------------------------------------
    # construction from a store
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        cluster: PhysicalCluster,
        path,
        *,
        config: HMNConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> "ServiceCore":
        """A core persisting to *path*: fresh when the file is absent
        or empty, otherwise resumed from its log (replayed + verified).
        """
        store = ExperimentStore(path)
        if store.exists:
            return cls.resume(cluster, path, config=config, metrics=metrics)
        core = cls(cluster, config=config, metrics=metrics)
        store.initialize(cluster, core.config)
        core.store = store
        return core

    @classmethod
    def resume(
        cls,
        cluster: PhysicalCluster | None,
        path,
        *,
        config: HMNConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> "ServiceCore":
        """Rebuild a core from its store, bit-exactly.

        Event-sourcing, not snapshot restore: every stored request is
        re-admitted through :meth:`admit` in commit order (releases
        interleaved where the log says they happened), and each
        recomputed decision must equal the stored one — the residual
        float tables then match the original process exactly, because
        they were produced by the identical operation sequence.  Any
        divergence (or a release of an unknown tenant) raises
        :class:`~repro.errors.StoreError` rather than continuing from a
        world that no longer matches the log.

        *cluster* may be ``None`` (rebuilt from the meta record); when
        given, it must serialize identically to the stored one.
        """
        store = ExperimentStore(path)
        meta, ops = store.load()
        if cluster is None:
            cluster = cluster_from_dict(meta.cluster)
        elif cluster_to_dict(cluster) != meta.cluster:
            raise StoreError(
                f"{store.path}: store belongs to a different cluster "
                f"than the one supplied"
            )
        stored_config = HMNConfig.from_dict(meta.config)
        # Compare parsed configs, not raw dicts: stores written before a
        # field retired still carry it (see HMNConfig.from_dict).
        if config is not None and config != stored_config:
            raise StoreError(
                f"{store.path}: store was written under a different "
                f"service config"
            )
        core = cls(cluster, config=stored_config, metrics=metrics)
        core._replaying = True
        try:
            core._replay_ops(store, ops)
        finally:
            core._replaying = False
        store.reopen()
        core.store = store
        return core

    def _replay_ops(self, store: ExperimentStore, ops: list) -> None:
        pending: RequestRecord | None = None
        for op in ops:
            if isinstance(op, RequestRecord):
                if pending is not None:
                    raise StoreError(
                        f"{store.path}: request {pending.request_id} has no decision"
                    )
                pending = op
            elif isinstance(op, DecisionRecord):
                stored = op.decision
                if pending is None or pending.request_id != stored.request_id:
                    raise StoreError(
                        f"{store.path}: decision {stored.request_id} "
                        f"does not follow its request"
                    )
                request = MapRequest(
                    tenant=pending.tenant,
                    venv=venv_of_request(pending),
                    config=(
                        HMNConfig.from_dict(pending.config)
                        if pending.config is not None
                        else None
                    ),
                    priority=pending.priority,
                )
                pending = None
                if stored.failure == "DeadlineExpired":
                    # Wall-clock verdict: adopt rather than recompute
                    # (the replay has no queue to wait in).
                    self._adopt_expired(stored)
                    continue
                redone = self.admit(
                    request,
                    request_id=stored.request_id,
                    arrived_at=stored.arrived_at,
                )
                if redone.to_dict() != stored.to_dict():
                    raise StoreError(
                        f"{store.path}: replayed decision for request "
                        f"{stored.request_id} diverges from the stored one "
                        f"(got {redone.to_dict()}, stored {stored.to_dict()})"
                    )
            elif isinstance(op, MappingRecord):
                live = next(
                    (t for t in self._live.values() if t.request_id == op.request_id),
                    None,
                )
                if live is None or mapping_payload(live.mapping) != op.mapping:
                    raise StoreError(
                        f"{store.path}: replayed mapping for request "
                        f"{op.request_id} diverges from the stored one"
                    )
            elif isinstance(op, ReleaseRecord):
                if not self.release(op.tenant):
                    raise StoreError(
                        f"{store.path}: release of unknown tenant {op.tenant!r}"
                    )
            elif isinstance(op, MetaRecord):  # pragma: no cover - records() rejects
                raise StoreError(f"{store.path}: unexpected meta record")
            else:  # pragma: no cover - registry is closed
                raise StoreError(f"{store.path}: unknown record {type(op).__name__}")
        if pending is not None:
            raise StoreError(
                f"{store.path}: request {pending.request_id} has no decision "
                f"(truncated log?)"
            )

    # ------------------------------------------------------------------
    # the decision path
    # ------------------------------------------------------------------
    def admit(
        self,
        request: MapRequest,
        *,
        request_id: int | None = None,
        arrived_at: int | None = None,
    ) -> AdmissionDecision:
        """Decide one request against the live residual state.

        Transactional: on any mapping failure (or crash) the shared
        state is exactly as before the attempt.  *request_id* defaults
        to the next commit index; *arrived_at* defaults to the id
        (virtual time = commit order, the closed-loop convention).
        """
        rid = self._next_request_id if request_id is None else request_id
        self._next_request_id = max(self._next_request_id, rid + 1)
        arrived = rid if arrived_at is None else arrived_at
        rec = obs.OBS
        if not rec.enabled:
            return self._admit(request, rid, arrived)
        with rec.span(
            "service.admit", tenant=str(request.tenant), request_id=rid
        ) as sp:
            decision = self._admit(request, rid, arrived)
            sp.set(
                admitted=decision.admitted,
                failure=decision.failure,
                n_guests=decision.n_guests,
            )
            rec.count(
                "repro_service_requests_total",
                outcome="admitted" if decision.admitted else "rejected",
            )
            return decision

    def _admit(
        self, request: MapRequest, rid: int, arrived: int
    ) -> AdmissionDecision:
        t0 = time.perf_counter()
        mapping: Mapping | None = None
        if request.tenant in self._live:
            decision = AdmissionDecision(
                request_id=rid,
                tenant=request.tenant,
                admitted=False,
                n_guests=request.venv.n_guests,
                arrived_at=arrived,
                failure="DuplicateTenantError",
            )
        else:
            config = request.config if request.config is not None else self.config
            try:
                # hmn_map is itself transactional on shared states for
                # MappingErrors; the joint transaction extends that to
                # *any* failure leaking out of the pipeline.
                with joint_transaction(self.state):
                    mapping = hmn_map(
                        self.cluster,
                        request.venv,
                        config,
                        state=self.state,
                        cache=self.cache,
                    )
            except MappingError as exc:
                decision = AdmissionDecision(
                    request_id=rid,
                    tenant=request.tenant,
                    admitted=False,
                    n_guests=request.venv.n_guests,
                    arrived_at=arrived,
                    failure=type(exc).__name__,
                )
            else:
                self._live[request.tenant] = _LiveTenant(
                    request_id=rid, venv=request.venv, mapping=mapping
                )
                decision = AdmissionDecision(
                    request_id=rid,
                    tenant=request.tenant,
                    admitted=True,
                    n_guests=request.venv.n_guests,
                    arrived_at=arrived,
                    objective=self.state.objective(),
                )
        self._commit(request, decision, mapping, time.perf_counter() - t0)
        return decision

    def expire(
        self,
        request: MapRequest,
        *,
        request_id: int | None = None,
        arrived_at: int | None = None,
    ) -> AdmissionDecision:
        """Decide a request whose queue-wait deadline passed: rejected
        as ``DeadlineExpired``, state untouched."""
        rid = self._next_request_id if request_id is None else request_id
        self._next_request_id = max(self._next_request_id, rid + 1)
        decision = AdmissionDecision(
            request_id=rid,
            tenant=request.tenant,
            admitted=False,
            n_guests=request.venv.n_guests,
            arrived_at=rid if arrived_at is None else arrived_at,
            failure="DeadlineExpired",
        )
        self._commit(request, decision, None, 0.0)
        rec = obs.OBS
        if rec.enabled:
            rec.count("repro_service_requests_total", outcome="expired")
        return decision

    def _adopt_expired(self, stored: AdmissionDecision) -> None:
        """Replay path for a stored ``DeadlineExpired`` decision."""
        self._next_request_id = max(self._next_request_id, stored.request_id + 1)
        self.rejected += 1

    def release(self, tenant) -> bool:
        """Depart *tenant*: return its allocations, prune the routing
        memo to the new epoch, log the release.  ``False`` (and no
        state change) when the tenant is not live."""
        live = self._live.pop(tenant, None)
        if live is None:
            return False
        release_tenant(self.state, live.venv, live.mapping, cache=self.cache)
        if self.store is not None and not self._replaying:
            self.store.append(ReleaseRecord(tenant=tenant))
        self.metrics.gauge("repro_service_tenants_live").set(len(self._live))
        rec = obs.OBS
        if rec.enabled:
            rec.count("repro_service_releases_total")
        return True

    # ------------------------------------------------------------------
    # commit bookkeeping
    # ------------------------------------------------------------------
    def _commit(
        self,
        request: MapRequest,
        decision: AdmissionDecision,
        mapping: Mapping | None,
        latency_s: float,
    ) -> None:
        if decision.admitted:
            self.accepted += 1
        else:
            self.rejected += 1
        m = self.metrics
        m.counter(
            "repro_service_requests_total",
            outcome="admitted" if decision.admitted else "rejected",
        ).inc()
        m.histogram("repro_service_admit_seconds").observe(latency_s)
        bisect.insort(self._latencies, latency_s)
        n = len(self._latencies)
        for q in SLO_QUANTILES:
            # Exact empirical quantile (nearest-rank) — the SLO gauges
            # must not inherit the histogram's bucket resolution.
            value = self._latencies[min(n - 1, max(0, int(q * n + 0.5) - 1))]
            m.gauge("repro_service_admit_latency_seconds", quantile=str(q)).set(value)
        m.gauge("repro_service_tenants_live").set(len(self._live))
        if self.store is not None and not self._replaying:
            self.store.append(
                request_payload_of(
                    decision.request_id,
                    request.tenant,
                    request.venv,
                    request.priority,
                    request.config,
                )
            )
            self.store.append(DecisionRecord(decision=decision))
            if mapping is not None:
                self.store.append(
                    MappingRecord(
                        request_id=decision.request_id,
                        mapping=mapping_payload(mapping),
                    )
                )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def live_tenants(self) -> dict:
        """Current mapping per live tenant (snapshot)."""
        return {t: live.mapping for t, live in self._live.items()}

    @property
    def acceptance_ratio(self) -> float:
        total = self.accepted + self.rejected
        return self.accepted / total if total else 1.0

    def slo_snapshot(self) -> dict[str, float]:
        """Current p50/p99 admit latency (exact) plus counts."""
        out: dict[str, float] = {
            "accepted": float(self.accepted),
            "rejected": float(self.rejected),
            "live": float(len(self._live)),
        }
        n = len(self._latencies)
        for q in SLO_QUANTILES:
            out[f"p{int(q * 100)}_s"] = (
                self._latencies[min(n - 1, max(0, int(q * n + 0.5) - 1))] if n else 0.0
            )
        return out

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def __repr__(self) -> str:
        return (
            f"<ServiceCore: {len(self._live)} live tenants, "
            f"{self.accepted} accepted / {self.rejected} rejected>"
        )
