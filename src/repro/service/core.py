"""The admission engine: one shared state, transactional decisions.

:class:`ServiceCore` is the synchronous heart both front ends drive —
the asyncio queue/worker service (:mod:`repro.service.service`) and the
deterministic replay driver (:mod:`repro.service.replay`).  Keeping the
decision path in one place is what makes the service's determinism
property checkable at all: a live closed-loop run and a batch replay of
the same arrival sequence execute byte-identical admission code.

What live tenants hold — the shared
:class:`~repro.core.state.ClusterState`, the routing cache, the backup
ledger, every tenant's placements, paths, standby replicas and backup
paths — lives in one :class:`TenantTable`, which the chaos operator
(:mod:`repro.resilience`) drives too, so admission and departure mean
the same thing to both.  :func:`~repro.hmn.pipeline.hmn_map` restores
the shared state on any failure, so a failed or interrupted admission
leaves no placements or reservations behind.
Commits append ``request``/``decision``/``mapping`` records to the
:class:`~repro.service.store.ExperimentStore`; restarts *replay* that
log through this same code path (:meth:`ServiceCore.resume`), verifying
each recomputed decision against the stored one, so a resumed service
carries bit-exact residual tables and tenant accounting.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable

from repro import obs
from repro.core.cluster import PhysicalCluster
from repro.core.link import EdgeKey
from repro.core.mapping import Mapping
from repro.core.state import ClusterState, path_edges
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import MappingError, ModelError, StoreError
from repro.hmn.config import HMNConfig
from repro.hmn.pipeline import hmn_map
from repro.io import cluster_from_dict, cluster_to_dict
from repro.redundancy.ledger import BackupLedger, RiskKey
from repro.redundancy.stage import redundancy_records, risks_of_path
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

__all__ = ["ServiceCore", "TenantTable", "TenantEntry"]

#: SLO quantiles surfaced as gauges (exact, from the raw latency list).
SLO_QUANTILES = (0.5, 0.99)

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class _Backup:
    """One pre-provisioned backup path held for a live tenant's vlink.

    ``risks`` are the shared-risk keys the ledger admitted it under —
    recorded at provisioning time so retirement subtracts exactly what
    admission added, even after the primary was re-routed since.
    """

    nodes: tuple[NodeId, ...]
    vbw: float
    risks: frozenset[RiskKey]


@dataclass
class TenantEntry:
    """One live tenant: everything its departure has to give back."""

    key: Hashable
    venv: VirtualEnvironment
    mapping: Mapping
    #: guest id -> surviving standby replicas as (replica_id, host)
    replicas: dict[int, list[tuple[int, NodeId]]] = field(default_factory=dict)
    #: vlink key -> pre-provisioned backup path
    backups: dict[VLinkKey, _Backup] = field(default_factory=dict)
    #: the service's commit index for this tenancy
    request_id: int | None = None
    #: heal transactions the chaos operator applied to this tenancy
    repairs: int = 0

    @property
    def backup_vbw(self) -> float:
        """Aggregate demand of held backups (the degradation order key)."""
        return sum(b.vbw for b in self.backups.values())

    @property
    def replica_count(self) -> int:
        return sum(len(v) for v in self.replicas.values())


class TenantTable:
    """The one owner of what live tenants hold on a shared cluster.

    Holds the shared :class:`ClusterState`, the :class:`RoutingCache`,
    one :class:`~repro.redundancy.ledger.BackupLedger` (empty and inert
    unless a config asks for backup paths, and shared by every tenant
    so backups multiplex shared-risk headroom) and the live entries.
    The admission service and the chaos operator both drive it, so
    admission and departure mean the same thing to both.
    """

    def __init__(self, cluster: PhysicalCluster) -> None:
        self.cluster = cluster
        self.state = ClusterState(cluster)
        self.cache = RoutingCache(cluster)
        self.ledger = BackupLedger(self.state)
        self.live: dict[Hashable, TenantEntry] = {}

    def admit(
        self, key: Hashable, venv: VirtualEnvironment, config: HMNConfig
    ) -> TenantEntry:
        """Map *venv* onto the residual state and record it under *key*.

        Raises :class:`~repro.errors.MappingError` with nothing leaked:
        :func:`hmn_map` rolls the state and the ledger back on any
        failure.
        """
        if key in self.live:
            raise ModelError(f"tenant {key!r} is already live")
        mapping = hmn_map(
            self.cluster, venv, config,
            state=self.state, cache=self.cache, backup_ledger=self.ledger,
        )
        replicas, backups, _ = redundancy_records(mapping)
        entry = TenantEntry(
            key=key,
            venv=venv,
            mapping=mapping,
            replicas=replicas,
            backups={
                vkey: _Backup(
                    nodes=nodes,
                    vbw=venv.vlink(*vkey).vbw,
                    risks=risks_of_path(mapping.paths[vkey]),
                )
                for vkey, nodes in backups.items()
            },
        )
        self.live[key] = entry
        return entry

    def release(self, key: Hashable) -> bool:
        """Depart *key*: return its replicas, backups, guests and
        paths, in that order.  ``False`` (and no state change) when
        *key* is not live."""
        entry = self.live.pop(key, None)
        if entry is None:
            return False
        self.drop_replicas(entry)
        self.drop_backups(entry)
        state, venv = self.state, entry.venv
        for guest in venv.guests():
            state.unplace(guest.id)
        for vkey, nodes in entry.mapping.paths.items():
            if len(nodes) > 1:
                state.release_path(nodes, venv.vlink(*vkey).vbw)
        return True

    def drop_replicas(self, entry: TenantEntry) -> None:
        """Unplace every standby replica *entry* holds."""
        state = self.state
        for gid in sorted(entry.replicas):
            for rid, _host in entry.replicas[gid]:
                if state.is_placed(rid):
                    state.unplace(rid)
        entry.replicas = {}

    def drop_backups(
        self, entry: TenantEntry, keys: Iterable[VLinkKey] | None = None
    ) -> set[EdgeKey]:
        """Retire *entry*'s backups through the ledger — all of them,
        or only those under *keys* — and return the edges released."""
        released: set[EdgeKey] = set()
        for vkey in sorted(entry.backups) if keys is None else keys:
            bk = entry.backups.pop(vkey, None)
            if bk is not None:
                self.ledger.remove(bk.nodes, bk.vbw, bk.risks)
                released.update(path_edges(bk.nodes))
        return released

    def audit(self, extra_bw: dict[EdgeKey, float] | None = None) -> None:
        """Conservation check: the state holds exactly what live tenants
        hold.

        The placed guest ids must equal the live guests plus the live
        replicas, and every edge's used bandwidth must equal the live
        primary-path demand on it plus the ledger's backup reservation
        plus ``extra_bw`` (reservations the caller owns, e.g. fault
        masks), within the 1e-6 slack :meth:`ClusterState.release_path`
        grants, since float add/subtract sequences do not round-trip.
        Raises :class:`~repro.errors.ModelError` on the first violation.
        """
        state = self.state
        owned: set[int] = set()
        demand: dict[EdgeKey, float] = dict(extra_bw or {})
        for entry in self.live.values():
            owned.update(entry.venv.guest_ids)
            for standbys in entry.replicas.values():
                owned.update(rid for rid, _host in standbys)
            for vkey, nodes in entry.mapping.paths.items():
                vbw = entry.venv.vlink(*vkey).vbw
                for e in path_edges(nodes):
                    demand[e] = demand.get(e, 0.0) + vbw
        placed = set(state.assignments)
        if placed != owned:
            raise ModelError(
                f"conservation violated: {len(placed - owned)} placed guests "
                f"belong to no live tenant, {len(owned - placed)} live guests "
                f"or replicas are not placed"
            )
        for e, used in state.bandwidth_usage().items():
            want = demand.get(e, 0.0) + self.ledger.reserved_on(e)
            if abs(used - want) > 1e-6:
                raise ModelError(
                    f"conservation violated on link {e}: {used!r} Mbit/s "
                    f"used, live tenants account for {want!r}"
                )


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
        self.tenants = TenantTable(cluster)
        self.state = self.tenants.state
        self.cache = self.tenants.cache
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
                live = next((t for t in self.tenants.live.values()
                             if t.request_id == op.request_id), None)
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

        Transactional: on any mapping failure (or interrupt) the shared
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
        if request.tenant in self.tenants.live:
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
                entry = self.tenants.admit(request.tenant, request.venv, config)
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
                entry.request_id = rid
                mapping = entry.mapping
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
        """Depart *tenant*: return everything it holds (guests, paths,
        standby replicas, backup reservations), log the release.
        ``False`` (and no state change) when the tenant is not live."""
        if not self.tenants.release(tenant):
            return False
        if self.store is not None and not self._replaying:
            self.store.append(ReleaseRecord(tenant=tenant))
        self.metrics.gauge("repro_service_tenants_live").set(len(self.tenants.live))
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
        m.gauge("repro_service_tenants_live").set(len(self.tenants.live))
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
        return {t: live.mapping for t, live in self.tenants.live.items()}

    @property
    def acceptance_ratio(self) -> float:
        total = self.accepted + self.rejected
        return self.accepted / total if total else 1.0

    def slo_snapshot(self) -> dict[str, float]:
        """Current p50/p99 admit latency (exact) plus counts."""
        out: dict[str, float] = {
            "accepted": float(self.accepted),
            "rejected": float(self.rejected),
            "live": float(len(self.tenants.live)),
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
            f"<ServiceCore: {len(self.tenants.live)} live tenants, "
            f"{self.accepted} accepted / {self.rejected} rejected>"
        )
