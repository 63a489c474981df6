"""The self-healing operator loop: replay a chaos trace, keep tenants up.

This is the continuous counterpart of the one-shot repairs in
:mod:`repro.extensions.remap`.  A :class:`ChaosOperator` drives one
long-lived :class:`~repro.service.core.TenantTable` — the shared
:class:`~repro.core.state.ClusterState`, routing cache, backup ledger
and live tenants, the same table the admission service drives — for
the whole run and feeds a :class:`~repro.resilience.faults.FailureModel`
trace through it:

* **tenant arrivals** are admitted through the table against the
  residual (and fault-masked) capacity, rejections are recorded;
  departures return everything the tenant holds;
* **host crashes** block the host (:meth:`ClusterState.block_host`),
  blackhole its links, then *heal* every tenant with a displaced guest
  or a path through the dead machine — re-place displaced guests on
  the survivors (largest ``vproc`` first onto the most-idle fitting
  host, the evacuation rule of
  :func:`~repro.extensions.remap.evacuate_host`) and re-route every
  severed virtual link with the Networking stage;
* **switch failures** displace nothing but sever transit paths, healed
  the same way (:func:`~repro.extensions.remap.evacuate_switch`
  semantics);
* **link degradations** shrink a link to a fraction of its capacity by
  reserving the lost headroom out of the shared state; paths that no
  longer fit are re-routed;
* **recoveries/restorations** return the masked capacity.

Every heal attempt is a transaction: the operator snapshots the state
(O(n) array copy), tries the repair, and on failure restores the
snapshot atomically — then, per the :class:`RepairPolicy`, sheds the
lowest-priority tenant (smallest aggregate ``vbw``) to make room and
retries, up to ``max_attempts``.  If the repair still fails, the
affected tenants themselves are shed (graceful degradation — losing a
tenant beats corrupting the state), so the loop always terminates with
every surviving mapping valid.

Determinism: the trace is deterministic in its seed, tenant workloads
are drawn from per-tenant streams (``derive(seed, "tenant", t)``), and
the heal loop iterates everything in sorted order — so a chaos run is
byte-identical across repeats and processes
(``ChaosResult.to_dict(include_wall=False)`` is the canonical form the
determinism tests compare).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from repro import obs
from repro.core.cluster import PhysicalCluster
from repro.core.link import EdgeKey, edge_key
from repro.core.mapping import Mapping, StageReport
from repro.core.state import ClusterState, path_edges
from repro.core.validate import validate_mapping
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import ConfigError, MappingError, ModelError, PlacementError
from repro.errors import CapacityError, RoutingError
from repro.hmn.config import HMNConfig, keyword_only
from repro.hmn.networking import run_networking
from repro.redundancy.placement import REPLICA_STRIDE, replica_guest
from repro.redundancy.stage import risks_of_path
from repro.resilience.faults import FailureModel, FaultEvent
from repro.resilience.transactions import joint_transaction
from repro.seeding import derive
from repro.service.core import TenantEntry, TenantTable, _Backup

__all__ = [
    "RepairPolicy",
    "RepairRecord",
    "ChaosSample",
    "ChaosResult",
    "ChaosOperator",
    "run_chaos",
]

NodeId = Hashable

_EPS = 1e-9


@keyword_only
@dataclass(frozen=True, slots=True, kw_only=True)
class RepairPolicy:
    """How hard the operator tries before giving up on a repair.

    All parameters are keyword-only; positional or unknown arguments
    raise :class:`~repro.errors.ConfigError`.

    ``max_attempts`` bounds the heal loop per fault; each retry after a
    failed attempt degrades gracefully when ``shed`` is on — backup
    headroom first, then standby replicas, then the lowest-priority
    tenant (smallest aggregate ``vbw``, tenant id on ties) — otherwise
    retries change nothing and exist only to model the attempt budget.

    Retry *i* (1-based) is charged
    ``min(backoff * backoff_factor**(i-1), backoff_max)`` of virtual
    time, stretched by a deterministic seeded jitter draw in
    ``[1, 1 + jitter]`` — bounded exponential backoff, the virtual-time
    analogue of what a real control loop would sleep.  The draws come
    from a stream derived from the operator seed and the repair's
    index, so a repair's latency is a pure function of
    ``(seed, repair_index, attempts)`` and trace replays reproduce it
    exactly (:func:`~repro.resilience.metrics.survivability_from_trace`).
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 0.5
    jitter: float = 0.25
    shed: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ConfigError(f"backoff must be non-negative, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ConfigError(f"backoff_max must be non-negative, got {self.backoff_max}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be within [0, 1], got {self.jitter}")

    def retry_latency(self, seed: int, repair_index: int, attempts: int) -> float:
        """Virtual-time cost of a repair that needed *attempts* tries."""
        if attempts <= 1:
            return 0.0
        rng = derive(seed, "repair-backoff", repair_index)
        total = 0.0
        for i in range(1, attempts):
            base = min(self.backoff * self.backoff_factor ** (i - 1), self.backoff_max)
            total += base * (1.0 + self.jitter * float(rng.random()))
        return total


@dataclass(frozen=True, slots=True)
class RepairRecord:
    """Outcome of one heal transaction (one fault event)."""

    time: float
    trigger: str
    target: str
    tenants: tuple[int, ...]
    attempts: int
    latency: float
    rerouted: int
    replaced: int
    shed: tuple[int, ...]
    healed: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "trigger": self.trigger,
            "target": self.target,
            "tenants": list(self.tenants),
            "attempts": self.attempts,
            "latency": self.latency,
            "rerouted": self.rerouted,
            "replaced": self.replaced,
            "shed": list(self.shed),
            "healed": self.healed,
        }


@dataclass(frozen=True, slots=True)
class ChaosSample:
    """State of the world right after one trace event was absorbed.

    ``bw_reserved`` is the tenant-facing bandwidth reservation (live
    primary paths plus activated backups, fault masks excluded);
    ``bw_backup`` the standing shared-risk backup headroom on top of
    it.  Together they are the price axis of the
    survivability-per-reserved-bandwidth curves in
    ``benchmarks/bench_redundancy.py``.
    """

    time: float
    kind: str
    tenants_alive: int
    guests_alive: int
    guests_lost: int
    objective: float
    bw_reserved: float = 0.0
    bw_backup: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "tenants_alive": self.tenants_alive,
            "guests_alive": self.guests_alive,
            "guests_lost": self.guests_lost,
            "objective": self.objective,
            "bw_reserved": self.bw_reserved,
            "bw_backup": self.bw_backup,
        }


@dataclass(frozen=True)
class ChaosResult:
    """Everything a chaos run produced.

    ``samples`` has one entry per trace event (the survivability
    curve); ``repairs`` one entry per fault that needed healing.
    ``to_dict(include_wall=False)`` is deterministic in the seed —
    byte-compare its JSON to assert two runs are identical.
    """

    n_events: int
    admitted: int
    rejected: int
    departed: int
    shed: int
    shed_guests: int
    validations: int
    repairs: tuple[RepairRecord, ...]
    samples: tuple[ChaosSample, ...]
    final_tenants: int
    final_guests: int
    final_objective: float
    wall_s: float
    failovers: int = 0
    replicas_activated: int = 0
    backups_activated: int = 0
    backup_bw_shed: float = 0.0

    def to_dict(self, *, include_wall: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "n_events": self.n_events,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "departed": self.departed,
            "shed": self.shed,
            "shed_guests": self.shed_guests,
            "validations": self.validations,
            "repairs": [r.to_dict() for r in self.repairs],
            "samples": [s.to_dict() for s in self.samples],
            "final_tenants": self.final_tenants,
            "final_guests": self.final_guests,
            "final_objective": self.final_objective,
            "failovers": self.failovers,
            "replicas_activated": self.replicas_activated,
            "backups_activated": self.backups_activated,
            "backup_bw_shed": self.backup_bw_shed,
        }
        if include_wall:
            out["wall_s"] = self.wall_s
        return out


def _default_tenant(i: int, rng: np.random.Generator) -> VirtualEnvironment:
    from repro.workload import LOW_LEVEL, generate_virtual_environment

    n = int(rng.integers(4, 12))
    return generate_virtual_environment(
        n,
        workload=LOW_LEVEL,
        density=0.15,
        seed=int(rng.integers(2**31 - 1)),
        id_offset=i * 100_000,
        name=f"tenant-{i}",
    )


class ChaosOperator:
    """Replays a fault trace against a live multi-tenant state.

    Parameters
    ----------
    cluster:
        The physical cluster (shared with the trace's FailureModel).
    make_venv:
        Builds tenant *i*'s virtual environment from its private
        generator; defaults to small low-level-workload tenants.
        Give each tenant a disjoint guest-id block.
    config:
        HMN pipeline knobs for admissions and re-routing.
    policy:
        Retry/backoff/shedding policy for heal transactions.
    seed:
        Root seed for the per-tenant workload streams (the trace
        carries its own seed; keep them equal for one-seed runs).
    selfcheck:
        Validate every touched mapping against Eqs. 1-9 after every
        admission and repair, and audit the health invariants (no
        guest on a dead host, no path through a dead node).  Slow;
        meant for tests and the CI smoke run.
    """

    def __init__(
        self,
        cluster: PhysicalCluster,
        *,
        make_venv: Callable[[int, np.random.Generator], VirtualEnvironment] | None = None,
        config: HMNConfig | None = None,
        policy: RepairPolicy | None = None,
        seed: int = 0,
        selfcheck: bool = False,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else HMNConfig()
        self.policy = policy if policy is not None else RepairPolicy()
        self.make_venv = make_venv if make_venv is not None else _default_tenant
        self.seed = seed
        self.selfcheck = selfcheck

        #: live tenants and everything they hold; the state, cache and
        #: ledger names below are the table's own objects
        self.tenants = TenantTable(cluster)
        self._state = self.tenants.state
        self._cache = self.tenants.cache
        self._ledger = self.tenants.ledger
        self._dead_hosts: set[NodeId] = set()
        self._dead_switches: set[NodeId] = set()
        self._degraded: dict[EdgeKey, float] = {}
        #: bandwidth currently reserved per edge purely as fault masking
        self._masks: dict[EdgeKey, float] = {}
        #: tenants shed before their departure event, with guest counts
        self._lost: dict[int, int] = {}

        self._admitted = 0
        self._rejected = 0
        self._departed = 0
        self._shed = 0
        self._shed_guests = 0
        self._validations = 0
        self._repairs: list[RepairRecord] = []
        self._samples: list[ChaosSample] = []

        #: redundancy machinery (none of it engages at redundancy=0 /
        #: backup_paths=False — chaos runs stay byte-identical)
        self._redundant = bool(self.config.redundancy or self.config.backup_paths)
        self._failovers = 0
        self._replicas_activated = 0
        self._backups_activated = 0
        self._backup_bw_shed = 0.0

    # ------------------------------------------------------------------
    # fault masking over the shared state
    # ------------------------------------------------------------------
    @property
    def _dead_nodes(self) -> set[NodeId]:
        return self._dead_hosts | self._dead_switches

    def _sync_edge(self, key: EdgeKey) -> None:
        """Reconcile one edge's mask reservation with current health.

        Target: residual 0 while either endpoint is dead; otherwise
        ``cap * (1 - factor)`` masked while degraded, else no mask.
        Reservations held by tenant paths bound how much mask fits —
        the shortfall closes as the heal loop releases those paths.
        """
        u, v = key
        state = self._state
        current = self._masks.get(key, 0.0)
        if u in self._dead_nodes or v in self._dead_nodes:
            extra = state.residual_bw(u, v)
            if extra > 0:
                state.reserve_path([u, v], extra)
                self._masks[key] = current + extra
            return
        factor = self._degraded.get(key)
        target = self.cluster.link(u, v).bw * (1.0 - factor) if factor is not None else 0.0
        if target > current + _EPS:
            extra = min(target - current, state.residual_bw(u, v))
            if extra > 0:
                state.reserve_path([u, v], extra)
                current += extra
        elif current > target + _EPS:
            state.release_path([u, v], current - target)
            current = target
        if current > _EPS:
            self._masks[key] = current
        else:
            self._masks.pop(key, None)

    def _sync_node_edges(self, node: NodeId) -> None:
        for nbr in self.cluster.neighbors(node):
            self._sync_edge(edge_key(node, nbr))

    def _resync_released(self, edges: set[EdgeKey]) -> None:
        """Re-mask edges that releases may have re-exposed."""
        dead = self._dead_nodes
        for key in sorted(edges, key=repr):
            if key in self._degraded or key[0] in dead or key[1] in dead:
                self._sync_edge(key)

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def _admit(self, tenant: int) -> None:
        venv = self.make_venv(tenant, derive(self.seed, "tenant", tenant))
        try:
            entry = self.tenants.admit(tenant, venv, self.config)
        except MappingError:
            # The table's admission is transactional: nothing leaked.
            self._rejected += 1
            return
        self._admitted += 1
        if self.selfcheck:
            self._validate(entry)

    def _shed_redundancy(self) -> bool:
        """Graceful degradation, stage one: free capacity by dropping
        one tenant's availability margin instead of a whole tenant —
        backup-path reservations first (cheapest ``backup_vbw``, then
        tenant id), then standby replicas.  Returns True when anything
        was shed."""
        live = self.tenants.live.values()
        with_backups = [r for r in live if r.backups]
        if with_backups:
            victim = min(with_backups, key=lambda r: (r.backup_vbw, r.key))
            shed_bw = self._ledger.total_reserved
            released = self.tenants.drop_backups(victim)
            self._backup_bw_shed += shed_bw - self._ledger.total_reserved
            self._resync_released(released)
            return True
        with_replicas = [r for r in live if r.replicas]
        if with_replicas:
            victim = min(with_replicas, key=lambda r: (r.replica_count, r.key))
            self.tenants.drop_replicas(victim)
            return True
        return False

    def _depart(self, tenant: int) -> None:
        released = self.tenants.release(tenant)
        if released is None:
            # Rejected at arrival, or shed by an earlier repair: a shed
            # tenant stops counting as lost once it would have left.
            self._lost.pop(tenant, None)
            return
        self._resync_released(released)
        self._departed += 1

    def _shed_tenant(self, tenant: int) -> None:
        n_guests = self.tenants.live[tenant].venv.n_guests
        self._resync_released(self.tenants.release(tenant))
        self._shed += 1
        self._shed_guests += n_guests
        self._lost[tenant] = n_guests

    # ------------------------------------------------------------------
    # healing
    # ------------------------------------------------------------------
    def _restore_masks(self, snap: dict[EdgeKey, float]) -> None:
        """Rollback participant for the fault-mask ledger."""
        self._masks = snap

    def _restore_activation_counters(self, snap: tuple[int, int]) -> None:
        """Rollback participant for the failover activation counters."""
        self._replicas_activated, self._backups_activated = snap

    def _broken(
        self, rec: TenantEntry, broken_edges: frozenset[EdgeKey]
    ) -> tuple[list[int], list[VLinkKey]]:
        """*rec*'s guests on dead hosts and the vlinks that a displaced
        endpoint, a dead node or a broken edge severs, both sorted."""
        dead_hosts, dead_nodes = self._dead_hosts, self._dead_nodes
        displaced = sorted(
            g for g, h in rec.mapping.assignments.items() if h in dead_hosts
        )
        dis_set = set(displaced)
        severed = [
            key
            for key, nodes in sorted(rec.mapping.paths.items())
            if key[0] in dis_set
            or key[1] in dis_set
            or any(n in dead_nodes for n in nodes)
            or any(e in broken_edges for e in path_edges(nodes))
        ]
        return displaced, severed

    def _affected_by(self, broken_edges: frozenset[EdgeKey]) -> list[int]:
        """Live tenants with a displaced guest, a path through a dead
        node, or a path over a broken edge — in tenant order."""
        dead_hosts, dead_nodes = self._dead_hosts, self._dead_nodes
        out = []
        for t in sorted(self.tenants.live):
            mapping = self.tenants.live[t].mapping
            hit = any(h in dead_hosts for h in mapping.assignments.values())
            if not hit:
                for nodes in mapping.paths.values():
                    if any(n in dead_nodes for n in nodes) or any(
                        e in broken_edges for e in path_edges(nodes)
                    ):
                        hit = True
                        break
            if hit:
                out.append(t)
        return out

    # ------------------------------------------------------------------
    # fast failover (pre-provisioned redundancy)
    # ------------------------------------------------------------------
    def _activate_replica(self, rec: TenantEntry, guest_id: int) -> NodeId:
        """Promote *guest_id*'s first surviving standby: free the
        standby's memory/storage and move the real guest (CPU and all)
        onto its host.  Raises :class:`PlacementError` when no standby
        survives."""
        state = self._state
        options = rec.replicas.get(guest_id, [])
        for i, (rid, host) in enumerate(options):
            if host in self._dead_hosts or state.is_blocked(host):
                continue
            if not state.is_placed(rid):
                continue
            state.unplace(guest_id)
            state.unplace(rid)
            state.place(rec.venv.guest(guest_id), host)
            options.pop(i)
            if not options:
                rec.replicas.pop(guest_id, None)
            self._replicas_activated += 1
            return host
        raise PlacementError(guest_id, "no surviving standby replica")

    def _retire_backup(self, rec: TenantEntry, key: VLinkKey) -> None:
        self._resync_released(self.tenants.drop_backups(rec, (key,)))

    def _provision_backup(self, rec: TenantEntry, key: VLinkKey, primary) -> None:
        """Best-effort fresh backup for a (re)routed primary path."""
        if not self.config.backup_paths or len(primary) < 2:
            return
        from repro.redundancy.disjoint import backup_route

        link = rec.venv.vlink(*key)
        found = backup_route(
            self._state,
            self._cache,
            primary,
            bandwidth=link.vbw,
            latency_bound=link.vlat,
            router=self.config.router,
            max_expansions=self.config.max_route_expansions,
        )
        if found is None:
            return
        nodes, _kind = found
        risks = risks_of_path(primary)
        if self._ledger.try_add(nodes, link.vbw, risks):
            rec.backups[key] = _Backup(nodes=nodes, vbw=link.vbw, risks=risks)

    def _replenish_replicas(self, rec: TenantEntry) -> None:
        """Best-effort top-up back to ``k`` standbys per guest after a
        failover consumed some (anti-affinity rules as at admission)."""
        k = self.config.redundancy
        if k <= 0:
            return
        state = self._state
        domains = state.failure_domains
        for gid in sorted(rec.venv.guest_ids):
            have = rec.replicas.get(gid, [])
            if len(have) >= k:
                continue
            guest = rec.venv.guest(gid)
            primary = state.host_of(gid)
            used_hosts = {primary} | {h for _rid, h in have}
            used_domains = {domains.domain_of(h) for h in used_hosts}
            used_idx = {(-rid - 1) - gid * REPLICA_STRIDE for rid, _h in have}
            free_idx = [i for i in range(REPLICA_STRIDE) if i not in used_idx]
            order = state.cpu.hosts_by_residual_descending()
            while len(have) < k and free_idx:
                stand_in = replica_guest(guest, free_idx[0])
                choice = None
                for h in order:
                    if h in used_hosts or not state.fits(stand_in, h):
                        continue
                    if domains.domain_of(h) not in used_domains:
                        choice = h
                        break
                    if choice is None:
                        choice = h
                if choice is None:
                    break
                free_idx.pop(0)
                state.place(stand_in, choice)
                have.append((stand_in.id, choice))
                used_hosts.add(choice)
                used_domains.add(domains.domain_of(choice))
            if have:
                rec.replicas[gid] = have

    def _failover_tenant(
        self, now: float, tenant: int, broken_edges: frozenset[EdgeKey]
    ) -> tuple[int, int, int]:
        """Repair one tenant from its pre-provisioned redundancy.

        Standby replicas absorb displaced guests, backup paths absorb
        severed vlinks; vlinks with neither are re-routed inline, with
        a last-resort *replica rescue* (move an endpoint guest to a
        standby when its host became unreachable).  Raises a
        :class:`MappingError`/:class:`CapacityError` when some broken
        piece has no surviving pre-provisioned cover — the caller rolls
        back and falls through to the evacuate/re-route repair loop.

        Returns ``(replicas_activated, backups_activated, rerouted)``.
        """
        rec = self.tenants.live[tenant]
        state, config, venv = self._state, self.config, rec.venv
        dead_hosts, dead_nodes = self._dead_hosts, self._dead_nodes
        t0 = time.perf_counter()

        displaced, severed = self._broken(rec, broken_edges)
        to_fix = set(severed)
        released: set[EdgeKey] = set()
        for key in severed:
            nodes = rec.mapping.paths[key]
            if len(nodes) > 1:
                state.release_path(nodes, venv.vlink(*key).vbw)
                released.update(path_edges(nodes))

        n_replicas = 0
        for g in displaced:
            # Standbys on dead hosts are spent; unplace and drop them
            # before choosing (else they leak back on host recovery).
            keep = []
            for rid, host in rec.replicas.get(g, []):
                if host in dead_hosts:
                    if state.is_placed(rid):
                        state.unplace(rid)
                else:
                    keep.append((rid, host))
            rec.replicas[g] = keep
            self._activate_replica(rec, g)  # raises PlacementError if none left
            n_replicas += 1
        self._resync_released(released | set(broken_edges))

        n_backups = n_rerouted = 0
        fixed: dict[VLinkKey, tuple[NodeId, ...]] = {}
        while to_fix:
            key = min(to_fix)
            to_fix.remove(key)
            link = venv.vlink(*key)
            src, dst = state.host_of(key[0]), state.host_of(key[1])
            if src == dst:
                fixed[key] = (src,)
                self._retire_backup(rec, key)
                continue
            bk = rec.backups.get(key)
            if bk is not None:
                usable = (
                    bk.nodes[0] == src
                    and bk.nodes[-1] == dst
                    and not any(n in dead_nodes for n in bk.nodes)
                    and not any(e in broken_edges for e in path_edges(bk.nodes))
                )
                if usable:
                    # may raise CapacityError -> caller rolls back
                    self._ledger.activate(bk.nodes, bk.vbw, bk.risks)
                    rec.backups.pop(key, None)
                    self._resync_released(set(path_edges(bk.nodes)))
                    fixed[key] = bk.nodes
                    n_backups += 1
                    self._backups_activated += 1
                    continue
                self._retire_backup(rec, key)
            try:
                result = self._cache.route(
                    state, src, dst,
                    bandwidth=link.vbw, latency_bound=link.vlat,
                    router=config.router,
                    max_expansions=config.max_route_expansions,
                )
            except RoutingError:
                # Replica rescue: an endpoint host can be alive yet
                # unreachable (its uplinks died).  Moving the guest to a
                # standby re-opens routing — but invalidates every other
                # path of that guest, which rejoins the worklist.
                result = None
                for g in sorted((key[0], key[1])):
                    if not rec.replicas.get(g):
                        continue
                    try:
                        self._activate_replica(rec, g)
                    except PlacementError:
                        continue
                    n_replicas += 1
                    moved_released: set[EdgeKey] = set()
                    for other in rec.venv.vlinks_of(g):
                        okey = other.key
                        if okey == key or okey in to_fix:
                            continue
                        old = fixed.pop(okey, rec.mapping.paths.get(okey))
                        if old is not None and len(old) > 1:
                            state.release_path(old, other.vbw)
                            moved_released.update(path_edges(old))
                        self._retire_backup(rec, okey)
                        to_fix.add(okey)
                    self._resync_released(moved_released)
                    src, dst = state.host_of(key[0]), state.host_of(key[1])
                    if src == dst:
                        break
                    try:
                        result = self._cache.route(
                            state, src, dst,
                            bandwidth=link.vbw, latency_bound=link.vlat,
                            router=config.router,
                            max_expansions=config.max_route_expansions,
                        )
                        break
                    except RoutingError:
                        continue
                else:
                    raise
                if src == dst:
                    fixed[key] = (src,)
                    self._retire_backup(rec, key)
                    continue
                if result is None:
                    raise RoutingError((src, dst), "no route after replica rescue")
            state.reserve_path(result.nodes, link.vbw)
            fixed[key] = tuple(result.nodes)
            n_rerouted += 1

        # Commit the tenant's new mapping, then top redundancy back up.
        paths = {
            key: nodes for key, nodes in rec.mapping.paths.items() if key not in fixed
        }
        paths.update(fixed)
        mapper = rec.mapping.mapper
        if not mapper.endswith("+failover"):
            mapper = f"{mapper}+failover" if mapper else "failover"
        rec.mapping = Mapping(
            assignments={g.id: state.host_of(g.id) for g in venv.guests()},
            paths=paths,
            mapper=mapper,
            stages=(
                StageReport(
                    "failover",
                    time.perf_counter() - t0,
                    {
                        "replicas_activated": n_replicas,
                        "backups_activated": n_backups,
                        "rerouted": n_rerouted,
                    },
                ),
            ),
            meta={
                "objective": state.objective(),
                "resilience": {
                    "repairs": rec.repairs,
                    "failover": True,
                    "displaced": len(displaced),
                    "rerouted": n_rerouted,
                },
            },
        )
        for key in sorted(fixed):
            self._provision_backup(rec, key, fixed[key])
        self._replenish_replicas(rec)
        if self.selfcheck:
            self._validate(rec)
        return n_replicas, n_backups, n_rerouted

    def _failover(
        self, now: float, trigger: str, target: object, broken_edges: frozenset[EdgeKey]
    ) -> None:
        """Per-tenant transactional fast failover before the repair
        loop; tenants it cannot cover fall through untouched."""
        affected = self._affected_by(broken_edges)
        if not affected:
            return
        rec_obs = obs.OBS
        stats = {
            "tenants": len(affected),
            "failed_over": 0,
            "fallbacks": 0,
            "replicas_activated": 0,
            "backups_activated": 0,
            "rerouted": 0,
        }
        with rec_obs.span(
            "chaos.failover", trigger=trigger, target=repr(target), time=now
        ) as sp:
            for t in affected:
                rec = self.tenants.live[t]
                try:
                    # Joint transaction: the shared state plus every
                    # bookkeeping table a failover mutates roll back as
                    # one unit (repro.resilience.transactions).
                    with joint_transaction(
                        self._state,
                        (lambda: dict(self._masks), self._restore_masks),
                        (self._ledger.snapshot, self._ledger.restore),
                        (
                            lambda r=rec: {g: list(v) for g, v in r.replicas.items()},
                            lambda snap, r=rec: setattr(r, "replicas", snap),
                        ),
                        (
                            lambda r=rec: dict(r.backups),
                            lambda snap, r=rec: setattr(r, "backups", snap),
                        ),
                        (
                            lambda: (self._replicas_activated, self._backups_activated),
                            self._restore_activation_counters,
                        ),
                    ):
                        n_rep, n_bak, n_rer = self._failover_tenant(
                            now, t, broken_edges
                        )
                except (MappingError, CapacityError):
                    stats["fallbacks"] += 1
                else:
                    self._failovers += 1
                    stats["failed_over"] += 1
                    stats["replicas_activated"] += n_rep
                    stats["backups_activated"] += n_bak
                    stats["rerouted"] += n_rer
            if rec_obs.enabled:
                sp.set(**stats)
                rec_obs.count(
                    "repro_chaos_failovers_total", stats["failed_over"], trigger=trigger
                )

    def _attempt_repair(
        self, affected: list[int], broken_edges: frozenset[EdgeKey]
    ) -> tuple[int, int]:
        """One heal transaction over *affected* (may raise MappingError).

        Mutates the shared state; the caller holds the rollback
        snapshot.  Tenant mappings are only committed once every
        tenant healed, so a mid-flight failure leaves them untouched
        for the rollback.  Returns (links rerouted, guests re-placed).
        """
        state, config, dead_hosts = self._state, self.config, self._dead_hosts

        displaced: dict[int, list[int]] = {}
        touched: dict[int, list[VLinkKey]] = {}
        released: set[EdgeKey] = set()
        for t in affected:
            rec = self.tenants.live[t]
            displaced[t], touched[t] = self._broken(rec, broken_edges)
            for g in displaced[t]:
                state.unplace(g)
            for key in touched[t]:
                nodes = rec.mapping.paths[key]
                if len(nodes) > 1:
                    state.release_path(nodes, rec.venv.vlink(*key).vbw)
                    released.update(path_edges(nodes))

        # Releases may have re-exposed masked bandwidth (the broken
        # paths crossed the very edges being masked); close the gap
        # before any re-routing sees the inflated residuals.
        self._resync_released(released | set(broken_edges))

        n_replaced = n_rerouted = 0
        new_mappings: dict[int, Mapping] = {}
        for t in affected:
            rec = self.tenants.live[t]
            t0 = time.perf_counter()
            # Evacuation rule: biggest CPU demand first onto the most
            # idle host that fits (blocked hosts never fit).
            for gid in sorted(displaced[t], key=lambda g: (-rec.venv.guest(g).vproc, g)):
                guest = rec.venv.guest(gid)
                for h in state.cpu.hosts_by_residual_descending():
                    if state.fits(guest, h):
                        state.place(guest, h)
                        break
                else:
                    raise PlacementError(
                        gid, "no surviving host can absorb the displaced guest"
                    )
                n_replaced += 1

            reroute = VirtualEnvironment(name=f"{rec.venv.name}-heal")
            for g in rec.venv.guests():
                reroute.add_guest(g)
            for key in touched[t]:
                reroute.add_vlink(rec.venv.vlink(*key))
            new_paths, _ = run_networking(state, reroute, config, cache=self._cache)
            n_rerouted += len(new_paths)

            paths = {
                key: nodes
                for key, nodes in rec.mapping.paths.items()
                if key not in new_paths
            }
            paths.update(new_paths)
            mapper = rec.mapping.mapper
            if not mapper.endswith("+heal"):
                mapper = f"{mapper}+heal" if mapper else "heal"
            new_mappings[t] = Mapping(
                assignments={g.id: state.host_of(g.id) for g in rec.venv.guests()},
                paths=paths,
                mapper=mapper,
                stages=(
                    StageReport(
                        "heal",
                        time.perf_counter() - t0,
                        {"replaced": len(displaced[t]), "rerouted": len(touched[t])},
                    ),
                ),
                meta={
                    "objective": state.objective(),
                    "resilience": {
                        "repairs": rec.repairs + 1,
                        "displaced": len(displaced[t]),
                        "rerouted": len(touched[t]),
                    },
                },
            )

        for t, mapping in new_mappings.items():
            rec = self.tenants.live[t]
            rec.mapping = mapping
            rec.repairs += 1
            if self._redundant:
                # A healed primary invalidates the shared-risk keys its
                # backup was admitted under; retire and re-provision
                # against the new path (best-effort).
                for key in touched[t]:
                    self._retire_backup(rec, key)
                    self._provision_backup(rec, key, mapping.paths[key])
                for g in displaced[t]:
                    # Replicas the fault spent (dead host) or that now
                    # collide with the guest's new primary are stale.
                    stale = [
                        rh for rh in rec.replicas.get(g, [])
                        if rh[1] in dead_hosts or rh[1] == state.host_of(g)
                    ]
                    for rid, host in stale:
                        if state.is_placed(rid):
                            state.unplace(rid)
                        rec.replicas[g].remove((rid, host))
                    if not rec.replicas.get(g):
                        rec.replicas.pop(g, None)
            if self.selfcheck:
                self._validate(rec)
        return n_rerouted, n_replaced

    def _heal(
        self, now: float, trigger: str, target: object, broken_edges: frozenset[EdgeKey]
    ) -> None:
        """Heal every affected tenant, shedding per policy on failure."""
        affected = self._affected_by(broken_edges)
        if not affected:
            return
        original = tuple(affected)
        policy = self.policy
        shed_ids: list[int] = []
        attempts = 0
        rec = obs.OBS
        with rec.span("chaos.repair", trigger=trigger, target=repr(target), time=now) as sp:
            riders = (
                (lambda: dict(self._masks), self._restore_masks),
                (self._ledger.snapshot, self._ledger.restore),
            )
            while True:
                attempts += 1
                try:
                    with joint_transaction(self._state, *riders):
                        rerouted, replaced = self._attempt_repair(
                            affected, broken_edges
                        )
                    healed = True
                    break
                except MappingError:
                    pass  # joint_transaction already rolled everything back
                if attempts >= policy.max_attempts:
                    # Graceful degradation: the residual cluster cannot hold
                    # everyone — drop the affected tenants themselves.
                    for t in affected:
                        self._shed_tenant(t)
                        shed_ids.append(t)
                    rerouted = replaced = 0
                    healed = False
                    break
                if policy.shed:
                    # Graceful degradation sheds availability margin
                    # before workload: drop the cheapest tenant's backup
                    # reservations, then its standby replicas, and only
                    # then whole tenants (smallest aggregate vbw,
                    # lowest tenant id on ties — fully deterministic).
                    if self._redundant and self._shed_redundancy():
                        continue
                    victim = min(
                        self.tenants.live.values(),
                        key=lambda r: (r.venv.total_vbw(), r.key),
                    ).key
                    self._shed_tenant(victim)
                    shed_ids.append(victim)
                    if victim in affected:
                        affected.remove(victim)
                        if not affected:
                            rerouted = replaced = 0
                            healed = True
                            break
            record = RepairRecord(
                time=now,
                trigger=trigger,
                target=repr(target),
                tenants=original,
                attempts=attempts,
                latency=policy.retry_latency(self.seed, len(self._repairs), attempts),
                rerouted=rerouted,
                replaced=replaced,
                shed=tuple(shed_ids),
                healed=healed,
            )
            self._repairs.append(record)
            if rec.enabled:
                # Everything survivability_from_trace needs to rebuild
                # the RepairRecord from the JSONL alone.
                sp.set(
                    tenants=list(original),
                    attempts=attempts,
                    latency=record.latency,
                    rerouted=rerouted,
                    replaced=replaced,
                    shed=list(shed_ids),
                    healed=healed,
                )
                rec.count(
                    "repro_chaos_repairs_total",
                    outcome="healed" if healed else "shed",
                    trigger=trigger,
                )
                rec.observe("repro_chaos_repair_latency", record.latency)

    # ------------------------------------------------------------------
    # selfcheck
    # ------------------------------------------------------------------
    def _validate(self, rec: TenantEntry) -> None:
        """Eqs. 1-9 plus the health invariants for one live tenant."""
        validate_mapping(self.cluster, rec.venv, rec.mapping)
        self._validations += 1
        dead = self._dead_nodes
        for g, h in rec.mapping.assignments.items():
            if h in self._dead_hosts:
                raise ModelError(
                    f"invariant violated: guest {g!r} of tenant {rec.key} "
                    f"is placed on dead host {h!r}"
                )
        for key, nodes in rec.mapping.paths.items():
            if any(n in dead for n in nodes):
                raise ModelError(
                    f"invariant violated: path of vlink {key} of tenant "
                    f"{rec.key} crosses a dead node"
                )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Absorb one trace event (admit/release/fault/heal)."""
        kind, target, now = event.kind, event.target, event.time
        rec = obs.OBS
        with rec.span("chaos.event", kind=kind, time=now, target=repr(target)) as sp:
            self._apply(event)
            if rec.enabled:
                # The just-appended sample — chaos.event spans carry the
                # full survivability curve point by point.
                sample = self._samples[-1]
                sp.set(
                    tenants_alive=sample.tenants_alive,
                    guests_alive=sample.guests_alive,
                    guests_lost=sample.guests_lost,
                    objective=sample.objective,
                    bw_reserved=sample.bw_reserved,
                    bw_backup=sample.bw_backup,
                )
                rec.count("repro_chaos_events_total", kind=kind)

    def _apply(self, event: FaultEvent) -> None:
        kind, target, now = event.kind, event.target, event.time
        if kind == "tenant_arrive":
            self._admit(target)
        elif kind == "tenant_depart":
            self._depart(target)
        elif kind == "host_crash":
            self._state.block_host(target)
            self._dead_hosts.add(target)
            self._sync_node_edges(target)
            if self._redundant:
                self._failover(now, kind, target, frozenset())
            self._heal(now, kind, target, frozenset())
        elif kind == "host_recover":
            self._dead_hosts.discard(target)
            self._state.unblock_host(target)
            self._sync_node_edges(target)
        elif kind == "switch_fail":
            self._dead_switches.add(target)
            self._sync_node_edges(target)
            if self._redundant:
                self._failover(now, kind, target, frozenset())
            self._heal(now, kind, target, frozenset())
        elif kind == "switch_recover":
            self._dead_switches.discard(target)
            self._sync_node_edges(target)
        elif kind == "link_degrade":
            key = edge_key(*target)
            self._degraded[key] = event.factor
            self._sync_edge(key)
            cap = self.cluster.link(*key).bw
            # Mask shortfall means live paths exceed the degraded
            # capacity: re-route everything crossing the link.  Fast
            # failover moves traffic onto pre-provisioned backups
            # first; the repair loop only runs for what remains.
            if self._masks.get(key, 0.0) + _EPS < cap * (1.0 - event.factor):
                if self._redundant:
                    self._failover(now, kind, key, frozenset((key,)))
                if self._masks.get(key, 0.0) + _EPS < cap * (1.0 - event.factor):
                    self._heal(now, kind, key, frozenset((key,)))
        elif kind == "link_restore":
            key = edge_key(*target)
            self._degraded.pop(key, None)
            self._sync_edge(key)
        else:
            raise ModelError(f"unknown chaos event kind {kind!r}")

        if self.selfcheck:
            self.tenants.audit(extra_bw=self._masks)
        live = self.tenants.live
        # An empty ledger sums to int 0; samples keep the float 0.0.
        backup_bw = self._ledger.total_reserved if self._redundant else 0.0
        usage = sum(self._state.bandwidth_usage().values())
        masked = sum(self._masks.values())
        self._samples.append(
            ChaosSample(
                time=now,
                kind=kind,
                tenants_alive=len(live),
                guests_alive=sum(r.venv.n_guests for r in live.values()),
                guests_lost=sum(self._lost.values()),
                objective=self._state.objective(),
                bw_reserved=usage - masked - backup_bw,
                bw_backup=backup_bw,
            )
        )

    def run(self, trace: tuple[FaultEvent, ...]) -> ChaosResult:
        """Replay a whole trace and summarize the run."""
        rec = obs.OBS
        t0 = time.perf_counter()
        with rec.span("chaos.run", n_events=len(trace), seed=self.seed) as sp:
            for event in trace:
                self.apply(event)
            result = ChaosResult(
                n_events=len(trace),
                admitted=self._admitted,
                rejected=self._rejected,
                departed=self._departed,
                shed=self._shed,
                shed_guests=self._shed_guests,
                validations=self._validations,
                repairs=tuple(self._repairs),
                samples=tuple(self._samples),
                final_tenants=len(self.tenants.live),
                final_guests=sum(r.venv.n_guests for r in self.tenants.live.values()),
                final_objective=self._state.objective(),
                wall_s=time.perf_counter() - t0,
                failovers=self._failovers,
                replicas_activated=self._replicas_activated,
                backups_activated=self._backups_activated,
                backup_bw_shed=self._backup_bw_shed + self._ledger.degraded_bw,
            )
            if rec.enabled:
                sp.set(
                    admitted=result.admitted,
                    rejected=result.rejected,
                    departed=result.departed,
                    shed=result.shed,
                    shed_guests=result.shed_guests,
                    validations=result.validations,
                    final_tenants=result.final_tenants,
                    final_guests=result.final_guests,
                    final_objective=result.final_objective,
                    failovers=result.failovers,
                    replicas_activated=result.replicas_activated,
                    backups_activated=result.backups_activated,
                    backup_bw_shed=result.backup_bw_shed,
                )
        return result

    # Introspection used by tests.
    @property
    def live_tenants(self) -> dict[int, Mapping]:
        """Current mapping per live tenant (snapshot)."""
        return {t: rec.mapping for t, rec in self.tenants.live.items()}

    @property
    def state(self) -> ClusterState:
        return self._state


def run_chaos(
    cluster: PhysicalCluster,
    *,
    n_events: int = 200,
    seed: int = 0,
    model: FailureModel | None = None,
    make_venv: Callable[[int, np.random.Generator], VirtualEnvironment] | None = None,
    config: HMNConfig | None = None,
    policy: RepairPolicy | None = None,
    selfcheck: bool = False,
) -> ChaosResult:
    """Generate a trace and replay it — the one-call chaos experiment.

    ``model`` defaults to :class:`FailureModel`'s rates over *cluster*;
    the trace seed and the tenant-workload seed both derive from
    *seed*, so a single integer reproduces the whole run.
    """
    if model is None:
        model = FailureModel(cluster)
    elif model.cluster is not cluster:
        raise ModelError("the failure model was built for a different cluster")
    trace = model.trace(n_events, seed=derive(seed, "chaos-trace"))
    operator = ChaosOperator(
        cluster,
        make_venv=make_venv,
        config=config,
        policy=policy,
        seed=seed,
        selfcheck=selfcheck,
    )
    return operator.run(trace)
