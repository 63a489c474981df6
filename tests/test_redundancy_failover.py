"""Failover tests: the chaos operator consuming pre-provisioned
redundancy (:mod:`repro.resilience.operator` + :mod:`repro.redundancy`).

Four guarantees:

* **failover correctness** — after every fast failover the surviving
  mappings still satisfy Eqs. 1-9 and avoid every dead node
  (``selfcheck=True`` re-validates after each event; these runs assert
  the machinery actually fired);
* **k-1 survivability** — with ``k=1`` replicas on a multi-domain
  substrate, a single host-domain failure never sheds the tenant: the
  standby absorbs it (checked exhaustively over every host);
* **deterministic shedding** — under equal-``vbw`` ties the shed order
  is the stable tenant-id order, byte-identical across repeat runs;
* **bounded exponential backoff** — repair latency follows
  :meth:`RepairPolicy.retry_latency`: seeded jitter, deterministic,
  capped by ``backoff_max``, and replayable from the recorded trace.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hmn import HMNConfig
from repro.resilience import (
    ChaosOperator,
    FailureModel,
    FaultEvent,
    RepairPolicy,
    run_chaos,
    survivability,
)
from repro.seeding import derive
from repro.topology import fat_tree_cluster, torus_cluster
from repro.core.guest import Guest
from repro.core.venv import VirtualEnvironment

SEED = 2009
RED = HMNConfig(redundancy=1, backup_paths=True)


def _small_tenant(i, rng, *, n=3, vbw=10.0, vmem=512):
    """Hand-built chain tenant: identical resources for every tenant so
    shedding keys tie on ``total_vbw`` by construction."""
    venv = VirtualEnvironment(name=f"t{i}")
    base = i * 100_000
    for g in range(n):
        venv.add_guest(Guest(base + g, vproc=40.0, vmem=vmem, vstor=20.0))
    for g in range(n - 1):
        venv.connect(base + g, base + g + 1, vbw=vbw, vlat=500.0)
    return venv


# ----------------------------------------------------------------------
# directed failover
# ----------------------------------------------------------------------


class TestFastFailover:
    def test_host_crash_promotes_standby(self):
        cluster = fat_tree_cluster(4, seed=SEED)
        op = ChaosOperator(cluster, make_venv=_small_tenant, config=RED,
                           seed=SEED, selfcheck=True)
        op.apply(FaultEvent(time=0.0, seq=0, kind="tenant_arrive", target=0))
        (mapping,) = op.live_tenants.values()
        victim_guest = sorted(mapping.assignments)[0]
        victim_host = mapping.assignments[victim_guest]

        op.apply(FaultEvent(time=1.0, seq=1, kind="host_crash", target=victim_host))
        result = op.live_tenants
        assert result, "tenant was shed despite a standby replica"
        (healed,) = result.values()
        assert healed.assignments[victim_guest] != victim_host
        assert healed.mapper.endswith("+failover")
        assert healed.stages[-1].name == "failover"
        assert healed.stages[-1].extra["replicas_activated"] >= 1

    def test_failover_replenishes_standbys(self):
        cluster = fat_tree_cluster(4, seed=SEED)
        op = ChaosOperator(cluster, make_venv=_small_tenant, config=RED,
                           seed=SEED, selfcheck=True)
        op.apply(FaultEvent(time=0.0, seq=0, kind="tenant_arrive", target=0))
        (mapping,) = op.live_tenants.values()
        victim_host = mapping.assignments[sorted(mapping.assignments)[0]]
        op.apply(FaultEvent(time=1.0, seq=1, kind="host_crash", target=victim_host))
        rec = next(iter(op.tenants.live.values()))
        # every guest should hold a standby again after the top-up
        assert all(rec.replicas.get(g) for g in rec.venv.guest_ids)

    def test_unredundant_config_never_fails_over(self):
        cluster = fat_tree_cluster(4, seed=SEED)
        result = run_chaos(cluster, n_events=150, seed=SEED,
                           config=HMNConfig(), selfcheck=True)
        assert result.failovers == 0
        assert result.replicas_activated == 0
        assert result.backups_activated == 0

    @pytest.mark.parametrize("engine", ["dict", "compiled"])
    def test_redundant_chaos_selfchecks_clean(self, engine, request):
        # The "dict" arm also re-runs every kernel miss (primary,
        # backup and failover routes) on the dict-space reference
        # routers, which must agree on every query.
        caches = request.getfixturevalue("differential_caches") if engine == "dict" else []
        cluster = torus_cluster(2, 4, seed=SEED)
        result = run_chaos(
            cluster, n_events=150, seed=SEED,
            config=HMNConfig(redundancy=1, backup_paths=True),
            selfcheck=True,
        )
        assert all(c.mismatches == [] for c in caches)
        assert engine == "compiled" or sum(c.checked for c in caches) > 0
        assert result.validations > 0
        assert result.failovers > 0  # the machinery demonstrably fired
        summary = survivability(result)
        assert summary["failovers"] == result.failovers
        assert summary["replicas_activated"] == result.replicas_activated

    def test_k1_single_host_failure_never_sheds(self):
        """k-1 survivability: any single host loss is absorbed."""
        cluster = fat_tree_cluster(4, seed=SEED)
        for victim in cluster.host_ids:
            op = ChaosOperator(cluster, make_venv=_small_tenant, config=RED,
                               seed=SEED, selfcheck=True)
            op.apply(FaultEvent(time=0.0, seq=0, kind="tenant_arrive", target=0))
            op.apply(FaultEvent(time=1.0, seq=1, kind="host_crash", target=victim))
            assert len(op.live_tenants) == 1, f"shed on host {victim!r} loss"
            assert not op.state.blocked_hosts - {victim}


# ----------------------------------------------------------------------
# deterministic shedding under ties
# ----------------------------------------------------------------------


class TestShedDeterminism:
    def _crunch(self):
        """Tiny torus + equal-vbw tenants + a host crash under memory
        pressure: the repair loop must shed, and every tenant ties on
        the (total_vbw, tenant) key's first component."""
        cluster = torus_cluster(2, 2, seed=SEED)
        op = ChaosOperator(
            cluster,
            make_venv=lambda i, rng: _small_tenant(i, rng, n=3, vbw=25.0),
            config=HMNConfig(),
            policy=RepairPolicy(max_attempts=2),
            seed=SEED,
            selfcheck=True,
        )
        t = 0.0
        i = 0
        while True:  # fill until admission rejects: real capacity pressure
            before = op.live_tenants
            op.apply(FaultEvent(time=t, seq=i, kind="tenant_arrive", target=i))
            if len(op.live_tenants) == len(before):
                break
            t, i = t + 0.1, i + 1
        for step, h in enumerate(sorted(cluster.host_ids, key=repr)[:2]):
            op.apply(
                FaultEvent(time=2.0 + step, seq=100 + step, kind="host_crash", target=h)
            )
        return [list(r.shed) for r in op._repairs], list(op.tenants.live)

    def test_equal_vbw_ties_break_on_tenant_id(self):
        shed_lists, _ = self._crunch()
        shed = [t for lst in shed_lists for t in lst]
        assert shed, "scenario no longer forces shedding; rebuild the crunch"
        # all tenants have identical total_vbw, so the shed order must
        # be exactly ascending tenant id (the documented tiebreak)
        assert shed == sorted(shed)

    def test_shed_order_is_repeatable(self):
        a = self._crunch()
        b = self._crunch()
        assert a == b


# ----------------------------------------------------------------------
# bounded exponential backoff with deterministic jitter
# ----------------------------------------------------------------------


class TestRetryLatency:
    def test_zero_for_first_attempt_success(self):
        assert RepairPolicy().retry_latency(SEED, 0, 1) == 0.0

    def test_deterministic_per_seed_and_index(self):
        p = RepairPolicy()
        assert p.retry_latency(SEED, 3, 4) == p.retry_latency(SEED, 3, 4)
        assert p.retry_latency(SEED, 3, 4) != p.retry_latency(SEED, 4, 4)
        assert p.retry_latency(SEED, 3, 4) != p.retry_latency(SEED + 1, 3, 4)

    def test_exponential_growth_and_cap(self):
        p = RepairPolicy(backoff=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0)
        # bases: 0.1, 0.2, 0.3 (capped), 0.3 (capped)
        assert p.retry_latency(SEED, 0, 2) == pytest.approx(0.1)
        assert p.retry_latency(SEED, 0, 3) == pytest.approx(0.3)
        assert p.retry_latency(SEED, 0, 5) == pytest.approx(0.9)

    def test_jitter_is_bounded(self):
        p = RepairPolicy(backoff=0.1, backoff_factor=2.0, backoff_max=0.4, jitter=0.25)
        for idx in range(20):
            lat = p.retry_latency(SEED, idx, 4)
            lo = 0.1 + 0.2 + 0.4
            assert lo <= lat <= lo * 1.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            RepairPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RepairPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RepairPolicy(backoff_max=-1.0)

    def test_recorded_latency_replays_from_policy(self):
        """RepairRecord.latency is exactly retry_latency(seed, index,
        attempts) — virtual time, reproducible from the trace alone."""
        cluster = torus_cluster(2, 4, seed=SEED)
        policy = RepairPolicy()
        result = run_chaos(cluster, n_events=200, seed=SEED, policy=policy,
                           config=HMNConfig(), selfcheck=True)
        assert result.repairs, "trace produced no repairs; grow n_events"
        for idx, record in enumerate(result.repairs):
            assert record.latency == pytest.approx(
                policy.retry_latency(SEED, idx, record.attempts)
            )

    def test_derive_stream_is_stable(self):
        # the jitter stream is derive(seed, "repair-backoff", index):
        # pin it so refactors cannot silently reshuffle recorded traces
        rng = derive(SEED, "repair-backoff", 0)
        p = RepairPolicy(backoff=1.0, backoff_factor=1.0, backoff_max=1.0, jitter=1.0)
        assert p.retry_latency(SEED, 0, 2) == pytest.approx(1.0 + float(rng.random()))
