"""Tests for the online admission service (``repro.service``).

Covers the typed request/response surface, the transactional
``ServiceCore`` decision path, the asyncio queue/worker machinery, and
the service's headline property: same seed + same arrival order gives
byte-identical decision logs and store contents at any worker count and
across a mid-run restart from the experiment store.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core.validate import validate_mapping
from repro.errors import ConfigError, ModelError, StoreError
from repro.hmn.config import HMNConfig
from repro.service import (
    AdmissionConfig,
    AdmissionDecision,
    MapRequest,
    ServiceCore,
    open_service,
    replay_admissions,
    replay_through,
)
from repro.service.service import AdmissionQueue, _Ticket
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters


@pytest.fixture(scope="module")
def cluster():
    return paper_clusters(seed=141, n_hosts=12)["torus"]


def small_venv(i: int, seed: int = 0, n: int = 15):
    """One tenant's environment; guest ids offset so tenants never
    collide in the shared placement table."""
    return generate_virtual_environment(
        n, workload=LOW_LEVEL, density=0.05, seed=seed, id_offset=i * 100_000
    )


def make_venv(i, rng):
    n = int(rng.integers(10, 25))
    return small_venv(i, seed=int(rng.integers(2**31 - 1)), n=n)


# ----------------------------------------------------------------------
# the typed surface
# ----------------------------------------------------------------------
class TestMapRequest:
    def test_valid_request(self, cluster):
        req = MapRequest(tenant="alice", venv=small_venv(0))
        assert req.priority == 0 and req.deadline is None and req.config is None

    def test_tenant_must_be_int_or_str(self):
        with pytest.raises(ModelError, match="tenant id"):
            MapRequest(tenant=1.5, venv=small_venv(0))
        with pytest.raises(ModelError, match="tenant id"):
            MapRequest(tenant=True, venv=small_venv(0))

    def test_venv_type_checked(self):
        with pytest.raises(ModelError, match="venv"):
            MapRequest(tenant=0, venv={"guests": []})

    def test_dict_config_coerced(self):
        req = MapRequest(tenant=0, venv=small_venv(0), config={"router": "label_setting"})
        assert isinstance(req.config, HMNConfig)
        assert req.config.router == "label_setting"

    def test_priority_and_deadline_validated(self):
        with pytest.raises(ModelError, match="priority"):
            MapRequest(tenant=0, venv=small_venv(0), priority="high")
        with pytest.raises(ModelError, match="deadline"):
            MapRequest(tenant=0, venv=small_venv(0), deadline=-1.0)

    def test_frozen(self):
        req = MapRequest(tenant=0, venv=small_venv(0))
        with pytest.raises(AttributeError):
            req.priority = 9


class TestAdmissionDecision:
    def test_dict_roundtrip(self):
        d = AdmissionDecision(
            request_id=3, tenant="t", admitted=True, n_guests=7,
            arrived_at=3, objective=12.5,
        )
        assert AdmissionDecision.from_dict(d.to_dict()) == d

    def test_to_dict_schema_is_fixed(self):
        keys = set(AdmissionDecision(
            request_id=0, tenant=0, admitted=False, n_guests=0, arrived_at=0
        ).to_dict())
        assert keys == {"request_id", "tenant", "admitted", "n_guests",
                        "arrived_at", "failure", "objective", "departed_at"}


class TestAdmissionConfig:
    def test_positional_arguments_rejected(self):
        with pytest.raises(ConfigError, match="keyword"):
            AdmissionConfig(10)

    def test_unknown_key_lists_valid_options(self):
        with pytest.raises(ConfigError, match="n_tenants"):
            AdmissionConfig(tenants=10)

    def test_bounds(self):
        with pytest.raises(ConfigError, match="n_tenants"):
            AdmissionConfig(n_tenants=0)
        with pytest.raises(ConfigError, match="mean_lifetime"):
            AdmissionConfig(mean_lifetime=0.0)

    def test_describe_from_dict_roundtrip(self):
        cfg = AdmissionConfig(n_tenants=9, mean_lifetime=2.5, seed=4,
                              hmn={"router": "label_setting"})
        again = AdmissionConfig.from_dict(cfg.describe())
        assert again.describe() == cfg.describe()
        assert isinstance(again.hmn, HMNConfig)


# ----------------------------------------------------------------------
# the decision engine
# ----------------------------------------------------------------------
class TestServiceCore:
    def test_admit_success(self, cluster):
        core = ServiceCore(cluster)
        d = core.admit(MapRequest(tenant="a", venv=small_venv(0)))
        assert d.admitted and d.failure == "" and d.objective is not None
        assert d.request_id == 0 and d.arrived_at == 0
        assert core.accepted == 1 and "a" in core.live_tenants
        validate_mapping(cluster, small_venv(0), core.live_tenants["a"])

    def test_duplicate_tenant_rejected(self, cluster):
        core = ServiceCore(cluster)
        core.admit(MapRequest(tenant="a", venv=small_venv(0)))
        d = core.admit(MapRequest(tenant="a", venv=small_venv(1)))
        assert not d.admitted and d.failure == "DuplicateTenantError"
        assert core.rejected == 1

    def test_failed_admission_leaves_state_untouched(self, cluster):
        core = ServiceCore(cluster)
        core.admit(MapRequest(tenant="a", venv=small_venv(0)))
        before_mem = [core.state.residual_mem(h) for h in cluster.host_ids]
        before_bw = core.state.bw_array[:]
        # 2000 low-level guests cannot fit 12 paper hosts.
        d = core.admit(MapRequest(tenant="big", venv=small_venv(1, n=2000)))
        assert not d.admitted and d.failure
        assert [core.state.residual_mem(h) for h in cluster.host_ids] == before_mem
        assert core.state.bw_array == before_bw

    def test_release_returns_capacity(self, cluster):
        core = ServiceCore(cluster)
        venv = small_venv(0, n=40)
        virgin = [core.state.residual_mem(h) for h in cluster.host_ids]
        assert core.admit(MapRequest(tenant=0, venv=venv)).admitted
        assert core.release(0) is True
        assert core.release(0) is False, "second release must be a no-op"
        assert [core.state.residual_mem(h) for h in cluster.host_ids] == virgin
        # Admit -> depart -> admit again: full capacity is back.
        assert core.admit(MapRequest(tenant=0, venv=venv)).admitted

    def test_per_request_config_override(self, cluster):
        core = ServiceCore(cluster, config=HMNConfig())
        d = core.admit(MapRequest(
            tenant=0, venv=small_venv(0), config=HMNConfig(router="label_setting")
        ))
        assert d.admitted

    def test_slo_snapshot(self, cluster):
        core = ServiceCore(cluster)
        for i in range(4):
            core.admit(MapRequest(tenant=i, venv=small_venv(i)))
        snap = core.slo_snapshot()
        assert snap["accepted"] == 4.0 and snap["live"] == 4.0
        assert 0.0 < snap["p50_s"] <= snap["p99_s"]
        gauge = core.metrics.gauge(
            "repro_service_admit_latency_seconds", quantile="0.99"
        )
        assert gauge.value == snap["p99_s"]

    def test_expire_never_touches_state(self, cluster):
        core = ServiceCore(cluster)
        d = core.expire(MapRequest(tenant="t", venv=small_venv(0)))
        assert not d.admitted and d.failure == "DeadlineExpired"
        assert core.rejected == 1 and not core.live_tenants


# ----------------------------------------------------------------------
# the queue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_priority_order_fifo_ties(self):
        async def run():
            q = AdmissionQueue()
            low = _Ticket("release", tenant="low")
            hi = _Ticket("release", tenant="hi", priority=5)
            low2 = _Ticket("release", tenant="low2")
            for t in (low, hi, low2):
                await q.put(t)
            popped = [await q.get() for _ in range(3)]
            assert [t.tenant for t in popped] == ["hi", "low", "low2"]
            assert [t.order for t in popped] == [0, 1, 2]
            await q.close()
            assert await q.get() is None
            with pytest.raises(ModelError, match="closed"):
                await q.put(low)

        asyncio.run(run())

    def test_close_drains_remaining(self):
        async def run():
            q = AdmissionQueue()
            await q.put(_Ticket("release", tenant="x"))
            await q.close()
            assert (await q.get()).tenant == "x"
            assert await q.get() is None

        asyncio.run(run())


# ----------------------------------------------------------------------
# the live service
# ----------------------------------------------------------------------
class TestMappingService:
    def test_submit_and_release(self, cluster):
        with open_service(cluster, n_workers=2) as svc:
            d = svc.submit(MapRequest(tenant="a", venv=small_venv(0)))
            assert d.admitted
            assert svc.release("a") is True
            assert svc.release("a") is False

    def test_submit_type_checked(self, cluster):
        with open_service(cluster) as svc:
            with pytest.raises(ModelError, match="MapRequest"):
                svc.submit("not a request")

    def test_zero_deadline_expires_deterministically(self, cluster):
        with open_service(cluster) as svc:
            d = svc.submit(MapRequest(tenant="t", venv=small_venv(0), deadline=0.0))
            assert not d.admitted and d.failure == "DeadlineExpired"
            assert not svc.core.live_tenants

    def test_submit_nowait_open_loop(self, cluster):
        with open_service(cluster, n_workers=3) as svc:
            futures = [
                svc.submit_nowait(MapRequest(tenant=i, venv=small_venv(i)))
                for i in range(5)
            ]
            decisions = [f.result() for f in futures]
        assert all(d.admitted for d in decisions)
        # Commit order == submission order (the turnstile property).
        assert [d.request_id for d in decisions] == list(range(5))

    def test_submit_after_close_raises(self, cluster):
        with open_service(cluster) as svc:
            pass
        with pytest.raises(ModelError):
            svc.submit(MapRequest(tenant=0, venv=small_venv(0)))

    def test_worker_count_must_be_positive(self, cluster):
        with pytest.raises(ModelError, match="n_workers"):
            with open_service(cluster, n_workers=0):
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# determinism: the acceptance criterion
# ----------------------------------------------------------------------
CFG = dict(n_tenants=18, mean_lifetime=4.0, seed=23)


class TestDeterminism:
    def test_replay_is_reproducible(self, cluster):
        a = replay_admissions(cluster, make_venv=make_venv,
                              config=AdmissionConfig(**CFG))
        b = replay_admissions(cluster, make_venv=make_venv,
                              config=AdmissionConfig(**CFG))
        assert a.decisions == b.decisions
        assert a.mean_memory_utilization == b.mean_memory_utilization

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_service_matches_replay_at_any_worker_count(
        self, cluster, tmp_path, n_workers
    ):
        base = tmp_path / "replay.store"
        replay_admissions(cluster, make_venv=make_venv,
                          config=AdmissionConfig(**CFG), store=base)
        live = tmp_path / f"live{n_workers}.store"
        with open_service(cluster, n_workers=n_workers, store=str(live)) as svc:
            report = replay_through(svc, make_venv=make_venv,
                                    config=AdmissionConfig(**CFG))
        assert live.read_bytes() == base.read_bytes(), (
            "decision log must be byte-identical at any worker count"
        )
        assert report.accepted + report.rejected == CFG["n_tenants"]

    def test_restart_mid_run_is_byte_identical(self, cluster, tmp_path):
        # One deterministic operation schedule, venvs precomputed so the
        # two executions see identical inputs.
        rng = np.random.default_rng(6)
        ops: list[tuple] = []
        for i in range(14):
            ops.append(("admit", i, make_venv(i, rng)))
            if i >= 3 and i % 3 == 0:
                ops.append(("release", i - 3))

        def run(core, schedule):
            for op in schedule:
                if op[0] == "admit":
                    core.admit(MapRequest(tenant=op[1], venv=op[2]))
                else:
                    core.release(op[1])

        whole = tmp_path / "whole.store"
        core = ServiceCore.open(cluster, whole)
        run(core, ops)
        core.close()

        split = tmp_path / "split.store"
        first = ServiceCore.open(cluster, split)
        run(first, ops[:7])
        first.close()  # process "crashes" here
        resumed = ServiceCore.resume(cluster, split)
        run(resumed, ops[7:])
        resumed.close()

        assert split.read_bytes() == whole.read_bytes()
        assert resumed.accepted == core.accepted
        assert sorted(resumed.live_tenants) == sorted(core.live_tenants)

    def test_resume_restores_residuals_bit_exactly(self, cluster, tmp_path):
        path = tmp_path / "svc.store"
        core = ServiceCore.open(cluster, path)
        rng = np.random.default_rng(9)
        for i in range(8):
            core.admit(MapRequest(tenant=i, venv=make_venv(i, rng)))
        core.release(2)
        core.release(5)
        core.close()
        resumed = ServiceCore.resume(cluster, path)
        for h in cluster.host_ids:
            assert resumed.state.residual_mem(h) == core.state.residual_mem(h)
        assert resumed.state.objective() == core.state.objective()
        assert resumed._next_request_id == core._next_request_id


# ----------------------------------------------------------------------
# replay entry-point contract
# ----------------------------------------------------------------------
class TestReplayEntryPoint:
    def test_dict_config_coerced(self, cluster):
        r = replay_admissions(cluster, make_venv=make_venv,
                              config={"n_tenants": 5, "seed": 1})
        assert r.accepted + r.rejected == 5

    def test_unknown_config_key_names_options(self, cluster):
        with pytest.raises(ConfigError, match="mean_lifetime"):
            replay_admissions(cluster, make_venv=make_venv,
                              config={"lifetime": 3})

    def test_refuses_existing_store(self, cluster, tmp_path):
        path = tmp_path / "x.store"
        replay_admissions(cluster, make_venv=make_venv,
                          config={"n_tenants": 3, "seed": 0}, store=path)
        with pytest.raises(StoreError, match="existing"):
            replay_admissions(cluster, make_venv=make_venv,
                              config={"n_tenants": 3, "seed": 0}, store=path)

    def test_report_aggregates_consistent(self, cluster):
        r = replay_admissions(cluster, make_venv=make_venv,
                              config=AdmissionConfig(**CFG))
        assert r.accepted == sum(d.admitted for d in r.decisions)
        assert r.rejected == sum(not d.admitted for d in r.decisions)
        assert 0.0 <= r.acceptance_ratio <= 1.0
        assert not math.isnan(r.mean_memory_utilization)
