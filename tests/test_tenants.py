"""Tests for the tenant table (``repro.service.core.TenantTable``).

The table is the one owner of what a live tenant holds — primary
guests and paths, standby replicas, backup reservations in the shared
ledger — for both the admission service and the chaos operator.  These
tests pin its conservation contract:

* **no leak on release** — a redundant admit → release returns every
  replica, every unit of memory and every Mbit/s of backup headroom
  (the regression that motivated the table);
* **conservation after every operation** — random admit/release
  interleavings across the shard × redundancy × backup-path axes keep
  ``audit()`` green, and releasing everyone restores a virgin state;
* **store round-trip** — a redundant store with interleaved releases
  resumes bit-exactly;
* **interrupt safety** — a ``KeyboardInterrupt`` mid-pipeline leaves the
  shared residuals untouched.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hmn.pipeline as pipeline
from repro.errors import ModelError
from repro.hmn.config import HMNConfig
from repro.service import MapRequest, ServiceCore, TenantTable
from repro.service.store import mapping_payload
from repro.topology import fat_tree_cluster
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters

REDUNDANT = HMNConfig(redundancy=2, backup_paths=True)


@lru_cache(maxsize=None)
def small_cluster():
    return paper_clusters(seed=141, n_hosts=12)["torus"]


@lru_cache(maxsize=None)
def tenant_venv(i: int):
    """Tenant *i*'s environment: dense enough to carry backup paths,
    guest ids offset so tenants never collide in the shared state."""
    return generate_virtual_environment(
        16 + 4 * (i % 4), workload=LOW_LEVEL, density=0.3, seed=i,
        id_offset=i * 100_000,
    )


def residual_digest(state) -> str:
    a = state.arrays
    return hashlib.sha256(
        b"".join(x.tobytes() for x in (a.mem, a.stor, a.cpu, a.bw))
    ).hexdigest()


def assert_virgin(core: ServiceCore) -> None:
    """Nothing placed, nothing reserved, the ledger empty.

    Memory is integral and must come back exactly; storage and
    bandwidth are floats, whose add/subtract sequences do not
    round-trip, so they get the 1e-6 slack ``release_path`` grants.
    """
    cluster, state = core.cluster, core.state
    assert state.n_placed == 0
    for h in cluster.host_ids:
        host = cluster.host(h)
        assert state.residual_mem(h) == host.mem
        assert abs(state.residual_stor(h) - host.stor) <= 1e-6
    for e, used in state.bandwidth_usage().items():
        assert abs(used) <= 1e-6, (e, used)
    ledger = core.tenants.ledger
    assert ledger.total_reserved == 0 and ledger.describe()["edges"] == 0


# ----------------------------------------------------------------------
# the release leak
# ----------------------------------------------------------------------
class TestReleaseReturnsEverything:
    @pytest.mark.parametrize("shard", ["off", 2])
    def test_redundant_release_leaks_nothing(self, shard):
        """Torus, one 20-guest tenant at k=2 + backup paths: releasing
        it used to strand 40 standby replicas, 1188 memory units and
        ~16 Mbit/s of backup reservation."""
        cluster = paper_clusters(1)["torus"]
        venv = generate_virtual_environment(
            20, workload=LOW_LEVEL, density=0.3, seed=2
        )
        core = ServiceCore(
            cluster, config=HMNConfig(redundancy=2, backup_paths=True, shard=shard)
        )
        assert core.admit(MapRequest(tenant="t", venv=venv)).admitted
        entry = core.tenants.live["t"]
        assert entry.replica_count == 40 and entry.backups
        assert core.state.n_placed == 60
        core.tenants.audit()

        assert core.release("t")
        assert core.state.n_placed == 0
        stranded_mem = sum(
            cluster.host(h).mem - core.state.residual_mem(h) for h in cluster.host_ids
        )
        assert stranded_mem == 0
        assert sum(core.state.bandwidth_usage().values()) <= 1e-6
        assert_virgin(core)

    def test_fat_tree_single_replica_release(self):
        cluster = fat_tree_cluster(4, seed=2009)
        venv = generate_virtual_environment(20, workload=LOW_LEVEL, density=0.3, seed=2)
        core = ServiceCore(cluster, config=HMNConfig(redundancy=1, backup_paths=True))
        assert core.admit(MapRequest(tenant=0, venv=venv)).admitted
        assert core.tenants.live[0].replica_count == 20
        assert core.release(0)
        assert_virgin(core)

    def test_release_reports_whether_live(self):
        table = TenantTable(small_cluster())
        table.admit("a", tenant_venv(1), REDUNDANT)
        assert table.release("a") is True
        assert table.release("a") is False
        assert "a" not in table.live

    def test_duplicate_key_rejected(self):
        table = TenantTable(small_cluster())
        table.admit("a", tenant_venv(1), HMNConfig())
        with pytest.raises(ModelError, match="already live"):
            table.admit("a", tenant_venv(2), HMNConfig())


# ----------------------------------------------------------------------
# the conservation audit
# ----------------------------------------------------------------------
class TestAudit:
    def test_catches_an_orphan_placement(self):
        table = TenantTable(small_cluster())
        table.admit("a", tenant_venv(1), REDUNDANT)
        table.audit()
        stray = next(iter(tenant_venv(2).guests()))
        table.state.place(stray, table.cluster.host_ids[0])
        with pytest.raises(ModelError, match="belong to no live tenant"):
            table.audit()

    def test_catches_an_orphan_reservation(self):
        table = TenantTable(small_cluster())
        table.admit("a", tenant_venv(1), REDUNDANT)
        u = table.cluster.host_ids[0]
        v = next(iter(table.cluster.neighbors(u)))
        table.state.reserve_path([u, v], 1.0)
        with pytest.raises(ModelError, match="conservation violated on link"):
            table.audit()
        # ...unless the caller declares it as its own reservation
        key = next(e for e in table.state.bandwidth_usage() if set(e) == {u, v})
        table.audit(extra_bw={key: 1.0})


@settings(max_examples=50, deadline=None)
@given(
    shard=st.sampled_from(["off", 2]),
    k=st.sampled_from([0, 1, 2]),
    backup_paths=st.booleans(),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 5)), min_size=1, max_size=10
    ),
)
def test_random_admit_release_conserves(shard, k, backup_paths, ops):
    """Any admit/release interleaving keeps the audit green, and
    releasing every survivor returns the cluster to a virgin state."""
    config = HMNConfig(redundancy=k, backup_paths=backup_paths, shard=shard)
    core = ServiceCore(small_cluster(), config=config)
    for admit, i in ops:
        if admit:
            core.admit(MapRequest(tenant=i, venv=tenant_venv(i)))
        else:
            core.release(i)
        core.tenants.audit()
    for tenant in list(core.live_tenants):
        assert core.release(tenant)
        core.tenants.audit()
    assert_virgin(core)


# ----------------------------------------------------------------------
# store round-trip
# ----------------------------------------------------------------------
def test_redundant_store_resumes_bit_exactly(tmp_path):
    cluster = small_cluster()
    path = tmp_path / "red.jsonl"
    core = ServiceCore.open(cluster, path, config=REDUNDANT)
    decisions = []
    for step, (admit, i) in enumerate(
        [(1, 0), (1, 1), (1, 2), (0, 1), (1, 3), (0, 0), (1, 1), (1, 4), (0, 3)]
    ):
        if admit:
            decisions.append(core.admit(MapRequest(tenant=i, venv=tenant_venv(i))))
        else:
            assert core.release(i)
    assert sum(d.admitted for d in decisions) >= 4
    assert core.tenants.ledger.total_reserved > 0
    core.close()
    written = path.read_text()

    resumed = ServiceCore.resume(cluster, path, config=REDUNDANT)
    assert (resumed.accepted, resumed.rejected) == (core.accepted, core.rejected)
    assert {t: mapping_payload(m) for t, m in resumed.live_tenants.items()} == {
        t: mapping_payload(m) for t, m in core.live_tenants.items()
    }
    assert residual_digest(resumed.state) == residual_digest(core.state)
    assert resumed.tenants.ledger.snapshot() == core.tenants.ledger.snapshot()
    resumed.tenants.audit()
    resumed.close()
    assert path.read_text() == written  # resuming appends nothing


# ----------------------------------------------------------------------
# interrupt safety
# ----------------------------------------------------------------------
def test_interrupt_mid_networking_leaves_state_untouched(monkeypatch):
    core = ServiceCore(small_cluster(), config=REDUNDANT)
    assert core.admit(MapRequest(tenant=0, venv=tenant_venv(0))).admitted
    before = residual_digest(core.state)
    ledger_before = core.tenants.ledger.snapshot()
    real = pipeline.run_networking

    def interrupted(state, venv, config, **kwargs):
        real(state, venv, config, **kwargs)  # reserves, then dies
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "run_networking", interrupted)
    with pytest.raises(KeyboardInterrupt):
        core.admit(MapRequest(tenant=1, venv=tenant_venv(1)))
    assert residual_digest(core.state) == before
    assert core.tenants.ledger.snapshot() == ledger_before
    assert list(core.live_tenants) == [0]
    core.tenants.audit()
