"""Tests for the availability subsystem (:mod:`repro.redundancy`).

Covers the four layers below the chaos operator:

* **failure domains** — structural classification (pod / rack / host
  level) is deterministic, total over hosts, and cached on the state;
* **k-redundant placement** — cold standbys cost memory/storage but
  never CPU, spread across domains (anti-affinity), and leave the
  Eq. 10 objective untouched;
* **disjoint routing** — backup paths share no link (or node) with
  their primary, and the drain trick leaves the state byte-identical;
* **backup ledger** — shared-risk reservations are max-over-risks not
  sum, retire exactly, and snapshot/restore in lockstep with the
  state;

plus the headline conformance guarantee: enabling redundancy never
changes the primary mapping's digest — with every route checked
against the reference routers, and across the shard pipeline.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import digest
from repro.core.state import ClusterState, path_edges
from repro.errors import ModelError
from repro.hmn import HMNConfig, hmn_map
from repro.redundancy import (
    BackupLedger,
    backup_route,
    derive_domains,
    plan_replicas,
    redundancy_records,
    replica_guest,
    replica_id,
    risks_of_path,
    REPLICA_STRIDE,
)
from repro.routing.cache import RoutingCache
from repro.topology import fat_tree_cluster, switched_cluster, torus_cluster
from repro.workload import HIGH_LEVEL, LOW_LEVEL, generate_virtual_environment, paper_clusters

SEED = 2009


@pytest.fixture(scope="module")
def torus():
    return torus_cluster(3, 3, seed=SEED)


@pytest.fixture(scope="module")
def fat_tree():
    return fat_tree_cluster(4, seed=SEED)


@pytest.fixture(scope="module")
def cascade():
    return switched_cluster(40, ports=16, seed=SEED)


def _venv(n=6, seed=SEED, density=0.4):
    return generate_virtual_environment(
        n, workload=LOW_LEVEL, density=density, seed=seed
    )


# ----------------------------------------------------------------------
# failure domains
# ----------------------------------------------------------------------


class TestFailureDomains:
    def test_fat_tree_is_pod_level(self, fat_tree):
        domains = derive_domains(fat_tree)
        assert domains.level == "pod"
        assert domains.n_domains >= 2
        for h in fat_tree.host_ids:
            assert domains.domain_of(h).startswith("pod:")

    def test_cascade_is_rack_level(self, cascade):
        domains = derive_domains(cascade)
        assert domains.level == "rack"
        assert domains.n_domains == 3  # 40 hosts / 14 host-ports per switch

    def test_single_switch_falls_back_to_host_level(self):
        cluster = paper_clusters(seed=SEED)["switched"]
        domains = derive_domains(cluster)
        assert domains.level == "host"
        assert domains.n_domains == cluster.n_hosts

    def test_total_and_deterministic(self, fat_tree):
        a = derive_domains(fat_tree)
        b = derive_domains(fat_tree)
        assert {h: a.domain_of(h) for h in fat_tree.host_ids} == {
            h: b.domain_of(h) for h in fat_tree.host_ids
        }
        for h in fat_tree.host_ids:
            assert a.hosts_in(a.domain_of(h))

    def test_cached_on_state_and_shared_by_copy(self, fat_tree):
        state = ClusterState(fat_tree)
        domains = state.failure_domains
        assert state.failure_domains is domains
        assert state.copy().failure_domains is domains

    def test_describe_is_json_safe(self, cascade):
        doc = derive_domains(cascade).describe()
        json.dumps(doc)
        assert doc["level"] == "rack"


# ----------------------------------------------------------------------
# replica identity + placement
# ----------------------------------------------------------------------


class TestReplicaPlacement:
    def test_replica_ids_never_collide(self):
        seen = set()
        for g in range(50):
            for i in range(REPLICA_STRIDE):
                rid = replica_id(g, i)
                assert rid < 0
                seen.add(rid)
        assert len(seen) == 50 * REPLICA_STRIDE

    def test_replica_id_rejects_bad_input(self):
        with pytest.raises(ModelError):
            replica_id(-1, 0)
        with pytest.raises(ModelError):
            replica_id(3, REPLICA_STRIDE)

    def test_replica_guest_is_cpu_free(self):
        venv = _venv()
        g = venv.guest(sorted(venv.guest_ids)[0])
        r = replica_guest(g, 2)
        assert r.vproc == 0.0
        assert (r.vmem, r.vstor) == (g.vmem, g.vstor)
        assert r.id == replica_id(g.id, 2)

    def test_plan_spreads_across_domains(self, fat_tree):
        state = ClusterState(fat_tree)
        venv = _venv(4)
        hmn_map(fat_tree, venv, HMNConfig(), state=state)
        replicas, stats = plan_replicas(state, venv, 1)
        domains = state.failure_domains
        assert stats["replicas_strict"] == venv.n_guests
        for g, placed in replicas.items():
            assert len(placed) == 1
            (rid, host) = placed[0]
            assert host != state.host_of(g)
            assert domains.domain_of(host) != domains.domain_of(state.host_of(g))

    def test_objective_and_cpu_untouched(self, fat_tree):
        state = ClusterState(fat_tree)
        venv = _venv(4)
        hmn_map(fat_tree, venv, HMNConfig(), state=state)
        before_obj = state.objective()
        before_proc = {h: state.residual_proc(h) for h in fat_tree.host_ids}
        replicas, _ = plan_replicas(state, venv, 2)
        assert state.objective() == before_obj
        assert {h: state.residual_proc(h) for h in fat_tree.host_ids} == before_proc
        # ...but the memory bill is real.
        hosts = {h for placed in replicas.values() for _rid, h in placed}
        assert any(
            state.residual_mem(h) < ClusterState(fat_tree).residual_mem(h)
            for h in hosts
        )


# ----------------------------------------------------------------------
# disjoint backup routing
# ----------------------------------------------------------------------


class TestBackupRoute:
    def test_torus_backups_are_link_disjoint(self, torus):
        state = ClusterState(torus)
        venv = _venv(4)
        mapping = hmn_map(torus, venv, HMNConfig(), state=state)
        cache = RoutingCache(torus)
        for key, primary in mapping.paths.items():
            if len(primary) < 2:
                continue
            link = venv.vlink(*key)
            found = backup_route(
                state, cache, primary, bandwidth=link.vbw, latency_bound=link.vlat
            )
            if found is None:
                continue
            nodes, kind = found
            assert kind in ("node", "link")
            assert (nodes[0], nodes[-1]) == (primary[0], primary[-1])
            assert not set(path_edges(nodes)) & set(path_edges(primary))
            if kind == "node":
                assert not set(nodes[1:-1]) & set(primary[1:-1])

    def test_single_homed_hosts_have_no_backup(self):
        cluster = paper_clusters(seed=SEED)["switched"]
        state = ClusterState(cluster)
        venv = _venv(4)
        mapping = hmn_map(cluster, venv, HMNConfig(), state=state)
        cache = RoutingCache(cluster)
        for key, primary in mapping.paths.items():
            if len(primary) < 2:
                continue
            link = venv.vlink(*key)
            assert (
                backup_route(
                    state, cache, primary, bandwidth=link.vbw, latency_bound=link.vlat
                )
                is None
            )

    def test_drain_leaves_state_untouched(self, torus):
        state = ClusterState(torus)
        venv = _venv(4)
        mapping = hmn_map(torus, venv, HMNConfig(), state=state)
        cache = RoutingCache(torus)
        before = {e: state.residual_bw(*e) for e in torus.link_keys}
        for key, primary in mapping.paths.items():
            if len(primary) < 2:
                continue
            link = venv.vlink(*key)
            backup_route(
                state, cache, primary, bandwidth=link.vbw, latency_bound=link.vlat
            )
        assert {e: state.residual_bw(*e) for e in torus.link_keys} == before


# ----------------------------------------------------------------------
# the shared-risk ledger
# ----------------------------------------------------------------------


class TestBackupLedger:
    def _path(self, cluster):
        # any host-switch-host path of a cascade
        sw = cluster.switch_ids[0]
        hosts = [h for h in cluster.host_ids if sw in cluster.neighbors(h)]
        return (hosts[0], sw, hosts[1])

    def test_disjoint_risks_share_headroom(self, cascade):
        state = ClusterState(cascade)
        ledger = BackupLedger(state)
        nodes = self._path(cascade)
        r1 = frozenset({("edge", "a", "b")})
        r2 = frozenset({("edge", "c", "d")})
        assert ledger.try_add(nodes, 100.0, r1)
        after_one = ledger.total_reserved
        assert ledger.try_add(nodes, 100.0, r2)
        # max-over-risks: the second backup rides the same reservation.
        assert ledger.total_reserved == after_one

    def test_shared_risk_sums(self, cascade):
        state = ClusterState(cascade)
        ledger = BackupLedger(state)
        nodes = self._path(cascade)
        risk = frozenset({("edge", "a", "b")})
        assert ledger.try_add(nodes, 100.0, risk)
        one = ledger.total_reserved
        assert ledger.try_add(nodes, 100.0, risk)
        assert ledger.total_reserved == pytest.approx(2 * one)

    def test_remove_restores_exactly(self, cascade):
        state = ClusterState(cascade)
        ledger = BackupLedger(state)
        nodes = self._path(cascade)
        before = {e: state.residual_bw(*e) for e in cascade.link_keys}
        r1 = frozenset({("edge", "a", "b")})
        r2 = frozenset({("node", "x")})
        ledger.try_add(nodes, 80.0, r1)
        ledger.try_add(nodes, 50.0, r2)
        ledger.remove(nodes, 50.0, r2)
        ledger.remove(nodes, 80.0, r1)
        assert ledger.total_reserved == 0.0
        assert {e: state.residual_bw(*e) for e in cascade.link_keys} == before

    def test_activate_promotes_to_primary(self, cascade):
        state = ClusterState(cascade)
        ledger = BackupLedger(state)
        nodes = self._path(cascade)
        risk = frozenset({("edge", "a", "b")})
        ledger.try_add(nodes, 100.0, risk)
        free = state.residual_bw(nodes[0], nodes[1])
        ledger.activate(nodes, 100.0, risk)
        assert ledger.total_reserved == 0.0
        # the 100 stays reserved — now as live primary bandwidth
        assert state.residual_bw(nodes[0], nodes[1]) == pytest.approx(free)

    def test_try_add_refuses_over_capacity(self, cascade):
        state = ClusterState(cascade)
        ledger = BackupLedger(state)
        nodes = self._path(cascade)
        cap = state.residual_bw(nodes[0], nodes[1])
        assert not ledger.try_add(nodes, cap + 1.0, frozenset({("node", "x")}))
        assert ledger.total_reserved == 0.0

    def test_snapshot_restore_round_trip(self, cascade):
        state = ClusterState(cascade)
        ledger = BackupLedger(state)
        nodes = self._path(cascade)
        ledger.try_add(nodes, 60.0, frozenset({("edge", "a", "b")}))
        snap_state = state.copy()
        snap = ledger.snapshot()
        at_snapshot = ledger.total_reserved  # 60 per edge of the path
        ledger.try_add(nodes, 70.0, frozenset({("node", "y")}))
        ledger.activate(nodes, 60.0, frozenset({("edge", "a", "b")}))
        state.restore_from(snap_state)
        ledger.restore(snap)
        assert ledger.total_reserved == pytest.approx(at_snapshot)
        assert ledger.describe()["degraded_bw"] == 0.0


# ----------------------------------------------------------------------
# the pipeline stage + digest identity
# ----------------------------------------------------------------------


class TestRedundancyStage:
    def test_k0_is_off(self, torus):
        mapping = hmn_map(torus, _venv(4), HMNConfig())
        assert "redundancy" not in mapping.meta
        assert all(s.name != "redundancy" for s in mapping.stages)

    def test_stage_report_and_meta(self, torus):
        config = HMNConfig(redundancy=2, backup_paths=True)
        mapping = hmn_map(torus, _venv(4), config)
        assert mapping.stages[-1].name == "redundancy"
        block = mapping.meta["redundancy"]
        json.dumps(block)  # JSON-safe end to end
        assert block["k"] == 2
        assert block["backup_paths"] is True
        assert block["reserved_bw"] >= 0.0
        replicas, backups, disjoint = redundancy_records(mapping)
        assert set(disjoint) == set(backups)
        for g, placed in replicas.items():
            assert g in mapping.assignments
            for rid, host in placed:
                assert rid < 0

    def test_records_empty_without_redundancy(self, torus):
        mapping = hmn_map(torus, _venv(4), HMNConfig())
        assert redundancy_records(mapping) == ({}, {}, {})

    @pytest.mark.parametrize("engine", ["dict", "compiled"])
    def test_digest_identity_across_k(self, torus, engine):
        # The "dict" arm routes the redundant run through the
        # differential cache: every primary and backup route is re-run
        # on the dict-space reference routers and must agree.
        from repro.conformance import DifferentialRoutingCache

        cache = DifferentialRoutingCache(torus) if engine == "dict" else None
        # High-level guests do not all fit one host, so links get
        # primary and backup routes.
        venv = generate_virtual_environment(
            10, workload=HIGH_LEVEL, density=0.4, seed=SEED
        )
        base = hmn_map(torus, venv, HMNConfig())
        red = hmn_map(
            torus, venv, HMNConfig(redundancy=2, backup_paths=True), cache=cache
        )
        assert digest(torus, venv, base) == digest(torus, venv, red)
        if cache is not None:
            assert cache.checked > 0 and cache.mismatches == []

    def test_digest_identity_under_shard(self, fat_tree):
        venv = _venv(6, density=0.3)
        base = hmn_map(fat_tree, venv, HMNConfig(shard=2))
        red = hmn_map(
            fat_tree, venv, HMNConfig(shard=2, redundancy=1, backup_paths=True)
        )
        assert digest(fat_tree, venv, base) == digest(fat_tree, venv, red)
        assert "redundancy" in red.meta

    def test_risks_of_path_excludes_endpoints(self):
        risks = risks_of_path(("a", "s1", "s2", "b"))
        assert ("node", "s1") in risks and ("node", "s2") in risks
        assert ("node", "a") not in risks and ("node", "b") not in risks
        assert sum(1 for r in risks if r[0] == "edge") == 3

    def test_shared_state_rolls_back_on_failure(self, torus):
        # A redundancy-stage crash must not leak replicas into a
        # caller-owned state.
        state = ClusterState(torus)
        venv = _venv(4)
        before = ClusterState(torus)
        config = HMNConfig(redundancy=1)

        import repro.hmn.pipeline as pipeline

        original = pipeline._with_redundancy

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        pipeline._with_redundancy = boom
        try:
            with pytest.raises(RuntimeError):
                hmn_map(torus, venv, config, state=state)
        finally:
            pipeline._with_redundancy = original
        for h in torus.host_ids:
            assert state.residual_mem(h) == before.residual_mem(h)
            assert state.residual_proc(h) == before.residual_proc(h)


# ----------------------------------------------------------------------
# property: snapshot/rollback round-trips the whole availability state
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_snapshot_rollback_round_trip(data):
    """Blocked hosts + degraded-link masks + ledger reservations all
    roll back together through copy/restore_from + snapshot/restore."""
    cluster = torus_cluster(2, 3, seed=SEED)
    state = ClusterState(cluster)
    venv = _venv(4, seed=data.draw(st.integers(0, 2**20)))
    try:
        hmn_map(cluster, venv, HMNConfig(redundancy=1, backup_paths=True), state=state)
    except Exception:
        return  # infeasible draw: nothing to round-trip
    ledger = BackupLedger(state)
    hosts = sorted(cluster.host_ids, key=repr)
    links = sorted(cluster.link_keys, key=repr)

    blocked = data.draw(st.sets(st.sampled_from(hosts), max_size=2))
    for h in blocked:
        state.block_host(h)
    path = links[data.draw(st.integers(0, len(links) - 1))]
    bw = data.draw(st.floats(1.0, 50.0))
    ledger.try_add(path, bw, frozenset({("node", "p")}))

    snap_state = state.copy()
    snap_ledger = ledger.snapshot()
    fingerprint = (
        {e: state.residual_bw(*e) for e in links},
        {h: (state.residual_mem(h), state.residual_proc(h)) for h in hosts},
        state.blocked_hosts,
        ledger.total_reserved,
    )

    # arbitrary mutations
    more = data.draw(st.sampled_from(hosts))
    if more not in blocked:
        state.block_host(more)
    ledger.try_add(path, data.draw(st.floats(1.0, 20.0)), frozenset({("node", "q")}))
    try:
        ledger.activate(path, bw, frozenset({("node", "p")}))
    except Exception:
        pass

    state.restore_from(snap_state)
    ledger.restore(snap_ledger)
    assert fingerprint == (
        {e: state.residual_bw(*e) for e in links},
        {h: (state.residual_mem(h), state.residual_proc(h)) for h in hosts},
        state.blocked_hosts,
        ledger.total_reserved,
    )
