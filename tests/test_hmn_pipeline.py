"""Unit tests for the full HMN pipeline and its configuration."""

from __future__ import annotations

import pytest

from repro.core import ClusterState, is_valid, validate_mapping
from repro.errors import ModelError
from repro.hmn import HMNConfig, hmn_map
from repro.routing import RoutingCache
from repro.topology import paper_switched, paper_torus
from repro.workload import HIGH_LEVEL, generate_virtual_environment


@pytest.fixture(scope="module")
def torus():
    return paper_torus(seed=21)


@pytest.fixture(scope="module")
def venv100():
    return generate_virtual_environment(100, workload=HIGH_LEVEL, seed=22)


class TestConfig:
    def test_defaults_are_paper(self):
        cfg = HMNConfig.paper()
        assert cfg == HMNConfig()
        assert cfg.link_order == "vbw_desc"
        assert cfg.migration_enabled
        assert cfg.migration_policy == "min_intra_bw"
        assert cfg.routing_metric == "bottleneck"

    def test_invalid_fields_rejected(self):
        with pytest.raises(ModelError):
            HMNConfig(link_order="zigzag")
        with pytest.raises(ModelError):
            HMNConfig(migration_policy="coinflip")
        with pytest.raises(ModelError):
            HMNConfig(migration_origin="loudest")
        with pytest.raises(ModelError):
            HMNConfig(routing_metric="vibes")
        with pytest.raises(ModelError):
            HMNConfig(migration_max_iterations=-1)
        with pytest.raises(ModelError):
            HMNConfig(max_route_expansions=0)

    def test_describe_is_json_friendly(self):
        import json

        assert json.dumps(HMNConfig().describe())


class TestPipeline:
    def test_produces_valid_mapping(self, torus, venv100):
        mapping = hmn_map(torus, venv100)
        validate_mapping(torus, venv100, mapping)
        assert mapping.mapper == "hmn"
        assert mapping.n_guests == 100
        assert mapping.n_paths == venv100.n_vlinks

    def test_stage_reports_present(self, torus, venv100):
        mapping = hmn_map(torus, venv100)
        assert [s.name for s in mapping.stages] == ["hosting", "migration", "networking"]
        assert mapping.total_elapsed_s > 0
        assert mapping.meta["objective"] >= 0
        assert mapping.meta["config"]["link_order"] == "vbw_desc"

    def test_deterministic(self, torus, venv100):
        a = hmn_map(torus, venv100)
        b = hmn_map(torus, venv100)
        assert dict(a.assignments) == dict(b.assignments)
        assert dict(a.paths) == dict(b.paths)

    def test_migration_disabled_variant(self, torus, venv100):
        mapping = hmn_map(torus, venv100, HMNConfig(migration_enabled=False))
        assert [s.name for s in mapping.stages] == ["hosting", "networking"]
        assert mapping.mapper == "hmn-nomigration"
        assert is_valid(torus, venv100, mapping)

    def test_migration_never_hurts_objective(self, torus, venv100):
        with_migration = hmn_map(torus, venv100)
        without = hmn_map(torus, venv100, HMNConfig(migration_enabled=False))
        assert with_migration.meta["objective"] <= without.meta["objective"] + 1e-9

    def test_objective_meta_matches_recomputation(self, torus, venv100):
        mapping = hmn_map(torus, venv100)
        assert mapping.meta["objective"] == pytest.approx(mapping.objective(torus, venv100))

    def test_shared_oracle(self, torus, venv100):
        cache = RoutingCache(torus)
        hmn_map(torus, venv100, cache=cache)
        first = cache.label_tables
        hits = cache.label_hits
        hmn_map(torus, venv100, cache=cache)
        assert cache.label_tables == first  # second mapping hits the tables only
        assert cache.label_hits > hits

    def test_preplaced_state_multi_tenant(self, torus, venv100):
        state = ClusterState(torus)
        first = hmn_map(torus, venv100, state=state)
        second_venv = generate_virtual_environment(
            50, workload=HIGH_LEVEL, seed=33, id_offset=1000
        )
        second = hmn_map(torus, second_venv, state=state)
        validate_mapping(torus, second_venv, second)
        # both tenants' reservations coexist in the shared state
        assert state.n_placed == 150

    def test_switched_cluster(self, venv100):
        cluster = paper_switched(seed=21)
        mapping = hmn_map(cluster, venv100)
        validate_mapping(cluster, venv100, mapping)
        # on the switched fabric every inter-host path is host-sw...-host
        for key, path in mapping.paths.items():
            if len(path) > 1:
                assert all(cluster.is_switch(n) for n in path[1:-1])

    def test_works_on_every_builtin_topology(self, venv100):
        from repro.topology import (
            hypercube_cluster,
            mesh_cluster,
            random_cluster,
            ring_cluster,
            tree_cluster,
        )

        venv = generate_virtual_environment(30, workload=HIGH_LEVEL, seed=5)
        for cluster in (
            ring_cluster(12, seed=1),
            mesh_cluster(3, 4, seed=1),
            hypercube_cluster(4, seed=1),
            tree_cluster(12, hosts_per_leaf=4, seed=1),
            random_cluster(12, density=0.3, seed=1),
        ):
            mapping = hmn_map(cluster, venv)
            validate_mapping(cluster, venv, mapping)
