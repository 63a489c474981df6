"""Unit tests for repro.io (JSON testbed descriptions)."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro import io as repro_io
from repro.core import Mapping, PhysicalCluster, VirtualEnvironment
from repro.errors import ModelError
from repro.hmn import hmn_map
from repro.topology import paper_switched, paper_torus
from repro.workload import HIGH_LEVEL, generate_virtual_environment


@pytest.fixture
def cluster():
    return paper_torus(seed=91)


@pytest.fixture
def venv():
    return generate_virtual_environment(30, workload=HIGH_LEVEL, seed=92)


class TestClusterRoundtrip:
    def test_roundtrip_preserves_everything(self, cluster):
        data = repro_io.cluster_to_dict(cluster)
        rebuilt = repro_io.cluster_from_dict(data)
        assert list(rebuilt.hosts()) == list(cluster.hosts())
        assert rebuilt.switch_ids == cluster.switch_ids
        assert list(rebuilt.links()) == list(cluster.links())
        assert rebuilt.name == cluster.name

    def test_switched_roundtrip(self):
        cluster = paper_switched(seed=91)
        rebuilt = repro_io.cluster_from_dict(repro_io.cluster_to_dict(cluster))
        assert rebuilt.n_switches == cluster.n_switches
        assert rebuilt.has_link(cluster.host_ids[0], "sw0")

    def test_json_serializable(self, cluster):
        json.dumps(repro_io.cluster_to_dict(cluster))

    def test_wrong_format_rejected(self, cluster):
        data = repro_io.cluster_to_dict(cluster)
        data["format"] = "repro/venv@1"
        with pytest.raises(ModelError, match="expected"):
            repro_io.cluster_from_dict(data)

    def test_unserializable_node_id(self):
        cluster = PhysicalCluster()
        from repro.core import Host

        cluster.add_host(Host((1, 2), proc=1.0, mem=1, stor=1.0))  # tuple id
        with pytest.raises(ModelError, match="not JSON-serializable"):
            repro_io.cluster_to_dict(cluster)


class TestVenvRoundtrip:
    def test_roundtrip(self, venv):
        rebuilt = repro_io.venv_from_dict(repro_io.venv_to_dict(venv))
        assert list(rebuilt.guests()) == list(venv.guests())
        assert list(rebuilt.vlinks()) == list(venv.vlinks())

    def test_json_serializable(self, venv):
        json.dumps(repro_io.venv_to_dict(venv))


class TestMappingRoundtrip:
    def test_roundtrip(self, cluster, venv):
        mapping = hmn_map(cluster, venv)
        rebuilt = repro_io.mapping_from_dict(repro_io.mapping_to_dict(mapping))
        assert dict(rebuilt.assignments) == dict(mapping.assignments)
        assert dict(rebuilt.paths) == dict(mapping.paths)
        assert rebuilt.mapper == "hmn"


class TestFiles:
    def test_save_load_dispatch(self, cluster, venv, tmp_path):
        mapping = hmn_map(cluster, venv)
        paths = {
            "cluster": api.save(cluster, tmp_path / "c.json"),
            "venv": api.save(venv, tmp_path / "v.json"),
            "mapping": api.save(mapping, tmp_path / "m.json"),
        }
        assert isinstance(api.load_cluster(paths["cluster"]), PhysicalCluster)
        assert isinstance(api.load_venv(paths["venv"]), VirtualEnvironment)
        assert isinstance(api.load_mapping(paths["mapping"]), Mapping)

    def test_load_unknown_format(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text('{"format": "repro/alien@9"}')
        with pytest.raises(ModelError, match="unknown format"):
            api.load_cluster(bad)
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ModelError, match="not a JSON object"):
            api.load_cluster(bad)

    def test_save_unknown_type(self, tmp_path):
        with pytest.raises(ModelError, match="cannot serialize"):
            api.save(object(), tmp_path / "x.json")

    def test_full_cycle_still_valid(self, cluster, venv, tmp_path):
        """Save everything, reload, and the mapping still validates."""
        from repro.core import validate_mapping

        mapping = hmn_map(cluster, venv)
        c2 = api.load_cluster(api.save(cluster, tmp_path / "c.json"))
        v2 = api.load_venv(api.save(venv, tmp_path / "v.json"))
        m2 = api.load_mapping(api.save(mapping, tmp_path / "m.json"))
        validate_mapping(c2, v2, m2)
