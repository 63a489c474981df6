"""Tests for the stable public API facade (:mod:`repro.api`).

The facade's contract: everything an experiment script needs is
importable from one place (and re-exported at the package root), the
facade entry points return byte-identical results to the deep imports
they wrap, and configs are keyword-only and reject mistakes with
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro import api
from repro.errors import ConfigError, ModelError
from repro.hmn import hmn_map
from repro.topology import paper_torus, torus_cluster
from repro.workload import HIGH_LEVEL, Scenario, generate_virtual_environment


@pytest.fixture(scope="module")
def cluster():
    return torus_cluster(2, 4, seed=2009)


@pytest.fixture(scope="module")
def venv():
    return generate_virtual_environment(24, workload=HIGH_LEVEL, density=0.05, seed=7)


def canon(mapping):
    """Serialized mapping minus the wall-clock fields (stage timings)."""
    doc = mapping.to_dict()
    doc.pop("stages", None)
    if isinstance(doc.get("meta"), dict):
        doc["meta"].pop("timings", None)
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# surface
# ----------------------------------------------------------------------


class TestSurface:
    def test_all_names_exist(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_package_root_reexports(self):
        import repro

        for name in (
            "api",
            "map_virtual_env",
            "run_grid",
            "run_chaos",
            "load_cluster",
            "load_venv",
            "load_mapping",
            "save",
            "HMNConfig",
            "RepairPolicy",
            "ConfigError",
            "recording",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name
        assert repro.HMNConfig is api.HMNConfig
        assert repro.map_virtual_env is api.map_virtual_env

    def test_deep_imports_keep_working(self):
        from repro.analysis.runner import run_grid  # noqa: F401
        from repro.hmn.pipeline import hmn_map  # noqa: F401
        from repro.io import cluster_from_dict, cluster_to_dict  # noqa: F401

    def test_config_error_is_a_model_error(self):
        assert issubclass(ConfigError, ModelError)


# ----------------------------------------------------------------------
# facade entry points == deep imports
# ----------------------------------------------------------------------


class TestMapVirtualEnv:
    @pytest.mark.parametrize("engine", ["dict", "compiled"])
    def test_byte_identical_to_deep_import(self, cluster, venv, engine):
        # The "dict" arm forwards a differential cache through the
        # facade: every route query is re-run on the dict-space
        # reference routers, and none may disagree.
        from repro.conformance import DifferentialRoutingCache

        cache = DifferentialRoutingCache(cluster) if engine == "dict" else None
        config = api.HMNConfig()
        assert canon(api.map_virtual_env(cluster, venv, config=config, cache=cache)) == canon(
            hmn_map(cluster, venv, config)
        )
        if cache is not None:
            assert cache.checked > 0 and cache.mismatches == []

    def test_default_config(self, cluster, venv):
        assert canon(api.map_virtual_env(cluster, venv)) == canon(
            hmn_map(cluster, venv)
        )

    def test_dict_config_round_trips(self, cluster, venv):
        via_dict = api.map_virtual_env(
            cluster, venv, config={"router": "label_setting", "migration_enabled": False}
        )
        via_config = api.map_virtual_env(
            cluster,
            venv,
            config=api.HMNConfig(router="label_setting", migration_enabled=False),
        )
        assert canon(via_dict) == canon(via_config)

    def test_bad_dict_config_raises_config_error(self, cluster, venv):
        with pytest.raises(ConfigError, match="valid options"):
            api.map_virtual_env(cluster, venv, config={"enigne": "dict"})

    def test_config_is_keyword_only(self, cluster, venv):
        with pytest.raises(TypeError):
            api.map_virtual_env(cluster, venv, api.HMNConfig())


class TestRunGrid:
    def test_matches_deprecated_entry_point(self):
        """``repro.analysis.run_grid``, once a deprecated spelling, is
        now the facade's own function."""
        from repro import analysis
        from repro.analysis import records_to_dicts
        from repro.analysis.runner import run_grid as deep_run_grid

        assert analysis.run_grid is api.run_grid

        scenarios = [Scenario(ratio=2.5, density=0.05, workload=HIGH_LEVEL)]

        def clusters(seed):
            return {"torus": torus_cluster(2, 4, seed=seed)}

        kwargs = dict(reps=2, base_seed=3, simulate=False)
        facade = api.run_grid(clusters, scenarios, ["hmn"], **kwargs)
        deep = deep_run_grid(clusters, scenarios, ["hmn"], **kwargs)

        def rows(records):
            out = records_to_dicts(records)
            for row in out:
                row["map_seconds"] = row["sim_seconds"] = None
            return json.dumps(out, sort_keys=True)

        assert rows(facade) == rows(deep)


class TestRunChaos:
    def test_matches_deep_import(self):
        from repro.resilience import run_chaos as deep_run_chaos

        cluster = paper_torus(seed=5)
        facade = api.run_chaos(cluster, n_events=60, seed=5)
        deep = deep_run_chaos(cluster, n_events=60, seed=5)
        assert facade.to_dict(include_wall=False) == deep.to_dict(include_wall=False)

    def test_dict_config_accepted(self):
        cluster = paper_torus(seed=5)
        via_dict = api.run_chaos(
            cluster, n_events=40, seed=5, config={"router": "label_setting"}
        )
        via_config = api.run_chaos(
            cluster, n_events=40, seed=5, config=api.HMNConfig(router="label_setting")
        )
        assert via_dict.to_dict(include_wall=False) == via_config.to_dict(
            include_wall=False
        )


# ----------------------------------------------------------------------
# keyword-only configs
# ----------------------------------------------------------------------


class TestKeywordOnlyConfigs:
    def test_hmnconfig_rejects_positional(self):
        with pytest.raises(ConfigError, match="keyword arguments only"):
            api.HMNConfig("vbw_desc")

    def test_hmnconfig_rejects_unknown_kwarg_naming_options(self):
        with pytest.raises(ConfigError) as exc:
            api.HMNConfig(ruoter="label_setting")
        assert "ruoter" in str(exc.value)
        assert "router" in str(exc.value)  # the valid options are listed

    def test_hmnconfig_rejects_bad_value(self):
        with pytest.raises(ConfigError, match="unknown router"):
            api.HMNConfig(router="gpu")

    def test_hmnconfig_from_dict_round_trip(self):
        config = api.HMNConfig(router="label_setting", seed=3)
        rebuilt = api.HMNConfig.from_dict(config.describe())
        assert rebuilt == config

    @pytest.mark.parametrize("engine", ["compiled", "dict"])
    def test_hmnconfig_from_dict_drops_retired_engine(self, engine):
        stored = {**api.HMNConfig(seed=3).describe(), "engine": engine}
        assert api.HMNConfig.from_dict(stored) == api.HMNConfig(seed=3)

    def test_hmnconfig_from_dict_rejects_other_engine_values(self):
        with pytest.raises(ConfigError, match="engine"):
            api.HMNConfig.from_dict({"engine": "gpu"})
        with pytest.raises(ConfigError, match="engine"):
            api.HMNConfig(engine="compiled")  # only stored configs may carry it

    def test_hmnconfig_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError, match="expects a mapping"):
            api.HMNConfig.from_dict(["engine", "dict"])

    def test_repair_policy_rejects_positional(self):
        with pytest.raises(ConfigError, match="keyword arguments only"):
            api.RepairPolicy(5)

    def test_repair_policy_rejects_unknown_kwarg(self):
        with pytest.raises(ConfigError, match="max_attempts"):
            api.RepairPolicy(max_attempt=5)

    def test_repair_policy_rejects_bad_value(self):
        with pytest.raises(ConfigError, match="max_attempts"):
            api.RepairPolicy(max_attempts=0)

    def test_configs_still_dataclasses(self):
        assert dataclasses.is_dataclass(api.HMNConfig)
        assert dataclasses.is_dataclass(api.RepairPolicy)
        assert api.RepairPolicy(max_attempts=2) == api.RepairPolicy(max_attempts=2)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


class TestPersistence:
    def test_save_load_round_trip(self, cluster, venv, tmp_path):
        mapping = api.map_virtual_env(cluster, venv)
        paths = {
            "cluster": api.save(cluster, tmp_path / "c.json"),
            "venv": api.save(venv, tmp_path / "v.json"),
            "mapping": api.save(mapping, tmp_path / "m.json"),
        }
        loaded_cluster = api.load_cluster(paths["cluster"])
        loaded_venv = api.load_venv(paths["venv"])
        loaded_mapping = api.load_mapping(paths["mapping"])
        assert list(loaded_cluster.hosts()) == list(cluster.hosts())
        assert loaded_venv.n_guests == venv.n_guests
        assert loaded_mapping.assignments == mapping.assignments
        assert loaded_mapping.paths == mapping.paths

    def test_typed_loaders_reject_wrong_document(self, cluster, tmp_path):
        path = api.save(cluster, tmp_path / "c.json")
        with pytest.raises(ModelError, match="virtual-environment"):
            api.load_venv(path)
        with pytest.raises(ModelError, match="mapping"):
            api.load_mapping(path)

    def test_facade_save_does_not_warn(self, cluster, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            path = api.save(cluster, tmp_path / "c.json")
            api.load_cluster(path)

