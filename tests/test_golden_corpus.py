"""Golden corpus: digest canonicalization and GOLDEN.json conformance."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import conformance
from repro.conformance import corpus as corpus_mod
from repro.core.mapping import Mapping
from repro.errors import ModelError
from repro.hmn.config import HMNConfig
from repro.hmn.pipeline import hmn_map
from repro.topology import line_cluster
from repro.workload import generate_virtual_environment


@pytest.fixture(scope="module")
def small_instance():
    cluster = line_cluster(4, seed=7)
    venv = generate_virtual_environment(6, density=0.4, seed=7)
    return cluster, venv


class TestDigest:
    def test_deterministic(self, small_instance):
        cluster, venv = small_instance
        d1 = conformance.digest(cluster, venv, hmn_map(cluster, venv))
        d2 = conformance.digest(cluster, venv, hmn_map(cluster, venv))
        assert d1 == d2
        assert len(d1) == 64  # sha256 hex

    def test_engine_independent(self, small_instance):
        """Routing every query through the reference routers too
        (the differential cache) finds no disagreement and leaves the
        digest unchanged."""
        cluster, venv = small_instance
        cache = conformance.DifferentialRoutingCache(cluster)
        m_checked = hmn_map(cluster, venv, HMNConfig(), cache=cache)
        m_plain = hmn_map(cluster, venv, HMNConfig())
        assert cache.checked > 0 and cache.mismatches == []
        assert conformance.digest(cluster, venv, m_checked) == conformance.digest(
            cluster, venv, m_plain
        )

    def test_wall_clock_excluded(self, small_instance):
        # Same assignments/paths, different stage telemetry: same digest.
        cluster, venv = small_instance
        m = hmn_map(cluster, venv)
        stripped = dataclasses.replace(m, stages=(), meta={})
        assert conformance.digest(cluster, venv, m) == conformance.digest(
            cluster, venv, stripped
        )

    def test_any_output_change_flips_digest(self):
        # An isolated guest can be relocated without touching any path,
        # so the altered mapping stays valid — only the digest may react.
        from repro.core import Guest, VirtualEnvironment, VirtualLink

        cluster = line_cluster(3, seed=1)
        venv = VirtualEnvironment(name="with-loner")
        venv.add_guest(Guest(0, vproc=60.0, vmem=64, vstor=10.0))
        venv.add_guest(Guest(1, vproc=50.0, vmem=64, vstor=10.0))
        venv.add_guest(Guest(2, vproc=40.0, vmem=64, vstor=10.0))
        venv.add_vlink(VirtualLink(0, 1, vbw=5.0, vlat=100.0))
        m = hmn_map(cluster, venv)
        base = conformance.digest(cluster, venv, m)
        new_host = next(h for h in cluster.host_ids if h != m.assignments[2])
        moved = dataclasses.replace(m, assignments={**m.assignments, 2: new_host})
        assert conformance.digest(cluster, venv, moved) != base

    def test_invalid_mapping_rejected(self, small_instance):
        cluster, venv = small_instance
        with pytest.raises(ModelError, match="invalid mapping"):
            conformance.digest(cluster, venv, Mapping(assignments={}, paths={}))

    def test_canonical_json_is_strict(self, small_instance):
        cluster, venv = small_instance
        doc = conformance.canonical_document(cluster, venv, hmn_map(cluster, venv))
        text = conformance.canonical_json(doc)
        assert json.loads(text)["format"] == conformance.DIGEST_FORMAT
        assert " " not in text.split('"assignments"')[0]  # no whitespace


class TestTiers:
    """The scale tier: present, pinned, and never paid for by default."""

    def test_scale_case_registered(self):
        case = conformance.case_by_name("scale-fat-tree-100k")
        assert case.tier == "scale"
        assert case.kind == "mapping"
        assert conformance.load_golden()["scale-fat-tree-100k"]

    def test_tier_filtering(self):
        fast = conformance.corpus_cases("fast")
        scale = conformance.corpus_cases("scale")
        assert conformance.corpus_cases("all") == conformance.CORPUS
        assert set(fast) | set(scale) == set(conformance.CORPUS)
        assert all(c.tier == "fast" for c in fast)
        assert {c.name for c in scale} == {"scale-fat-tree-100k"}
        with pytest.raises(ModelError, match="unknown corpus tier"):
            conformance.corpus_cases("sideways")

    def test_default_verify_skips_scale_tier(self, monkeypatch):
        def boom():
            raise AssertionError("scale case recomputed by default")

        fast = conformance.case_by_name("family-line")
        scale = dataclasses.replace(
            conformance.case_by_name("scale-fat-tree-100k"), _builder=boom
        )
        monkeypatch.setattr(corpus_mod, "CORPUS", (fast, scale))
        mismatches = conformance.verify(golden={})
        assert [m.name for m in mismatches] == ["family-line"]

    def test_write_golden_preserves_scale_digests(self, tmp_path, monkeypatch):
        import json as json_mod

        def boom():
            raise AssertionError("write_golden recomputed a scale case")

        fast = conformance.case_by_name("family-line")
        scale = dataclasses.replace(
            conformance.case_by_name("scale-fat-tree-100k"), _builder=boom
        )
        monkeypatch.setattr(corpus_mod, "CORPUS", (fast, scale))
        path = tmp_path / "golden.json"
        path.write_text(json_mod.dumps({
            "format": f"{conformance.DIGEST_FORMAT}-golden",
            "corpus_seed": conformance.CORPUS_SEED,
            "digests": {
                "scale-fat-tree-100k": "f" * 64,
                "stale-removed-case": "0" * 64,
            },
        }))
        conformance.write_golden(path)  # default tier: fast only
        golden = conformance.load_golden(path)
        assert golden["scale-fat-tree-100k"] == "f" * 64  # carried over
        assert "stale-removed-case" not in golden  # dropped
        assert len(golden["family-line"]) == 64  # recomputed


class TestGoldenFile:
    def test_golden_file_committed_and_complete(self):
        golden = conformance.load_golden()
        assert set(golden) == {c.name for c in conformance.CORPUS}
        assert all(len(d) == 64 for d in golden.values())

    def test_corpus_case_lookup(self):
        case = conformance.case_by_name("family-torus")
        assert case.kind == "mapping"
        with pytest.raises(ModelError, match="unknown corpus case"):
            conformance.case_by_name("no-such-case")
        with pytest.raises(ModelError, match="not a mapping"):
            conformance.case_by_name("chaos-fat-tree-60").instance()

    def test_family_cases_conformant(self):
        # The paper-scale rows and chaos traces run in CI via the CLI;
        # the per-family cases are cheap enough for the tier-1 loop.
        cases = [c for c in conformance.CORPUS if c.name.startswith(("family-", "config-"))]
        assert conformance.verify(cases) == []

    def test_unrecorded_case_is_a_mismatch(self):
        case = conformance.case_by_name("family-line")
        [m] = conformance.verify([case], golden={})
        assert m.expected == "<unrecorded>"
        assert m.name == "family-line"

    def test_mapper_change_fails_verify(self, monkeypatch):
        """The acceptance demonstration: alter mapper behavior (here:
        silently disable the Migration stage) and the corpus catches it.
        """
        real = corpus_mod.hmn_map

        def patched(cluster, venv, config=None, **kwargs):
            config = config if config is not None else HMNConfig()
            return real(
                cluster, venv, dataclasses.replace(config, migration_enabled=False),
                **kwargs,
            )

        monkeypatch.setattr(corpus_mod, "hmn_map", patched)
        case = conformance.case_by_name("family-switched")
        mismatches = conformance.verify([case])
        assert len(mismatches) == 1
        # The sabotaged run is exactly the committed no-migration
        # ablation digest — the mismatch is behavioral, not noise.
        golden = conformance.load_golden()
        assert mismatches[0].actual == golden["config-no-migration"]

    def test_write_golden_round_trips(self, tmp_path, monkeypatch):
        # Regenerate only two cheap cases into a temp file and confirm
        # load/verify round-trips through it.
        cases = (
            conformance.case_by_name("family-line"),
            conformance.case_by_name("family-ring"),
        )
        monkeypatch.setattr(corpus_mod, "CORPUS", cases)
        path = conformance.write_golden(tmp_path / "golden.json")
        golden = conformance.load_golden(path)
        assert set(golden) == {"family-line", "family-ring"}
        assert conformance.verify(cases, golden=golden) == []

    def test_load_golden_rejects_other_files(self, tmp_path):
        p = tmp_path / "not-golden.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ModelError, match="not a golden digest file"):
            conformance.load_golden(p)
