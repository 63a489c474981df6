"""Tests for the experiment store (``repro.service.store``).

The store is the service's only durable state: a JSONL log whose bytes
are a pure function of the operation history.  These tests pin the
``Persistent`` record round-trips, the log-level validation (meta line
first, format tag, damage detection), and the resume contract — a
tampered or truncated log must raise :class:`StoreError`, never yield a
service quietly diverged from its history.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StoreError
from repro.hmn.config import HMNConfig
from repro.io import venv_to_dict
from repro.service import ExperimentStore, MapRequest, ServiceCore, STORE_FORMAT
from repro.service.store import (
    DecisionRecord,
    MappingRecord,
    MetaRecord,
    Persistent,
    ReleaseRecord,
    RequestRecord,
)
from repro.service.types import AdmissionDecision
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters


@pytest.fixture(scope="module")
def cluster():
    return paper_clusters(seed=141, n_hosts=12)["torus"]


def venv_for(i: int, n: int = 12):
    return generate_virtual_environment(
        n, workload=LOW_LEVEL, density=0.05, seed=i, id_offset=i * 100_000
    )


def populated_store(cluster, path, n: int = 6) -> ServiceCore:
    core = ServiceCore.open(cluster, path)
    rng = np.random.default_rng(3)
    for i in range(n):
        core.admit(MapRequest(tenant=i, venv=venv_for(int(rng.integers(1000)) + i)))
    core.release(1)
    core.close()
    return core


# ----------------------------------------------------------------------
# Persistent records
# ----------------------------------------------------------------------
class TestPersistent:
    def test_record_roundtrips(self, cluster):
        decision = AdmissionDecision(
            request_id=1, tenant="t", admitted=True, n_guests=3,
            arrived_at=1, objective=4.5,
        )
        records = [
            MetaRecord(format=STORE_FORMAT, cluster={"name": "c"}, config={}),
            RequestRecord(request_id=1, tenant="t",
                          venv=venv_to_dict(venv_for(0)), priority=2),
            DecisionRecord(decision=decision),
            MappingRecord(request_id=1, mapping={"mapper": "hmn",
                                                 "assignments": {}, "paths": {}}),
            ReleaseRecord(tenant="t"),
        ]
        for rec in records:
            again = Persistent.from_record(rec.to_record())
            assert again == rec
            assert again.to_record() == rec.to_record()

    def test_unknown_kind_rejected(self):
        with pytest.raises(StoreError, match="unknown store record kind"):
            Persistent.from_record({"kind": "snapshot"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(StoreError, match="malformed"):
            Persistent.from_record({"kind": "decision"})  # no fields at all


# ----------------------------------------------------------------------
# the JSONL log
# ----------------------------------------------------------------------
class TestExperimentStore:
    def test_initialize_append_load(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ExperimentStore(path)
        assert not store.exists
        store.initialize(cluster, HMNConfig())
        store.append(ReleaseRecord(tenant=7))
        store.close()
        assert store.exists
        meta, ops = ExperimentStore(path).load()
        assert meta.format == STORE_FORMAT
        assert ops == [ReleaseRecord(tenant=7)]

    def test_lines_are_canonical_json(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        for line in path.read_text().splitlines():
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True,
                                      separators=(",", ":"))

    def test_byte_determinism_across_runs(self, cluster, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        populated_store(cluster, a)
        populated_store(cluster, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_json_line(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        path.write_text(path.read_text() + "{truncated\n")
        with pytest.raises(StoreError, match="corrupt"):
            ExperimentStore(path).load()

    def test_non_object_line(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        path.write_text(path.read_text() + "[1,2]\n")
        with pytest.raises(StoreError, match="not an object"):
            ExperimentStore(path).load()

    def test_first_record_must_be_meta(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind":"release","tenant":1}\n')
        with pytest.raises(StoreError, match="must be 'meta'"):
            ExperimentStore(path).load()

    def test_second_meta_rejected(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        meta_line = path.read_text().splitlines()[0]
        path.write_text(path.read_text() + meta_line + "\n")
        with pytest.raises(StoreError, match="second 'meta'"):
            ExperimentStore(path).load()

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"kind": "meta", "format": "repro/other@9",
                                    "cluster": {}, "config": {}}) + "\n")
        with pytest.raises(StoreError, match="format"):
            ExperimentStore(path).load()

    def test_empty_store_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("")
        with pytest.raises(StoreError, match="empty store"):
            ExperimentStore(path).load()


# ----------------------------------------------------------------------
# resume semantics
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_restores_accounting(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        original = populated_store(cluster, path)
        resumed = ServiceCore.resume(cluster, path)
        assert resumed.accepted == original.accepted
        assert resumed.rejected == original.rejected
        assert sorted(resumed.live_tenants) == sorted(original.live_tenants)
        resumed.close()

    def test_resume_rebuilds_cluster_from_meta(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        resumed = ServiceCore.resume(None, path)
        assert sorted(resumed.cluster.host_ids) == sorted(cluster.host_ids)
        resumed.close()

    def test_resume_rejects_foreign_cluster(self, tmp_path):
        torus = paper_clusters(seed=141, n_hosts=12)["torus"]
        switched = paper_clusters(seed=141, n_hosts=12)["switched"]
        path = tmp_path / "s.jsonl"
        populated_store(torus, path)
        with pytest.raises(StoreError, match="different cluster"):
            ServiceCore.resume(switched, path)

    def test_resumes_store_written_with_engine_field(self, tmp_path):
        """A store written while ``HMNConfig`` still had an ``engine``
        field (its meta config says ``"compiled"``, one request's
        override ``"dict"``) resumes bit-exactly: every decision and
        mapping replays equal to the stored one, and the residual
        tables match the writing process's final state byte for byte."""
        fixture = Path(__file__).parent / "fixtures" / "service_store_engine_field.jsonl"
        text = fixture.read_text()
        assert '"engine":"compiled"' in text and '"engine":"dict"' in text
        path = tmp_path / "old.jsonl"
        shutil.copyfile(fixture, path)
        resumed = ServiceCore.resume(None, path, config=HMNConfig())
        assert (resumed.accepted, resumed.rejected) == (5, 0)
        assert sorted(resumed.live_tenants) == [0, 2, 3, 4]
        assert resumed.state.objective() == 421.8053819773387
        a = resumed.state.arrays
        residuals = b"".join(x.tobytes() for x in (a.mem, a.stor, a.cpu, a.bw))
        assert hashlib.sha256(residuals).hexdigest() == (
            "e761290cebe1d8f0c807e9e52e5f1bef724d4fdfddd25b871531cc7ea1457bb1"
        )
        resumed.close()
        assert path.read_text() == text  # resuming appends nothing

    def test_resume_rejects_foreign_config(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        with pytest.raises(StoreError, match="different .* config"):
            ServiceCore.resume(cluster, path, config=HMNConfig(router="label_setting"))

    def test_tampered_decision_detected(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["kind"] == "decision" and rec["admitted"]:
                rec["objective"] = (rec["objective"] or 0.0) + 1.0
                lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="diverges"):
            ServiceCore.resume(cluster, path)

    def test_truncated_log_detected(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        lines = path.read_text().splitlines()
        # Chop the log right after a request line: its decision is gone.
        last_request = max(i for i, line in enumerate(lines)
                           if json.loads(line)["kind"] == "request")
        path.write_text("\n".join(lines[: last_request + 1]) + "\n")
        with pytest.raises(StoreError, match="no decision"):
            ServiceCore.resume(cluster, path)

    def test_release_of_unknown_tenant_detected(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        with open(path, "a") as fh:
            fh.write('{"kind":"release","tenant":"ghost"}\n')
        with pytest.raises(StoreError, match="unknown tenant"):
            ServiceCore.resume(cluster, path)

    def test_resumed_store_appends_continue_the_log(self, cluster, tmp_path):
        path = tmp_path / "s.jsonl"
        populated_store(cluster, path)
        before = path.read_text()
        resumed = ServiceCore.resume(cluster, path)
        resumed.admit(MapRequest(tenant="late", venv=venv_for(99)))
        resumed.close()
        after = path.read_text()
        assert after.startswith(before), "resume must never rewrite history"
        assert "late" in after[len(before):]
