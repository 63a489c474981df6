"""Tests for the admission-control replay (``repro.api.replay_admissions``)
and the transactional shared-state guarantee it relies on."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import AdmissionConfig, replay_admissions
from repro.core import ClusterState
from repro.errors import MappingError, ModelError
from repro.hmn import hmn_map
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters


@pytest.fixture(scope="module")
def cluster():
    # Small cluster keeps routing cheap; admission dynamics are the same.
    return paper_clusters(seed=141, n_hosts=12)["torus"]


def make_small(i, rng):
    n = int(rng.integers(20, 50))
    return generate_virtual_environment(
        n, workload=LOW_LEVEL, density=0.05,
        seed=int(rng.integers(2**31 - 1)), id_offset=i * 100_000,
    )


def simulate(cluster, *, n_tenants, make_venv, mean_lifetime=5.0, seed=None):
    config = AdmissionConfig(n_tenants=n_tenants, mean_lifetime=mean_lifetime, seed=seed)
    return replay_admissions(cluster, make_venv=make_venv, config=config)


def make_big(i, rng):
    n = int(rng.integers(150, 250))
    return generate_virtual_environment(
        n, workload=LOW_LEVEL, density=0.05,
        seed=int(rng.integers(2**31 - 1)), id_offset=i * 100_000,
    )


class TestTransactionalSharedState:
    def test_failed_mapping_leaves_shared_state_untouched(self, cluster):
        state = ClusterState(cluster)
        first = generate_virtual_environment(
            100, workload=LOW_LEVEL, density=0.05, seed=1, id_offset=0
        )
        hmn_map(cluster, first, state=state)
        placed_before = state.n_placed
        bw_before = state.bw_array.tobytes()
        objective_before = state.objective()

        # An impossible tenant: more memory than the whole cluster.
        from repro.core import Guest, VirtualEnvironment, VirtualLink

        impossible = VirtualEnvironment()
        for i in range(50):
            impossible.add_guest(Guest(10_000 + i, vproc=10.0, vmem=3073, vstor=10.0))
        impossible.add_vlink(VirtualLink(10_000, 10_001, vbw=0.1, vlat=50.0))
        with pytest.raises(MappingError):
            hmn_map(cluster, impossible, state=state)

        assert state.n_placed == placed_before
        assert state.bw_array.tobytes() == bw_before
        assert state.objective() == pytest.approx(objective_before)

    def test_restore_from_other_cluster_rejected(self, cluster):
        other = paper_clusters(seed=999)["torus"]
        with pytest.raises(ModelError):
            ClusterState(cluster).restore_from(ClusterState(other))

    def test_restore_preserves_live_reference(self, cluster):
        state = ClusterState(cluster)
        snap = state.copy()
        venv = generate_virtual_environment(
            50, workload=LOW_LEVEL, density=0.05, seed=2
        )
        hmn_map(cluster, venv, state=state)
        state.restore_from(snap)
        assert state.n_placed == 0
        # the same object keeps working after restore
        hmn_map(cluster, venv, state=state)
        assert state.n_placed == 50


class TestAdmissionSimulation:
    def test_light_load_accepts_everyone(self, cluster):
        result = simulate(
            cluster, n_tenants=15, make_venv=make_small, mean_lifetime=2.0, seed=7
        )
        assert result.acceptance_ratio == 1.0
        assert result.rejected == 0
        assert len(result.decisions) == 15
        assert all(d.admitted for d in result.decisions)

    def test_heavy_load_rejects_some(self, cluster):
        result = simulate(
            cluster, n_tenants=25, make_venv=make_big, mean_lifetime=15.0, seed=7
        )
        assert result.rejected > 0
        assert 0.0 < result.acceptance_ratio < 1.0
        rejected = [d for d in result.decisions if not d.admitted]
        assert all(d.failure for d in rejected)

    def test_acceptance_monotone_in_lifetime(self, cluster):
        ratios = []
        for lifetime in (2.0, 8.0, 20.0):
            result = simulate(
                cluster, n_tenants=25, make_venv=make_big,
                mean_lifetime=lifetime, seed=7,
            )
            ratios.append(result.acceptance_ratio)
        assert ratios[0] >= ratios[-1]

    def test_deterministic(self, cluster):
        a = simulate(
            cluster, n_tenants=20, make_venv=make_small, mean_lifetime=5.0, seed=11
        )
        b = simulate(
            cluster, n_tenants=20, make_venv=make_small, mean_lifetime=5.0, seed=11
        )
        assert a.decisions == b.decisions

    def test_validation(self, cluster):
        with pytest.raises(ModelError):
            simulate(cluster, n_tenants=0, make_venv=make_small)
        with pytest.raises(ModelError):
            simulate(
                cluster, n_tenants=1, make_venv=make_small, mean_lifetime=0.0
            )

    def test_departures_free_capacity(self, cluster):
        """With lifetime 1 every tenant departs before the next arrives:
        even big tenants must all be admitted."""
        result = simulate(
            cluster, n_tenants=10, make_venv=make_big, mean_lifetime=1.0, seed=3
        )
        assert result.acceptance_ratio == 1.0
        assert result.peak_concurrent_tenants <= 1


class TestDeprecationShim:
    """Admission traces pinned by digest.  They were first pinned on the
    retired ``simulate_admissions`` shim and are now pinned on the
    :func:`~repro.api.replay_admissions` decisions it wrapped, so a
    change to any admission decision still flips a digest."""

    # sha256 of the canonical JSON of the decisions plus the aggregates.
    PINNED = {
        "small": "056db62aa3102b0139719c7ca90b18ff43f642ecd50117cdd2a4d4ec8c6b32a6",
        "big": "86c4e8ce473bd0d6728272df3a7aaf4c66bf4e74208cad1006067e8dcad12db8",
    }

    @staticmethod
    def _digest(report) -> str:
        blob = json.dumps(
            {
                "decisions": [d.to_dict() for d in report.decisions],
                "accepted": report.accepted,
                "rejected": report.rejected,
                "mean_memory_utilization": report.mean_memory_utilization,
                "peak_concurrent_tenants": report.peak_concurrent_tenants,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_trace_byte_identical_to_pre_refactor_small(self, cluster):
        report = simulate(
            cluster, n_tenants=20, make_venv=make_small, mean_lifetime=5.0, seed=11
        )
        assert self._digest(report) == self.PINNED["small"]

    def test_trace_byte_identical_to_pre_refactor_big(self, cluster):
        report = simulate(
            cluster, n_tenants=25, make_venv=make_big, mean_lifetime=15.0, seed=7
        )
        assert self._digest(report) == self.PINNED["big"]
