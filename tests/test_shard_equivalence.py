"""Production-vs-oracle stage equivalence and sharding quality battery.

Three layers of proof that the production stages decide what the
paper's rules decide, and that sharding changes *scale*, not
*semantics*:

1. **Decision equivalence** (property-tested): the production
   :func:`run_hosting`/:func:`run_migration` (the vectorized pod stages
   on one whole-cluster pod) pick exactly the placements and moves of
   the list-walking oracle in :mod:`repro.conformance.stages` — on
   empty states and on states another tenant loaded first, sometimes
   with a blocked host, under every migration origin, policy and
   exhaustiveness — with equal stats, failures and bit-equal residuals.
2. **Byte identity**: ``shard="off"`` and ``shard="auto"`` below the
   size floor produce digest-identical mappings (all pre-existing
   results are untouched by the sharding subsystem's existence).
3. **Bounded quality**: on dual-run sizes the sharded objective stays
   within the documented ratio of the monolithic one, and the sharded
   mapping always satisfies every constraint.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mapping_digest
from repro.conformance.stages import reference_hosting, reference_migration
from repro.core import ClusterState, validate_mapping
from repro.errors import CapacityError, MappingError
from repro.hmn import HMNConfig, hmn_map, run_hosting, run_migration
from repro.shard import SHARD_QUALITY_RATIO, SHARD_QUALITY_SLACK, shard_map
from repro.topology import random_cluster, switched_cluster, torus_cluster
from repro.topology.fattree import fat_tree_cluster
from repro.workload import HIGH_LEVEL, LOW_LEVEL, generate_virtual_environment

ORIGINS = ("loaded_min_residual", "strict_min_residual", "max_usage")
POLICIES = ("min_intra_bw", "max_vproc", "random")

TOPOLOGY_BUILDERS = (
    lambda seed: torus_cluster(3, 4, seed=seed),
    lambda seed: switched_cluster(12, seed=seed),
    lambda seed: random_cluster(10, density=0.3, seed=seed),
    lambda seed: fat_tree_cluster(4, seed=seed),
)


@st.composite
def pod_instance(draw):
    builder = TOPOLOGY_BUILDERS[draw(st.integers(0, len(TOPOLOGY_BUILDERS) - 1))]
    cluster = builder(draw(st.integers(0, 10_000)))
    n_guests = draw(st.integers(2, 30))
    workload = draw(st.sampled_from([HIGH_LEVEL, LOW_LEVEL]))
    venv = generate_virtual_environment(
        n_guests, workload=workload, seed=draw(st.integers(0, 10_000))
    )
    return cluster, venv


def preload(cluster, other, blocked=None):
    """A state another tenant (*other*) was mapped onto first; a failed
    mapping leaves it empty.  *blocked* is then masked, guests and all."""
    state = ClusterState(cluster)
    try:
        hmn_map(cluster, other, HMNConfig(), state=state)
    except MappingError:
        pass
    if blocked is not None:
        state.block_host(blocked)
    return state


@st.composite
def shared_instance(draw):
    """A pod instance on a fresh state, or on one another tenant loaded
    first, sometimes with a blocked host."""
    cluster, venv = draw(pod_instance())
    if not draw(st.booleans()):
        return cluster, venv, ClusterState(cluster)
    other = generate_virtual_environment(
        draw(st.integers(2, 20)),
        workload=LOW_LEVEL,
        seed=draw(st.integers(0, 10_000)),
        id_offset=1000,
    )
    blocked = draw(st.one_of(st.none(), st.sampled_from(cluster.host_ids)))
    return cluster, venv, preload(cluster, other, blocked)


def run_stages(hosting, migration, state, venv, config):
    """Hosting, then Migration, on *state*: (stats, failure)."""
    stats = []
    try:
        stats.append(hosting(state, venv, config))
        if config.migration_enabled:
            stats.append(migration(state, venv, config))
    except (MappingError, CapacityError) as exc:
        return stats, (type(exc), getattr(exc, "guest_id", None))
    return stats, None


def assert_stages_equal(state, venv, config):
    """Production and oracle from copies of *state* decide alike."""
    prod_state, ref_state = state.copy(), state.copy()
    prod = run_stages(run_hosting, run_migration, prod_state, venv, config)
    ref = run_stages(reference_hosting, reference_migration, ref_state, venv, config)
    assert prod == ref
    assert prod_state.assignments == ref_state.assignments
    for table in ("mem", "stor", "cpu"):
        assert (
            getattr(prod_state.arrays, table).tobytes()
            == getattr(ref_state.arrays, table).tobytes()
        ), table


class TestDecisionEquivalence:
    """Production stages == list-walking oracle, decision by decision."""

    @settings(max_examples=60, deadline=None)
    @given(pod_instance())
    def test_hosting_identical(self, instance):
        cluster, venv = instance
        config = HMNConfig(migration_enabled=False)
        assert_stages_equal(ClusterState(cluster), venv, config)

    @settings(max_examples=40, deadline=None)
    @given(pod_instance())
    def test_migration_identical(self, instance):
        cluster, venv = instance
        assert_stages_equal(ClusterState(cluster), venv, HMNConfig())

    @settings(max_examples=40, deadline=None)
    @given(
        shared_instance(),
        st.sampled_from(POLICIES),
        st.sampled_from(ORIGINS),
        st.booleans(),
    )
    def test_migration_identical_under_ablations(self, instance, policy, origin, exhaustive):
        cluster, venv, state = instance
        config = HMNConfig(
            migration_policy=policy,
            migration_origin=origin,
            migration_exhaustive=exhaustive,
            seed=7,
        )
        assert_stages_equal(state, venv, config)


PRELOADED_GRID = [
    (family, seed)
    for family in ("torus", "switched", "fat-tree")
    for seed in range(4)
]


@pytest.fixture(scope="module", params=PRELOADED_GRID, ids=lambda p: f"{p[0]}-{p[1]}")
def preloaded(request):
    """Twelve shared states; the fourth of each family has the host
    with the most guests blocked, guests and all, like a failed host."""
    family, seed = request.param
    cluster = {
        "torus": lambda: torus_cluster(3, 4, seed=seed),
        "switched": lambda: switched_cluster(12, seed=seed),
        "fat-tree": lambda: fat_tree_cluster(4, seed=seed),
    }[family]()
    other = generate_virtual_environment(
        cluster.n_hosts, workload=LOW_LEVEL, seed=seed, id_offset=1000
    )
    state = preload(cluster, other)
    assert state.n_placed == other.n_guests
    if seed == 3:
        state.block_host(max(cluster.host_ids, key=lambda h: len(state.guests_on(h))))
    venv = generate_virtual_environment(2 * cluster.n_hosts, seed=seed + 100)
    return state, venv


class TestPreloadedGrid:
    """Every origin x policy x exhaustiveness on twelve shared states."""

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("origin", ORIGINS)
    def test_matches_oracle(self, preloaded, origin, policy, exhaustive):
        state, venv = preloaded
        config = HMNConfig(
            migration_origin=origin,
            migration_policy=policy,
            migration_exhaustive=exhaustive,
            seed=5,
        )
        assert_stages_equal(state, venv, config)


@pytest.fixture(scope="module", params=["fresh", "pre-loaded"])
def large_pod(request):
    """A 128-host fat tree, fresh or loaded by another tenant first with
    its busiest host blocked: the pod stages keep their host orders and
    sums across many more decisions than the grids above make."""
    cluster = fat_tree_cluster(8, seed=3)
    venv = generate_virtual_environment(256, seed=103)
    if request.param == "fresh":
        return ClusterState(cluster), venv
    other = generate_virtual_environment(
        cluster.n_hosts, workload=LOW_LEVEL, seed=3, id_offset=1000
    )
    state = preload(cluster, other)
    assert state.n_placed == other.n_guests
    state.block_host(max(cluster.host_ids, key=lambda h: len(state.guests_on(h))))
    return state, venv


class TestLargePod:
    """Every origin x policy x exhaustiveness on one 128-host pod."""

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("origin", ORIGINS)
    def test_matches_oracle(self, large_pod, origin, policy, exhaustive):
        state, venv = large_pod
        assert state.cluster.n_hosts >= 128
        config = HMNConfig(
            migration_origin=origin,
            migration_policy=policy,
            migration_exhaustive=exhaustive,
            seed=5,
        )
        assert_stages_equal(state, venv, config)


class TestShardOffByteIdentity:
    def test_off_equals_auto_below_floor(self):
        cluster = torus_cluster(4, 5, seed=8)
        venv = generate_virtual_environment(30, seed=8)
        off = hmn_map(cluster, venv, HMNConfig(shard="off"))
        auto = hmn_map(cluster, venv, HMNConfig(shard="auto"))
        assert mapping_digest(cluster, venv, off) == mapping_digest(cluster, venv, auto)
        assert off.mapper == auto.mapper == "hmn"

    def test_default_config_is_auto(self):
        assert HMNConfig().shard == "auto"

    def test_shard_survives_config_round_trip(self):
        config = HMNConfig(shard=6)
        assert HMNConfig.from_dict(config.describe()).shard == 6


class TestShardedQuality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_objective_within_documented_ratio(self, seed):
        cluster = fat_tree_cluster(6, seed=seed)  # 54 hosts
        venv = generate_virtual_environment(80, seed=seed)
        mono = hmn_map(cluster, venv, HMNConfig(shard="off"))
        sharded = hmn_map(cluster, venv, HMNConfig(shard=3))
        validate_mapping(cluster, venv, sharded)
        assert sharded.mapper == "hmn-sharded"
        bound = (
            mono.meta["objective"] * SHARD_QUALITY_RATIO + SHARD_QUALITY_SLACK
        )
        assert sharded.meta["objective"] <= bound

    def test_stage_reports_present(self):
        cluster = fat_tree_cluster(4, seed=4)
        venv = generate_virtual_environment(24, seed=4)
        mapping = hmn_map(cluster, venv, HMNConfig(shard=4))
        names = [s.name for s in mapping.stages]
        assert names == ["partition", "hosting", "migration", "networking"]
        timings = mapping.meta["timings"]
        for key in (
            "partition_s", "hosting_s", "migration_s", "networking_s",
            "total_s", "routing_calls", "router_expansions",
            "cache_hit_rate", "engine", "route_kernel_s",
        ):
            assert key in timings
        assert mapping.meta["shard"]["n_pods"] == 4

    @settings(max_examples=25, deadline=None)
    @given(pod_instance(), st.integers(2, 4))
    def test_sharded_output_always_valid(self, instance, n_pods):
        cluster, venv = instance
        try:
            mapping = shard_map(cluster, venv, HMNConfig(), n_pods=n_pods)
        except MappingError:
            return
        report = validate_mapping(cluster, venv, mapping, raise_on_error=False)
        assert report.ok, str(report)

    def test_guest_placed_after_pod_failure_is_not_rescued(self):
        """A guest its pod's split scan failed can still land in that
        pod when a later link joins it to a peer; the overflow rescue
        must not place it a second time."""
        cluster = fat_tree_cluster(4, seed=3, lat=1.0)
        venv = generate_virtual_environment(48, workload=HIGH_LEVEL, seed=10)
        for workers in (1, 2):
            mapping = shard_map(cluster, venv, HMNConfig(shard_workers=workers), n_pods=4)
            validate_mapping(cluster, venv, mapping)
            hosting = mapping.stages[1]
            assert hosting.name == "hosting"
            assert hosting.extra["placements"] == 48
            assert hosting.extra["rescued_guests"] == 0

    def test_shared_state_restored_on_failure(self):
        cluster = switched_cluster(6, seed=2)
        venv = generate_virtual_environment(400, seed=2)  # hopeless overload
        state = ClusterState(cluster)
        before = state.objective()
        with pytest.raises(MappingError):
            shard_map(cluster, venv, HMNConfig(), state=state, n_pods=2)
        assert state.objective() == before
        assert all(not state.guests_on(h) for h in cluster.host_ids)
