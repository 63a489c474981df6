"""Property tests: the route kernels are byte-identical to the reference routers.

The compiled routing layer (:mod:`repro.routing.compiled`) promises
**bit-exact** equivalence with the user-space reference routers — same
paths, same bottleneck/latency floats, same expansion counts, same
error messages — by construction (identical neighbor order, heap
comparator, and float arithmetic).  These tests check that promise the
only way it can be checked: exhaustively, across random topologies,
random residual loads, and every configuration preset, with ``==`` on
everything (no ``approx``).  Whole mappings are checked query by query
through the conformance differential cache, on the real mid-mapping
residual states.

Also covered here: :class:`~repro.core.arrays.ArrayState`
snapshot/restore round-trips exactly, and the runtime-compiled C hot
loop agrees with its pure-Python fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import DifferentialRoutingCache
from repro.core import ClusterState, compile_topology
from repro.errors import MappingError, RoutingError
from repro.hmn import HMNConfig, hmn_map
from repro.routing import (
    LatencyOracle,
    bottleneck_route,
    bottleneck_route_compiled,
    bottleneck_route_labels,
    bottleneck_route_labels_compiled,
)
from repro.topology import (
    mesh_cluster,
    random_cluster,
    ring_cluster,
    switched_cluster,
    torus_cluster,
    tree_cluster,
)
from repro.workload import HIGH_LEVEL, LOW_LEVEL, generate_virtual_environment

pytestmark = pytest.mark.slow


TOPOLOGY_BUILDERS = (
    lambda seed: torus_cluster(3, 4, seed=seed),
    lambda seed: switched_cluster(12, seed=seed),
    lambda seed: ring_cluster(10, seed=seed),
    lambda seed: mesh_cluster(3, 4, seed=seed),
    lambda seed: tree_cluster(12, hosts_per_leaf=4, seed=seed),
    lambda seed: random_cluster(12, density=0.25, seed=seed),
)


@st.composite
def mapping_instance(draw):
    topo_idx = draw(st.integers(0, len(TOPOLOGY_BUILDERS) - 1))
    cluster_seed = draw(st.integers(0, 10_000))
    venv_seed = draw(st.integers(0, 10_000))
    n_guests = draw(st.integers(2, 30))
    workload = draw(st.sampled_from([HIGH_LEVEL, LOW_LEVEL]))
    density = draw(st.sampled_from([0.05, 0.1, 0.3]))
    cluster = TOPOLOGY_BUILDERS[topo_idx](cluster_seed)
    venv = generate_virtual_environment(
        n_guests, workload=workload, density=density, seed=venv_seed
    )
    return cluster, venv


def _loaded_state(cluster, load_seed: int) -> ClusterState:
    """A state with every link partially reserved (deterministically)."""
    state = ClusterState(cluster)
    rng = np.random.default_rng(load_seed)
    for link in cluster.links():
        frac = float(rng.uniform(0.0, 0.9))
        if frac > 0.0:
            state.reserve_path(list(link.key), frac * link.bw)
    return state


def _map_both(cluster, venv, **knobs):
    """Run hmn_map plainly and through the differential cache (every
    route query re-run on the reference routers); fold MappingError into
    the results and return them with the per-query mismatches."""
    config = HMNConfig(**knobs)
    results = []
    cache = DifferentialRoutingCache(cluster)
    for arm_cache in (None, cache):
        try:
            m = hmn_map(cluster, venv, config, cache=arm_cache)
            results.append(("ok", dict(m.assignments), dict(m.paths), m.meta["objective"]))
        except MappingError as exc:
            results.append(("err", type(exc).__name__, str(exc)))
    return results, [str(m) for m in cache.mismatches]


class TestMappingEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(mapping_instance())
    def test_default_preset_byte_identical(self, instance):
        cluster, venv = instance
        (plain, checked), mismatches = _map_both(cluster, venv)
        assert mismatches == []
        assert plain == checked

    @settings(max_examples=15, deadline=None)
    @given(
        mapping_instance(),
        st.sampled_from(["vbw_desc", "vbw_asc", "random"]),
        st.sampled_from(["bottleneck", "latency"]),
        st.sampled_from(["algorithm1", "label_setting"]),
        st.booleans(),
    )
    def test_every_preset_byte_identical(
        self, instance, link_order, metric, router, exhaustive
    ):
        cluster, venv = instance
        (plain, checked), mismatches = _map_both(
            cluster,
            venv,
            link_order=link_order,
            routing_metric=metric,
            router=router,
            migration_exhaustive=exhaustive,
            seed=7,
        )
        assert mismatches == []
        assert plain == checked


def _route_both(cluster, state, origin, destination, *, bandwidth, latency_bound):
    """One query through the reference router and the kernel, errors
    folded in."""
    topo = compile_topology(cluster)
    oracle = LatencyOracle(cluster)
    out = []
    for run in ("dict", "compiled"):
        try:
            if run == "dict":
                r = bottleneck_route(
                    cluster,
                    origin,
                    destination,
                    bandwidth=bandwidth,
                    latency_bound=latency_bound,
                    oracle=oracle,
                    residual_bw=state.residual_bw,
                )
            else:
                r = bottleneck_route_compiled(
                    topo,
                    state.bw_array,
                    origin,
                    destination,
                    bandwidth=bandwidth,
                    latency_bound=latency_bound,
                )
            out.append(("ok", r.nodes, r.bottleneck, r.latency, r.expansions))
        except RoutingError as exc:
            out.append(("err", str(exc)))
    return out


class TestRouterEquivalence:
    """Kernel-level agreement on loaded topologies, including failures."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, len(TOPOLOGY_BUILDERS) - 1),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.floats(1.0, 500.0),
        st.sampled_from([0.5, 2.0, 10.0, 100.0, float("inf")]),
    )
    def test_algorithm1_bit_exact(
        self, topo_idx, cluster_seed, load_seed, bandwidth, latency_bound
    ):
        cluster = TOPOLOGY_BUILDERS[topo_idx](cluster_seed)
        state = _loaded_state(cluster, load_seed)
        rng = np.random.default_rng(load_seed + 1)
        hosts = cluster.host_ids
        origin, destination = (
            hosts[int(rng.integers(len(hosts)))],
            hosts[int(rng.integers(len(hosts)))],
        )
        dict_r, compiled_r = _route_both(
            cluster, state, origin, destination,
            bandwidth=bandwidth, latency_bound=latency_bound,
        )
        assert dict_r == compiled_r

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, len(TOPOLOGY_BUILDERS) - 1),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.floats(1.0, 500.0),
    )
    def test_label_setting_bit_exact(
        self, topo_idx, cluster_seed, load_seed, bandwidth
    ):
        cluster = TOPOLOGY_BUILDERS[topo_idx](cluster_seed)
        state = _loaded_state(cluster, load_seed)
        topo = compile_topology(cluster)
        rng = np.random.default_rng(load_seed + 1)
        hosts = cluster.host_ids
        origin, destination = (
            hosts[int(rng.integers(len(hosts)))],
            hosts[int(rng.integers(len(hosts)))],
        )
        out = []
        for run in ("dict", "compiled"):
            try:
                if run == "dict":
                    r = bottleneck_route_labels(
                        cluster, origin, destination,
                        bandwidth=bandwidth, latency_bound=50.0,
                        residual_bw=state.residual_bw,
                    )
                else:
                    r = bottleneck_route_labels_compiled(
                        topo, state.bw_array, origin, destination,
                        bandwidth=bandwidth, latency_bound=50.0,
                    )
                out.append(("ok", r.nodes, r.bottleneck, r.latency))
            except RoutingError as exc:
                out.append(("err", str(exc)))
        assert out[0] == out[1]


class TestArrayStateRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(mapping_instance(), st.integers(0, 10_000))
    def test_snapshot_restore_exact(self, instance, load_seed):
        from repro.core import Guest

        cluster, _ = instance
        state = _loaded_state(cluster, load_seed)
        rng = np.random.default_rng(load_seed)
        hosts = cluster.host_ids
        state.place(
            Guest(0, vproc=float(rng.uniform(1, 500)), vmem=64, vstor=8.0),
            hosts[int(rng.integers(len(hosts)))],
        )
        snap = state.copy()
        assert state.arrays == snap.arrays
        assert snap.arrays is not state.arrays

        # Perturb every table, then roll back.
        state.place(Guest(1, vproc=123.0, vmem=32, vstor=4.0),
                    hosts[int(rng.integers(len(hosts)))])
        link = next(iter(cluster.links()))
        if state.residual_bw(*link.key) >= 1.0:
            state.reserve_path(list(link.key), 1.0)
        assert state.arrays != snap.arrays

        bw_before = state.bw_array  # identity must survive the restore
        state.restore_from(snap)
        assert state.arrays == snap.arrays
        assert state.bw_array is bw_before
        assert state.objective() == snap.objective()
        assert state.assignments == snap.assignments
        # Byte-for-byte, not approx: restores are slice assignments.
        assert state.arrays.mem.tobytes() == snap.arrays.mem.tobytes()
        assert state.arrays.stor.tobytes() == snap.arrays.stor.tobytes()
        assert state.arrays.cpu.tobytes() == snap.arrays.cpu.tobytes()
        assert state.arrays.bw.tobytes() == snap.arrays.bw.tobytes()


class TestCKernelFallback:
    """The runtime-compiled C hot loop and its pure-Python fallback are
    the same algorithm; their outputs must match bit for bit."""

    def _queries(self):
        cluster = torus_cluster(4, 4, seed=5)
        state = _loaded_state(cluster, 17)
        hosts = cluster.host_ids
        rng = np.random.default_rng(23)
        for _ in range(25):
            yield (
                cluster,
                state,
                hosts[int(rng.integers(len(hosts)))],
                hosts[int(rng.integers(len(hosts)))],
                float(rng.uniform(1.0, 400.0)),
                float(rng.choice([2.0, 10.0, 100.0])),
            )

    def test_c_and_python_paths_agree(self, monkeypatch):
        import repro.routing.compiled as compiled_mod
        from repro.routing._cbuild import load_kernel

        if load_kernel() is None:
            pytest.skip("no C compiler available; only one code path exists")

        with_c = []
        for cluster, state, o, d, bw, lat in self._queries():
            topo = compile_topology(cluster)
            try:
                r = bottleneck_route_compiled(
                    topo, state.bw_array, o, d, bandwidth=bw, latency_bound=lat
                )
                with_c.append(("ok", r.nodes, r.bottleneck, r.latency, r.expansions))
            except RoutingError as exc:
                with_c.append(("err", str(exc)))

        monkeypatch.setattr(compiled_mod, "load_kernel", lambda: None)
        pure_py = []
        for cluster, state, o, d, bw, lat in self._queries():
            topo = compile_topology(cluster)
            try:
                r = bottleneck_route_compiled(
                    topo, state.bw_array, o, d, bandwidth=bw, latency_bound=lat
                )
                pure_py.append(("ok", r.nodes, r.bottleneck, r.latency, r.expansions))
            except RoutingError as exc:
                pure_py.append(("err", str(exc)))

        assert with_c == pure_py
        assert any(tag == "ok" for tag, *_ in with_c)  # suite isn't vacuous
