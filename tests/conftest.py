"""Shared fixtures: small, hand-checkable clusters and virtual envs.

Fixture sizes are deliberately tiny (3-6 nodes) so expected values in
tests can be computed by hand; paper-scale inputs live only in the
integration/paper-claims tests and the benchmarks.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import (
    ClusterState,
    Guest,
    Host,
    PhysicalCluster,
    PhysicalLink,
    VirtualEnvironment,
    VirtualLink,
)

# ----------------------------------------------------------------------
# hypothesis profiles (select with HYPOTHESIS_PROFILE=ci|dev|deep)
# ----------------------------------------------------------------------
# ``ci``: no deadline (shared runners have noisy clocks) and derandomized
# so a red build is reproducible from the log alone.  ``dev`` is the
# local default: quick, randomized exploration.  ``deep`` is the nightly
# setting: 10x examples, still no deadline.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.register_profile("dev", max_examples=50, deadline=None)
settings.register_profile(
    "deep",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def differential_caches(monkeypatch) -> list:
    """Make the tenant table (and so the chaos operator) route through
    the conformance differential cache (every route query re-run on the
    reference routers); returns the list of caches it builds, for
    inspecting their ``mismatches``."""
    import repro.service.core as tenants_mod
    from repro.conformance import DifferentialRoutingCache

    built: list = []

    class Recording(DifferentialRoutingCache):
        def __init__(self, cluster, **kwargs):
            super().__init__(cluster, **kwargs)
            built.append(self)

    monkeypatch.setattr(tenants_mod, "RoutingCache", Recording)
    return built


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def line3() -> PhysicalCluster:
    """Three hosts in a line: 0 -- 1 -- 2 (1 Gbps / 5 ms links)."""
    c = PhysicalCluster(name="line3")
    c.add_host(Host(0, proc=3000.0, mem=3072, stor=3072.0))
    c.add_host(Host(1, proc=2000.0, mem=2048, stor=2048.0))
    c.add_host(Host(2, proc=1000.0, mem=1024, stor=1024.0))
    c.connect(0, 1, bw=1000.0, lat=5.0)
    c.connect(1, 2, bw=1000.0, lat=5.0)
    return c


@pytest.fixture
def diamond() -> PhysicalCluster:
    """Four hosts in a diamond with unequal bandwidths::

           1
         /   \\        top path (0-1-3): bw 100, lat 5+5
        0     3
         \\   /        bottom path (0-2-3): bw 1000, lat 20+20
           2
    """
    c = PhysicalCluster(name="diamond")
    for i in range(4):
        c.add_host(Host(i, proc=2000.0, mem=4096, stor=4096.0))
    c.connect(0, 1, bw=100.0, lat=5.0)
    c.connect(1, 3, bw=100.0, lat=5.0)
    c.connect(0, 2, bw=1000.0, lat=20.0)
    c.connect(2, 3, bw=1000.0, lat=20.0)
    return c


@pytest.fixture
def star4() -> PhysicalCluster:
    """Four hosts around one switch 'hub' (the minimal switched fabric)."""
    c = PhysicalCluster(name="star4")
    for i in range(4):
        c.add_host(Host(i, proc=2000.0, mem=2048, stor=2048.0))
    c.add_switch("hub")
    for i in range(4):
        c.connect(i, "hub", bw=1000.0, lat=5.0)
    return c


@pytest.fixture
def venv_pair() -> VirtualEnvironment:
    """Two guests joined by one virtual link."""
    v = VirtualEnvironment(name="pair")
    v.add_guest(Guest(0, vproc=100.0, vmem=256, vstor=100.0))
    v.add_guest(Guest(1, vproc=50.0, vmem=128, vstor=50.0))
    v.add_vlink(VirtualLink(0, 1, vbw=10.0, vlat=50.0))
    return v


@pytest.fixture
def venv_triangle() -> VirtualEnvironment:
    """Three guests in a triangle with distinct bandwidths."""
    v = VirtualEnvironment(name="triangle")
    v.add_guest(Guest(0, vproc=100.0, vmem=256, vstor=100.0))
    v.add_guest(Guest(1, vproc=80.0, vmem=256, vstor=100.0))
    v.add_guest(Guest(2, vproc=60.0, vmem=256, vstor=100.0))
    v.add_vlink(VirtualLink(0, 1, vbw=30.0, vlat=50.0))
    v.add_vlink(VirtualLink(1, 2, vbw=20.0, vlat=50.0))
    v.add_vlink(VirtualLink(0, 2, vbw=10.0, vlat=50.0))
    return v


@pytest.fixture
def state_line3(line3: PhysicalCluster) -> ClusterState:
    return ClusterState(line3)
