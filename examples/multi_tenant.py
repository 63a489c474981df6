#!/usr/bin/env python
"""Multi-tenant testbed: successive emulations sharing one cluster.

The paper assumes "the entire cluster is available for a single tester
per time" (Section 3.2).  This example exercises the library's
extension beyond that: a :class:`TenantTable` keeps one shared
:class:`ClusterState` carrying several testers' placements and
reservations, so each new emulated environment is mapped onto whatever
capacity the earlier ones left, and tenants can be torn down
independently — the table knows everything a tenant holds and gives
all of it back.  Its shared :class:`RoutingCache` serves every
tenant's routing: the latency tables depend only on the topology, so
later tenants reuse the tables earlier ones built.

Run:  python examples/multi_tenant.py
"""

from __future__ import annotations

from repro.core import validate_mapping
from repro.errors import MappingError
from repro.hmn import HMNConfig
from repro.service import TenantTable
from repro.workload import HIGH_LEVEL, LOW_LEVEL, generate_virtual_environment, paper_clusters


def main() -> None:
    cluster = paper_clusters(seed=17)["torus"]
    table = TenantTable(cluster)  # shared state + routing cache, across tenants
    state, cache, config = table.state, table.cache, HMNConfig()
    print(f"Shared testbed: {cluster}\n")

    tenants = [
        ("alice/grid", generate_virtual_environment(
            120, workload=HIGH_LEVEL, density=0.02, seed=1, id_offset=0)),
        ("bob/p2p", generate_virtual_environment(
            400, workload=LOW_LEVEL, density=0.01, seed=2, id_offset=10_000)),
        ("carol/grid", generate_virtual_environment(
            120, workload=HIGH_LEVEL, density=0.02, seed=3, id_offset=20_000)),
    ]

    for name, venv in tenants:
        try:
            mapping = table.admit(name, venv, config).mapping
        except MappingError as exc:
            print(f"{name:<12} REJECTED — {type(exc).__name__}: not enough residual capacity")
            continue
        validate_mapping(cluster, venv, mapping)
        used_mem = cluster.total_mem() - sum(
            state.residual_mem(h) for h in cluster.host_ids
        )
        print(f"{name:<12} admitted: {venv.n_guests} guests on "
              f"{len(mapping.hosts_used())} hosts, objective now "
              f"{state.objective():.1f}; cluster memory used "
              f"{used_mem / 1024:.1f}/{cluster.total_mem() / 1024:.1f} GiB")

    # Tear down one tenant and show the capacity coming back.
    name = "bob/p2p"
    table.release(name)
    print(f"\n{name} torn down: {state.n_placed} guests remain, "
          f"objective back to {state.objective():.1f}")

    # The freed capacity admits a new tenant immediately.
    dave = generate_virtual_environment(
        300, workload=LOW_LEVEL, density=0.01, seed=4, id_offset=30_000
    )
    mapping = table.admit("dave/p2p", dave, config).mapping
    validate_mapping(cluster, dave, mapping)
    print(f"dave/p2p     admitted into the freed capacity: {dave.n_guests} guests, "
          f"objective {state.objective():.1f}")
    print(f"\nshared routing cache: {cache.label_tables} latency tables, "
          f"{cache.label_hits} label hits, {cache.path_hits} path hits")


if __name__ == "__main__":
    main()
