"""Availability-aware mapping: failure domains, k-redundant placement,
and pre-provisioned backup paths.

The paper's heuristic maps for feasibility and bandwidth cost; this
package makes the result survive faults.  Three layers, all strictly
*after* the Hosting-Migration-Networking pipeline so the primary
mapping — and therefore every conformance digest — is byte-identical
to a run without redundancy:

* :mod:`~repro.redundancy.domains` derives a **failure-domain model**
  from topology structure alone (fat-tree pods / torus blocks via
  :func:`repro.shard.partition.partition_cluster`, racks from shared
  edge switches, host-level fallback) — exposed live on
  :attr:`repro.core.state.ClusterState.failure_domains`;
* :mod:`~repro.redundancy.placement` places ``k`` cold-standby
  **replicas** per guest with anti-affinity across those domains
  (memory/storage reserved, zero CPU until activation);
* :mod:`~repro.redundancy.disjoint` routes a link- (preferably
  node-) disjoint **backup path** per virtual link through the
  existing route engine, and
  :mod:`~repro.redundancy.ledger` reserves its bandwidth
  **shared-risk-aware**: backups whose primaries cannot fail together
  share the same reserved headroom, which is what keeps the total
  reservation well under 2x.

:func:`repro.redundancy.stage.run_redundancy` orchestrates the three
behind ``HMNConfig(redundancy=k, backup_paths=True)``; the
:class:`~repro.resilience.operator.ChaosOperator` consumes the result
for fast failover (activate standby / switch to backup path) before
falling back to the evacuate/re-route repair loop.
"""

from repro.redundancy.domains import FailureDomains, derive_domains
from repro.redundancy.disjoint import backup_route, route_avoiding
from repro.redundancy.ledger import BackupLedger
from repro.redundancy.placement import (
    REPLICA_STRIDE,
    plan_replicas,
    replica_guest,
    replica_id,
)
from repro.redundancy.stage import (
    redundancy_records,
    risks_of_path,
    run_redundancy,
)

__all__ = [
    "FailureDomains",
    "derive_domains",
    "backup_route",
    "route_avoiding",
    "BackupLedger",
    "REPLICA_STRIDE",
    "plan_replicas",
    "replica_guest",
    "replica_id",
    "run_redundancy",
    "redundancy_records",
    "risks_of_path",
]
