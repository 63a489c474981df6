"""The Hosting-Migration-Networking heuristic (Section 4 of the paper).

* :func:`~repro.hmn.pipeline.hmn_map` — the full three-stage pipeline;
* :func:`~repro.hmn.hosting.run_hosting` /
  :func:`~repro.hmn.migration.run_migration` /
  :func:`~repro.hmn.networking.run_networking` — the stages
  individually, each mutating a shared
  :class:`~repro.core.state.ClusterState` (useful for the stage
  ablations and for building hybrid mappers like the paper's HS
  baseline).  Hosting and Migration decide over numpy arrays
  (:mod:`repro.shard.vectorized`, the same stages the sharded mapper
  runs per pod); their modules document the paper's rules;
* :class:`~repro.hmn.config.HMNConfig` — every knob, defaulting to the
  paper's exact heuristic.
"""

from repro.hmn.config import HMNConfig, LinkOrder, MigrationPolicy, RoutingMetric
from repro.hmn.hosting import run_hosting
from repro.hmn.migration import run_migration
from repro.hmn.networking import run_networking
from repro.hmn.ordering import ordered_vlinks
from repro.hmn.pipeline import hmn_map

__all__ = [
    "hmn_map",
    "HMNConfig",
    "LinkOrder",
    "MigrationPolicy",
    "RoutingMetric",
    "run_hosting",
    "run_migration",
    "run_networking",
    "ordered_vlinks",
]
