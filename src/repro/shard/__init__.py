"""Shard-and-stitch mapping for very large substrates.

The monolithic HMN pipeline maps against the whole substrate at once:
its Hosting and Migration already decide over numpy arrays, but
Networking runs full-graph routing queries — fine at Table 1 scale
(tens of hosts), hopeless at 100k.  This package scales it out by
cutting the problem into pods:

* :mod:`repro.shard.partition` cuts the substrate into pods along the
  topology's natural seams;
* :mod:`repro.shard.vectorized` holds the Hosting and Migration stages
  every map runs — on one pod spanning the cluster when monolithic,
  on each pod here;
* :mod:`repro.shard.stitch` routes cross-pod virtual links in batched
  waves through corridor subgraphs with a dedicated C kernel;
* :mod:`repro.shard.parallel` runs the pod-local stages across a
  crash-tolerant process pool over a shared-memory substrate snapshot,
  merging per-pod decision logs deterministically so the mapping is
  byte-identical at any worker count;
* :mod:`repro.shard.mapper` orchestrates the four stages and returns
  the same :class:`~repro.core.mapping.Mapping` contract as
  :func:`~repro.hmn.pipeline.hmn_map`.

Sharding changes what the heuristic decides only where pods cut it:
guests are spread over pods first, and Migration never moves a guest
across pods.  Engage it with ``HMNConfig(shard=...)`` — ``"auto"``
(the default) shards only at :data:`~repro.shard.partition.AUTO_MIN_HOSTS`
hosts and above, so every paper-scale result stays byte-identical.  Add
``shard_workers=N`` (or ``REPRO_SHARD_WORKERS``) to parallelize the
pod stages.
"""

from repro.shard.mapper import (
    SHARD_QUALITY_RATIO,
    SHARD_QUALITY_SLACK,
    shard_map,
)
from repro.shard.parallel import (
    PodPool,
    SharedSubstrate,
    resolve_shard_workers,
)
from repro.shard.partition import (
    AUTO_MIN_HOSTS,
    TARGET_POD_HOSTS,
    Partition,
    partition_cluster,
    resolve_pod_target,
)
from repro.shard.stitch import Region, Stitcher, build_region, stitch_networking
from repro.shard.vectorized import PodState, pod_hosting, pod_migration

__all__ = [
    "AUTO_MIN_HOSTS",
    "SHARD_QUALITY_RATIO",
    "SHARD_QUALITY_SLACK",
    "TARGET_POD_HOSTS",
    "Partition",
    "PodPool",
    "PodState",
    "Region",
    "SharedSubstrate",
    "Stitcher",
    "build_region",
    "partition_cluster",
    "pod_hosting",
    "pod_migration",
    "resolve_pod_target",
    "resolve_shard_workers",
    "shard_map",
    "stitch_networking",
]
