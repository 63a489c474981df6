"""Integer-indexed topology and array-backed residual state.

Profiling the Networking stage traced the single-query routing cost to
per-edge accessor plumbing: canonical ``edge_key`` tuple construction,
dict lookups keyed by hashable node ids, and string tiebreaks, executed
~10M times on the paper's largest instance.  This module removes that
layer entirely:

* :class:`CompiledTopology` interns every node id and canonical edge
  key of a :class:`~repro.core.cluster.PhysicalCluster` to a dense
  integer **once per cluster** and stores the adjacency in CSR form —
  flat ``adj_offsets`` / ``adj_nodes`` / ``adj_edges`` / ``adj_lat``
  arrays — so routing kernels work on machine integers and flat arrays
  only (see :mod:`repro.routing.compiled`).
* :class:`ArrayState` mirrors the residual **mem / stor / cpu / bw**
  tables of :class:`~repro.core.state.ClusterState` as flat arrays
  indexed by those integers.  Snapshots (``copy``) and transactional
  rollbacks (``restore_from``) are O(n) array slices instead of dict
  copies — the primitive behind cheap per-retry state resets.

Compiled topologies are memoized per cluster object (weakly, so
clusters are still collectable) and invalidated when the node/link
counts change; node ids keep hosts first, matching
``PhysicalCluster.node_ids``, so an index ``< n_hosts`` is a host.
"""

from __future__ import annotations

import math
import weakref
from array import array
from typing import TYPE_CHECKING, Hashable

from repro.core.link import EdgeKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import PhysicalCluster

__all__ = ["CompiledTopology", "ArrayState", "compile_topology"]

NodeId = Hashable

INFINITY = float("inf")


class CompiledTopology:
    """Dense-integer view of one physical cluster, built once.

    Node indices follow ``cluster.node_ids`` (hosts first, then
    switches); edge indices follow link insertion order, matching the
    iteration order of the reference routers' ``cluster.neighbors``
    walk, so both traverse edges identically.
    """

    __slots__ = (
        "nodes",
        "node_index",
        "host_index",
        "n_nodes",
        "n_hosts",
        "n_edges",
        "edge_keys",
        "edge_index",
        "caps",
        "adj_offsets",
        "adj_nodes",
        "adj_edges",
        "adj_lat",
        "neighbor_triples",
        "mem0",
        "stor0",
        "cpu0",
        "cpu_sum0",
        "cpu_sumsq0",
        "inf_table",
        "stamp",
        "ck",
    )

    def __init__(self, cluster: "PhysicalCluster") -> None:
        nodes = cluster.node_ids  # hosts first, then switches
        self.nodes = nodes
        self.node_index = {node: i for i, node in enumerate(nodes)}
        self.n_nodes = len(nodes)
        self.n_hosts = cluster.n_hosts
        self.host_index = {h: i for h, i in self.node_index.items() if i < self.n_hosts}

        edge_keys: list[EdgeKey] = []
        edge_index: dict[EdgeKey, int] = {}
        caps = array("d")
        for link in cluster.links():
            edge_index[link.key] = len(edge_keys)
            edge_keys.append(link.key)
            caps.append(link.bw)
        self.edge_keys = tuple(edge_keys)
        self.edge_index = edge_index
        self.n_edges = len(edge_keys)
        self.caps = caps

        # CSR adjacency plus a per-node triple view for Python inner
        # loops (slicing an array allocates; a prebuilt tuple does not).
        offsets = array("q", [0]) * (self.n_nodes + 1)
        adj_nodes = array("q")
        adj_edges = array("q")
        adj_lat = array("d")
        triples: list[tuple[tuple[int, float, int], ...]] = []
        for i, node in enumerate(nodes):
            row = []
            for nbr in cluster.neighbors(node):
                link = cluster.link(node, nbr)
                j = self.node_index[nbr]
                e = edge_index[link.key]
                adj_nodes.append(j)
                adj_edges.append(e)
                adj_lat.append(link.lat)
                row.append((j, link.lat, e))
            offsets[i + 1] = len(adj_nodes)
            triples.append(tuple(row))
        self.adj_offsets = offsets
        self.adj_nodes = adj_nodes
        self.adj_edges = adj_edges
        self.adj_lat = adj_lat
        self.neighbor_triples = tuple(triples)

        hosts = list(cluster.hosts())
        self.mem0 = array("q", (h.mem for h in hosts))
        self.stor0 = array("d", (h.stor for h in hosts))
        self.cpu0 = array("d", (h.proc for h in hosts))
        self.cpu_sum0 = math.fsum(self.cpu0)
        self.cpu_sumsq0 = math.fsum(v * v for v in self.cpu0)
        self.inf_table = array("d", [INFINITY]) * self.n_nodes
        self.stamp = (self.n_nodes, self.n_edges)
        # Lazily attached C-kernel call state (buffer addresses and
        # output scratch) — owned by repro.routing.compiled.
        self.ck = None

    def index_of(self, node: NodeId) -> int:
        """Dense index of a node id (``KeyError`` if unknown)."""
        return self.node_index[node]

    def path_to_user(self, indices) -> tuple[NodeId, ...]:
        """Translate a sequence of node indices back to user-space ids."""
        nodes = self.nodes
        return tuple(nodes[i] for i in indices)

    def __repr__(self) -> str:
        return (
            f"<CompiledTopology: {self.n_nodes} nodes ({self.n_hosts} hosts), "
            f"{self.n_edges} edges>"
        )


_TOPO_CACHE: "weakref.WeakKeyDictionary[PhysicalCluster, CompiledTopology]" = (
    weakref.WeakKeyDictionary()
)


def compile_topology(cluster: "PhysicalCluster") -> CompiledTopology:
    """The memoized :class:`CompiledTopology` of *cluster*.

    Recompiled when the cluster's node/link counts have changed since
    the cached compile; every
    :class:`~repro.core.state.ClusterState` and routing cache of the
    same cluster therefore shares one instance, which is what makes
    raw index exchange between them sound.
    """
    topo = _TOPO_CACHE.get(cluster)
    if topo is None or topo.stamp != (cluster.n_nodes, cluster.n_links):
        topo = CompiledTopology(cluster)
        _TOPO_CACHE[cluster] = topo
    return topo


class ArrayState:
    """Flat residual tables of one allocation state.

    ``mem``/``stor``/``cpu`` are indexed by host index, ``bw`` by edge
    index (both from the owning :class:`CompiledTopology`).  The
    ``cpu`` array is shared with the state's
    :class:`~repro.core.objective.ResidualCpuTracker`, so there is a
    single source of truth for residual CPU.
    """

    __slots__ = ("mem", "stor", "cpu", "bw")

    def __init__(self, mem: array, stor: array, cpu: array, bw: array) -> None:
        self.mem = mem
        self.stor = stor
        self.cpu = cpu
        self.bw = bw

    @classmethod
    def fresh(cls, topo: CompiledTopology) -> "ArrayState":
        """Full-capacity residuals for a virgin state."""
        return cls(topo.mem0[:], topo.stor0[:], topo.cpu0[:], topo.caps[:])

    def copy(self) -> "ArrayState":
        """Independent snapshot — four array slices, no dict copies."""
        return ArrayState(self.mem[:], self.stor[:], self.cpu[:], self.bw[:])

    def restore_from(self, snapshot: "ArrayState") -> None:
        """Reset to a snapshot **in place**, keeping array identities
        stable (live views over these arrays remain valid)."""
        self.mem[:] = snapshot.mem
        self.stor[:] = snapshot.stor
        self.cpu[:] = snapshot.cpu
        self.bw[:] = snapshot.bw

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayState):
            return NotImplemented
        return (
            self.mem == other.mem
            and self.stor == other.stor
            and self.cpu == other.cpu
            and self.bw == other.bw
        )

    def __repr__(self) -> str:
        return f"<ArrayState: {len(self.mem)} hosts, {len(self.bw)} edges>"
