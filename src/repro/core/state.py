"""Mutable allocation state over a physical cluster.

:class:`ClusterState` is the single bookkeeping structure shared by all
mappers.  It tracks, per host, residual **memory** and **storage**
(hard constraints, Eqs. 2-3: never negative), residual **CPU** (soft,
Eqs. 10-12: may go negative because CPU is optimized, not constrained),
and per physical link residual **bandwidth** (hard, Eq. 9).

A mapper mutates one state as it works; failed attempts either roll
back their mutations (placement/reservation methods raise *before*
mutating) or simply discard the state and start from a fresh copy.

Internally the residual tables are flat arrays indexed by the dense
integers of the cluster's :class:`~repro.core.arrays.CompiledTopology`
(an :class:`~repro.core.arrays.ArrayState`): snapshots and restores are
O(n) array slices, and the compiled routing kernels
(:mod:`repro.routing.compiled`) read the live bandwidth array directly
through :attr:`bw_array`.  Every public accessor takes user-space
node ids.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.arrays import ArrayState, CompiledTopology, compile_topology
from repro.core.cluster import PhysicalCluster
from repro.core.guest import Guest
from repro.core.link import EdgeKey, edge_key
from repro.core.objective import ResidualCpuTracker
from repro.errors import CapacityError, ModelError, UnknownNodeError

__all__ = ["ClusterState", "path_edges"]

NodeId = Hashable

# Residual bandwidth comparisons tolerate this much accumulated float
# error (Mbit/s).  Reservations subtract exact demand values, so in
# practice the residual only drifts by a few ulps; the epsilon prevents
# spurious CapacityErrors when a link is filled exactly to capacity.
_BW_EPS = 1e-9


def path_edges(nodes: Sequence[NodeId]) -> list[EdgeKey]:
    """Canonical edge keys of the consecutive pairs of a node path.

    ``path_edges([a, b, c]) == [edge_key(a, b), edge_key(b, c)]``.
    A path of fewer than two nodes has no edges.
    """
    return [edge_key(u, v) for u, v in zip(nodes, nodes[1:])]


class ClusterState:
    """Residual capacities and guest placements over a cluster.

    Parameters
    ----------
    cluster:
        The immutable physical cluster this state allocates against.
    """

    __slots__ = (
        "cluster",
        "_topo",
        "_arrays",
        "_cpu",
        "_host_of",
        "_guests_on",
        "_guest_obj",
        "_blocked",
        "_fdomains",
    )

    def __init__(self, cluster: PhysicalCluster) -> None:
        if cluster.n_hosts == 0:
            raise ModelError("cannot allocate against an empty cluster")
        self.cluster = cluster
        topo = compile_topology(cluster)
        self._topo = topo
        self._arrays = ArrayState.fresh(topo)
        # The tracker *shares* the ArrayState's cpu array — one source
        # of truth for residual CPU, snapshotted by the same slice.
        self._cpu = ResidualCpuTracker.wrapping(
            cluster.host_ids, topo.host_index, self._arrays.cpu,
            topo.cpu_sum0, topo.cpu_sumsq0,
        )
        self._host_of: dict[int, NodeId] = {}
        self._guests_on: dict[NodeId, set[int]] = {h: set() for h in cluster.host_ids}
        self._guest_obj: dict[int, Guest] = {}
        self._blocked: dict[NodeId, tuple[int, float, float]] = {}
        self._fdomains = None

    # ------------------------------------------------------------------
    # index translation
    # ------------------------------------------------------------------
    def _host_index(self, host_id: NodeId) -> int:
        try:
            return self._topo.host_index[host_id]
        except (KeyError, TypeError):
            raise UnknownNodeError(host_id, "host") from None

    def _edge_indices(self, nodes: Sequence[NodeId]) -> list[int]:
        """Edge indices of a node path; raises
        :class:`UnknownNodeError` on any nonexistent edge."""
        edge_index = self._topo.edge_index
        out = []
        for u, v in zip(nodes, nodes[1:]):
            e = edge_key(u, v)
            try:
                out.append(edge_index[e])
            except (KeyError, TypeError):
                raise UnknownNodeError(e, "cluster link") from None
        return out

    # ------------------------------------------------------------------
    # residual accessors
    # ------------------------------------------------------------------
    def residual_mem(self, host_id: NodeId) -> int:
        return self._arrays.mem[self._host_index(host_id)]

    def residual_stor(self, host_id: NodeId) -> float:
        return self._arrays.stor[self._host_index(host_id)]

    def residual_proc(self, host_id: NodeId) -> float:
        return self._cpu.residual(host_id)

    def residual_bw(self, u: NodeId, v: NodeId) -> float:
        """Residual bandwidth of the link {u, v}; ``inf`` when ``u == v``
        (the paper's intra-host convention)."""
        if u == v:
            if u not in self.cluster:
                raise UnknownNodeError(u, "cluster node")
            return float("inf")
        try:
            return self._arrays.bw[self._topo.edge_index[edge_key(u, v)]]
        except (KeyError, TypeError):
            raise UnknownNodeError(edge_key(u, v), "cluster link") from None

    @property
    def cpu(self) -> ResidualCpuTracker:
        """The incremental residual-CPU tracker (shared, live)."""
        return self._cpu

    @property
    def topology(self) -> CompiledTopology:
        """The cluster's compiled (integer-indexed) topology.

        Shared with every other state and routing cache of the same
        cluster, which is what makes raw index exchange between them
        sound (see :mod:`repro.routing.compiled`).
        """
        return self._topo

    @property
    def bw_array(self):
        """The live residual-bandwidth **array**, indexed by the
        compiled topology's edge indices — the zero-translation fast
        path the compiled routing kernels read."""
        return self._arrays.bw

    @property
    def arrays(self) -> ArrayState:
        """The flat residual tables (mem/stor/cpu by host index, bw by
        edge index).  Live — mutate through the state's methods only."""
        return self._arrays

    @property
    def failure_domains(self):
        """The cluster's failure-domain model, derived lazily and
        cached (:func:`repro.redundancy.domains.derive_domains`).

        Immutable and purely topology-derived, so copies share the
        same object and blocking/faults never invalidate it.

        Returns
        -------
        repro.redundancy.domains.FailureDomains
        """
        fd = self._fdomains
        if fd is None:
            from repro.redundancy.domains import derive_domains

            fd = self._fdomains = derive_domains(self.cluster)
        return fd

    def objective(self) -> float:
        """Current Eq. 10 value (population std of residual CPU).

        Recomputed exactly (two-pass :func:`math.fsum`) from the
        residual values rather than read off the O(1) incremental
        aggregates: every reported objective — ``Mapping.meta`` values,
        the branch-and-bound incumbent in
        :func:`repro.extensions.exact.exact_map` — flows through here,
        and incremental drift of a few 1e-9 relative was enough to
        disagree with a from-scratch recompute.  Mappers that need the
        O(1) form in hot loops use :attr:`cpu` directly.
        """
        return self._cpu.exact_std()

    def bandwidth_usage(self) -> dict[EdgeKey, float]:
        """Consumed bandwidth per physical link (capacity - residual)."""
        topo = self._topo
        return {
            key: cap - residual
            for key, cap, residual in zip(topo.edge_keys, topo.caps, self._arrays.bw)
        }

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def fits(self, guest: Guest, host_id: NodeId) -> bool:
        """Whether *guest*'s hard demands fit on *host_id* right now.

        Always ``False`` for a :meth:`block_host`-masked host, even for
        zero-demand guests."""
        i = self._host_index(host_id)
        if host_id in self._blocked:
            return False
        return self._arrays.mem[i] >= guest.vmem and self._arrays.stor[i] >= guest.vstor

    def place(self, guest: Guest, host_id: NodeId) -> None:
        """Assign *guest* to *host_id*, consuming its resources.

        Raises :class:`CapacityError` (without mutating) if the guest's
        memory or storage does not fit, and :class:`ModelError` if the
        guest is already placed.
        """
        if guest.id in self._host_of:
            raise ModelError(
                f"guest {guest.id!r} is already placed on host {self._host_of[guest.id]!r}"
            )
        if host_id in self._blocked:
            raise CapacityError(
                f"guest {guest.id!r} cannot be placed on blocked host {host_id!r}"
            )
        i = self._host_index(host_id)
        arrays = self._arrays
        if arrays.mem[i] < guest.vmem or arrays.stor[i] < guest.vstor:
            raise CapacityError(
                f"guest {guest.id!r} (mem={guest.vmem}, stor={guest.vstor}) does not fit on "
                f"host {host_id!r} (mem={arrays.mem[i]}, "
                f"stor={arrays.stor[i]})"
            )
        arrays.mem[i] -= guest.vmem
        arrays.stor[i] -= guest.vstor
        self._cpu.apply_demand(host_id, guest.vproc)
        self._host_of[guest.id] = host_id
        self._guests_on[host_id].add(guest.id)
        self._guest_obj[guest.id] = guest

    def unplace(self, guest_id: int) -> NodeId:
        """Remove a placed guest, returning its resources.  Returns the
        host it was on."""
        try:
            host_id = self._host_of.pop(guest_id)
        except KeyError:
            raise ModelError(f"guest {guest_id!r} is not placed") from None
        guest = self._guest_obj.pop(guest_id)
        self._guests_on[host_id].discard(guest_id)
        i = self._topo.host_index[host_id]
        self._arrays.mem[i] += guest.vmem
        self._arrays.stor[i] += guest.vstor
        self._cpu.release_demand(host_id, guest.vproc)
        return host_id

    def move(self, guest_id: int, dst_host: NodeId) -> None:
        """Migrate a placed guest to *dst_host* (Migration stage primitive).

        Atomic: if the guest does not fit on the destination, the state
        is unchanged and :class:`CapacityError` is raised.
        """
        try:
            src_host = self._host_of[guest_id]
        except KeyError:
            raise ModelError(f"guest {guest_id!r} is not placed") from None
        if src_host == dst_host:
            return
        guest = self._guest_obj[guest_id]
        if not self.fits(guest, dst_host):
            raise CapacityError(
                f"guest {guest_id!r} does not fit on host {dst_host!r} "
                f"(mem={self.residual_mem(dst_host)}, stor={self.residual_stor(dst_host)})"
            )
        self.unplace(guest_id)
        self.place(guest, dst_host)

    def host_of(self, guest_id: int) -> NodeId:
        """The host a guest is placed on."""
        try:
            return self._host_of[guest_id]
        except KeyError:
            raise ModelError(f"guest {guest_id!r} is not placed") from None

    def is_placed(self, guest_id: int) -> bool:
        return guest_id in self._host_of

    def guests_on(self, host_id: NodeId) -> frozenset[int]:
        """Ids of guests currently on *host_id*."""
        try:
            return frozenset(self._guests_on[host_id])
        except KeyError:
            raise UnknownNodeError(host_id, "host") from None

    def placed_guest(self, guest_id: int) -> Guest:
        """The :class:`Guest` object recorded at placement time."""
        try:
            return self._guest_obj[guest_id]
        except KeyError:
            raise ModelError(f"guest {guest_id!r} is not placed") from None

    @property
    def assignments(self) -> dict[int, NodeId]:
        """Snapshot of guest id -> host id."""
        return dict(self._host_of)

    @property
    def n_placed(self) -> int:
        return len(self._host_of)

    # ------------------------------------------------------------------
    # failure masking
    # ------------------------------------------------------------------
    def block_host(self, host_id: NodeId) -> None:
        """Remove all residual capacity of *host_id* (failure masking).

        The placement-side primitive behind :mod:`repro.resilience`:
        a crashed host must stop attracting placements without being
        removed from the compiled topology (which would invalidate the
        O(n) array state and every routing cache).  Blocking zeroes the
        host's residual memory/storage and CPU — so residual-ordered
        host scans skip it naturally and the objective counts it as
        fully consumed — and makes :meth:`fits`/:meth:`place` refuse it
        outright (covering zero-demand guests).  Guests already on the
        host stay placed; evacuating them is the caller's job.

        Raises :class:`ModelError` if the host is already blocked.
        """
        if host_id in self._blocked:
            raise ModelError(f"host {host_id!r} is already blocked")
        i = self._host_index(host_id)
        arrays = self._arrays
        mem, stor = arrays.mem[i], arrays.stor[i]
        proc = self._cpu.residual(host_id)
        arrays.mem[i] = 0
        arrays.stor[i] = 0.0
        self._cpu.apply_demand(host_id, proc)
        self._blocked[host_id] = (mem, stor, proc)

    def unblock_host(self, host_id: NodeId) -> None:
        """Undo :meth:`block_host`, returning the masked residuals."""
        try:
            mem, stor, proc = self._blocked.pop(host_id)
        except KeyError:
            raise ModelError(f"host {host_id!r} is not blocked") from None
        i = self._host_index(host_id)
        self._arrays.mem[i] += mem
        self._arrays.stor[i] += stor
        self._cpu.release_demand(host_id, proc)

    def is_blocked(self, host_id: NodeId) -> bool:
        return host_id in self._blocked

    @property
    def blocked_hosts(self) -> frozenset[NodeId]:
        """Hosts currently masked by :meth:`block_host`."""
        return frozenset(self._blocked)

    # ------------------------------------------------------------------
    # bandwidth reservation
    # ------------------------------------------------------------------
    def can_reserve(self, nodes: Sequence[NodeId], bw: float) -> bool:
        """Whether *bw* Mbit/s can be reserved on every edge of the node
        path *nodes*.  An empty or single-node path (intra-host link)
        always succeeds.

        Raises :class:`UnknownNodeError` when the path crosses a
        nonexistent edge, matching :meth:`reserve_path` (a silent
        ``False`` used to mask typos in caller-supplied paths).
        """
        table = self._arrays.bw
        return all(table[e] + _BW_EPS >= bw for e in self._edge_indices(nodes))

    def reserve_path(self, nodes: Sequence[NodeId], bw: float) -> None:
        """Reserve *bw* Mbit/s on every edge along the node path.

        Atomic: capacities are checked on all edges before any is
        decremented.  Raises :class:`CapacityError` if any edge lacks
        residual bandwidth, :class:`UnknownNodeError` if an edge does
        not exist.
        """
        if bw < 0:
            raise ModelError(f"cannot reserve negative bandwidth {bw}")
        edges = self._edge_indices(nodes)
        table = self._arrays.bw
        for e in edges:
            if table[e] + _BW_EPS < bw:
                key = self._topo.edge_keys[e]
                raise CapacityError(
                    f"link {key} has {table[e]:.6g} Mbit/s residual, cannot reserve {bw:.6g}"
                )
        for e in edges:
            table[e] -= bw

    def release_path(self, nodes: Sequence[NodeId], bw: float) -> None:
        """Return *bw* Mbit/s to every edge along the node path.

        Atomic like :meth:`reserve_path`: every edge is validated —
        existence and the resulting residual staying within link
        capacity — before any residual is mutated, so a
        :class:`ModelError` leaves the table untouched.
        """
        if bw < 0:
            raise ModelError(f"cannot release negative bandwidth {bw}")
        edges = self._edge_indices(nodes)
        table = self._arrays.bw
        caps = self._topo.caps
        for e in edges:
            new = table[e] + bw
            if new > caps[e] + 1e-6:
                key = self._topo.edge_keys[e]
                raise ModelError(
                    f"release on link {key} exceeds capacity: residual {new} > {caps[e]}"
                )
        for e in edges:
            table[e] += bw

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def copy(self) -> "ClusterState":
        """Independent snapshot of the full allocation state.

        Residual tables are O(n) array slices (see
        :class:`~repro.core.arrays.ArrayState`); only the guest
        bookkeeping still copies dicts.
        """
        out = ClusterState.__new__(ClusterState)
        out.cluster = self.cluster
        out._topo = self._topo
        out._arrays = self._arrays.copy()
        out._cpu = ResidualCpuTracker.wrapping(
            self._cpu._ids, self._cpu._index, out._arrays.cpu,
            self._cpu._sum, self._cpu._sumsq,
        )
        out._host_of = dict(self._host_of)
        out._guests_on = {h: set(s) for h, s in self._guests_on.items()}
        out._guest_obj = dict(self._guest_obj)
        out._blocked = dict(self._blocked)
        out._fdomains = self._fdomains
        return out

    def restore_from(self, snapshot: "ClusterState") -> None:
        """Reset this state to a snapshot taken with :meth:`copy`.

        The transactional primitive behind mappers that mutate a
        *shared* state: take a snapshot, attempt the mapping, and on
        failure restore — so a half-placed attempt cannot leak
        placements or bandwidth reservations into the caller's state.
        Live references to this state (unlike swapping in the snapshot
        object) remain valid; the arrays are restored in place, so the
        :attr:`bw_array` view stays live too.
        """
        if snapshot.cluster is not self.cluster:
            raise ModelError("cannot restore from a snapshot of a different cluster")
        self._arrays.restore_from(snapshot._arrays)
        # The cpu array was just restored in place (shared with the
        # tracker); only the running aggregates need to follow.
        self._cpu._sum = snapshot._cpu._sum
        self._cpu._sumsq = snapshot._cpu._sumsq
        self._host_of = dict(snapshot._host_of)
        self._guests_on = {h: set(s) for h, s in snapshot._guests_on.items()}
        self._guest_obj = dict(snapshot._guest_obj)
        self._blocked = dict(snapshot._blocked)

    def place_all(self, guests: Iterable[Guest], assignment: Mapping[int, NodeId]) -> None:
        """Place many guests at once per *assignment* (guest id -> host)."""
        for guest in guests:
            self.place(guest, assignment[guest.id])

    def __repr__(self) -> str:
        return (
            f"<ClusterState: {self.n_placed} guests placed on "
            f"{sum(1 for s in self._guests_on.values() if s)} of "
            f"{self.cluster.n_hosts} hosts, objective={self.objective():.2f}>"
        )
