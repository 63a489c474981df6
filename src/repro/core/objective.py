"""The paper's objective function (Eqs. 10-12) and incremental tracking.

The objective is the **population standard deviation of residual CPU**
across hosts after the mapping:

.. math::

    \\sqrt{\\frac{\\sum_{i=1}^{n} (rproc(c_i) - \\overline{rproc})^2}{n}}
    \\qquad
    rproc(c_i) = proc(c_i) - \\sum_{g \\in G_i} vproc(g)

CPU is *not* a constraint, so residuals may be negative (overcommit).

Two evaluation paths are provided:

* :func:`load_balance_factor` — direct, vectorized evaluation from a
  residual array; used for reporting and validation.
* :class:`ResidualCpuTracker` — O(1) incremental evaluation of
  hypothetical single-guest moves, used by the Migration stage, which
  evaluates up to ``n_hosts`` candidate moves per iteration and would
  otherwise recompute an n-term standard deviation for each.

The incremental form keeps running ``sum`` and ``sum of squares``:
``std^2 = (sumsq - sum^2 / n) / n``.  Moving a guest with demand ``d``
from host ``a`` to host ``b`` changes only two residuals, so the new
``sum`` is unchanged and the new ``sumsq`` is adjusted with four terms.
The exact (two-pass :func:`math.fsum`) value the tracker reports is
kept between reads too, term by term, so a read after a move costs
O(changed hosts) plus one vectorized comparison.
"""

from __future__ import annotations

import math
from array import array
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.cluster import PhysicalCluster
from repro.core.venv import VirtualEnvironment
from repro.errors import ModelError, UnknownNodeError

__all__ = [
    "residual_proc",
    "load_balance_factor",
    "exact_variance_of",
    "objective_of_assignment",
    "placement_objective",
    "balance_lower_bound",
    "waterfill_std",
    "ResidualCpuTracker",
]

NodeId = Hashable


def residual_proc(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    assignments: Mapping[int, NodeId],
) -> np.ndarray:
    """Residual CPU per host (Eq. 11), in host insertion order.

    *assignments* maps guest id -> host id.  Guests of *venv* missing
    from *assignments* are ignored (useful mid-pipeline); assignments to
    unknown hosts raise.
    """
    index = {h: i for i, h in enumerate(cluster.host_ids)}
    residual = np.array([h.proc for h in cluster.hosts()], dtype=float)
    for guest_id, host_id in assignments.items():
        try:
            i = index[host_id]
        except KeyError:
            raise UnknownNodeError(host_id, "host") from None
        residual[i] -= venv.guest(guest_id).vproc
    return residual


def load_balance_factor(residuals: Iterable[float] | np.ndarray) -> float:
    """Population standard deviation (Eq. 10) of the residual CPU values."""
    arr = np.asarray(list(residuals) if not isinstance(residuals, np.ndarray) else residuals,
                     dtype=float)
    if arr.size == 0:
        raise ModelError("load balance factor of an empty cluster is undefined")
    return float(arr.std())


def exact_variance_of(values: Sequence[float]) -> float:
    """Population variance of *values*, two-pass :func:`math.fsum`.

    The Eq. 10 value squared, canonical to the bit: the mean is the
    correctly rounded sum over ``n``, and the squared deviations are
    summed correctly rounded too.
    :meth:`ResidualCpuTracker.exact_variance` reads this same value.
    """
    n = len(values)
    mean = math.fsum(values) / n
    return max(math.fsum((v - mean) ** 2 for v in values) / n, 0.0)


def objective_of_assignment(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    assignments: Mapping[int, NodeId],
) -> float:
    """Eq. 10 evaluated directly from an assignment map."""
    return load_balance_factor(residual_proc(cluster, venv, assignments))


def placement_objective(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    assignments: Mapping[int, NodeId],
) -> float:
    """Eq. 10 of a complete placement, canonical to the bit.

    Unlike :func:`objective_of_assignment` (numpy, fast) or
    :meth:`ClusterState.objective` (exact over the *incrementally
    maintained* residuals, whose last few ulps depend on the
    place/unplace history that produced them), this recomputes each
    residual as ``capacity - fsum(demands)`` — and :func:`math.fsum`
    is correctly rounded, so the result is independent of guest order,
    search order, or any mutation history.  The optimality-gap solvers
    (:func:`repro.extensions.exact.exact_map`,
    :func:`repro.portfolio.bnb.bnb_map`) score every complete
    placement through here, which is what makes their reported optima
    comparable **bit-exactly** across different search strategies.
    """
    index = {h: i for i, h in enumerate(cluster.host_ids)}
    demands: list[list[float]] = [[] for _ in index]
    for guest in venv.guests():
        try:
            host_id = assignments[guest.id]
        except KeyError:
            raise ModelError(f"guest {guest.id!r} is unassigned") from None
        try:
            demands[index[host_id]].append(guest.vproc)
        except KeyError:
            raise UnknownNodeError(host_id, "host") from None
    residuals = [
        host.proc - math.fsum(demands[i]) for i, host in enumerate(cluster.hosts())
    ]
    if not residuals:
        raise ModelError("objective of an empty cluster is undefined")
    return math.sqrt(exact_variance_of(residuals))


def balance_lower_bound(cluster: PhysicalCluster, total_vproc: float) -> float:
    """Water-filling lower bound on Eq. 10 for a given total CPU demand.

    Treat the demand as infinitely divisible and ignore memory/storage:
    the std-minimizing allocation shaves the highest-capacity hosts down
    to a common water level ``L`` with ``sum(max(proc_i - L, 0)) =
    total_vproc``, leaving residuals ``min(proc_i, L)``.  No feasible
    mapping can do better, so the bound contextualizes measured
    objectives: when host heterogeneity dwarfs the demand (the paper's
    Table 1 regime at low ratios), even a perfect mapper cannot push
    Eq. 10 near zero — see EXPERIMENTS.md.

    The exact level is found by scanning capacities in descending
    order; O(n log n).
    """
    caps = sorted((h.proc for h in cluster.hosts()), reverse=True)
    if total_vproc < 0:
        raise ModelError(f"total demand must be >= 0, got {total_vproc}")
    n = len(caps)
    if n == 0:
        raise ModelError("balance lower bound of an empty cluster is undefined")
    remaining = total_vproc
    level = caps[0]
    # Lower the water level past each capacity step while demand remains.
    for k in range(1, n + 1):
        next_cap = caps[k] if k < n else -math.inf
        # With k hosts above the level, dropping the level by d absorbs k*d.
        absorb = (level - max(next_cap, -1e30)) * k if next_cap != -math.inf else math.inf
        if remaining <= absorb:
            level -= remaining / k
            remaining = 0.0
            break
        remaining -= absorb
        level = next_cap
    residuals = np.minimum(np.asarray(caps, dtype=float), level)
    return float(residuals.std())


def waterfill_std(residuals: "Sequence[float]", demand: float) -> float:
    """Water-filling std lower bound over arbitrary *current* residuals.

    The generalization of :func:`balance_lower_bound` the exact solvers
    prune with: treat the remaining *demand* as infinitely divisible and
    shave the highest residuals down to a common level — no completion
    of the partial placement can leave the residual-CPU std below this.
    Shared by :func:`repro.extensions.exact.exact_map` and
    :func:`repro.portfolio.bnb.bnb_map` so both branch-and-bound trees
    prune against bit-identical bound values.
    """
    caps = sorted(residuals, reverse=True)
    n = len(caps)
    remaining = demand
    level = caps[0]
    for k in range(1, n + 1):
        next_cap = caps[k] if k < n else -math.inf
        absorb = (level - next_cap) * k if next_cap != -math.inf else math.inf
        if remaining <= absorb:
            level -= remaining / k
            break
        remaining -= absorb
        level = next_cap
    vals = [min(c, level) for c in caps]
    mean = sum(vals) / n
    return math.sqrt(sum((v - mean) ** 2 for v in vals) / n)


def _exact_sum(values: list[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of the finite *values*.

    The first is ``math.fsum(values)`` and each next one is what the
    floats before it rounded away, until nothing is left; an exact zero
    sum gives ``[]``.  :func:`math.fsum` rounds correctly, so the first
    float is fsum's value of any list with the same exact sum.  At
    residual magnitudes the list holds two or three floats, so a running
    exact sum is updated by re-expanding it with the terms that changed.
    """
    values = list(values)
    out: list[float] = []
    part = math.fsum(values)
    while part:
        out.append(part)
        values.append(-part)
        part = math.fsum(values)
    return out


def _rounded(expansion: list[float]) -> float:
    """The correctly rounded value of an :func:`_exact_sum` expansion."""
    return expansion[0] if expansion else 0.0


class _ExactSums:
    """The exact Eq. 10 sums of a snapshot of residual values.

    ``total``, ``sumsq`` and ``dev`` are :func:`_exact_sum` expansions of
    ``v``, ``v * v`` and ``(v - mean) ** 2`` over ``snap``; ``dev`` is
    for the rounded ``mean`` stored with it.  :meth:`update` brings the
    snapshot to new values by re-expanding with the terms of the values
    that differ, and rebuilds ``dev`` only when the rounded mean moves.
    Every term keeps the float operation the two-pass formula uses
    (Python's ``** 2``, not ``x * x``, which differs in the last bit for
    some doubles), so the rounded sums are the two-pass sums.
    """

    __slots__ = ("snap", "total", "sumsq", "mean", "dev")

    def __init__(self, values: np.ndarray) -> None:
        self.snap = values.copy()
        vals = self.snap.tolist()
        self.total = _exact_sum(vals)
        self.sumsq = _exact_sum([v * v for v in vals])
        self.mean: float | None = None
        self.dev: list[float] = []

    def update(self, values: np.ndarray) -> float:
        """Move the snapshot to the finite *values*; return the variance."""
        n = len(values)
        snap = self.snap
        changed = np.flatnonzero(values != snap)
        if changed.size:
            old = snap[changed].tolist()
            snap[changed] = values[changed]
            new = snap[changed].tolist()
            self.total = _exact_sum(self.total + new + [-v for v in old])
            self.sumsq = _exact_sum(
                self.sumsq + [v * v for v in new] + [-(v * v) for v in old]
            )
            mean = self.mean
            if _rounded(self.total) / n == mean:
                self.dev = _exact_sum(
                    self.dev
                    + [(v - mean) ** 2 for v in new]
                    + [-((v - mean) ** 2) for v in old]
                )
        mean = _rounded(self.total) / n
        if mean != self.mean:
            self.mean = mean
            self.dev = _exact_sum([(v - mean) ** 2 for v in snap.tolist()])
        return max(_rounded(self.dev) / n, 0.0)


class ResidualCpuTracker:
    """Incrementally tracked residual-CPU statistics over a fixed host set.

    >>> tracker = ResidualCpuTracker({0: 2000.0, 1: 1000.0})
    >>> tracker.std()
    500.0
    >>> tracker.apply_demand(0, 800.0)   # place an 800-MIPS guest on host 0
    >>> round(tracker.std(), 3)
    100.0
    >>> round(tracker.std_if_moved(0, 1, 800.0), 3)  # hypothetical move
    900.0

    Mutations and :meth:`std_if_moved` are O(1); :meth:`exact_std`
    costs one vectorized comparison plus O(1) per host changed since its
    last read.  The tracker deliberately knows nothing about guests —
    callers pass CPU demands — so it is reusable by any mapper or
    objective variant built on residual CPU.

    Residuals live in a flat ``array('d')`` indexed by a host-id
    interning table (built once and shared by every copy), so snapshots
    are array slices and the array can be shared with an
    :class:`~repro.core.arrays.ArrayState` as the single source of
    truth for residual CPU.
    """

    __slots__ = ("_ids", "_index", "_residual", "_sum", "_sumsq", "_n", "_exact")

    def __init__(self, initial_residuals: Mapping[NodeId, float]) -> None:
        if not initial_residuals:
            raise ModelError("ResidualCpuTracker needs at least one host")
        ids = tuple(initial_residuals)
        self._ids = ids
        self._index = {h: i for i, h in enumerate(ids)}
        self._residual = array("d", (float(initial_residuals[h]) for h in ids))
        self._n = len(ids)
        self._sum = math.fsum(self._residual)
        self._sumsq = math.fsum(v * v for v in self._residual)
        self._exact: _ExactSums | None = None

    @classmethod
    def from_cluster(cls, cluster: PhysicalCluster) -> "ResidualCpuTracker":
        """Tracker starting from the hosts' full CPU capacities."""
        return cls({h.id: h.proc for h in cluster.hosts()})

    @classmethod
    def wrapping(
        cls,
        ids: tuple[NodeId, ...],
        index: Mapping[NodeId, int],
        residual: array,
        total: float,
        sumsq: float,
    ) -> "ResidualCpuTracker":
        """Adopt an existing residual array (shared, not copied).

        The :class:`~repro.core.state.ClusterState` constructor uses
        this to make the tracker operate directly on the state's
        :class:`~repro.core.arrays.ArrayState` CPU table.
        """
        if not ids:
            raise ModelError("ResidualCpuTracker needs at least one host")
        out = cls.__new__(cls)
        out._ids = ids
        out._index = dict(index) if not isinstance(index, dict) else index
        out._residual = residual
        out._n = len(ids)
        out._sum = total
        out._sumsq = sumsq
        out._exact = None
        return out

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def residual(self, host_id: NodeId) -> float:
        try:
            return self._residual[self._index[host_id]]
        except KeyError:
            raise UnknownNodeError(host_id, "host") from None

    def residuals(self) -> dict[NodeId, float]:
        """Snapshot of residual CPU per host."""
        return dict(zip(self._ids, self._residual))

    @property
    def n_hosts(self) -> int:
        return self._n

    @property
    def running_sum(self) -> float:
        """Current running residual sum (re-anchored by :meth:`exact_std`).

        Exposed (with :attr:`running_sumsq`) for vectorized batch
        evaluation of hypothetical moves — :mod:`repro.shard.vectorized`
        replays :meth:`std_if_moved`'s exact formula over whole
        candidate arrays and must start from the same aggregates.
        """
        return self._sum

    @property
    def running_sumsq(self) -> float:
        """Current running sum of squared residuals (see :attr:`running_sum`)."""
        return self._sumsq

    def mean(self) -> float:
        return self._sum / self._n

    # When the running-aggregate variance is this small relative to the
    # mean square, the subtraction has cancelled most significant digits
    # and we recompute exactly (two-pass, O(n)) — hit only near perfect
    # balance, where the cheap formula's ~1e-6 absolute error would
    # otherwise leak into objectives and migration decisions.
    _CANCELLATION_GUARD = 1e-9

    def variance(self) -> float:
        mean_sq = (self._sum / self._n) ** 2
        var = self._sumsq / self._n - mean_sq
        if var < self._CANCELLATION_GUARD * max(mean_sq, 1.0):
            # Re-anchor *both* running aggregates: the sum itself can have
            # absorbed tiny components (1.0 + 1e-38 - 1.0 == 0.0).
            return self.exact_variance()
        return max(var, 0.0)

    def std(self) -> float:
        """Current Eq. 10 value."""
        return math.sqrt(self.variance())

    def exact_variance(self) -> float:
        """:func:`exact_variance_of` the residual values, to the bit.

        Unlike :meth:`variance`, this never trusts the running
        aggregates, so it carries no accumulated drift — use it
        wherever the value is *reported* (it ends up in
        ``Mapping.meta["objective"]``) rather than merely compared.
        The running aggregates are re-anchored to the correctly rounded
        sums as a side effect, so a long-lived tracker cannot drift
        without bound either.

        The exact sums are kept from one read to the next against a
        snapshot of the residuals (:class:`_ExactSums`), so a read finds
        the hosts whose residual changed — by any writer: a restore, or
        the shared :class:`~repro.core.arrays.ArrayState` array — and
        pays for those alone; a copy starts its own sums on its first
        read.  Non-finite residuals, which have no exact sum, take the
        plain :func:`math.fsum` passes.
        """
        values = np.frombuffer(self._residual, dtype=np.float64)
        if not np.isfinite(values).all():
            self._exact = None
            self._sum = math.fsum(self._residual)
            self._sumsq = math.fsum(v * v for v in self._residual)
            return exact_variance_of(self._residual)
        if self._exact is None:
            self._exact = _ExactSums(values)
        var = self._exact.update(values)
        self._sum = _rounded(self._exact.total)
        self._sumsq = _rounded(self._exact.sumsq)
        return var

    def exact_std(self) -> float:
        """Eq. 10 recomputed exactly from the residual values."""
        return math.sqrt(self.exact_variance())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_demand(self, host_id: NodeId, vproc: float) -> None:
        """Consume *vproc* MIPS on *host_id* (placement)."""
        try:
            i = self._index[host_id]
        except KeyError:
            raise UnknownNodeError(host_id, "host") from None
        old = self._residual[i]
        new = old - vproc
        self._residual[i] = new
        self._sum += new - old
        self._sumsq += new * new - old * old

    def release_demand(self, host_id: NodeId, vproc: float) -> None:
        """Return *vproc* MIPS to *host_id* (removal)."""
        self.apply_demand(host_id, -vproc)

    # ------------------------------------------------------------------
    # hypothetical evaluation (no mutation)
    # ------------------------------------------------------------------
    def _exact_variance_with(self, overrides: Mapping[NodeId, float]) -> float:
        """Two-pass variance with some residuals hypothetically replaced.

        Recomputes the mean from the (hypothetical) values rather than
        trusting the running sum, which can have absorbed tiny
        components.
        """
        pairs = zip(self._ids, self._residual)
        return exact_variance_of([overrides.get(h, v) for h, v in pairs])

    def std_if_moved(self, src: NodeId, dst: NodeId, vproc: float) -> float:
        """Eq. 10 value if a *vproc*-MIPS guest moved from *src* to *dst*.

        O(1) except near perfect balance, where the cancellation guard
        recomputes exactly (see :meth:`variance`).
        """
        if src == dst:
            return self.std()
        rs = self.residual(src)
        rd = self.residual(dst)
        new_rs = rs + vproc
        new_rd = rd - vproc
        sumsq = self._sumsq - rs * rs - rd * rd + new_rs * new_rs + new_rd * new_rd
        mean_sq = (self._sum / self._n) ** 2
        var = sumsq / self._n - mean_sq
        if var < self._CANCELLATION_GUARD * max(mean_sq, 1.0):
            var = self._exact_variance_with({src: new_rs, dst: new_rd})
        return math.sqrt(max(var, 0.0))

    # ------------------------------------------------------------------
    # host orderings (ties broken by host id string, for determinism)
    # ------------------------------------------------------------------
    def hosts_by_load_descending(self) -> list[NodeId]:
        """Hosts from most loaded (least residual) to least loaded."""
        res, index = self._residual, self._index
        return sorted(self._ids, key=lambda h: (res[index[h]], str(h)))

    def hosts_by_residual_descending(self) -> list[NodeId]:
        """Hosts from least loaded (most residual) to most loaded."""
        res, index = self._residual, self._index
        return sorted(self._ids, key=lambda h: (-res[index[h]], str(h)))

    def copy(self) -> "ResidualCpuTracker":
        """Independent snapshot (array slice; interning tables shared)."""
        return ResidualCpuTracker.wrapping(
            self._ids, self._index, self._residual[:], self._sum, self._sumsq
        )

    def restore_from(self, snapshot: "ResidualCpuTracker") -> None:
        """Reset to a snapshot **in place** (array identity preserved,
        so an :class:`~repro.core.arrays.ArrayState` sharing the array
        sees the restored values)."""
        if snapshot._ids != self._ids:
            raise ModelError("cannot restore from a tracker over different hosts")
        self._residual[:] = snapshot._residual
        self._sum = snapshot._sum
        self._sumsq = snapshot._sumsq
