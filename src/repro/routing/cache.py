"""Routing front end: shared latency labels over the compiled kernels.

The Networking stage issues one constrained-shortest-path query per
virtual link; Figure 1 of the paper attributes most of the mapping time
to exactly this work.  The reusable part of it is the **latency
labels** (the ``ar`` tables of Algorithm 1): they depend only on the
topology, never on residual bandwidth, so one Dijkstra per distinct
destination serves every query of a mapping, every retry of a retrying
mapper and every tenant of a shared cluster.  The label layer is a
lazily built :class:`~repro.routing.compiled.CompiledLatencyOracle`,
counted by :attr:`RoutingCache.label_tables`.

Paths are not reused: each one depends on the residual bandwidth the
previous reservations left, so every query runs the index-space kernels
of :mod:`repro.routing.compiled` against the state's flat
:attr:`~repro.core.state.ClusterState.bw_array`.  ``kernel_seconds``
accumulates wall time spent inside them, surfaced as
``Mapping.meta["timings"]["route_kernel_s"]``.  Queries go through
:meth:`RoutingCache._kernel`, the one seam the conformance
differential (:mod:`repro.conformance.differential`) overrides to
compare each kernel result against the reference routers.

``hit_rate`` is the label layer's: label hits over label queries.
:meth:`RoutingCache.stats` also reports ``path_queries``, one per route
query, feasible or not.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Hashable

from repro import obs
from repro.errors import ModelError, RoutingError
from repro.routing.bottleneck_prune import BottleneckPath
from repro.routing.compiled import (
    CompiledLatencyOracle,
    bottleneck_route_compiled,
    bottleneck_route_labels_compiled,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import CompiledTopology
    from repro.core.state import ClusterState

__all__ = ["RoutingCache"]

NodeId = Hashable

#: The route engine every cache reports in ``stats()`` and spans.
ENGINE = "compiled"


class RoutingCache:
    """Per-cluster latency labels and routing counters, shared by every
    query against the cluster.

    Parameters
    ----------
    cluster:
        The physical cluster all queries route over.
    """

    __slots__ = (
        "cluster",
        "_topo",
        "_compiled_oracle",
        "path_queries",
        "kernel_seconds",
    )

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._topo: "CompiledTopology | None" = None
        self._compiled_oracle: CompiledLatencyOracle | None = None
        self.path_queries = 0
        self.kernel_seconds = 0.0

    def _compiled(self, state: "ClusterState") -> tuple["CompiledTopology", CompiledLatencyOracle]:
        topo = self._topo
        if topo is None:
            topo = self._topo = state.topology
            self._compiled_oracle = CompiledLatencyOracle(topo)
        elif topo is not state.topology:
            raise ModelError(
                "state's compiled topology differs from this cache's "
                "(cluster topology changed?); build a fresh RoutingCache"
            )
        return topo, self._compiled_oracle

    def route(
        self,
        state: "ClusterState",
        origin: NodeId,
        destination: NodeId,
        *,
        bandwidth: float,
        latency_bound: float,
        router: str = "algorithm1",
        max_expansions: int = 2_000_000,
    ) -> BottleneckPath:
        """Bottleneck-route over *state*'s live residual graph.

        Exactly equivalent to calling
        :func:`~repro.routing.bottleneck_prune.bottleneck_route` (or the
        label-setting variant, per *router*) with *state*'s residual
        table; only the latency labels carry over between queries.
        Raises :class:`~repro.errors.RoutingError` when no path fits.

        When the process recorder is enabled, every query emits a
        ``route.query`` span (engine, router, labels expanded,
        bottleneck, or ``feasible=False``) and feeds the routing
        counters; disabled, this wrapper costs one attribute check
        before the uninstrumented fast path below.
        """
        rec = obs.OBS
        if not rec.enabled:
            return self._route(
                state,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                router=router,
                max_expansions=max_expansions,
            )
        kernel_before = self.kernel_seconds
        with rec.span(
            "route.query",
            origin=str(origin),
            destination=str(destination),
            engine=ENGINE,
            router=router,
        ) as sp:
            try:
                result = self._route(
                    state,
                    origin,
                    destination,
                    bandwidth=bandwidth,
                    latency_bound=latency_bound,
                    router=router,
                    max_expansions=max_expansions,
                )
            except RoutingError:
                sp.set(feasible=False)
                rec.count("repro_route_queries_total", outcome="infeasible")
                raise
            sp.set(
                expansions=result.expansions,
                bottleneck=result.bottleneck,
                hops=len(result.nodes) - 1,
            )
            rec.count("repro_route_queries_total", outcome="feasible")
            rec.observe(
                "repro_route_kernel_seconds", self.kernel_seconds - kernel_before
            )
            return result

    def _route(
        self,
        state: "ClusterState",
        origin: NodeId,
        destination: NodeId,
        *,
        bandwidth: float,
        latency_bound: float,
        router: str = "algorithm1",
        max_expansions: int = 2_000_000,
    ) -> BottleneckPath:
        """The uninstrumented query path: one timed kernel call."""
        if state.cluster is not self.cluster:
            raise ModelError("state belongs to a different cluster than this cache")
        self.path_queries += 1
        t0 = time.perf_counter()
        try:
            return self._kernel(
                state,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                router=router,
                max_expansions=max_expansions,
            )
        finally:
            self.kernel_seconds += time.perf_counter() - t0

    def _kernel(
        self,
        state: "ClusterState",
        origin: NodeId,
        destination: NodeId,
        *,
        bandwidth: float,
        latency_bound: float,
        router: str,
        max_expansions: int,
    ) -> BottleneckPath:
        """Run the compiled route kernel for one query."""
        topo, oracle = self._compiled(state)
        if router == "label_setting":
            return bottleneck_route_labels_compiled(
                topo,
                state.bw_array,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                oracle=oracle,
            )
        return bottleneck_route_compiled(
            topo,
            state.bw_array,
            origin,
            destination,
            bandwidth=bandwidth,
            latency_bound=latency_bound,
            oracle=oracle,
            max_expansions=max_expansions,
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    @property
    def label_queries(self) -> int:
        oracle = self._compiled_oracle
        return oracle.queries if oracle is not None else 0

    @property
    def label_hits(self) -> int:
        oracle = self._compiled_oracle
        return oracle.queries - oracle.misses if oracle is not None else 0

    @property
    def label_tables(self) -> int:
        """Distinct destination latency tables held."""
        oracle = self._compiled_oracle
        return oracle.cached_destinations if oracle is not None else 0

    @property
    def hit_rate(self) -> float:
        """Fraction of latency-label lookups served from a held table."""
        queries = self.label_queries
        return self.label_hits / queries if queries else 0.0

    def stats(self) -> dict:
        """JSON-ready counters for ``Mapping.meta`` / benchmark reports.

        ``path_hits`` is always 0: paths are never reused.  The key
        stays because benchmark reports read it.
        """
        return {
            "engine": ENGINE,
            "label_queries": self.label_queries,
            "label_hits": self.label_hits,
            "path_queries": self.path_queries,
            "path_hits": 0,
            "hit_rate": self.hit_rate,
            "kernel_seconds": self.kernel_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"<RoutingCache: {self.label_tables} label tables, "
            f"hit rate {self.hit_rate:.1%}>"
        )
