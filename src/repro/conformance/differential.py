"""Per-query differential: the route kernel against the reference routers.

Production routing runs one engine, the compiled kernels of
:mod:`repro.routing.compiled`.  Their contract is bit-exact agreement
with the reference routers written over user-space node ids —
:func:`~repro.routing.bottleneck_prune.bottleneck_route` (Algorithm 1)
and :func:`~repro.routing.labels.bottleneck_route_labels` — on the
same residual graph.  :class:`DifferentialRoutingCache` checks that
contract inside real mappings: it is a
:class:`~repro.routing.cache.RoutingCache` whose every route query
re-runs the reference router against ``state.residual_bw`` and records
a :class:`RouteMismatch` on any difference.  Pass it through the
``hmn_map(cache=...)`` seam; the mapping itself is whatever the kernel
decided, so the check never changes a result.

Compared fields: the path nodes, bottleneck and latency (bit-exact
floats), the expansion count for Algorithm 1 (the label-setting
router's settle count is not part of its contract), and the error
message when either side raises :class:`~repro.errors.RoutingError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.errors import RoutingError
from repro.routing.bottleneck_prune import BottleneckPath, bottleneck_route
from repro.routing.cache import RoutingCache
from repro.routing.dijkstra import LatencyOracle
from repro.routing.labels import bottleneck_route_labels

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.state import ClusterState

__all__ = ["DifferentialRoutingCache", "RouteMismatch"]

NodeId = Hashable


def _outcome(result: BottleneckPath | RoutingError, router: str) -> tuple:
    """The comparable form of one routing outcome (see module docs)."""
    if isinstance(result, RoutingError):
        return ("err", str(result))
    out = ("ok", result.nodes, result.bottleneck, result.latency)
    return out + (result.expansions,) if router != "label_setting" else out


@dataclass(frozen=True, slots=True)
class RouteMismatch:
    """One query on which the kernel and the reference router disagree."""

    origin: NodeId
    destination: NodeId
    bandwidth: float
    latency_bound: float
    router: str
    kernel: tuple
    reference: tuple

    def __str__(self) -> str:
        return (
            f"{self.router} {self.origin!r}->{self.destination!r} "
            f"bw={self.bandwidth!r} lat={self.latency_bound!r}: "
            f"kernel {self.kernel} != reference {self.reference}"
        )


class DifferentialRoutingCache(RoutingCache):
    """A :class:`RoutingCache` that cross-checks every route query.

    ``mismatches`` collects one :class:`RouteMismatch` per disagreeing
    query; ``checked`` counts the queries compared.  Reference runs use
    their own :class:`~repro.routing.dijkstra.LatencyOracle`, so they
    never touch the kernel's label counters.
    """

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        self.reference_oracle = LatencyOracle(cluster)
        self.mismatches: list[RouteMismatch] = []
        self.checked = 0

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
        try:
            kernel: BottleneckPath | RoutingError = super()._kernel(
                state,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                router=router,
                max_expansions=max_expansions,
            )
        except RoutingError as exc:
            kernel = exc
        reference = self._reference(
            state, origin, destination, bandwidth, latency_bound, router, max_expansions
        )
        self.checked += 1
        got, want = _outcome(kernel, router), _outcome(reference, router)
        if got != want:
            self.mismatches.append(
                RouteMismatch(
                    origin, destination, bandwidth, latency_bound, router, got, want
                )
            )
        if isinstance(kernel, RoutingError):
            raise kernel
        return kernel

    def _reference(
        self, state, origin, destination, bandwidth, latency_bound, router, max_expansions
    ) -> BottleneckPath | RoutingError:
        kwargs = {} if router == "label_setting" else {"max_expansions": max_expansions}
        route = bottleneck_route_labels if router == "label_setting" else bottleneck_route
        try:
            return route(
                self.cluster,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                residual_bw=state.residual_bw,
                oracle=self.reference_oracle,
                **kwargs,
            )
        except RoutingError as exc:
            return exc
