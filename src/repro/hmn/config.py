"""Configuration knobs for the HMN pipeline.

The defaults reproduce the paper's heuristic exactly; every deviation
the ablation benchmarks explore is a field here, so an
:class:`HMNConfig` value fully describes which variant produced a
mapping (it is recorded in ``Mapping.meta``).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Literal, Mapping as TMapping

from repro.errors import ConfigError

__all__ = [
    "HMNConfig",
    "keyword_only",
    "LinkOrder",
    "MigrationPolicy",
    "MigrationOrigin",
    "RoutingMetric",
    "Router",
    "Shard",
    "ShardWorkers",
    "Redundancy",
]


def keyword_only(cls):
    """Class decorator: constructor rejects positional arguments and
    unknown keywords with a :class:`~repro.errors.ConfigError` naming
    the valid options — instead of the bare ``TypeError`` a dataclass
    gives, which never says what the choices were.

    Apply *above* ``@dataclass(..., kw_only=True)`` so the wrapper sees
    the generated ``__init__``.
    """
    names = tuple(f.name for f in fields(cls))
    valid = ", ".join(sorted(names))
    orig_init = cls.__init__

    @functools.wraps(orig_init)
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if args:
            raise ConfigError(
                f"{cls.__name__} takes keyword arguments only "
                f"(got {len(args)} positional); valid options: {valid}"
            )
        unknown = sorted(set(kwargs) - set(names))
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} option(s): {', '.join(unknown)}; "
                f"valid options: {valid}"
            )
        orig_init(self, **kwargs)

    cls.__init__ = __init__
    return cls

#: Order in which virtual links are processed by Hosting and Networking.
#: The paper uses descending bandwidth ("starting from guests whose links
#: have high-bandwidth"); the alternatives exist for the link-ordering
#: ablation.
LinkOrder = Literal["vbw_desc", "vbw_asc", "random"]

#: Which guest the Migration stage picks from the most-loaded host.
#: The paper picks the guest "with the smallest sum of bandwidth of links
#: to another guests in the same host".
MigrationPolicy = Literal["min_intra_bw", "max_vproc", "random"]

#: How the Migration stage chooses its origin ("the most loaded host").
#: The paper's load metric is residual CPU (Section 3.2), but a literal
#: minimum-residual rule can select an *empty* small host — which has
#: nothing to migrate and halts the stage instantly on heterogeneous
#: clusters (DESIGN.md interpretation note).  "loaded_min_residual"
#: (default) therefore restricts the choice to hosts that actually hold
#: guests; "strict_min_residual" is the literal reading;
#: "max_usage" selects the host with the largest placed CPU demand.
MigrationOrigin = Literal["loaded_min_residual", "strict_min_residual", "max_usage"]

#: Path-quality metric for the Networking stage.  The paper maximizes
#: bottleneck bandwidth; "latency" routes each link on its (bandwidth-
#: feasible) minimum-latency path instead — the routing-metric ablation.
RoutingMetric = Literal["bottleneck", "latency"]

#: Which bottleneck-route implementation the Networking stage uses.
#: "algorithm1" is the paper's modified A*Prune (exponential worst
#: case); "label_setting" is the polynomial exact equivalent
#: (:mod:`repro.routing.labels`) for large clusters / loose latency
#: bounds.  Both return paths with identical bottleneck values.
Router = Literal["algorithm1", "label_setting"]

#: Substrate decomposition for very large clusters (:mod:`repro.shard`).
#: ``"off"`` always runs the monolithic three-stage pipeline; ``"auto"``
#: (default) switches to shard-and-stitch only above
#: :data:`repro.shard.AUTO_MIN_HOSTS` hosts, so results on every
#: paper-scale instance are byte-identical to ``"off"``; an integer
#: ``n >= 2`` forces a decomposition into (about) *n* pods regardless
#: of cluster size — the knob the equivalence tests turn.
Shard = Literal["auto", "off"] | int

#: Process pool size for the sharded pipeline's pod stages
#: (:mod:`repro.shard.parallel`).  ``"auto"`` (default) reads the
#: ``REPRO_SHARD_WORKERS`` environment variable and falls back to ``1``
#: (serial — byte-identical to every result the serial sharded path
#: ever produced); an integer ``n >= 2`` runs pod hosting/migration in
#: *n* worker processes over a shared-memory view of the substrate.
#: The merge is deterministic in pod-id order, so the mapping is
#: byte-identical regardless of the worker count.
ShardWorkers = Literal["auto"] | int

#: Redundancy level for availability-aware mapping
#: (:mod:`repro.redundancy`).  ``0`` (default) maps exactly the paper's
#: pipeline; ``k >= 1`` additionally places *k* cold-standby replicas
#: per guest with anti-affinity across failure domains, as a post-stage
#: that never perturbs the primary mapping — primary assignments,
#: paths and digests are byte-identical to ``redundancy=0``.
Redundancy = int

#: Values the retired ``engine`` field could hold.  Configs stored
#: before the field was removed (every ``describe()`` emitted it) still
#: load: :meth:`HMNConfig.from_dict` drops the key when it holds one of
#: these, and rejects it like any unknown key otherwise.
_RETIRED_ENGINES = ("compiled", "dict")


@keyword_only
@dataclass(frozen=True, slots=True, kw_only=True)
class HMNConfig:
    """All tunables of the Hosting-Migration-Networking pipeline.

    All parameters are keyword-only; positional or unknown arguments
    raise :class:`~repro.errors.ConfigError`.

    Parameters
    ----------
    link_order:
        Virtual-link processing order (Hosting and Networking stages).
    migration_enabled:
        Disable to run Hosting+Networking only (the 'HMN minus
        Migration' ablation; with DFS routing this becomes the paper's
        HS baseline).
    migration_policy:
        Guest-selection rule on the most-loaded host.
    migration_origin:
        Definition of "the most loaded host" (see
        :data:`MigrationOrigin`).
    migration_exhaustive:
        The paper stops as soon as the single most-loaded host yields
        no improving move.  Setting this flag keeps scanning origins in
        load order until *any* improving move is found (an extension
        that trades time for balance; off by default for fidelity).
    migration_max_iterations:
        Safety bound on migration iterations; the paper's loop
        terminates naturally (each move strictly improves a bounded
        objective), so the default is simply 'more than enough'.
    routing_metric:
        Networking path-quality metric.
    router:
        Bottleneck-route implementation (see :data:`Router`).
    shard:
        Substrate decomposition policy (see :data:`Shard`).  The
        default ``"auto"`` engages :mod:`repro.shard` only above its
        host-count threshold, so paper-scale instances are unaffected.
    shard_workers:
        Worker-process count for the sharded pod stages (see
        :data:`ShardWorkers`); affects wall-clock only, never results —
        per-pod placements are merged in pod-id order, so mappings are
        byte-identical across any worker count.
    redundancy:
        Cold-standby replicas per guest (``0``-``7``; see
        :data:`Redundancy` and :mod:`repro.redundancy`).  ``0``
        (default) is the paper's pipeline, byte-identical to every
        pre-redundancy result; ``k >= 1`` adds a post-stage that
        reserves replica memory/storage with anti-affinity across
        failure domains without touching the primary mapping.
    backup_paths:
        Pre-provision a link-disjoint backup path per routed virtual
        link (shared-risk-aware bandwidth reservation; see
        :mod:`repro.redundancy.ledger`).  Off by default; independent
        of ``redundancy`` (either may be enabled alone).
    max_route_expansions:
        Safety valve forwarded to the router.
    time_budget_s:
        Wall-clock deadline (seconds) honored by the *anytime* solvers
        in the portfolio (:func:`repro.extensions.exact.exact_map`,
        :func:`repro.portfolio.bnb.bnb_map`, the ``portfolio`` pool
        mapper): when the budget expires they return their best
        incumbent with ``meta["proven_optimal"] = False`` and an
        admissible ``meta["lower_bound"]`` instead of failing.  The
        HMN pipeline itself ignores it (the heuristic always runs to
        completion).  ``None`` (default) means no deadline.
    seed:
        Only used by the randomized ablation policies ("random" link
        order / migration policy); the paper's defaults are fully
        deterministic and ignore it.
    """

    link_order: LinkOrder = "vbw_desc"
    migration_enabled: bool = True
    migration_policy: MigrationPolicy = "min_intra_bw"
    migration_origin: MigrationOrigin = "loaded_min_residual"
    migration_exhaustive: bool = False
    migration_max_iterations: int = 1_000_000
    routing_metric: RoutingMetric = "bottleneck"
    router: Router = "algorithm1"
    shard: Shard = "auto"
    shard_workers: ShardWorkers = "auto"
    redundancy: Redundancy = 0
    backup_paths: bool = False
    max_route_expansions: int = 2_000_000
    time_budget_s: float | None = None
    seed: int | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.link_order not in ("vbw_desc", "vbw_asc", "random"):
            raise ConfigError(f"unknown link_order {self.link_order!r}")
        if self.migration_policy not in ("min_intra_bw", "max_vproc", "random"):
            raise ConfigError(f"unknown migration_policy {self.migration_policy!r}")
        if self.migration_origin not in (
            "loaded_min_residual",
            "strict_min_residual",
            "max_usage",
        ):
            raise ConfigError(f"unknown migration_origin {self.migration_origin!r}")
        if self.routing_metric not in ("bottleneck", "latency"):
            raise ConfigError(f"unknown routing_metric {self.routing_metric!r}")
        if self.router not in ("algorithm1", "label_setting"):
            raise ConfigError(f"unknown router {self.router!r}")
        if isinstance(self.shard, bool) or not (
            self.shard in ("auto", "off") or (isinstance(self.shard, int) and self.shard >= 1)
        ):
            raise ConfigError(
                f"shard must be 'auto', 'off', or an integer pod count >= 1, "
                f"got {self.shard!r}"
            )
        if isinstance(self.shard_workers, bool) or not (
            self.shard_workers == "auto"
            or (isinstance(self.shard_workers, int) and self.shard_workers >= 1)
        ):
            raise ConfigError(
                f"shard_workers must be 'auto' or an integer >= 1, "
                f"got {self.shard_workers!r}"
            )
        if isinstance(self.redundancy, bool) or not (
            isinstance(self.redundancy, int) and 0 <= self.redundancy <= 7
        ):
            raise ConfigError(
                f"redundancy must be an integer in [0, 7], got {self.redundancy!r}"
            )
        if not isinstance(self.backup_paths, bool):
            raise ConfigError(
                f"backup_paths must be a bool, got {self.backup_paths!r}"
            )
        if self.migration_max_iterations < 0:
            raise ConfigError("migration_max_iterations must be >= 0")
        if self.max_route_expansions < 1:
            raise ConfigError("max_route_expansions must be >= 1")
        if self.time_budget_s is not None and (
            isinstance(self.time_budget_s, bool)
            or not isinstance(self.time_budget_s, (int, float))
            or self.time_budget_s <= 0
        ):
            raise ConfigError(
                f"time_budget_s must be a positive number of seconds or None, "
                f"got {self.time_budget_s!r}"
            )

    def describe(self) -> dict:
        """JSON-friendly summary recorded in ``Mapping.meta``."""
        d = asdict(self)
        d.pop("extra", None)
        return d

    @classmethod
    def from_dict(cls, data: TMapping[str, Any]) -> "HMNConfig":
        """Inverse of :meth:`describe`: rebuild a config from its JSON
        form.  Round-trips exactly (``extra`` is excluded from equality)
        and rejects unknown keys with :class:`~repro.errors.ConfigError`
        — the CLI and :class:`~repro.analysis.runner.BatchRunner` use
        this to ship configs across process boundaries as plain dicts.
        A retired ``engine`` key is dropped when it holds a value the
        field once accepted, so stored configs keep loading.
        """
        if not isinstance(data, TMapping):
            raise ConfigError(
                f"HMNConfig.from_dict expects a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        if data.get("engine") in _RETIRED_ENGINES:
            del data["engine"]
        return cls(**data)

    @classmethod
    def paper(cls) -> "HMNConfig":
        """The configuration matching the paper exactly (same as the
        defaults; provided for explicitness in experiment code)."""
        return cls()
