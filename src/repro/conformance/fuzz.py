"""Differential fuzzing: every component is an oracle for the others.

A seeded generator draws random (cluster, venv, config) triples and
pushes each through every independent implementation path the repo
has grown:

* **route kernel vs reference routers** — every mapping runs through a
  :class:`~repro.conformance.differential.DifferentialRoutingCache`,
  which re-runs each route query on the reference routers against the
  live mid-mapping residual state; any difference in path, bottleneck,
  latency, expansion count or error message is an ``engine-route``
  divergence;
* **production vs reference stages** — Hosting and Migration run both
  ways (:mod:`repro.hmn.hosting`/:mod:`repro.hmn.migration` against
  :mod:`repro.conformance.stages`) from copies of one state, fresh and
  pre-loaded with another tenant (sometimes with a blocked host), under
  a random migration origin, policy and exhaustiveness; any difference
  in assignments, stage statistics, failure or residuals is a
  ``stage`` divergence;
* **validate()** — every feasible result must satisfy Eqs. 1-9;
* **exact solver** (tiny instances only) — the true placement optimum
  must satisfy ``objective(exact) <= objective(HMN)``, and exact
  infeasibility while HMN succeeded is a contradiction;
* **serial vs parallel batch runner** — the same cell grid must yield
  identical records modulo wall-clock telemetry.
* **sharded pipeline** — forced ``shard=n`` runs must be byte-identical
  with the stitch C kernel on and off, and every sharded result must
  validate; sharded-vs-monolithic feasibility/failure-class gaps are
  legitimate (pod-local fragmentation) and are counted, not failed.
* **solver portfolio** — on tiny instances the branch-and-bound and
  exhaustive solvers must agree on feasibility and (both scoring leaves
  through the canonical objective) on the optimum bit-exactly, with a
  monotone anytime snapshot trajectory; the randomized-rounding mapper
  must always place within Eqs. 1-3 and can never beat a proven
  optimum.

Each disagreement becomes a :class:`Divergence` carrying a
self-contained JSON repro artifact (serialized cluster, venv, and
config), so a CI failure is immediately replayable locally.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.conformance.differential import DifferentialRoutingCache
from repro.conformance.digest import digest
from repro.conformance.stages import reference_hosting, reference_migration
from repro.core.cluster import PhysicalCluster
from repro.core.state import ClusterState
from repro.core.validate import validate_mapping
from repro.core.venv import VirtualEnvironment
from repro.errors import MappingError, ModelError
from repro.hmn.config import HMNConfig
from repro.hmn.hosting import run_hosting
from repro.hmn.migration import run_migration
from repro.hmn.pipeline import hmn_map
from repro.seeding import derive

__all__ = [
    "Divergence",
    "FuzzReport",
    "generate_instance",
    "run_fuzz",
    "EXACT_SEARCH_SPACE_LIMIT",
]

#: ``n_hosts ** n_guests`` above this skips the exact-solver check.
EXACT_SEARCH_SPACE_LIMIT = 300_000

#: Objective comparisons tolerate accumulated-fsum noise, nothing more.
OBJECTIVE_TOL = 1e-9

_FAMILIES = (
    "line",
    "ring",
    "star",
    "mesh",
    "torus",
    "tree",
    "hypercube",
    "switched",
    "fat-tree",
    "random",
)


@dataclass(frozen=True, slots=True)
class Divergence:
    """One observed disagreement, with everything needed to replay it."""

    seed: int
    check: str
    detail: str
    artifact: dict[str, Any]

    def __str__(self) -> str:
        return f"seed {self.seed} [{self.check}]: {self.detail}"


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    seeds_run: int = 0
    n_mapped: int = 0
    n_unmappable: int = 0
    n_exact_checked: int = 0
    n_runner_grids: int = 0
    n_sharded: int = 0
    n_shard_gap: int = 0
    n_redundant: int = 0
    n_portfolio: int = 0
    n_stage: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro/conformance-fuzz-report@1",
            "seeds_run": self.seeds_run,
            "n_mapped": self.n_mapped,
            "n_unmappable": self.n_unmappable,
            "n_exact_checked": self.n_exact_checked,
            "n_runner_grids": self.n_runner_grids,
            "n_sharded": self.n_sharded,
            "n_shard_gap": self.n_shard_gap,
            "n_redundant": self.n_redundant,
            "n_portfolio": self.n_portfolio,
            "n_stage": self.n_stage,
            "ok": self.ok,
            "divergences": [dataclasses.asdict(d) for d in self.divergences],
        }

    def write(self, path: str | Path) -> Path:
        """Persist the report (the CI divergence artifact)."""
        p = Path(path)
        p.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return p


# ----------------------------------------------------------------------
# instance generation
# ----------------------------------------------------------------------
def _build_cluster(family: str, rng: np.random.Generator) -> PhysicalCluster:
    from repro import topology

    hseed = int(rng.integers(0, 2**31))
    if family == "line":
        return topology.line_cluster(int(rng.integers(3, 8)), seed=hseed)
    if family == "ring":
        return topology.ring_cluster(int(rng.integers(3, 9)), seed=hseed)
    if family == "star":
        return topology.star_cluster(int(rng.integers(3, 9)), seed=hseed)
    if family == "mesh":
        return topology.mesh_cluster(2, int(rng.integers(2, 5)), seed=hseed)
    if family == "torus":
        return topology.torus_cluster(3, 3, seed=hseed)
    if family == "tree":
        return topology.tree_cluster(
            int(rng.integers(4, 13)), hosts_per_leaf=4, seed=hseed
        )
    if family == "hypercube":
        return topology.hypercube_cluster(int(rng.integers(2, 4)), seed=hseed)
    if family == "switched":
        return topology.switched_cluster(
            int(rng.integers(4, 13)), ports=8, seed=hseed
        )
    if family == "fat-tree":
        return topology.fat_tree_cluster(4, seed=hseed)
    if family == "random":
        return topology.random_cluster(
            int(rng.integers(4, 11)), density=float(rng.uniform(0.2, 0.6)), seed=hseed
        )
    raise ModelError(f"unknown family {family!r}")


def generate_instance(
    seed: int, *, base_seed: int = 0
) -> tuple[PhysicalCluster, VirtualEnvironment, HMNConfig]:
    """Deterministically draw one random (cluster, venv, config) triple.

    The draw covers every topology family, both workload presets, a
    guest:host ratio of roughly 0.5-2.5, and the config axes that alter
    mapper behavior (link order, migration on/off).
    """
    from repro.workload import HIGH_LEVEL, LOW_LEVEL, generate_virtual_environment

    rng = derive(base_seed, "conformance", "fuzz", seed)
    family = _FAMILIES[int(rng.integers(0, len(_FAMILIES)))]
    cluster = _build_cluster(family, rng)
    # One draw in five deliberately overloads the cluster so the
    # failure paths (placement and routing rejection) get differential
    # coverage too — a rejected route must fail identically in the
    # kernel and the reference router.
    if rng.random() < 0.2:
        ratio = float(rng.uniform(4.0, 12.0))
        density = float(rng.uniform(0.3, 0.9))
    else:
        ratio = float(rng.uniform(0.5, 2.5))
        density = float(rng.uniform(0.1, 0.5))
    n_guests = max(2, int(round(cluster.n_hosts * ratio)))
    workload = HIGH_LEVEL if rng.random() < 0.5 else LOW_LEVEL
    venv = generate_virtual_environment(
        n_guests,
        workload=workload,
        density=density,
        seed=int(rng.integers(0, 2**31)),
    )
    config = HMNConfig(
        link_order="vbw_desc" if rng.random() < 0.8 else "vbw_asc",
        migration_enabled=bool(rng.random() < 0.8),
    )
    return cluster, venv, config


def _artifact(
    cluster: PhysicalCluster, venv: VirtualEnvironment, config: HMNConfig
) -> dict[str, Any]:
    from repro.io import cluster_to_dict, venv_to_dict

    return {
        "cluster": cluster_to_dict(cluster),
        "venv": venv_to_dict(venv),
        "config": config.describe(),
    }


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def _map_arm(cluster, venv, config, cache=None):
    """Run one mapping: (mapping, None) or (None, failure class name)."""
    try:
        return hmn_map(cluster, venv, config, cache=cache), None
    except MappingError as exc:
        return None, type(exc).__name__


def _route_divergences(cache: DifferentialRoutingCache) -> list[tuple[str, str]]:
    return [("engine-route", str(m)) for m in cache.mismatches]


def _check_one_seed(seed: int, base_seed: int, report: FuzzReport) -> None:
    cluster, venv, config = generate_instance(seed, base_seed=base_seed)
    cache = DifferentialRoutingCache(cluster)
    mapping, _failure = _map_arm(cluster, venv, config, cache)
    divergences = _route_divergences(cache)

    if mapping is None:
        report.n_unmappable += 1
    else:
        report.n_mapped += 1
        # Eqs. 1-9; digest() would also catch this, but a named
        # validation divergence beats a bare hash mismatch.
        rep = validate_mapping(cluster, venv, mapping, raise_on_error=False)
        if not rep.ok:
            divergences.append(
                (
                    "validate",
                    "HMN produced an invalid mapping: "
                    + "; ".join(str(v) for v in rep.violations[:3]),
                )
            )

        # Exact solver on tiny instances: the heuristic cannot beat the
        # optimum, and the optimum cannot be infeasible when HMN mapped.
        if cluster.n_hosts ** venv.n_guests <= EXACT_SEARCH_SPACE_LIMIT:
            from repro.extensions.exact import exact_map

            report.n_exact_checked += 1
            try:
                exact = exact_map(cluster, venv, config, placement_only=True)
            except ModelError:
                report.n_exact_checked -= 1  # search blew the node budget
            except MappingError as exc:
                divergences.append(
                    (
                        "exact-feasibility",
                        f"HMN mapped but exact found no placement: {exc}",
                    )
                )
            else:
                obj_exact = exact.objective(cluster, venv)
                obj_hmn = mapping.objective(cluster, venv)
                if obj_exact > obj_hmn + OBJECTIVE_TOL:
                    divergences.append(
                        (
                            "exact-optimality",
                            f"objective(exact)={obj_exact!r} > objective(HMN)={obj_hmn!r}",
                        )
                    )

    if divergences:
        artifact = _artifact(cluster, venv, config)
        for check, detail in divergences:
            report.divergences.append(Divergence(seed, check, detail, artifact))


def _stage_run(hosting, migration, state: ClusterState, venv, config) -> tuple:
    """Hosting then Migration on *state*: (stats, failure)."""
    stats: list[dict] = []
    try:
        stats.append(hosting(state, venv, config))
        stats.append(migration(state, venv, config))
    except (MappingError, ModelError) as exc:
        return stats, (type(exc).__name__, getattr(exc, "guest_id", None))
    return stats, None


def _stage_differences(state: ClusterState, venv, config) -> list[str]:
    """Production and reference stages from copies of *state*: every
    difference in stats, failure, assignments or residual tables."""
    prod_state, ref_state = state.copy(), state.copy()
    prod = _stage_run(run_hosting, run_migration, prod_state, venv, config)
    ref = _stage_run(reference_hosting, reference_migration, ref_state, venv, config)
    out = []
    if prod != ref:
        out.append(f"(stats, failure): production {prod!r} != reference {ref!r}")
    moved = prod_state.assignments.items() ^ ref_state.assignments.items()
    if moved:
        out.append(f"assignments differ for guests {sorted({g for g, _ in moved})[:10]}")
    for table in ("mem", "stor", "cpu"):
        prod_table, ref_table = (getattr(s.arrays, table) for s in (prod_state, ref_state))
        if prod_table.tobytes() != ref_table.tobytes():
            out.append(f"residual {table} tables differ")
    return out


def _check_stage_seed(seed: int, base_seed: int, report: FuzzReport) -> None:
    """Production vs reference Hosting+Migration on one instance, from a
    fresh state and from one pre-loaded with another tenant.

    The pre-loading tenant is mapped by the full pipeline (a failure
    leaves the state empty); a quarter of the pre-loaded states also
    lose a host to :meth:`~repro.core.state.ClusterState.block_host`.
    """
    from repro.io import venv_to_dict
    from repro.workload import LOW_LEVEL, generate_virtual_environment

    cluster, venv, config = generate_instance(seed, base_seed=base_seed)
    rng = derive(base_seed, "conformance", "fuzz-stage", seed)
    stage_config = dataclasses.replace(
        config,
        migration_enabled=True,
        migration_origin=("loaded_min_residual", "strict_min_residual", "max_usage")[
            int(rng.integers(0, 3))
        ],
        migration_policy=("min_intra_bw", "max_vproc", "random")[int(rng.integers(0, 3))],
        migration_exhaustive=bool(rng.random() < 0.5),
        seed=int(rng.integers(0, 2**31)),
    )
    other = generate_virtual_environment(
        max(2, int(round(cluster.n_hosts * rng.uniform(0.3, 1.5)))),
        workload=LOW_LEVEL,
        seed=int(rng.integers(0, 2**31)),
        id_offset=max(venv.guest_ids) + 1,
    )
    blocked = (
        cluster.host_ids[int(rng.integers(0, cluster.n_hosts))]
        if rng.random() < 0.25
        else None
    )
    preloaded = ClusterState(cluster)
    try:
        hmn_map(cluster, other, config, state=preloaded)
    except MappingError:
        pass
    if blocked is not None:
        preloaded.block_host(blocked)

    for name, state in (("fresh", ClusterState(cluster)), ("pre-loaded", preloaded)):
        report.n_stage += 1
        differences = _stage_differences(state, venv, stage_config)
        if differences:
            artifact = _artifact(cluster, venv, stage_config)
            if state is preloaded:
                artifact["preload"] = {
                    "venv": venv_to_dict(other),
                    "config": config.describe(),
                    "blocked_host": blocked,
                }
            report.divergences.append(
                Divergence(seed, "stage", f"{name}: " + "; ".join(differences), artifact)
            )


def _check_sharded_seed(seed: int, base_seed: int, report: FuzzReport) -> None:
    """The sharded-pipeline arms on one forced-shard instance.

    Hard checks: the stitch C kernel and its Python reference must
    agree on feasibility, failure class, and the full digest; the
    process-parallel pod pipeline (``shard_workers=2``) must be
    byte-identical to the serial path; every sharded mapping must
    satisfy Eqs. 1-9.  Sharded-vs-monolithic disagreement on
    feasibility or failure class is *not* a bug — pod-local capacity
    fragmentation and different reservation order legitimately flip
    marginal instances — so it only increments ``n_shard_gap``.
    """
    cluster, venv, config = generate_instance(seed, base_seed=base_seed)
    rng = derive(base_seed, "conformance", "fuzz-shard", seed)
    n_pods = int(rng.integers(2, 5))
    divergences: list[tuple[str, str]] = []

    def arm(**overrides):
        try:
            return hmn_map(cluster, venv, dataclasses.replace(config, **overrides)), None
        except MappingError as exc:
            return None, type(exc).__name__

    m_on, fail_on = arm(shard=n_pods, extra={"stitch_kernel": True})
    m_off, fail_off = arm(shard=n_pods, extra={"stitch_kernel": False})
    report.n_sharded += 1

    if (m_on is None) != (m_off is None) or fail_on != fail_off:
        divergences.append(
            (
                "stitch-kernel-feasibility",
                f"kernel-on={fail_on or 'mapped'} but kernel-off={fail_off or 'mapped'}",
            )
        )
    elif m_on is not None:
        rep = validate_mapping(cluster, venv, m_on, raise_on_error=False)
        if not rep.ok:
            divergences.append(
                (
                    "shard-validate",
                    "sharded mapping violates Eqs. 1-9: "
                    + "; ".join(str(v) for v in rep.violations[:3]),
                )
            )
        else:
            d_on = digest(cluster, venv, m_on)
            d_off = digest(cluster, venv, m_off)
            if d_on != d_off:
                divergences.append(
                    (
                        "stitch-kernel-digest",
                        f"kernel-on {d_on[:16]}.. != kernel-off {d_off[:16]}..",
                    )
                )

    # Serial vs process-parallel: same instance, same pods, two
    # workers.  The pool merges per-pod decision logs in pod-id order,
    # so any digest drift here is a real determinism bug — hard check.
    m_par, fail_par = arm(shard=n_pods, shard_workers=2, extra={"stitch_kernel": True})
    if (m_on is None) != (m_par is None) or fail_on != fail_par:
        divergences.append(
            (
                "shard-parallel-feasibility",
                f"serial={fail_on or 'mapped'} but parallel={fail_par or 'mapped'}",
            )
        )
    elif m_on is not None:
        d_par = digest(cluster, venv, m_par)
        d_on = digest(cluster, venv, m_on)
        if d_par != d_on:
            divergences.append(
                (
                    "shard-parallel-digest",
                    f"serial {d_on[:16]}.. != workers=2 {d_par[:16]}..",
                )
            )

    _m_mono, fail_mono = arm(shard="off")
    if fail_mono != fail_on:
        report.n_shard_gap += 1

    if divergences:
        artifact = _artifact(cluster, venv, config)
        artifact["n_pods"] = n_pods
        for check, detail in divergences:
            report.divergences.append(Divergence(seed, check, detail, artifact))


def _check_redundant_seed(seed: int, base_seed: int, report: FuzzReport) -> None:
    """The availability arms on one instance.

    Hard checks: enabling redundancy (``k`` replicas + backup paths)
    must leave the *primary* mapping byte-identical — same digest as
    the k=0 run — because replicas are CPU-free and backup
    reservations run strictly after Networking; every primary and
    backup route of the redundant run must agree with the reference
    routers (``engine-route``); the redundant
    mapping must still satisfy Eqs. 1-9; and its meta block must parse
    back (:func:`~repro.redundancy.stage.redundancy_records`) with
    every replica on a live host distinct from its guest's primary and
    every backup path endpoint-anchored to the primary's endpoints.
    """
    from repro.redundancy.stage import redundancy_records

    cluster, venv, config = generate_instance(seed, base_seed=base_seed)
    rng = derive(base_seed, "conformance", "fuzz-redundancy", seed)
    k = int(rng.integers(1, 3))
    report.n_redundant += 1

    m_plain, fail_plain = _map_arm(cluster, venv, config)
    red_config = dataclasses.replace(config, redundancy=k, backup_paths=True)
    cache = DifferentialRoutingCache(cluster)
    m_red, fail_red = _map_arm(cluster, venv, red_config, cache)
    divergences = _route_divergences(cache)

    if (m_plain is None) != (m_red is None) or fail_plain != fail_red:
        divergences.append(
            (
                "redundancy-feasibility",
                f"k=0 {fail_plain or 'mapped'} but k={k}+bp {fail_red or 'mapped'} "
                "(redundancy is best-effort and must never flip feasibility)",
            )
        )
    elif m_red is not None:
        rep = validate_mapping(cluster, venv, m_red, raise_on_error=False)
        if not rep.ok:
            divergences.append(
                (
                    "redundancy-validate",
                    "redundant mapping violates Eqs. 1-9: "
                    + "; ".join(str(v) for v in rep.violations[:3]),
                )
            )
        else:
            d_plain = digest(cluster, venv, m_plain)
            d_red = digest(cluster, venv, m_red)
            if d_plain != d_red:
                divergences.append(
                    (
                        "redundancy-digest",
                        f"k=0 {d_plain[:16]}.. != k={k}+bp {d_red[:16]}.. "
                        "(the redundancy stage moved a primary decision)",
                    )
                )
            replicas, backups, _disjoint = redundancy_records(m_red)
            for g, placed in replicas.items():
                for _rid, host in placed:
                    if host == m_red.assignments.get(g):
                        divergences.append(
                            (
                                "redundancy-anti-affinity",
                                f"replica of guest {g} colocated with its "
                                f"primary on host {host!r}",
                            )
                        )
            for key, nodes in backups.items():
                primary = m_red.paths.get(key)
                if primary is None or len(primary) < 2:
                    divergences.append(
                        ("redundancy-backup-orphan", f"backup for pathless vlink {key}")
                    )
                elif nodes[0] != primary[0] or nodes[-1] != primary[-1]:
                    divergences.append(
                        (
                            "redundancy-backup-endpoints",
                            f"backup of {key} runs {nodes[0]!r}->{nodes[-1]!r}, "
                            f"primary {primary[0]!r}->{primary[-1]!r}",
                        )
                    )

    if divergences:
        artifact = _artifact(cluster, venv, config)
        artifact["redundancy"] = k
        for check, detail in divergences:
            report.divergences.append(Divergence(seed, check, detail, artifact))


def _check_portfolio_seed(seed: int, base_seed: int, report: FuzzReport) -> None:
    """The solver-portfolio arms on one instance.

    Hard checks: on tiny instances (search space within
    :data:`EXACT_SEARCH_SPACE_LIMIT`) the branch-and-bound solver and
    the exhaustive solver must agree on feasibility and — both scoring
    leaves through the canonical
    :func:`~repro.core.objective.placement_objective` — on the optimal
    objective **bit-exactly**; every proven-optimal bnb run must report
    ``gap == 0`` and a monotone snapshot trajectory (lower bound
    nondecreasing, incumbent nonincreasing, bound never above the
    incumbent).  On every instance, the randomized-rounding mapper must
    either raise cleanly or produce a mapping that satisfies Eqs. 1-9,
    and its objective can never beat a proven optimum.
    """
    from repro.extensions.exact import exact_map
    from repro.portfolio.bnb import bnb_map
    from repro.portfolio.rounding import rounding_map

    cluster, venv, config = generate_instance(seed, base_seed=base_seed)
    rng = derive(base_seed, "conformance", "fuzz-portfolio", seed)
    portfolio_seed = int(rng.integers(0, 2**31))
    divergences: list[tuple[str, str]] = []
    report.n_portfolio += 1

    proven_optimum: float | None = None
    if cluster.n_hosts**venv.n_guests <= EXACT_SEARCH_SPACE_LIMIT:
        try:
            exact = exact_map(cluster, venv, config, placement_only=True)
        except ModelError:
            exact = None  # search blew the node budget; skip the arm
        except MappingError:
            exact = "infeasible"
        try:
            bnb = bnb_map(
                cluster, venv, config, placement_only=True, seed=portfolio_seed
            )
            if not bnb.meta["proven_optimal"]:
                bnb = None  # node budget exhausted; skip the comparison
        except MappingError:
            bnb = "infeasible"
        if exact is not None and bnb is not None:
            exact_failed = isinstance(exact, str)
            bnb_failed = isinstance(bnb, str)
            if exact_failed != bnb_failed:
                divergences.append(
                    (
                        "portfolio-bnb-feasibility",
                        f"exact={'infeasible' if exact_failed else 'mapped'} but "
                        f"bnb={'infeasible' if bnb_failed else 'mapped'}",
                    )
                )
            elif not exact_failed:
                obj_exact = exact.meta["objective"]
                obj_bnb = bnb.meta["objective"]
                if obj_exact != obj_bnb:
                    divergences.append(
                        (
                            "portfolio-bnb-objective",
                            f"proven optima disagree: exact={obj_exact!r} "
                            f"!= bnb={obj_bnb!r}",
                        )
                    )
                else:
                    proven_optimum = obj_bnb
                if bnb.meta["gap"] != 0.0:
                    divergences.append(
                        (
                            "portfolio-bnb-gap",
                            f"proven optimal but gap={bnb.meta['gap']!r}",
                        )
                    )
                snaps = bnb.meta["snapshots"]
                lbs = [s["lower_bound"] for s in snaps]
                incs = [
                    s["incumbent"] for s in snaps if s["incumbent"] is not None
                ]
                if any(a > b for a, b in zip(lbs, lbs[1:])):
                    divergences.append(
                        ("portfolio-bnb-lb-monotone", f"lower bounds decreased: {lbs}")
                    )
                if any(a < b for a, b in zip(incs, incs[1:])):
                    divergences.append(
                        ("portfolio-bnb-incumbent", f"incumbents increased: {incs}")
                    )
                if any(
                    s["incumbent"] is not None
                    and s["lower_bound"] > s["incumbent"]
                    for s in snaps
                ):
                    divergences.append(
                        (
                            "portfolio-bnb-bound-crossing",
                            "a snapshot lower bound exceeds its incumbent",
                        )
                    )

    try:
        rounded = rounding_map(
            cluster, venv, config, seed=portfolio_seed, placement_only=True
        )
    except MappingError:
        rounded = None  # a clean refusal is a legitimate outcome
    if rounded is not None:
        state_report = validate_mapping(cluster, venv, rounded, raise_on_error=False)
        # placement-only: only the placement constraints apply (the
        # empty path map legitimately trips eq4 for every vlink).
        placement_violations = [
            v
            for v in state_report.violations
            if v.constraint in ("eq1", "eq2", "eq3")
        ]
        if placement_violations:
            divergences.append(
                (
                    "portfolio-rounding-validate",
                    "rounding placement violates Eqs. 1-3: "
                    + "; ".join(str(v) for v in placement_violations[:3]),
                )
            )
        if (
            proven_optimum is not None
            and rounded.meta["objective"] < proven_optimum - OBJECTIVE_TOL
        ):
            divergences.append(
                (
                    "portfolio-rounding-optimum",
                    f"rounding objective {rounded.meta['objective']!r} beats "
                    f"the proven optimum {proven_optimum!r}",
                )
            )

    if divergences:
        artifact = _artifact(cluster, venv, config)
        artifact["portfolio_seed"] = portfolio_seed
        for check, detail in divergences:
            report.divergences.append(Divergence(seed, check, detail, artifact))


def _runner_differential(grid_seed: int, base_seed: int, report: FuzzReport) -> None:
    """Serial vs parallel BatchRunner over one small random grid."""
    from repro.analysis.runner import BatchRunner, CellSpec
    from repro.workload import HIGH_LEVEL, Scenario

    rng = derive(base_seed, "conformance", "fuzz-runner", grid_seed)
    specs = []
    for rep in range(3):
        cluster, _venv, _config = generate_instance(
            int(rng.integers(0, 2**31)), base_seed=base_seed
        )
        specs.append(
            CellSpec(
                cluster=cluster,
                cluster_name=f"fuzz-{grid_seed}-{rep}",
                scenario=Scenario(
                    ratio=float(rng.uniform(1.0, 2.5)),
                    density=float(rng.uniform(0.1, 0.4)),
                    workload=HIGH_LEVEL,
                ),
                mapper="hmn",
                rep=rep,
                base_seed=int(derive(base_seed, "fuzz-runner", grid_seed, "cells").integers(0, 2**31)),
                simulate=True,
            )
        )
    report.n_runner_grids += 1
    serial = BatchRunner(workers=1).run(specs)
    parallel = BatchRunner(workers=2).run(specs)

    def strip(record) -> dict[str, Any]:
        # Wall-clock telemetry legitimately differs between workers;
        # everything else must be byte-identical.
        d = dataclasses.asdict(record)
        d.pop("map_seconds", None)
        d.pop("sim_seconds", None)
        extra = dict(d.get("extra") or {})
        extra.pop("stages", None)
        timings = extra.get("timings")
        if isinstance(timings, dict):
            extra["timings"] = {
                k: v for k, v in timings.items() if not k.endswith("_s")
            }
        d["extra"] = extra
        return d

    for a, b in zip(serial, parallel):
        if strip(a) != strip(b):
            report.divergences.append(
                Divergence(
                    grid_seed,
                    "runner-parity",
                    f"serial != parallel for cell ({a.cluster}, rep {a.rep}): "
                    f"{strip(a)} vs {strip(b)}",
                    {"grid_seed": grid_seed, "base_seed": base_seed},
                )
            )


def run_fuzz(
    n_seeds: int,
    *,
    base_seed: int = 0,
    runner_grids: int | None = None,
    shard_seeds: int | None = None,
    redundant_seeds: int | None = None,
    portfolio_seeds: int | None = None,
    progress: Callable[[int, FuzzReport], None] | None = None,
) -> FuzzReport:
    """Run the full differential campaign over ``n_seeds`` instances.

    Every instance gets the mapping arms and the stage arm (fresh and
    pre-loaded).  ``runner_grids`` controls how many serial-vs-parallel grid
    comparisons ride along (default: one per 25 seeds, minimum 1);
    ``shard_seeds`` how many forced-shard instances get the sharded
    arms, ``redundant_seeds`` how many get the availability arms, and
    ``portfolio_seeds`` how many get the solver-portfolio arms
    (each defaults to one per 5 seeds, minimum 1).  Deterministic for
    a fixed ``(n_seeds, base_seed)``.
    """
    report = FuzzReport()
    for seed in range(n_seeds):
        _check_one_seed(seed, base_seed, report)
        _check_stage_seed(seed, base_seed, report)
        report.seeds_run += 1
        if progress is not None:
            progress(seed, report)
    if runner_grids is None:
        runner_grids = max(1, n_seeds // 25)
    for grid_seed in range(runner_grids):
        _runner_differential(grid_seed, base_seed, report)
    if shard_seeds is None:
        shard_seeds = max(1, n_seeds // 5)
    for seed in range(shard_seeds):
        _check_sharded_seed(seed, base_seed, report)
    if redundant_seeds is None:
        redundant_seeds = max(1, n_seeds // 5)
    for seed in range(redundant_seeds):
        _check_redundant_seed(seed, base_seed, report)
    if portfolio_seeds is None:
        portfolio_seeds = max(1, n_seeds // 5)
    for seed in range(portfolio_seeds):
        _check_portfolio_seed(seed, base_seed, report)
    return report
