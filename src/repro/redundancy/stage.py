"""The redundancy post-stage: replicas + backup paths + meta record.

Runs strictly after Networking over the final primary mapping, so
enabling it never moves a primary placement, path, objective or
conformance digest.  Best-effort by design: a guest or vlink that
cannot be protected is counted, not fatal — redundancy degrades
availability margin, it never turns a feasible mapping infeasible.

``Mapping.meta["redundancy"]`` is the JSON-safe contract consumed by
the chaos operator, the benchmarks and the docs: the failure-domain
summary, per-guest replica placements, per-vlink backup paths with
their disjointness, and the reserved-bandwidth accounting
(``reserved_bw`` is this mapping's incremental reservation;
``reserved_bw_total`` the shared ledger's standing total).
:func:`redundancy_records` parses it back into runtime form,
recomputing the shared-risk keys from the live paths.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.mapping import Mapping
from repro.core.state import ClusterState, path_edges
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.hmn.config import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.redundancy.disjoint import backup_route
from repro.redundancy.ledger import BackupLedger, RiskKey
from repro.redundancy.placement import plan_replicas
from repro.routing.cache import RoutingCache

__all__ = ["risks_of_path", "run_redundancy", "redundancy_records"]

NodeId = Hashable


def risks_of_path(nodes: Sequence[NodeId]) -> frozenset[RiskKey]:
    """The single faults that break a primary path *without* killing
    its endpoints: every edge, every transit node.  Endpoint-host
    faults are excluded — a backup path is useless when its endpoint
    dies; replicas cover that axis."""
    risks: set[RiskKey] = {("edge",) + e for e in path_edges(nodes)}
    risks.update(("node", n) for n in nodes[1:-1])
    return frozenset(risks)


def run_redundancy(
    state: ClusterState,
    venv: VirtualEnvironment,
    config: HMNConfig,
    paths: dict[VLinkKey, tuple[NodeId, ...]],
    *,
    cache: RoutingCache,
    ledger: BackupLedger | None = None,
) -> tuple[dict, dict]:
    """Provision replicas and backup paths over the primary mapping.

    Mutates *state* (replica memory/storage, backup-bandwidth
    reservations through *ledger* — a private one is built when the
    caller runs one-shot).  Returns ``(meta, stats)``: *meta* is the
    ``Mapping.meta["redundancy"]`` block, *stats* the flat stage
    counters.
    """
    domains = state.failure_domains
    k = config.redundancy

    replicas: dict[int, list[tuple[int, NodeId]]] = {}
    stats = {"replicas_strict": 0, "replicas_relaxed": 0, "replicas_uncovered": 0}
    if k > 0:
        replicas, stats = plan_replicas(state, venv, k)

    backups: dict[VLinkKey, tuple[NodeId, ...]] = {}
    disjointness: dict[VLinkKey, str] = {}
    n_unprotected = 0
    reserved_before = ledger.total_reserved if ledger is not None else 0.0
    if config.backup_paths:
        if ledger is None:
            ledger = BackupLedger(state)
        for link in ordered_vlinks(venv, config):
            primary = paths.get(link.key)
            if primary is None or len(primary) < 2:
                continue  # colocated: nothing physical to protect
            found = backup_route(
                state,
                cache,
                primary,
                bandwidth=link.vbw,
                latency_bound=link.vlat,
                router=config.router,
                max_expansions=config.max_route_expansions,
            )
            if found is None:
                n_unprotected += 1
                continue
            nodes, kind = found
            if not ledger.try_add(nodes, link.vbw, risks_of_path(primary)):
                n_unprotected += 1
                continue
            backups[link.key] = nodes
            disjointness[link.key] = kind

    reserved = (ledger.total_reserved - reserved_before) if ledger is not None else 0.0
    stats.update(
        {
            "k": k,
            "backups": len(backups),
            "backups_node_disjoint": sum(
                1 for d in disjointness.values() if d == "node"
            ),
            "backups_unprotected": n_unprotected,
            "reserved_bw": reserved,
            "n_domains": domains.n_domains,
        }
    )
    meta = {
        "k": k,
        "backup_paths": config.backup_paths,
        "domains": domains.describe(),
        "replicas": {
            str(g): [[rid, h] for rid, h in placed] for g, placed in replicas.items()
        },
        "backups": {f"{a},{b}": list(nodes) for (a, b), nodes in backups.items()},
        "disjointness": {f"{a},{b}": d for (a, b), d in disjointness.items()},
        "reserved_bw": reserved,
        "reserved_bw_total": ledger.total_reserved if ledger is not None else 0.0,
        "stats": dict(stats),
    }
    return meta, stats


def redundancy_records(
    mapping: Mapping,
) -> tuple[dict[int, list[tuple[int, NodeId]]], dict[VLinkKey, tuple[NodeId, ...]], dict[VLinkKey, str]]:
    """Parse ``meta["redundancy"]`` back into runtime form.

    Returns ``(replicas, backups, disjointness)`` with native keys
    (int guest ids, vlink-key tuples).  An un-redundant mapping parses
    to three empty dicts.
    """
    block = mapping.meta.get("redundancy")
    if not block:
        return {}, {}, {}
    replicas = {
        int(g): [(rid, h) for rid, h in placed]
        for g, placed in block.get("replicas", {}).items()
    }

    def _key(text: str) -> VLinkKey:
        a, b = text.split(",")
        return (int(a), int(b))

    backups = {
        _key(t): tuple(nodes) for t, nodes in block.get("backups", {}).items()
    }
    disjointness = {_key(t): d for t, d in block.get("disjointness", {}).items()}
    return replicas, backups, disjointness
