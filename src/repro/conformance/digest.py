"""Content-addressed digests of mapping results.

The conformance subsystem trusts nothing it cannot hash: a mapping is
summarized as a **canonical document** — assignments, routes, the
exactly-recomputed Eq. 10 objective, and every residual the mapping
leaves behind (host CPU/memory/storage, per-link bandwidth) — and the
document is serialized to a canonical JSON byte string whose SHA-256
hex digest identifies the *behavior* that produced it.

Two mappings digest equal **iff** they are observationally identical:
same guest placement, same routes, same leftover capacity everywhere.
Wall-clock telemetry (``Mapping.stages``, ``meta['timings']``) is
deliberately excluded — a digest must survive re-running on a slower
machine — as is the mapper label, so results of different pipelines
(monolithic and sharded, live and replayed) can be byte-compared
through it.

Float canonicalization relies on :func:`json.dumps` emitting
``repr(float)`` (shortest round-trip form), which is deterministic
across CPython platforms for IEEE-754 doubles.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Hashable, Mapping as TMapping

from repro.core.cluster import PhysicalCluster
from repro.core.link import EdgeKey
from repro.core.mapping import Mapping
from repro.core.state import path_edges
from repro.core.validate import validate_mapping
from repro.core.venv import VirtualEnvironment
from repro.errors import ModelError

__all__ = [
    "canonical_document",
    "canonical_json",
    "digest",
    "digest_document",
    "DIGEST_FORMAT",
]

DIGEST_FORMAT = "repro/conformance-digest@1"

NodeId = Hashable


def _node_key(node: NodeId) -> str:
    """Stable JSON-object key for a node id.

    ``repr`` keeps the host ``1`` distinct from the host ``'1'`` —
    ``str`` would silently merge them into one residual entry.
    """
    return repr(node)


def canonical_document(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    mapping: Mapping,
) -> dict[str, Any]:
    """The canonical, JSON-ready summary of one mapping result.

    Contents (all keys sorted at serialization time):

    * ``assignments`` — guest id -> host id,
    * ``paths`` — canonical vlink key ``"a,b"`` -> node list,
    * ``objective`` — Eq. 10 recomputed exactly from the assignment,
    * ``residuals.proc/mem/stor`` — per-host leftovers,
    * ``residuals.bw`` — per-link leftover bandwidth (only links a
      path actually crosses are listed; untouched links stay at
      capacity by construction and would only bloat the document).

    The mapping must be structurally valid against the instance
    (Eqs. 1-9); digesting an invalid mapping raises
    :class:`~repro.errors.ModelError` — a digest of garbage would
    otherwise look as authoritative as a digest of a real result.
    """
    report = validate_mapping(cluster, venv, mapping, raise_on_error=False)
    if not report.ok:
        raise ModelError(
            "cannot digest an invalid mapping: "
            + "; ".join(str(v) for v in report.violations[:3])
        )

    mem_used: dict[NodeId, int] = {}
    stor_used: dict[NodeId, float] = {}
    proc_used: dict[NodeId, float] = {}
    for guest_id, host_id in mapping.assignments.items():
        g = venv.guest(guest_id)
        mem_used[host_id] = mem_used.get(host_id, 0) + g.vmem
        stor_used[host_id] = stor_used.get(host_id, 0.0) + g.vstor
        proc_used[host_id] = proc_used.get(host_id, 0.0) + g.vproc

    bw_used: dict[EdgeKey, float] = {}
    for key, nodes in mapping.paths.items():
        vbw = venv.vlink(*key).vbw
        for e in path_edges(nodes):
            bw_used[e] = bw_used.get(e, 0.0) + vbw

    residuals = {
        "proc": {
            _node_key(h.id): h.proc - proc_used.get(h.id, 0.0) for h in cluster.hosts()
        },
        "mem": {_node_key(h.id): h.mem - mem_used.get(h.id, 0) for h in cluster.hosts()},
        "stor": {
            _node_key(h.id): h.stor - stor_used.get(h.id, 0.0) for h in cluster.hosts()
        },
        "bw": {
            f"{_node_key(u)}|{_node_key(v)}": cluster.link(u, v).bw - used
            for (u, v), used in bw_used.items()
        },
    }

    return {
        "format": DIGEST_FORMAT,
        "assignments": {str(g): h for g, h in mapping.assignments.items()},
        "paths": {f"{a},{b}": list(p) for (a, b), p in mapping.paths.items()},
        "objective": mapping.objective(cluster, venv),
        "residuals": residuals,
    }


def canonical_json(document: TMapping[str, Any]) -> str:
    """Serialize a document to its canonical byte form: sorted keys,
    no whitespace, ``repr``-canonical floats, no NaN/Infinity (a digest
    document must round-trip through strict JSON parsers)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest_document(document: TMapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical document."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def digest(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    mapping: Mapping,
) -> str:
    """Content-addressed identity of a mapping result (see module docs).

    >>> from repro.topology import line_cluster
    >>> from repro.workload import generate_virtual_environment
    >>> from repro.hmn.pipeline import hmn_map
    >>> cluster = line_cluster(4, seed=7)
    >>> venv = generate_virtual_environment(6, density=0.4, seed=7)
    >>> m1, m2 = hmn_map(cluster, venv), hmn_map(cluster, venv)
    >>> digest(cluster, venv, m1) == digest(cluster, venv, m2)
    True
    """
    return digest_document(canonical_document(cluster, venv, mapping))
