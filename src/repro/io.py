"""JSON serialization of testbed descriptions.

An emulator front-end needs to persist and exchange the three artifacts
this library deals in: physical **clusters**, virtual **environments**
and computed **mappings**.  This module defines a stable, versioned
JSON representation for each and the load/save functions around it.

Format sketch (``format: "repro/cluster@1"`` etc. guards evolution)::

    {"format": "repro/cluster@1", "name": "lab",
     "hosts":    [{"id": 0, "proc": 2000, "mem": 2048, "stor": 2048.0}],
     "switches": ["sw0"],
     "links":    [{"u": 0, "v": "sw0", "bw": 1000.0, "lat": 5.0}]}

    {"format": "repro/venv@1", "name": "exp-42",
     "guests": [{"id": 0, "vproc": 75, "vmem": 192, "vstor": 150.0}],
     "vlinks": [{"a": 0, "b": 1, "vbw": 0.8, "vlat": 45.0}]}

Mappings reuse :meth:`repro.core.mapping.Mapping.to_dict` wrapped in
the same envelope.  Node ids must be JSON-compatible (int or str) —
which every generator in this library guarantees.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping as TMapping

from repro.core.cluster import PhysicalCluster
from repro.core.guest import Guest
from repro.core.host import Host
from repro.core.link import PhysicalLink
from repro.core.mapping import Mapping
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VirtualLink
from repro.errors import ModelError

__all__ = [
    "cluster_to_dict",
    "cluster_from_dict",
    "venv_to_dict",
    "venv_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
]

CLUSTER_FORMAT = "repro/cluster@1"
VENV_FORMAT = "repro/venv@1"
MAPPING_FORMAT = "repro/mapping@1"


def _check_format(data: TMapping[str, Any], expected: str) -> None:
    found = data.get("format")
    if found != expected:
        raise ModelError(f"expected a {expected!r} document, found format={found!r}")


def _check_node_id(node: object) -> object:
    if not isinstance(node, (int, str)):
        raise ModelError(
            f"node id {node!r} is not JSON-serializable (int or str required)"
        )
    return node


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------
def cluster_to_dict(cluster: PhysicalCluster) -> dict[str, Any]:
    """JSON-ready representation of a physical cluster."""
    return {
        "format": CLUSTER_FORMAT,
        "name": cluster.name,
        # Structure hints (topology family, pod arity, ...) survive the
        # round trip so a loaded cluster still partitions on its natural
        # cuts; omitted when empty to keep pre-existing files byte-stable.
        **({"meta": dict(cluster.meta)} if cluster.meta else {}),
        "hosts": [
            {
                "id": _check_node_id(h.id),
                "proc": h.proc,
                "mem": h.mem,
                "stor": h.stor,
                **({"name": h.name} if h.name else {}),
            }
            for h in cluster.hosts()
        ],
        "switches": [_check_node_id(s) for s in cluster.switch_ids],
        "links": [
            {"u": _check_node_id(link.u), "v": _check_node_id(link.v),
             "bw": link.bw, "lat": link.lat}
            for link in cluster.links()
        ],
    }


def cluster_from_dict(data: TMapping[str, Any]) -> PhysicalCluster:
    """Inverse of :func:`cluster_to_dict` (validates the envelope)."""
    _check_format(data, CLUSTER_FORMAT)
    cluster = PhysicalCluster(name=data.get("name", ""))
    meta = data.get("meta")
    if isinstance(meta, dict):
        cluster.meta = dict(meta)
    for spec in data.get("hosts", ()):
        cluster.add_host(
            Host(
                id=spec["id"],
                proc=float(spec["proc"]),
                mem=int(spec["mem"]),
                stor=float(spec["stor"]),
                name=spec.get("name", ""),
            )
        )
    for switch in data.get("switches", ()):
        cluster.add_switch(switch)
    for spec in data.get("links", ()):
        cluster.add_link(
            PhysicalLink(spec["u"], spec["v"], bw=float(spec["bw"]), lat=float(spec["lat"]))
        )
    return cluster


# ----------------------------------------------------------------------
# virtual environment
# ----------------------------------------------------------------------
def venv_to_dict(venv: VirtualEnvironment) -> dict[str, Any]:
    """JSON-ready representation of a virtual environment."""
    return {
        "format": VENV_FORMAT,
        "name": venv.name,
        "guests": [
            {
                "id": g.id,
                "vproc": g.vproc,
                "vmem": g.vmem,
                "vstor": g.vstor,
                **({"name": g.name} if g.name else {}),
            }
            for g in venv.guests()
        ],
        "vlinks": [
            {"a": e.a, "b": e.b, "vbw": e.vbw, "vlat": e.vlat}
            for e in venv.vlinks()
        ],
    }


def venv_from_dict(data: TMapping[str, Any]) -> VirtualEnvironment:
    """Inverse of :func:`venv_to_dict` (validates the envelope)."""
    _check_format(data, VENV_FORMAT)
    venv = VirtualEnvironment(name=data.get("name", ""))
    for spec in data.get("guests", ()):
        venv.add_guest(
            Guest(
                id=int(spec["id"]),
                vproc=float(spec["vproc"]),
                vmem=int(spec["vmem"]),
                vstor=float(spec["vstor"]),
                name=spec.get("name", ""),
            )
        )
    for spec in data.get("vlinks", ()):
        venv.add_vlink(
            VirtualLink(
                int(spec["a"]), int(spec["b"]),
                vbw=float(spec["vbw"]), vlat=float(spec["vlat"]),
            )
        )
    return venv


# ----------------------------------------------------------------------
# mapping
# ----------------------------------------------------------------------
def mapping_to_dict(mapping: Mapping) -> dict[str, Any]:
    """JSON-ready representation of a mapping (envelope + Mapping.to_dict)."""
    body = mapping.to_dict()
    for host in mapping.assignments.values():
        _check_node_id(host)
    body["format"] = MAPPING_FORMAT
    return body


def mapping_from_dict(data: TMapping[str, Any]) -> Mapping:
    """Inverse of :func:`mapping_to_dict` (validates the envelope)."""
    _check_format(data, MAPPING_FORMAT)
    return Mapping.from_dict(data)


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
_SAVERS = {
    PhysicalCluster: cluster_to_dict,
    VirtualEnvironment: venv_to_dict,
    Mapping: mapping_to_dict,
}

_LOADERS = {
    CLUSTER_FORMAT: cluster_from_dict,
    VENV_FORMAT: venv_from_dict,
    MAPPING_FORMAT: mapping_from_dict,
}


def _save_json(obj: PhysicalCluster | VirtualEnvironment | Mapping, path: str | Path) -> Path:
    """Write a cluster / virtual environment / mapping to a JSON file
    (implementation behind :func:`repro.api.save`)."""
    saver = _SAVERS.get(type(obj))
    if saver is None:
        raise ModelError(f"cannot serialize {type(obj).__name__} (expected cluster/venv/mapping)")
    path = Path(path)
    path.write_text(json.dumps(saver(obj), indent=2, sort_keys=False) + "\n")
    return path


def _load_json(path: str | Path) -> PhysicalCluster | VirtualEnvironment | Mapping:
    """Read any repro JSON document, dispatching on its ``format`` tag
    (implementation behind the :mod:`repro.api` loaders)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ModelError(f"{path}: not a JSON object")
    loader = _LOADERS.get(data.get("format"))
    if loader is None:
        raise ModelError(
            f"{path}: unknown format {data.get('format')!r}; "
            f"expected one of {sorted(_LOADERS)}"
        )
    return loader(data)
