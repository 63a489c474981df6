"""Chaos engineering over the mapped testbed.

The paper maps a virtual environment once, onto a healthy cluster.
This package asks the operational question: what happens to the mapped
(multi-tenant) testbed when the cluster misbehaves — and how much of
it can a self-healing operator keep alive?

* :mod:`~repro.resilience.faults` — :class:`FailureModel`, a seeded
  generator of deterministic virtual-time fault traces (host crashes,
  switch failures, link degradations, tenant churn);
* :mod:`~repro.resilience.operator` — :class:`ChaosOperator` /
  :func:`run_chaos`, the self-healing loop replaying a trace against
  the live tenants of a :class:`~repro.service.core.TenantTable` (the
  one the admission service drives too) with transactional repairs,
  retry/shedding policy and per-event survivability sampling;
* :mod:`~repro.resilience.transactions` — :func:`joint_transaction`,
  the snapshot/rollback discipline those repairs share;
* :mod:`~repro.resilience.metrics` — :func:`survivability`, the
  scalar summary (availability, repair latency, objective drift).

Exports resolve lazily (PEP 562): the operator pulls in the admission
service's tenant table, and laziness spares transaction-only importers
the whole chaos and service stack.
"""

from typing import Any

_LAZY = {
    "EVENT_KINDS": "repro.resilience.faults",
    "FailureModel": "repro.resilience.faults",
    "FaultEvent": "repro.resilience.faults",
    "ChaosOperator": "repro.resilience.operator",
    "ChaosResult": "repro.resilience.operator",
    "ChaosSample": "repro.resilience.operator",
    "RepairPolicy": "repro.resilience.operator",
    "RepairRecord": "repro.resilience.operator",
    "run_chaos": "repro.resilience.operator",
    "survivability": "repro.resilience.metrics",
    "joint_transaction": "repro.resilience.transactions",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
