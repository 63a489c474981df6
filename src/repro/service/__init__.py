"""Online multi-tenant mapping: the admission service.

The paper maps one tester's environment onto a dedicated cluster; a
production testbed is an on-demand lab where tenant requests arrive
continuously against one shared substrate.  This package is that
service:

* :mod:`~repro.service.types` — the typed request/response surface
  (:class:`MapRequest`, :class:`AdmissionDecision`,
  :class:`AdmissionConfig`, :class:`ReplayReport`);
* :mod:`~repro.service.core` — :class:`ServiceCore`, the transactional
  decision engine over one shared
  :class:`~repro.core.state.ClusterState`, with SLO metrics and
  store-backed restart (:meth:`ServiceCore.resume`);
* :mod:`~repro.service.store` — :class:`ExperimentStore`, the
  append-only JSONL log (json2run-style ``Persistent`` records) a
  restarted service replays to bit-exact state;
* :mod:`~repro.service.service` — :class:`MappingService` /
  :class:`ServiceHandle`, the asyncio queue + worker pool with the
  commit turnstile that keeps decisions byte-identical at any worker
  count;
* :mod:`~repro.service.replay` — :func:`replay_admissions` /
  :func:`replay_through`, deterministic batch drivers over the same
  decision path.

Typical use::

    from repro.api import open_service, MapRequest

    with open_service(cluster, store="lab.store") as svc:
        decision = svc.submit(MapRequest(tenant="alice", venv=venv))
        ...
        svc.release("alice")
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.service.core import ServiceCore, release_tenant
from repro.service.replay import replay_admissions, replay_through
from repro.service.service import AdmissionQueue, MappingService, ServiceHandle
from repro.service.store import ExperimentStore, Persistent, STORE_FORMAT
from repro.service.types import (
    AdmissionConfig,
    AdmissionDecision,
    MapRequest,
    ReplayReport,
)

__all__ = [
    "MapRequest",
    "AdmissionDecision",
    "AdmissionConfig",
    "ReplayReport",
    "ServiceCore",
    "MappingService",
    "AdmissionQueue",
    "ServiceHandle",
    "ExperimentStore",
    "Persistent",
    "STORE_FORMAT",
    "release_tenant",
    "replay_admissions",
    "replay_through",
    "open_service",
]


@contextmanager
def open_service(
    cluster,
    *,
    config=None,
    n_workers: int = 2,
    store=None,
    metrics=None,
) -> Iterator[ServiceHandle]:
    """Run an admission service for the extent of the block.

    Starts the event loop in a daemon thread, builds a
    :class:`MappingService` (resuming from *store* when the path
    already holds a log), and yields the blocking
    :class:`ServiceHandle`.  On exit the queue is closed, remaining
    tickets drain, workers stop and the store is flushed — exception
    or not.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-service-loop", daemon=True
    )
    thread.start()
    handle = None
    try:
        def _build():
            return MappingService(
                cluster,
                config=config,
                n_workers=n_workers,
                store=store,
                metrics=metrics,
            )

        # Construct inside the loop thread: the queue's asyncio
        # primitives must bind to the loop that will run them.
        service = asyncio.run_coroutine_threadsafe(
            _async_build(_build), loop
        ).result()
        handle = ServiceHandle(service, loop, thread)
        yield handle
    finally:
        if handle is not None:
            handle.close()
        else:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            if not loop.is_running():
                loop.close()


async def _async_build(build):
    service = build()
    await service.start()
    return service
