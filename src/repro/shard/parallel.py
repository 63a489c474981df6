"""Process-parallel execution of the sharded pod stages.

The shard pipeline's Hosting and Migration stages are embarrassingly
parallel: every pod works on a disjoint host set against its own
:class:`~repro.shard.vectorized.PodState`, and the only cross-pod step
(the overflow rescue) runs in the parent between the two stages.  This
module exploits that:

* :class:`SharedSubstrate` publishes the substrate's flat arrays — the
  :class:`~repro.core.arrays.ArrayState` residual vectors (memory,
  storage, CPU, bandwidth), CPU capacities, the blocked-host and
  occupied-host masks, and the compiled CSR topology — into one
  :mod:`multiprocessing.shared_memory` segment,
  **once** per ``shard_map`` call.  Workers read pod rows straight out
  of the segment; per-task payloads stay at "a few index arrays", not
  "the cluster".
* :class:`PodPool` keeps a persistent set of worker processes for the
  duration of the map call and schedules per-pod tasks over them with
  the BatchRunner's crash-tolerance discipline (PR 3): per-task
  deadlines (``REPRO_CELL_TIMEOUT``), capped re-attempts on a crashed
  or hung worker (``REPRO_CELL_RETRIES``), and — because a pod task is
  a pure function of the published substrate — a final **inline**
  fallback in the parent that is byte-identical to what the worker
  would have produced.  A dying worker can therefore slow a mapping
  down, but never change it and never fail it.

**Determinism is the contract.**  Workers never touch shared residuals;
they return their pod's placement/move log and the parent replays it
onto its own pod states in pod-id order — exactly the serial code
path's order — so the mapping digest is byte-identical for any worker
count (pinned by the golden corpus, ``tests/test_shard_parallel.py``,
and a conformance fuzzer arm).

With tracing enabled, each worker records its task under a private
:class:`~repro.obs.trace.Tracer` and ships the finished span list back
with the result; the parent adopts them in pod-id order, so a parallel
trace holds the same ``shard.pod`` span multiset as a serial one.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Hashable, Sequence

import numpy as np

from repro import obs
from repro._procenv import env_cell_retries, env_cell_timeout
from repro.errors import ConfigError, ModelError
from repro.hmn.config import HMNConfig
from repro.shard.vectorized import PodState, pod_hosting, pod_migration

__all__ = ["SharedSubstrate", "PodPool", "resolve_shard_workers"]

NodeId = Hashable

#: Test hook: ``REPRO_SHARD_TEST_CRASH="<kind>:<pod>"`` makes every
#: worker hard-exit when it receives that task, exercising the
#: crash -> retry -> inline-fallback path end to end.  The parent's
#: inline execution ignores the hook, so the mapping still succeeds.
_CRASH_ENV = "REPRO_SHARD_TEST_CRASH"


def resolve_shard_workers(workers: "int | str", n_pods: int) -> int:
    """Resolve ``HMNConfig.shard_workers`` to an effective pool size.

    ``"auto"`` reads ``REPRO_SHARD_WORKERS`` and falls back to ``1``
    (serial).  The result is clamped to *n_pods* — more workers than
    pods would only idle.  ``1`` means "run the serial code path"; the
    mapping is byte-identical either way.
    """
    if workers == "auto":
        raw = os.environ.get("REPRO_SHARD_WORKERS", "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigError(
                    f"REPRO_SHARD_WORKERS must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(
            f"shard_workers must be 'auto' or an integer >= 1, got {workers!r}"
        )
    return max(1, min(workers, n_pods))


# ----------------------------------------------------------------------
# shared-memory substrate snapshot
# ----------------------------------------------------------------------
class SharedSubstrate:
    """A read-only snapshot of the substrate's flat arrays in one
    :class:`multiprocessing.shared_memory.SharedMemory` segment.

    Blocks (all little-endian, C-contiguous):

    ``mem``/``stor``/``cpu``
        Per-host residual memory (int64), storage, CPU (float64) in
        compiled host-row order — what
        :meth:`~repro.shard.vectorized.PodState.from_state` would
        gather host by host.
    ``cap``
        Per-host CPU capacity (float64).
    ``blocked``/``occupied``
        Per-host blocked mask and whether the host already holds
        guests (uint8) — at publication no guest of the mapping being
        sharded is placed yet, so every guest there is another
        tenant's.
    ``bw``
        Per-edge residual bandwidth (float64) — the live
        ``ClusterState.bw_array`` at publication time.
    ``adj_off``/``adj_nodes``/``adj_edges``/``adj_lat``
        The compiled topology's CSR, verbatim.

    The segment is written once by :meth:`publish` and never mutated;
    workers slice pod rows out of it with zero copies of the cluster
    object.  Pickling a ``SharedSubstrate`` (spawn-context workers)
    re-attaches by segment name; fork-context workers inherit the
    mapping and skip the attach entirely.
    """

    _FIELDS = (
        "mem", "stor", "cpu", "cap", "blocked", "occupied", "bw",
        "adj_off", "adj_nodes", "adj_edges", "adj_lat",
    )

    def __init__(self, shm, spec: dict, *, owner: bool) -> None:
        self._shm = shm
        self.spec = spec
        self._owner = owner
        for key, dtype_str, count, offset in spec["blocks"]:
            view = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype_str), count=count, offset=offset
            )
            view.flags.writeable = False
            setattr(self, key, view)

    @classmethod
    def publish(cls, state) -> "SharedSubstrate":
        """Snapshot *state*'s flat arrays into a fresh segment."""
        from multiprocessing import shared_memory

        topo = state.topology
        arrays = state.arrays
        hosts = topo.nodes[: topo.n_hosts]
        blocks = {
            "mem": np.frombuffer(arrays.mem, dtype=np.int64),
            "stor": np.frombuffer(arrays.stor, dtype=np.float64),
            "cpu": np.frombuffer(arrays.cpu, dtype=np.float64),
            "cap": np.frombuffer(topo.cpu0, dtype=np.float64),
            "blocked": np.array(
                [state.is_blocked(h) for h in hosts], dtype=np.uint8
            ),
            "occupied": np.array(
                [bool(state.guests_on(h)) for h in hosts], dtype=np.uint8
            ),
            "bw": np.frombuffer(arrays.bw, dtype=np.float64),
            "adj_off": np.frombuffer(topo.adj_offsets, dtype=np.int64),
            "adj_nodes": np.frombuffer(topo.adj_nodes, dtype=np.int64),
            "adj_edges": np.frombuffer(topo.adj_edges, dtype=np.int64),
            "adj_lat": np.frombuffer(topo.adj_lat, dtype=np.float64),
        }
        layout = []
        offset = 0
        for key in cls._FIELDS:
            arr = blocks[key]
            layout.append((key, arr.dtype.str, len(arr), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for (key, _, _, off), arr in zip(layout, (blocks[k] for k in cls._FIELDS)):
            dst = np.frombuffer(shm.buf, dtype=arr.dtype, count=len(arr), offset=off)
            dst[:] = arr
        spec = {"name": shm.name, "blocks": layout}
        return cls(shm, spec, owner=True)

    @classmethod
    def _attach(cls, spec: dict) -> "SharedSubstrate":
        """Attach to an existing segment by name (spawn-context path)."""
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=spec["name"])
        # The attach registered the segment with this process's resource
        # tracker, which would unlink it when the worker exits; only the
        # publishing parent owns the segment's lifetime.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker quirks are best-effort
            pass
        return cls(shm, spec, owner=False)

    def __reduce__(self):
        return (SharedSubstrate._attach, (self.spec,))

    def pod_state(self, host_ids: Sequence[NodeId], rows: np.ndarray) -> PodState:
        """Build the pod view for *rows* (compiled host-row indices) —
        value-identical to ``PodState.from_state`` on the publishing
        state."""
        ids = [host_ids[int(r)] for r in rows]
        return PodState(
            ids,
            self.mem[rows],
            self.stor[rows],
            self.cpu[rows],
            self.cap[rows],
            self.blocked[rows].astype(bool),
            self.occupied[rows].astype(bool),
        )

    def close(self) -> None:
        """Drop the views and close the mapping (workers and parent)."""
        for key in self._FIELDS:
            if hasattr(self, key):
                delattr(self, key)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    def unlink(self) -> None:
        """Free the segment (publisher only; call after :meth:`close`)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
def _run_task(
    substrate: SharedSubstrate,
    venv,
    config: HMNConfig,
    host_ids: Sequence[NodeId],
    task: tuple,
):
    """Execute one pod task against the shared substrate.

    Pure: reads the substrate snapshot, builds a private
    :class:`PodState`, runs the stage, and returns the decision log —
    identical in any process, which is what makes the inline fallback
    sound.
    """
    kind, pod_id = task[0], task[1]
    rec = obs.OBS
    if kind == "hosting":
        _, _, rows, links, guest_ids = task
        pod = substrate.pod_state(host_ids, rows)
        failures: list[int] = []
        with rec.span(
            "shard.pod", stage="hosting", pod=pod_id,
            hosts=pod.n_hosts, guests=len(guest_ids),
        ):
            stats = pod_hosting(
                pod, venv, links, guest_ids, config, failures=failures
            )
        # dict order == insertion order == placement order: the exact
        # operation sequence the parent must replay for bit-identity.
        return (list(pod.placed.items()), stats, failures)
    if kind == "migration":
        _, _, rows, placements = task
        pod = substrate.pod_state(host_ids, rows)
        for g, pos in placements:
            pod.place(venv.guest(g), pos)
        moves: list[tuple[int, int]] = []
        with rec.span("shard.pod", stage="migration", pod=pod_id):
            stats = pod_migration(pod, venv, config, move_log=moves)
        return (moves, stats)
    raise ModelError(f"unknown pod task kind {kind!r}")


def _pod_worker(conn, substrate, venv, config, host_ids, trace: bool) -> None:
    """Persistent worker loop: receive tasks, send outcomes, until the
    ``None`` shutdown sentinel or a closed pipe."""
    tracer = obs.Tracer() if trace else None
    if tracer is not None:
        obs.set_recorder(tracer)
    try:
        while True:
            try:
                task = conn.recv()
            except EOFError:
                break
            if task is None:
                break
            if os.environ.get(_CRASH_ENV) == f"{task[0]}:{task[1]}":
                os._exit(23)
            mark = len(tracer.spans) if tracer is not None else 0
            spans = lambda: tracer.spans[mark:] if tracer is not None else []  # noqa: E731
            try:
                payload = _run_task(substrate, venv, config, host_ids, task)
                conn.send(("ok", task[1], payload, spans()))
            except Exception as exc:
                conn.send(("error", task[1], f"{type(exc).__name__}: {exc}", spans()))
    finally:
        conn.close()


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class PodPool:
    """A persistent, crash-tolerant pool of pod-stage workers.

    Created once per ``shard_map`` call (both stages reuse the same
    workers and the same published substrate).  See the module
    docstring for the scheduling and determinism contract.
    """

    def __init__(
        self,
        state,
        venv,
        config: HMNConfig,
        workers: int,
        *,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        import multiprocessing as mp

        if workers < 2:
            raise ModelError(f"PodPool needs >= 2 workers, got {workers}")
        self._ctx = mp.get_context()
        self._venv = venv
        self._config = config
        topo = state.topology
        self._host_ids: tuple = topo.nodes[: topo.n_hosts]
        self._trace = obs.OBS.enabled
        self.timeout = env_cell_timeout() if timeout is None else timeout
        self.retries = env_cell_retries() if retries is None else retries
        self.n_workers = workers
        self.stats = {"tasks": 0, "worker_failures": 0, "inline_tasks": 0}
        self.substrate = SharedSubstrate.publish(state)
        self._workers: list[_Worker] = []
        try:
            for _ in range(workers):
                self._workers.append(self._spawn())
        except Exception:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pod_worker,
            args=(
                child_conn, self.substrate, self._venv, self._config,
                self._host_ids, self._trace,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _reap(self, worker: _Worker) -> None:
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join()
        worker.conn.close()

    def _inline(self, task: tuple):
        """Ground-truth fallback: run the task in the parent.  Spans
        nest naturally under the active stage span."""
        self.stats["inline_tasks"] += 1
        return _run_task(
            self.substrate, self._venv, self._config, self._host_ids, task
        ), []

    def run(self, tasks: Sequence[tuple]) -> list[tuple[object, list]]:
        """Execute *tasks* (one per pod) and return ``(payload, spans)``
        pairs **in task order**, regardless of completion order.

        A worker that raises falls through to an inline re-run (the
        task is deterministic, so the parent reproduces — and properly
        raises — the same outcome).  A worker that crashes or blows its
        deadline is replaced and the task re-attempted up to
        ``retries`` times before the inline fallback.
        """
        from multiprocessing.connection import wait as mp_wait

        results: list = [None] * len(tasks)
        spans: list[list] = [[] for _ in tasks]
        done = [False] * len(tasks)
        pending: deque[tuple[int, int]] = deque((i, 0) for i in range(len(tasks)))
        inflight: dict[_Worker, tuple[int, int, float | None]] = {}
        self.stats["tasks"] += len(tasks)

        def settle_inline(idx: int) -> None:
            results[idx], spans[idx] = self._inline(tasks[idx])
            done[idx] = True

        def attempt_failed(idx: int, attempt: int) -> None:
            self.stats["worker_failures"] += 1
            if attempt < self.retries:
                pending.append((idx, attempt + 1))
            else:
                settle_inline(idx)

        while pending or inflight:
            idle = [w for w in self._workers if w not in inflight]
            while pending and idle:
                idx, attempt = pending.popleft()
                worker = idle.pop()
                worker.conn.send(tasks[idx])
                deadline = (
                    time.monotonic() + self.timeout
                    if self.timeout is not None
                    else None
                )
                inflight[worker] = (idx, attempt, deadline)
            if not inflight:
                continue

            wait_for: float | None = None
            if self.timeout is not None:
                wait_for = max(
                    min(d for _, _, d in inflight.values()) - time.monotonic(),
                    0.0,
                )
            ready = set(
                mp_wait(
                    [w.conn for w in inflight]
                    + [w.proc.sentinel for w in inflight],
                    wait_for,
                )
            )
            now = time.monotonic()
            for worker in list(inflight):
                idx, attempt, deadline = inflight[worker]
                if worker.conn in ready:
                    try:
                        outcome = worker.conn.recv()
                    except EOFError:
                        outcome = None
                    if outcome is None:
                        del inflight[worker]
                        self._replace(worker)
                        attempt_failed(idx, attempt)
                    elif outcome[0] == "ok":
                        del inflight[worker]
                        results[idx] = outcome[2]
                        spans[idx] = outcome[3]
                        done[idx] = True
                    else:
                        # In-task exception: deterministic, so re-run
                        # inline — either it reproduces (and raises in
                        # the parent, where it belongs) or the worker
                        # hit a transient its parent does not share.
                        del inflight[worker]
                        settle_inline(idx)
                elif worker.proc.sentinel in ready and not worker.conn.poll():
                    del inflight[worker]
                    self._replace(worker)
                    attempt_failed(idx, attempt)
                elif deadline is not None and now >= deadline:
                    del inflight[worker]
                    worker.proc.terminate()
                    self._replace(worker)
                    attempt_failed(idx, attempt)

        assert all(done)
        return list(zip(results, spans))

    def _replace(self, worker: _Worker) -> None:
        self._reap(worker)
        self._workers.remove(worker)
        self._workers.append(self._spawn())

    def close(self) -> None:
        """Shut workers down and free the shared segment."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            self._reap(worker)
        self._workers.clear()
        self.substrate.close()
        self.substrate.unlink()

    def __enter__(self) -> "PodPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
