"""Experiment batch runner — the harness behind Tables 2-3 and Figure 1.

One **cell** of the paper's experiment grid is (scenario, cluster,
heuristic, repetition): generate the repetition's virtual environment,
run the heuristic, validate the mapping (a mapper bug must surface as a
failure, never as a fake success), then simulate the emulated
experiment over it.  :func:`run_grid` sweeps any subset of the grid and
returns flat :class:`RunRecord` rows; :func:`aggregate` folds them into
per-cell means and failure counts, which the table renderers consume.

Seeding: every cell derives its streams from
``derive(base_seed, scenario_label, rep, ...)`` so records are
reproducible independently of execution order, and — as in the paper —
all heuristics of the same (scenario, rep) see the **same** virtual
environment.

Execution: cells are expanded into picklable :class:`CellSpec` work
items and handed to a :class:`BatchRunner`, which either runs them
serially (``workers=1``) or fans them out one process per cell and
merges the completed records back into the deterministic cell order by
their ``(base seed, scenario, rep, cluster, mapper)`` key — so a
parallel sweep returns byte-for-byte the same records as a serial one,
modulo wall-clock fields.

Fault tolerance: a cell that crashes its worker process, raises an
unexpected exception, or exceeds the per-cell ``timeout`` is retried a
capped number of times and then filed as an ``ok=False`` record
carrying ``RetriesExhaustedError:<reason>`` — one bad cell can no
longer kill the whole grid.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping as TMapping, Sequence

from repro import obs
from repro._procenv import env_cell_retries, env_cell_timeout
from repro.baselines.registry import get_mapper
from repro.core.cluster import PhysicalCluster
from repro.core.validate import validate_mapping
from repro.errors import MappingError, ModelError, ValidationError
from repro.seeding import derive
from repro.simulator.experiment import run_experiment
from repro.simulator.workload_model import ExperimentSpec
from repro.workload.scenario import Scenario

__all__ = [
    "RunRecord",
    "CellSpec",
    "CellStats",
    "BatchRunner",
    "run_cell",
    "expand_cells",
    "run_grid",
    "aggregate",
]


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One (scenario, cluster, mapper, repetition) outcome."""

    scenario: str
    cluster: str
    mapper: str
    rep: int
    ok: bool
    #: Eq. 10 value of the produced mapping (None on failure).
    objective: float | None = None
    #: Wall seconds the mapper took.
    map_seconds: float | None = None
    #: Wall seconds the DES experiment simulation took (Table 3 metric).
    sim_seconds: float | None = None
    #: Simulated experiment execution time (correlation-study metric).
    makespan: float | None = None
    #: Virtual links in the instance / routed inter-host.
    n_vlinks: int = 0
    n_routed: int = 0
    failure: str = ""
    extra: TMapping[str, object] = field(default_factory=dict)


def run_cell(
    cluster: PhysicalCluster,
    cluster_name: str,
    scenario: Scenario,
    mapper_name: str,
    rep: int,
    *,
    base_seed: int = 0,
    spec: ExperimentSpec | None = None,
    simulate: bool = True,
    mapper_kwargs: TMapping[str, object] | None = None,
) -> RunRecord:
    """Execute one grid cell and return its record.

    Mapper failures (any :class:`~repro.errors.MappingError`) become
    ``ok=False`` records carrying the failure class name; mapping
    *validation* failures also count as failures (and name the violated
    constraint), so no invalid mapping can contribute statistics.
    """
    try:
        venv = scenario.build_venv(cluster, seed=derive(base_seed, scenario.label, rep, "venv"))
    except ModelError:
        # No aggregate-feasible instance exists for this host draw: the
        # cell is unmappable by construction for every heuristic.
        return RunRecord(
            scenario=scenario.label,
            cluster=cluster_name,
            mapper=mapper_name,
            rep=rep,
            ok=False,
            failure="InfeasibleInstance",
        )
    mapper = get_mapper(mapper_name)
    mapper_seed = derive(base_seed, scenario.label, rep, "mapper", mapper_name)
    kwargs = dict(mapper_kwargs or {})
    if isinstance(kwargs.get("config"), TMapping):
        # JSON-friendly cell specs: a config dict round-trips through
        # HMNConfig.from_dict so grids can be described without
        # importing the dataclass in the submitting layer.
        from repro.hmn.config import HMNConfig

        kwargs["config"] = HMNConfig.from_dict(kwargs["config"])

    t0 = time.perf_counter()
    try:
        mapping = mapper(cluster, venv, seed=mapper_seed, **kwargs)
    except MappingError as exc:
        return RunRecord(
            scenario=scenario.label,
            cluster=cluster_name,
            mapper=mapper_name,
            rep=rep,
            ok=False,
            map_seconds=time.perf_counter() - t0,
            n_vlinks=venv.n_vlinks,
            failure=type(exc).__name__,
        )
    map_seconds = time.perf_counter() - t0

    try:
        validate_mapping(cluster, venv, mapping)
    except ValidationError as exc:
        return RunRecord(
            scenario=scenario.label,
            cluster=cluster_name,
            mapper=mapper_name,
            rep=rep,
            ok=False,
            map_seconds=map_seconds,
            n_vlinks=venv.n_vlinks,
            failure=f"ValidationError:{exc.constraint}",
        )

    sim_seconds = None
    makespan = None
    if simulate:
        result = run_experiment(
            cluster,
            venv,
            mapping,
            spec,
            rng=derive(base_seed, scenario.label, rep, "experiment"),
        )
        sim_seconds = result.wall_seconds
        makespan = result.makespan

    n_routed = sum(1 for p in mapping.paths.values() if len(p) > 1)
    extra: dict[str, object] = {"stages": {s.name: s.elapsed_s for s in mapping.stages}}
    timings = mapping.meta.get("timings")
    if timings:
        extra["timings"] = dict(timings)
        if "cache_hit_rate" in timings:
            extra["cache_hit_rate"] = timings["cache_hit_rate"]
    return RunRecord(
        scenario=scenario.label,
        cluster=cluster_name,
        mapper=mapper_name,
        rep=rep,
        ok=True,
        objective=mapping.objective(cluster, venv),
        map_seconds=map_seconds,
        sim_seconds=sim_seconds,
        makespan=makespan,
        n_vlinks=venv.n_vlinks,
        n_routed=n_routed,
        extra=extra,
    )


@dataclass(frozen=True)
class CellSpec:
    """One grid cell as a self-contained, picklable work item.

    Everything a worker process needs is carried by value (the cluster
    object, the scenario, the experiment spec), so a spec can be
    executed in any process with no shared state.  Its :attr:`key`
    identifies the cell independently of execution order — the merge
    key of :class:`BatchRunner`.
    """

    cluster: PhysicalCluster
    cluster_name: str
    scenario: Scenario
    mapper: str
    rep: int
    base_seed: int = 0
    spec: ExperimentSpec | None = None
    simulate: bool = True
    mapper_kwargs: TMapping[str, object] | None = None

    @property
    def key(self) -> tuple:
        """Deterministic identity: (seed, scenario, rep, cluster, mapper)."""
        return (self.base_seed, self.scenario.label, self.rep, self.cluster_name, self.mapper)

    def execute(self) -> RunRecord:
        """Run this cell in the current process."""
        return run_cell(
            self.cluster,
            self.cluster_name,
            self.scenario,
            self.mapper,
            self.rep,
            base_seed=self.base_seed,
            spec=self.spec,
            simulate=self.simulate,
            mapper_kwargs=self.mapper_kwargs,
        )


def _execute_spec(spec: CellSpec) -> tuple[tuple, RunRecord]:
    """Top-level worker (picklable) for worker processes."""
    return spec.key, spec.execute()


def _cell_worker(conn, spec: CellSpec, trace: bool = False) -> None:
    """Process-per-cell entry point: run the cell, pipe back the outcome.

    An in-cell exception is reported as data (the parent decides about
    retries); a hard crash (``os._exit``, segfault, OOM kill) leaves
    the pipe empty and is detected by the parent via the process
    sentinel.

    With *trace* on (the parent's recorder was enabled at spawn time),
    the cell runs under a private :class:`~repro.obs.trace.Tracer` and
    its finished span list rides back on the pipe with the outcome;
    the parent merges it into the session trace in deterministic cell
    order, never completion order.
    """
    tracer = obs.Tracer() if trace else None
    if tracer is not None:
        obs.set_recorder(tracer)
    spans = lambda: tracer.spans if tracer is not None else []  # noqa: E731
    try:
        record = spec.execute()
        conn.send(("ok", record, spans()))
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}", spans()))
    finally:
        conn.close()


# REPRO_CELL_TIMEOUT / REPRO_CELL_RETRIES parsing is shared with the
# sharded pipeline's pod workers (repro.shard.parallel) — one budget
# discipline for every crash-tolerant worker process in the library.
_env_timeout = env_cell_timeout
_env_retries = env_cell_retries


def _error_record(spec: CellSpec, reason: str) -> RunRecord:
    """The ``ok=False`` record filed when a cell exhausts its attempts."""
    return RunRecord(
        scenario=spec.scenario.label,
        cluster=spec.cluster_name,
        mapper=spec.mapper,
        rep=spec.rep,
        ok=False,
        failure=f"RetriesExhaustedError:{reason}",
    )


@dataclass
class _Job:
    """One in-flight cell attempt in the process scheduler."""

    index: int
    spec: CellSpec
    attempt: int
    proc: object
    conn: object
    deadline: float | None


class BatchRunner:
    """Executes a batch of :class:`CellSpec` work items, optionally in
    parallel, tolerating crashed and hung cells.

    Parameters
    ----------
    workers:
        ``1`` (default) runs everything serially in-process — no
        subprocess, no pickling, bit-identical to the historical serial
        runner (unless a *timeout* forces the preemptible path, below).
        ``> 1`` runs up to that many cells concurrently, **one process
        per cell**; cells are fully independent (per-cell derived
        seeding, no shared stream state), so the records are identical
        to a serial run except for wall-clock fields, which measure the
        same work under whatever CPU contention the fan-out creates.
        A worker that dies takes only its own cell down, never the
        batch (the process-pool it replaces failed the whole grid on a
        single ``BrokenProcessPool``).
    progress:
        Optional callback invoked with each finished
        :class:`RunRecord` — in submission order when serial, in
        completion order when parallel.
    timeout:
        Per-cell wall-clock budget in seconds (default: the
        ``REPRO_CELL_TIMEOUT`` environment variable, unset/non-positive
        meaning no limit).  Any timeout — even with ``workers=1`` —
        routes cells through worker processes, since an in-process cell
        cannot be preempted; a cell past its deadline is terminated and
        counts as a failed attempt.
    retries:
        How many times a crashed/hung/raising cell is re-attempted
        before an error record is filed (default: the
        ``REPRO_CELL_RETRIES`` environment variable, else 1).  The
        record reuses :class:`~repro.errors.RetriesExhaustedError` as
        its failure label: ``RetriesExhaustedError:<reason>``.

    Results are merged deterministically: each record is filed under
    its spec's ``(base seed, scenario, rep, cluster, mapper)`` key and
    the output list follows the input spec order, never the completion
    order.  Duplicate keys are rejected up front on every path.
    """

    __slots__ = ("workers", "progress", "timeout", "retries")

    def __init__(
        self,
        workers: int = 1,
        *,
        progress: Callable[[RunRecord], None] | None = None,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        if workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        if timeout is None:
            timeout = _env_timeout()
        elif timeout <= 0:
            raise ModelError(f"timeout must be positive, got {timeout}")
        if retries is None:
            retries = _env_retries()
        if retries < 0:
            raise ModelError(f"retries must be non-negative, got {retries}")
        self.workers = workers
        self.progress = progress
        self.timeout = timeout
        self.retries = retries

    def run(self, specs: Sequence[CellSpec]) -> list[RunRecord]:
        """Execute all *specs*, returning records in spec order."""
        specs = list(specs)
        keys = [spec.key for spec in specs]
        if len(set(keys)) != len(keys):
            raise ModelError("duplicate cell keys in batch; cells must be distinct")

        with obs.OBS.span(
            "batch.run", n_cells=len(specs), workers=self.workers, retries=self.retries
        ):
            if self.workers == 1 and self.timeout is None:
                return self._run_serial(specs)
            return self._run_processes(specs)

    def _cell_attrs(self, spec: CellSpec, attempt: int) -> dict:
        return {
            "scenario": spec.scenario.label,
            "cluster": spec.cluster_name,
            "mapper": spec.mapper,
            "rep": spec.rep,
            "attempt": attempt,
            "timeout": self.timeout,
        }

    # ------------------------------------------------------------------
    # serial path (in-process, preserves historical bit-identity)
    # ------------------------------------------------------------------
    def _run_serial(self, specs: list[CellSpec]) -> list[RunRecord]:
        rec = obs.OBS
        records = []
        for spec in specs:
            record = None
            for attempt in range(self.retries + 1):
                with rec.span("batch.cell", **self._cell_attrs(spec, attempt)) as sp:
                    try:
                        record = spec.execute()
                        sp.set(ok=record.ok, worker_pid=os.getpid())
                        break
                    except Exception as exc:
                        sp.set(ok=False, error=type(exc).__name__, worker_pid=os.getpid())
                        if attempt >= self.retries:
                            record = _error_record(spec, f"{type(exc).__name__}: {exc}")
            records.append(record)
            if self.progress is not None:
                self.progress(record)
        return records

    # ------------------------------------------------------------------
    # process-per-cell path (parallel and/or preemptible)
    # ------------------------------------------------------------------
    def _spawn(self, ctx, index: int, spec: CellSpec, attempt: int) -> _Job:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_cell_worker, args=(send_conn, spec, obs.OBS.enabled), daemon=True
        )
        proc.start()
        send_conn.close()  # parent's copy; the child holds the live end
        deadline = time.monotonic() + self.timeout if self.timeout is not None else None
        return _Job(index, spec, attempt, proc, recv_conn, deadline)

    def _reap(self, job: _Job) -> None:
        job.proc.join(timeout=1.0)
        if job.proc.is_alive():
            job.proc.terminate()
            job.proc.join()
        job.conn.close()

    def _run_processes(self, specs: list[CellSpec]) -> list[RunRecord]:
        import multiprocessing as mp
        from multiprocessing.connection import wait as mp_wait

        ctx = mp.get_context()
        results: list[RunRecord | None] = [None] * len(specs)
        queue: deque[tuple[int, CellSpec, int]] = deque(
            (i, spec, 0) for i, spec in enumerate(specs)
        )
        running: list[_Job] = []
        # Worker span lists keyed by cell index, one entry per attempt:
        # (attempt, worker pid, record ok, error label, spans).  Merged
        # into the parent trace *after* the scheduling loop, in cell
        # order — the trace is a function of the workload, not of
        # completion order.
        attempts: dict[int, list[tuple[int, int, bool, str | None, list]]] = {}

        def log_attempt(job: _Job, ok: bool, error: str | None, spans: list) -> None:
            attempts.setdefault(job.index, []).append(
                (job.attempt, job.proc.pid, ok, error, spans)
            )

        def finish(job: _Job, record: RunRecord) -> None:
            results[job.index] = record
            if self.progress is not None:
                self.progress(record)

        def attempt_failed(job: _Job, reason: str) -> None:
            if job.attempt < self.retries:
                queue.append((job.index, job.spec, job.attempt + 1))
            else:
                finish(job, _error_record(job.spec, reason))

        try:
            while queue or running:
                while queue and len(running) < self.workers:
                    index, spec, attempt = queue.popleft()
                    running.append(self._spawn(ctx, index, spec, attempt))

                now = time.monotonic()
                wait_for: float | None = None
                if self.timeout is not None:
                    wait_for = max(
                        min(job.deadline for job in running) - now, 0.0
                    )
                # A readable pipe means a result (or an in-cell error);
                # a readable sentinel alone means the worker died cold.
                ready = set(
                    mp_wait(
                        [job.conn for job in running]
                        + [job.proc.sentinel for job in running],
                        wait_for,
                    )
                )
                now = time.monotonic()
                still_running: list[_Job] = []
                for job in running:
                    if job.conn in ready:
                        try:
                            outcome = job.conn.recv()
                        except EOFError:
                            outcome = None
                        self._reap(job)
                        if outcome is None:
                            log_attempt(job, False, "WorkerCrash", [])
                            attempt_failed(
                                job, f"WorkerCrash(exitcode={job.proc.exitcode})"
                            )
                        elif outcome[0] == "ok":
                            log_attempt(job, outcome[1].ok, None, outcome[2])
                            finish(job, outcome[1])
                        else:
                            log_attempt(
                                job, False, outcome[1].split(":")[0], outcome[2]
                            )
                            attempt_failed(job, outcome[1])
                    elif job.proc.sentinel in ready and not job.conn.poll():
                        self._reap(job)
                        log_attempt(job, False, "WorkerCrash", [])
                        attempt_failed(
                            job, f"WorkerCrash(exitcode={job.proc.exitcode})"
                        )
                    elif job.deadline is not None and now >= job.deadline:
                        job.proc.terminate()
                        self._reap(job)
                        log_attempt(job, False, "Timeout", [])
                        attempt_failed(job, f"Timeout({self.timeout:g}s)")
                    else:
                        still_running.append(job)
                running = still_running
        finally:
            for job in running:
                job.proc.terminate()
                self._reap(job)
        self._merge_traces(specs, attempts)
        return results

    def _merge_traces(
        self, specs: list[CellSpec], attempts: dict[int, list[tuple[int, int, str, list]]]
    ) -> None:
        """Adopt worker spans into the parent trace, cell by cell.

        Each attempt becomes one ``batch.cell`` span in the parent
        (worker pid, attempt, outcome) with the worker's own spans
        re-parented beneath it — so a parallel sweep's trace holds the
        same span multiset as a serial one, modulo pids and clocks.
        """
        rec = obs.OBS
        if not rec.enabled:
            return
        for index, spec in enumerate(specs):
            for attempt, pid, ok, error, spans in sorted(
                attempts.get(index, ()), key=lambda a: a[0]
            ):
                with rec.span(
                    "batch.cell",
                    ok=ok,
                    worker_pid=pid,
                    **self._cell_attrs(spec, attempt),
                    **({} if error is None else {"error": error}),
                ) as sp:
                    rec.adopt(spans, parent=sp.id)


def expand_cells(
    clusters,
    scenarios: Sequence[Scenario],
    mappers: Sequence[str],
    *,
    reps: int = 1,
    base_seed: int = 0,
    spec: ExperimentSpec | None = None,
    simulate: bool = True,
    mapper_kwargs: TMapping[str, TMapping[str, object]] | None = None,
) -> list[CellSpec]:
    """Expand a grid description into its :class:`CellSpec` work items.

    *clusters* is either a fixed ``{name: PhysicalCluster}`` mapping or
    a callable ``seed -> {name: PhysicalCluster}`` invoked once per
    (scenario, repetition); cluster construction always happens here,
    in the submitting process, so the expansion is identical no matter
    where the cells later execute.
    """
    out: list[CellSpec] = []
    for scenario in scenarios:
        for rep in range(reps):
            if callable(clusters):
                rep_clusters = clusters(derive(base_seed, scenario.label, rep, "hosts"))
            else:
                rep_clusters = clusters
            for cluster_name, cluster in rep_clusters.items():
                for mapper_name in mappers:
                    out.append(
                        CellSpec(
                            cluster=cluster,
                            cluster_name=cluster_name,
                            scenario=scenario,
                            mapper=mapper_name,
                            rep=rep,
                            base_seed=base_seed,
                            spec=spec,
                            simulate=simulate,
                            mapper_kwargs=(mapper_kwargs or {}).get(mapper_name),
                        )
                    )
    return out


def run_grid(
    clusters,
    scenarios: Sequence[Scenario],
    mappers: Sequence[str],
    *,
    reps: int = 1,
    base_seed: int = 0,
    spec: ExperimentSpec | None = None,
    simulate: bool = True,
    mapper_kwargs: TMapping[str, TMapping[str, object]] | None = None,
    progress=None,
    workers: int = 1,
    timeout: float | None = None,
    retries: int | None = None,
) -> list[RunRecord]:
    """Sweep the experiment grid; returns one record per cell (also
    exported as :func:`repro.api.run_grid`).

    *clusters* is either a fixed ``{name: PhysicalCluster}`` mapping, or
    a callable ``seed -> {name: PhysicalCluster}`` invoked once per
    (scenario, repetition) — the paper's setup, where each test draws a
    fresh random host set and builds both topologies over it (pass
    :func:`repro.workload.paper_clusters`).

    *mapper_kwargs* optionally maps mapper name -> extra keyword
    arguments (e.g. retry budgets).  *progress*, if given, is called
    with each finished :class:`RunRecord` — hook for long sweeps.

    ``workers > 1`` fans cells out over :class:`BatchRunner` worker
    processes; records come back in the deterministic cell order
    regardless of completion order, identical to a serial run except
    for the wall-clock fields (``map_seconds`` etc.), which measure the
    same work but under whatever CPU contention the fan-out creates.
    Use ``workers=1`` for timing-sensitive sweeps like Figure 1.

    *timeout*/*retries* bound each cell's wall clock and re-attempts
    (see :class:`BatchRunner`); a cell past its budget is filed as an
    error record instead of stalling or failing the sweep.
    """
    cells = expand_cells(
        clusters,
        scenarios,
        mappers,
        reps=reps,
        base_seed=base_seed,
        spec=spec,
        simulate=simulate,
        mapper_kwargs=mapper_kwargs,
    )
    return BatchRunner(workers, progress=progress, timeout=timeout, retries=retries).run(cells)


@dataclass(frozen=True, slots=True)
class CellStats:
    """Aggregated outcomes of one (scenario, cluster, mapper) cell."""

    scenario: str
    cluster: str
    mapper: str
    runs: int
    failures: int
    mean_objective: float | None
    mean_map_seconds: float | None
    mean_sim_seconds: float | None
    mean_makespan: float | None

    @property
    def all_failed(self) -> bool:
        return self.failures == self.runs


def _mean_or_none(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate(records: Iterable[RunRecord]) -> dict[tuple[str, str, str], CellStats]:
    """Fold records into per-cell statistics keyed by
    ``(scenario, cluster, mapper)``.  Means cover successful runs only,
    as in the paper (failed runs contribute to the failure count)."""
    buckets: dict[tuple[str, str, str], list[RunRecord]] = {}
    for r in records:
        buckets.setdefault((r.scenario, r.cluster, r.mapper), []).append(r)
    out: dict[tuple[str, str, str], CellStats] = {}
    for key, rows in buckets.items():
        ok_rows = [r for r in rows if r.ok]
        out[key] = CellStats(
            scenario=key[0],
            cluster=key[1],
            mapper=key[2],
            runs=len(rows),
            failures=len(rows) - len(ok_rows),
            mean_objective=_mean_or_none([r.objective for r in ok_rows if r.objective is not None]),
            mean_map_seconds=_mean_or_none(
                [r.map_seconds for r in ok_rows if r.map_seconds is not None]
            ),
            mean_sim_seconds=_mean_or_none(
                [r.sim_seconds for r in ok_rows if r.sim_seconds is not None]
            ),
            mean_makespan=_mean_or_none([r.makespan for r in ok_rows if r.makespan is not None]),
        )
    return out


def records_to_dicts(records: Iterable[RunRecord]) -> list[dict]:
    """JSON-ready representation of a record list (for persisting runs)."""
    out = []
    for r in records:
        d = {
            "scenario": r.scenario,
            "cluster": r.cluster,
            "mapper": r.mapper,
            "rep": r.rep,
            "ok": r.ok,
            "objective": r.objective,
            "map_seconds": r.map_seconds,
            "sim_seconds": r.sim_seconds,
            "makespan": r.makespan,
            "n_vlinks": r.n_vlinks,
            "n_routed": r.n_routed,
            "failure": r.failure,
        }
        out.append(d)
    return out


__all__.append("records_to_dicts")
