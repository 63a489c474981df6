"""One-dimensional parameter sweeps over the mapping pipeline.

Figure 1 is a sweep (links → mapping time); this module generalizes
the shape so any question of the form *"how does metric Y respond to
parameter X, per heuristic?"* is three lines:

    sweep = sweep_scenarios(
        paper_clusters, axis=[2.5, 5.0, 7.5, 10.0],
        make_scenario=lambda r: Scenario(ratio=r, density=0.02, workload=HIGH_LEVEL),
        mappers=["hmn", "random+astar"], reps=3, base_seed=1,
    )
    print(render_sweep(sweep, value=lambda c: c.mean_objective))

Sweeps reuse the grid runner (same seeding discipline, same
validation), so their records interoperate with every table/figure
renderer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping as TMapping, Sequence

from repro.analysis.runner import CellStats, RunRecord, aggregate, run_grid
from repro.errors import ModelError
from repro.workload.scenario import Scenario

__all__ = ["SweepResult", "sweep_scenarios", "render_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Records of a 1-D sweep plus the axis bookkeeping."""

    axis_name: str
    #: axis value -> scenario label produced for it
    points: TMapping[float, str]
    records: tuple[RunRecord, ...]
    mappers: tuple[str, ...]
    clusters: tuple[str, ...]

    def series(
        self,
        mapper: str,
        cluster: str,
        value: Callable[[CellStats], float | None],
    ) -> list[tuple[float, float | None]]:
        """(axis value, metric) points for one mapper on one cluster."""
        stats = aggregate(self.records)
        out = []
        for x, label in sorted(self.points.items()):
            cell = stats.get((label, cluster, mapper))
            out.append((x, None if cell is None or cell.all_failed else value(cell)))
        return out

    def failure_series(self, mapper: str, cluster: str) -> list[tuple[float, float]]:
        """(axis value, failure fraction) for one mapper on one cluster."""
        stats = aggregate(self.records)
        out = []
        for x, label in sorted(self.points.items()):
            cell = stats.get((label, cluster, mapper))
            frac = 0.0 if cell is None or cell.runs == 0 else cell.failures / cell.runs
            out.append((x, frac))
        return out


def sweep_scenarios(
    clusters,
    *,
    axis: Sequence[float],
    make_scenario: Callable[[float], Scenario],
    mappers: Sequence[str],
    reps: int = 2,
    base_seed: int = 0,
    axis_name: str = "x",
    simulate: bool = False,
    mapper_kwargs=None,
    workers: int = 1,
    progress=None,
) -> SweepResult:
    """Run the grid over scenarios generated from *axis* values.

    *make_scenario* must give distinct labels for distinct axis values
    (Scenario labels encode ratio and density, so sweeping either is
    automatically safe; other axes should tweak one of the two).

    ``workers > 1`` fans the sweep's cells out over the grid runner's
    :class:`~repro.analysis.runner.BatchRunner` process pool; records
    are merged back into deterministic order, so the sweep's series are
    identical to a serial run.  *progress* is forwarded to the runner
    (called per finished record, in completion order when parallel).
    """
    if not axis:
        raise ModelError("sweep needs at least one axis value")
    points: dict[float, str] = {}
    scenarios = []
    for x in axis:
        scenario = make_scenario(float(x))
        if scenario.label in points.values():
            raise ModelError(
                f"axis value {x} produced duplicate scenario label {scenario.label!r}; "
                "make_scenario must vary the scenario per axis value"
            )
        points[float(x)] = scenario.label
        scenarios.append(scenario)
    records = run_grid(
        clusters,
        scenarios,
        list(mappers),
        reps=reps,
        base_seed=base_seed,
        simulate=simulate,
        mapper_kwargs=mapper_kwargs,
        workers=workers,
        progress=progress,
    )
    cluster_names = tuple(dict.fromkeys(r.cluster for r in records))
    return SweepResult(
        axis_name=axis_name,
        points=points,
        records=tuple(records),
        mappers=tuple(mappers),
        clusters=cluster_names,
    )


def render_sweep(
    sweep: SweepResult,
    *,
    value: Callable[[CellStats], float | None],
    pattern: str = "{:.1f}",
    title: str = "",
    cluster: str | None = None,
) -> str:
    """Aligned table: one row per axis value, one column per mapper."""
    clusters = [cluster] if cluster else list(sweep.clusters)
    lines = []
    if title:
        lines.append(title)
    for cl in clusters:
        lines.append(f"[{cl}]")
        header = f"{sweep.axis_name:>10} " + " ".join(f"{m:>16}" for m in sweep.mappers)
        lines.append(header)
        series = {m: dict(sweep.series(m, cl, value)) for m in sweep.mappers}
        for x in sorted(sweep.points):
            row = f"{x:>10g} "
            for m in sweep.mappers:
                v = series[m].get(x)
                row += f" {'—' if v is None else pattern.format(v):>16}"
            lines.append(row)
    return "\n".join(lines)
