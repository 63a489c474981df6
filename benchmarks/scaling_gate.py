#!/usr/bin/env python3
"""Scaling regression gate for the sharded mapper (BENCH_scaling.json).

Three deterministic cells, compared against the committed baseline the
same way ``smoke.py`` gates the routing engine:

``sharded-fat-tree-1024``
    1024 hosts / 1500 guests, forced ``shard=16`` — the dual-run size
    where the monolithic mapper still finishes.
``mono-fat-tree-1024``
    The same instance through ``shard="off"`` (label-setting router —
    Algorithm 1 explodes under latency bounds this loose).  Exists so
    the *quality* gate below has a live reference, and so the committed
    baseline records the speedup the README quotes.
``sharded-fat-tree-100k``
    The golden corpus ``scale-fat-tree-100k`` instance (101 306 hosts,
    25k guests, ``shard="auto"``) mapped end to end — the ROADMAP's
    scale target.  Skippable with ``--skip-100k`` for quick local runs.

Gates on ``--check``:

* **time** — each cell's calibration-normalized cost must stay within
  ``REPRO_BENCH_TOLERANCE`` (default 20%) of its baseline.  Both the
  baseline and the current run record their worker count and CPU count
  (``n_workers`` / ``cpu_count``); when the current machine has less
  effective parallelism than the baseline machine, the gate relaxes by
  exactly that factor (relax-only — extra cores never tighten it), so
  a baseline recorded at ``--workers 4`` stays checkable on a 1-core
  CI runner;
* **objective gap** — the sharded 1024-cell objective must stay within
  ``SHARD_QUALITY_RATIO``/``SHARD_QUALITY_SLACK`` of the live
  monolithic objective (the documented quality bound, re-proven on
  every CI run);
* **objective drift** — every cell's objective must equal the recorded
  value exactly; the mapper is deterministic, so any drift means
  behavior changed and the baselines (and GOLDEN.json) need a
  deliberate regen.

Usage::

    PYTHONPATH=src python benchmarks/scaling_gate.py --write
    PYTHONPATH=src python benchmarks/scaling_gate.py --check
    PYTHONPATH=src python benchmarks/scaling_gate.py --check --skip-100k
    PYTHONPATH=src python benchmarks/scaling_gate.py --check --workers 4
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from smoke import _best_of, calibrate  # noqa: E402

from repro.conformance.corpus import case_by_name  # noqa: E402
from repro.hmn import HMNConfig, hmn_map  # noqa: E402
from repro.shard import SHARD_QUALITY_RATIO, SHARD_QUALITY_SLACK  # noqa: E402
from repro.topology import fat_tree_cluster  # noqa: E402
from repro.workload import generate_virtual_environment  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "BENCH_scaling.json"
BASE_SEED = 2009


def _effective_parallelism(cell: dict) -> int:
    """min(workers, cores) a cell's measurement actually had available.
    Old baselines without the fields read as serial (1)."""
    return max(1, min(cell.get("n_workers", 1), cell.get("cpu_count", 1)))


def _dual_run_instance():
    cluster = fat_tree_cluster(16, seed=BASE_SEED, lat=1.0)
    venv = generate_virtual_environment(
        1500, density=2.4 / 1499, seed=BASE_SEED
    )
    return cluster, venv


def _cells(skip_100k: bool, workers):
    """(name, build -> (run -> mapping), reps, parallel) triples, cheap
    first.  *workers* feeds ``HMNConfig.shard_workers`` on the sharded
    cells only — the monolithic cell has no pod stage to parallelize.
    """
    cells = []

    def sharded_1024():
        cluster, venv = _dual_run_instance()
        config = HMNConfig(shard=16, shard_workers=workers)
        return lambda: hmn_map(cluster, venv, config)

    def mono_1024():
        cluster, venv = _dual_run_instance()
        config = HMNConfig(shard="off", router="label_setting")
        return lambda: hmn_map(cluster, venv, config)

    def sharded_100k():
        cluster, venv, config = case_by_name("scale-fat-tree-100k").instance()
        config = dataclasses.replace(config, shard_workers=workers)
        return lambda: hmn_map(cluster, venv, config)

    cells.append(("sharded-fat-tree-1024", sharded_1024, 3, True))
    cells.append(("mono-fat-tree-1024", mono_1024, 1, False))
    if not skip_100k:
        cells.append(("sharded-fat-tree-100k", sharded_100k, 1, True))
    return cells


def measure_cells(skip_100k: bool, calib: float, workers) -> dict[str, dict]:
    out: dict[str, dict] = {}
    cpu_count = os.cpu_count() or 1
    for name, build, reps, parallel in _cells(skip_100k, workers):
        run = build()
        if reps > 1:
            mapping = run()  # warm: C-kernel build would dominate a sub-second cell
            seconds = _best_of(run, reps)
        else:
            # minute-scale cells run once, cold — compile noise is lost
            # in the measurement, and a second map would double CI cost
            t0 = time.perf_counter()
            mapping = run()
            seconds = time.perf_counter() - t0
        n_workers = (
            mapping.meta["shard"]["n_workers"] if parallel else 1
        )
        out[name] = {
            "units": seconds / calib,
            "seconds": round(seconds, 3),
            "calibration_seconds": round(calib, 6),
            "objective": mapping.meta["objective"],
            "mapper": mapping.mapper,
            "n_workers": n_workers,
            "cpu_count": cpu_count,
        }
        print(
            f"[cell] {name:<24} {out[name]['units']:10.3f} units "
            f"({seconds:.2f}s, {n_workers}w/{cpu_count}c)  "
            f"objective {mapping.meta['objective']:.4f}"
        )
    return out


def write_baseline(skip_100k: bool, workers) -> int:
    calib = calibrate()
    cells = measure_cells(skip_100k, calib, workers)
    doc = {
        "benchmark": "scaling",
        "tolerance_default": 0.20,
        "quality": {"ratio": SHARD_QUALITY_RATIO, "slack": SHARD_QUALITY_SLACK},
        "cells": cells,
    }
    if skip_100k and BASELINE.exists():
        old = json.loads(BASELINE.read_text())["cells"]
        if "sharded-fat-tree-100k" in old:
            doc["cells"]["sharded-fat-tree-100k"] = old["sharded-fat-tree-100k"]
    BASELINE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE.name}")
    return 0


def check_baseline(skip_100k: bool, tolerance: float, workers) -> int:
    if not BASELINE.exists():
        print(f"missing {BASELINE.name} (run --write)", file=sys.stderr)
        return 1
    doc = json.loads(BASELINE.read_text())
    calib = calibrate()
    now = measure_cells(skip_100k, calib, workers)
    failures = []
    for name, cell in now.items():
        base = doc["cells"].get(name)
        if base is None:
            failures.append(f"{name}: no baseline (run --write)")
            continue
        # Relax-only parallelism normalization: a baseline measured
        # with more effective workers than this run may legitimately
        # take up to eff_base/eff_now times longer here; more local
        # parallelism than the baseline never tightens the gate.
        relax = max(
            1.0, _effective_parallelism(base) / _effective_parallelism(cell)
        )
        allowed = (1.0 + tolerance) * relax
        ratio = cell["units"] / base["units"]
        verdict = "ok" if ratio <= allowed else "REGRESSION"
        note = f" (gate x{relax:.1f}: baseline had more workers)" if relax > 1.0 else ""
        print(
            f"[time] {name:<24} {cell['units']:10.3f} vs {base['units']:10.3f} "
            f"units ({ratio:.1%} of baseline) {verdict}{note}"
        )
        if verdict != "ok":
            failures.append(
                f"{name}: {ratio:.1%} of baseline "
                f"(> {allowed:.0%} allowed)"
            )
        if cell["objective"] != base["objective"]:
            failures.append(
                f"{name}: objective drifted {base['objective']!r} -> "
                f"{cell['objective']!r} — behavior changed; regen baselines "
                "and GOLDEN.json deliberately"
            )
    bound = (
        now["mono-fat-tree-1024"]["objective"] * SHARD_QUALITY_RATIO
        + SHARD_QUALITY_SLACK
    )
    sharded_obj = now["sharded-fat-tree-1024"]["objective"]
    verdict = "ok" if sharded_obj <= bound else "QUALITY GAP"
    print(
        f"[gap]  sharded {sharded_obj:.4f} <= "
        f"mono*{SHARD_QUALITY_RATIO}+{SHARD_QUALITY_SLACK} = {bound:.4f} {verdict}"
    )
    if verdict != "ok":
        failures.append(
            f"quality: sharded objective {sharded_obj:.4f} exceeds bound {bound:.4f}"
        )
    if failures:
        print("\nFAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("\nscaling cells within tolerance; quality bound holds")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="seed/update the baseline")
    mode.add_argument("--check", action="store_true", help="compare to the baseline")
    parser.add_argument(
        "--skip-100k",
        action="store_true",
        help="skip the 100k-host cell (quick local runs; the committed "
        "baseline entry is preserved on --write)",
    )
    parser.add_argument(
        "--workers",
        default="auto",
        metavar="auto|N",
        help="shard_workers for the sharded cells (default: auto — "
        "REPRO_SHARD_WORKERS or serial)",
    )
    args = parser.parse_args(argv)
    workers = args.workers if args.workers == "auto" else int(args.workers)
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.20"))
    if args.write:
        return write_baseline(args.skip_100k, workers)
    return check_baseline(args.skip_100k, tolerance, workers)


if __name__ == "__main__":
    raise SystemExit(main())
