#!/usr/bin/env python3
"""The repository's benchmark: HMN mapping and tenant admission, end to
end and layer by layer.

Run from the repository root::

    python3 benchmarks/perf/run.py                        # every workload, seed 2009
    python3 benchmarks/perf/run.py --workload service --seed 7 --seconds 12
    python3 benchmarks/perf/run.py --trace                # per-layer metrics
    python3 benchmarks/perf/run.py --runs 10              # spread over 10 seeds
    python3 benchmarks/perf/run.py --smoke                # seconds-scale inputs

Each workload runs in its own child process.  The command prints every
metric by name and unit, checks the outputs, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``; it exits
non-zero when any check fails.  ``BENCHMARK.json`` at the repository
root names the workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170  # a run must end within 180 s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json; one pass with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload on seeds seed..seed+runs-1; "
                             "prints medians and quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale inputs (harness self-test)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    return args


def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.run_workload(
        args.child, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=harness.SMOKE if args.smoke else harness.FULL,
        out_dir=OUT,
    )
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return _crashed(workload, seed, f"timed out after {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _crashed(workload, seed, f"child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _crashed(workload: str, seed: int, why: str) -> dict:
    return {"workload": workload, "seed": seed, "correct": False, "attempted": 1,
            "failed": 1, "problems": [why], "digest": "", "metrics": {}}


def check_metrics(result: dict, declared: dict[str, dict], end_to_end: bool) -> None:
    """The run reports exactly the declared metrics, as finite numbers
    (end-to-end ones never 0)."""
    metrics = result["metrics"]
    if not result["correct"] and not metrics:
        return
    problems = result["problems"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number: {value!r}")
        elif end_to_end and value == 0:
            problems.append(f"{name} is 0")
    if problems:
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else math.inf


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/repro and {SPEC.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.child:
        return child(args)

    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[group]}

    results: dict[str, list[dict]] = {}
    for workload in workloads:
        for i in range(args.runs):
            result = run_child(workload, args.seed + i, args)
            check_metrics(result, declared, end_to_end=not args.trace)
            results.setdefault(workload, []).append(result)
            _print_run(result, declared)

    flagged = _print_spread(results, declared) if args.runs > 1 else []
    all_runs = [r for runs in results.values() for r in runs]
    summary = {
        "correct": all(r["correct"] for r in all_runs),
        "attempted": sum(r["attempted"] for r in all_runs),
        "failed": sum(r["failed"] for r in all_runs),
        "metrics": {},
    }
    for workload, runs in results.items():
        for name, meta in declared.items():
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if values:
                key = name if len(results) == 1 else f"{workload}.{name}"
                summary["metrics"][key] = {"value": statistics.median(values),
                                           "unit": meta["unit"]}
    if flagged:
        print(f"spread wider than the bound: {', '.join(flagged)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _print_run(result: dict, declared: dict[str, dict]) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"[{result['workload']} seed {result['seed']}] {verdict}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"digest {result['digest'][:16] or '-'}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    for name, meta in declared.items():
        if name in result["metrics"]:
            print(f"  {name:30s} {result['metrics'][name]:14.4f} {meta['unit']}")


def _print_spread(results: dict[str, list[dict]], declared: dict[str, dict]) -> list[str]:
    """Median and quartiles per metric and workload; returns the metrics
    whose quartile spread exceeds their bound."""
    flagged = []
    print(f"\n{'workload':18s} {'metric':30s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, runs in results.items():
        digests = {r["digest"] for r in runs}
        for name, meta in declared.items():
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if not values:
                continue
            median, q1, q3, rel = spread(values)
            bound = meta.get("bound")
            flag = ""
            if bound is not None and rel > bound:
                flag = "  WIDER THAN BOUND"
                flagged.append(f"{workload}.{name}")
            elif bound is not None and rel > bound / 3:
                flag = "  above a third of the bound"
            print(f"{workload:18s} {name:30s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{rel:8.1%} {'' if bound is None else f'{bound:.0%}':>6s}{flag}")
        print(f"{workload:18s} {len(digests)} distinct digests over {len(runs)} seeds")
    return flagged


if __name__ == "__main__":
    sys.exit(main())
