"""Command-line interface: ``python -m repro <command>``.

Commands mirror an emulator operator's workflow:

``gen-cluster``
    Generate a physical cluster description (any built-in topology,
    Table 1 heterogeneity) and write it as JSON.
``gen-venv``
    Generate a virtual environment (Table 1 workloads) as JSON.
``map``
    Map a venv JSON onto a cluster JSON with any pool heuristic,
    validate, print the report, optionally save the mapping JSON.
``simulate``
    Run the emulated experiment (two-phase or BSP) over a saved
    mapping and report the execution time.
``table2`` / ``table3`` / ``figure1``
    Regenerate the paper's evaluation artifacts at a chosen scale.
``chaos``
    Replay a seeded fault trace (host crashes, switch failures, link
    degradations, tenant churn) against the self-healing operator and
    report the survivability metrics.
``serve``
    Run the online admission service (queue + worker pool over one
    shared substrate) against a synthetic multi-tenant arrival trace,
    print acceptance/SLO figures, optionally persist the run to an
    experiment store and verify the restart round-trip.
``metrics-dump``
    Inspect an emitted observability artifact: validate + summarize a
    JSONL span trace, or print a metrics snapshot as Prometheus text.
``conformance``
    Correctness tooling: ``verify`` recomputes the golden corpus and
    compares against the committed digests, ``fuzz`` runs the seeded
    differential harness (route kernel vs reference routers, serial vs
    parallel runner, exact solver on tiny instances), ``regen`` refreshes
    ``GOLDEN.json`` after an intentional behavior change.
``mappers``
    List the heuristic pool.

The ``map``, ``table2``/``table3``, ``figure1`` and ``chaos`` commands
accept ``--trace FILE`` (JSONL span trace) and ``--metrics FILE``
(metrics JSON snapshot); instrumentation never changes results, so a
traced run is byte-identical to an untraced one.

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from repro.baselines.registry import available_mappers, get_mapper
from repro.core.cluster import PhysicalCluster
from repro.core.validate import validate_mapping
from repro.core.venv import VirtualEnvironment
from repro.errors import MappingError, ReproError

__all__ = ["main", "build_parser"]


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE",
                   help="write a JSONL span trace of the run here")
    p.add_argument("--metrics", metavar="FILE",
                   help="write a metrics JSON snapshot here")


@contextmanager
def _observability(args):
    """Enable recording for one command when --trace/--metrics ask for
    it; artifacts are written even if the command fails mid-run."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    if not trace and not metrics:
        yield
        return
    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.recording(metrics=registry) as tracer:
        try:
            yield
        finally:
            if trace:
                tracer.write(trace)
                print(f"wrote trace ({len(tracer.spans)} spans) -> {trace}",
                      file=sys.stderr)
            if metrics:
                registry.write_json(metrics)
                print(f"wrote metrics ({len(registry)} instruments) -> {metrics}",
                      file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HMN testbed mapping (Calheiros/Buyya/De Rose, ICPP 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cluster", help="generate a cluster description JSON")
    p.add_argument("output", help="output .json path")
    p.add_argument("--topology", default="torus",
                   choices=["torus", "switched", "ring", "line", "star", "tree",
                            "hypercube", "mesh", "random"])
    p.add_argument("--hosts", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bw", type=float, default=1000.0, help="link bandwidth (Mbit/s)")
    p.add_argument("--lat", type=float, default=5.0, help="link latency (ms)")
    p.add_argument("--density", type=float, default=0.2, help="random topology density")

    p = sub.add_parser("gen-venv", help="generate a virtual environment JSON")
    p.add_argument("output", help="output .json path")
    p.add_argument("--guests", type=int, default=100)
    p.add_argument("--workload", default="high-level", choices=["high-level", "low-level"])
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("map", help="map a venv onto a cluster")
    p.add_argument("cluster", help="cluster .json")
    p.add_argument("venv", help="virtual environment .json")
    p.add_argument("--mapper", default="hmn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shard", default="auto", metavar="auto|off|N",
                   help="shard-and-stitch control for the hmn mapper: 'auto' "
                        "engages pods at 4096+ hosts, 'off' forces the "
                        "monolithic pipeline, an integer forces that many pods")
    p.add_argument("--shard-workers", default="auto", metavar="auto|N",
                   help="worker processes for the sharded pod stages: 'auto' "
                        "reads REPRO_SHARD_WORKERS (else serial), an integer "
                        ">= 2 runs pods concurrently over shared memory; "
                        "mappings are byte-identical for any worker count")
    p.add_argument("--redundancy", type=int, default=0, metavar="K",
                   help="place K standby replicas per guest across distinct "
                        "failure domains (0-7; the primary mapping is "
                        "byte-identical for any K)")
    p.add_argument("--backup-paths", action="store_true",
                   help="pre-provision a link-disjoint backup path per vlink "
                        "with shared-risk bandwidth reservation")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="wall-clock budget in seconds for the anytime solvers "
                        "(bnb, exact): on expiry the best incumbent is "
                        "returned with an honest optimality gap")
    p.add_argument("--policy", metavar="FILE",
                   help="portfolio policy JSON (from 'repro race'); with "
                        "--mapper portfolio, runs the raced per-family winner")
    p.add_argument("--output", help="write the mapping .json here")
    p.add_argument("--quiet", action="store_true", help="suppress the report")
    _add_obs_flags(p)

    p = sub.add_parser("race",
                       help="F-Race the mapper portfolio over the scenario "
                            "suite and write a per-family policy")
    p.add_argument("--output", default="portfolio-policy.json", metavar="FILE",
                   help="write the PortfolioPolicy JSON here "
                        "(default portfolio-policy.json)")
    p.add_argument("--hosts", type=int, default=16,
                   help="host count of the raced substrates (default 16)")
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="Wilcoxon elimination significance level")
    p.add_argument("--max-scenarios", type=int, default=None, metavar="N",
                   help="race only the first N of the paper's 16 scenario rows")
    p.add_argument("--rounds", type=int, default=4, help="elimination rounds")
    p.add_argument("--reps-per-round", type=int, default=3,
                   help="repetitions of every scenario added per round")
    p.add_argument("--min-blocks", type=int, default=6,
                   help="blocks required before the first elimination test")
    p.add_argument("--workers", type=int, default=1,
                   help="BatchRunner process pool (the policy is "
                        "byte-identical at any worker count)")
    _add_obs_flags(p)

    p = sub.add_parser("validate", help="check a mapping against Eqs. 1-9")
    p.add_argument("cluster", help="cluster .json")
    p.add_argument("venv", help="virtual environment .json")
    p.add_argument("mapping", help="mapping .json")

    p = sub.add_parser("simulate", help="run the emulated experiment over a mapping")
    p.add_argument("cluster", help="cluster .json")
    p.add_argument("venv", help="virtual environment .json")
    p.add_argument("mapping", help="mapping .json")
    p.add_argument("--model", default="two-phase", choices=["two-phase", "bsp"])
    p.add_argument("--compute-seconds", type=float, default=100.0)
    p.add_argument("--comm-seconds", type=float, default=5.0)
    p.add_argument("--rounds", type=int, default=10, help="BSP supersteps")

    for table in ("table2", "table3"):
        p = sub.add_parser(table, help=f"regenerate the paper's {table}")
        p.add_argument("--reps", type=int, default=2)
        p.add_argument("--rows", default="subset", choices=["subset", "all"])
        p.add_argument("--seed", type=int, default=2009)
        p.add_argument("--workers", type=int, default=1,
                       help="process-pool size for the grid sweep (1 = serial; "
                            "results are identical either way)")
        _add_obs_flags(p)

    p = sub.add_parser("figure1", help="regenerate the paper's Figure 1 series")
    p.add_argument("--reps", type=int, default=2)
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (timing series: prefer 1 so wall "
                        "times are uncontended)")
    _add_obs_flags(p)

    p = sub.add_parser("chaos", help="run a seeded fault trace through the self-healing operator")
    p.add_argument("--cluster", help="cluster .json (default: a built-in topology)")
    p.add_argument("--topology", default="switched-multi",
                   choices=["torus", "switched", "switched-multi", "fat-tree"],
                   help="built-in substrate when no --cluster is given "
                        "(switched-multi: 40 paper hosts on a 3-switch cascade; "
                        "fat-tree: k=4, 16 hosts, 20 switches)")
    p.add_argument("--events", type=int, default=200)
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--host-crash-rate", type=float, default=0.08)
    p.add_argument("--switch-fail-rate", type=float, default=0.05)
    p.add_argument("--link-degrade-rate", type=float, default=0.1)
    p.add_argument("--max-dead-fraction", type=float, default=0.34,
                   help="ceiling on the fraction of hosts/switches down at once "
                        "(0.34 lets 1 of the cascade's 3 switches fail)")
    p.add_argument("--max-attempts", type=int, default=3, help="repair attempts per fault")
    p.add_argument("--redundancy", type=int, default=0, metavar="K",
                   help="admit every tenant with K standby replicas per guest "
                        "(fast failover promotes them before the repair loop)")
    p.add_argument("--backup-paths", action="store_true",
                   help="pre-provision link-disjoint backup paths per tenant "
                        "vlink (activated on path loss before re-routing)")
    p.add_argument("--no-shed", action="store_true",
                   help="never shed bystander tenants to make a repair fit")
    p.add_argument("--selfcheck", action="store_true",
                   help="validate every touched mapping against Eqs. 1-9 "
                        "(exits non-zero on any invariant violation)")
    p.add_argument("--json", dest="json_out", help="write the full ChaosResult here")
    _add_obs_flags(p)

    p = sub.add_parser("serve", help="drive the online admission service "
                                     "over a synthetic tenant trace")
    p.add_argument("--cluster", help="cluster .json (default: a built-in topology)")
    p.add_argument("--topology", default="torus", choices=["torus", "switched"],
                   help="built-in paper substrate when no --cluster is given")
    p.add_argument("--hosts", type=int, default=12,
                   help="host count for the built-in substrate")
    p.add_argument("--tenants", type=int, default=50,
                   help="arrivals to drive through the queue")
    p.add_argument("--mean-lifetime", type=float, default=5.0,
                   help="mean tenant lifetime (geometric, in arrival ticks)")
    p.add_argument("--guests-min", type=int, default=20)
    p.add_argument("--guests-max", type=int, default=50,
                   help="per-tenant guest count drawn uniformly from "
                        "[--guests-min, --guests-max)")
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--workers", type=int, default=2,
                   help="service worker tasks (decisions are byte-identical "
                        "at any count)")
    p.add_argument("--store", metavar="FILE",
                   help="persist the run to this experiment-store JSONL "
                        "(must not already exist)")
    p.add_argument("--check-store", action="store_true",
                   help="after the run, resume a fresh ServiceCore from the "
                        "store and verify the replayed state matches "
                        "(requires --store)")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the decision trace + SLO snapshot here")
    _add_obs_flags(p)

    p = sub.add_parser("metrics-dump",
                       help="inspect a trace JSONL or metrics JSON file")
    p.add_argument("file", help="a --trace JSONL or --metrics JSON artifact")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="print metrics snapshots as JSON instead of "
                        "Prometheus text")

    p = sub.add_parser("conformance",
                       help="golden-corpus and differential-fuzzing checks")
    csub = p.add_subparsers(dest="conformance_command", required=True)

    cp = csub.add_parser("verify",
                         help="recompute the golden corpus and compare digests")
    cp.add_argument("--case", action="append", metavar="NAME",
                    help="restrict to one corpus case (repeatable)")
    cp.add_argument("--tier", default="fast", choices=("fast", "scale", "all"),
                    help="corpus tier to recompute (scale = the 100k-host "
                         "cases, minutes each; default fast)")
    cp.add_argument("--list", action="store_true", help="list cases and exit")
    cp.add_argument("--quiet", action="store_true", help="only print mismatches")

    cp = csub.add_parser("fuzz",
                         help="differential fuzzing across routers/runners/exact")
    cp.add_argument("--seeds", type=int, default=50, metavar="N",
                    help="number of random instances to drive (default 50)")
    cp.add_argument("--base-seed", type=int, default=0)
    cp.add_argument("--out", metavar="FILE",
                    help="write the JSON report (the divergence-repro artifact) here")

    cp = csub.add_parser("regen",
                         help="recompute and overwrite GOLDEN.json after an "
                              "intentional behavior change")
    cp.add_argument("--output", metavar="FILE",
                    help="write elsewhere instead of the committed GOLDEN.json")
    cp.add_argument("--tier", default="fast", choices=("fast", "scale", "all"),
                    help="tier to recompute; other tiers keep their recorded "
                         "digests (default fast)")

    sub.add_parser("mappers", help="list the heuristic pool")
    return parser


def _gen_cluster(args) -> int:
    from repro import topology

    builders = {
        "torus": lambda: topology.torus_cluster(
            *_torus_shape(args.hosts), seed=args.seed, bw=args.bw, lat=args.lat
        ),
        "switched": lambda: topology.switched_cluster(
            args.hosts, seed=args.seed, bw=args.bw, lat=args.lat
        ),
        "ring": lambda: topology.ring_cluster(args.hosts, seed=args.seed, bw=args.bw, lat=args.lat),
        "line": lambda: topology.line_cluster(args.hosts, seed=args.seed, bw=args.bw, lat=args.lat),
        "star": lambda: topology.star_cluster(args.hosts, seed=args.seed, bw=args.bw, lat=args.lat),
        "tree": lambda: topology.tree_cluster(args.hosts, seed=args.seed, bw=args.bw, lat=args.lat),
        "hypercube": lambda: topology.hypercube_cluster(
            max(args.hosts - 1, 1).bit_length(), seed=args.seed, bw=args.bw, lat=args.lat
        ),
        "mesh": lambda: topology.mesh_cluster(
            *_torus_shape(args.hosts), seed=args.seed, bw=args.bw, lat=args.lat
        ),
        "random": lambda: topology.random_cluster(
            args.hosts, density=args.density, seed=args.seed, bw=args.bw, lat=args.lat
        ),
    }
    from repro import api

    cluster = builders[args.topology]()
    path = api.save(cluster, args.output)
    print(f"wrote {cluster} -> {path}")
    return 0


def _torus_shape(n_hosts: int) -> tuple[int, int]:
    rows = max(int(n_hosts**0.5), 1)
    while rows > 1 and n_hosts % rows:
        rows -= 1
    return rows, n_hosts // rows


def _gen_venv(args) -> int:
    from repro import api
    from repro.workload import generate_virtual_environment, workload_by_name

    venv = generate_virtual_environment(
        args.guests,
        workload=workload_by_name(args.workload),
        density=args.density,
        seed=args.seed,
    )
    path = api.save(venv, args.output)
    print(f"wrote {venv} -> {path}")
    return 0


def _load(path: str, kind) -> object:
    from repro import api
    from repro.core.mapping import Mapping

    loaders = {
        PhysicalCluster: api.load_cluster,
        VirtualEnvironment: api.load_venv,
        Mapping: api.load_mapping,
    }
    return loaders[kind](path)


def _map(args) -> int:
    from repro import api
    from repro.analysis.report import describe_mapping

    cluster = _load(args.cluster, PhysicalCluster)
    venv = _load(args.venv, VirtualEnvironment)
    mapper = get_mapper(args.mapper)
    kwargs: dict = {}
    canonical = args.mapper.lower()
    if canonical in ("hmn",):
        shard = args.shard if args.shard in ("auto", "off") else int(args.shard)
        workers = (
            args.shard_workers
            if args.shard_workers == "auto"
            else int(args.shard_workers)
        )
        kwargs["config"] = api.HMNConfig(
            shard=shard, shard_workers=workers,
            redundancy=args.redundancy, backup_paths=args.backup_paths,
            time_budget_s=args.time_budget,
        )
    elif canonical in ("bnb", "exact") and args.time_budget is not None:
        kwargs["time_budget_s"] = args.time_budget
    if canonical == "portfolio" and args.policy:
        kwargs["policy"] = args.policy
    try:
        mapping = mapper(cluster, venv, seed=args.seed, **kwargs)
    except MappingError as exc:
        print(f"mapping failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    validate_mapping(cluster, venv, mapping)
    # Persist before printing: a truncated pipe must not lose the artifact.
    if args.output:
        api.save(mapping, args.output)
    if not args.quiet:
        print(describe_mapping(cluster, venv, mapping))
    if args.output:
        print(f"\nwrote mapping -> {args.output}")
    return 0


def _race(args) -> int:
    from repro.portfolio import race
    from repro.workload import paper_clusters, paper_scenarios

    scenarios = paper_scenarios()
    if args.max_scenarios is not None:
        scenarios = scenarios[: args.max_scenarios]
    policy = race(
        paper_clusters(seed=args.seed, n_hosts=args.hosts),
        scenarios,
        alpha=args.alpha,
        base_seed=args.seed,
        workers=args.workers,
        min_blocks=args.min_blocks,
        max_rounds=args.rounds,
        reps_per_round=args.reps_per_round,
    )
    path = policy.save(args.output)
    for family in sorted(policy.families):
        verdict = policy.families[family]
        survivors = ", ".join(verdict.survivors)
        print(f"{family}: winner={verdict.winner} "
              f"(survivors: {survivors}; {verdict.blocks} blocks, "
              f"{verdict.rounds} rounds, {len(verdict.eliminated)} eliminated)")
    print(f"wrote policy -> {path}")
    return 0


def _validate(args) -> int:
    from repro.core.mapping import Mapping
    from repro.core.validate import validate_mapping as check

    cluster = _load(args.cluster, PhysicalCluster)
    venv = _load(args.venv, VirtualEnvironment)
    mapping = _load(args.mapping, Mapping)
    report = check(cluster, venv, mapping, raise_on_error=False)
    print(report)
    return 0 if report.ok else 1


def _simulate(args) -> int:
    from repro.core.mapping import Mapping
    from repro.simulator import BspSpec, ExperimentSpec, run_bsp_experiment, run_experiment

    cluster = _load(args.cluster, PhysicalCluster)
    venv = _load(args.venv, VirtualEnvironment)
    mapping = _load(args.mapping, Mapping)
    validate_mapping(cluster, venv, mapping)
    if args.model == "bsp":
        result = run_bsp_experiment(
            cluster, venv, mapping,
            BspSpec(rounds=args.rounds, compute_seconds=args.compute_seconds,
                    comm_seconds=args.comm_seconds / max(args.rounds, 1)),
        )
    else:
        result = run_experiment(
            cluster, venv, mapping,
            ExperimentSpec(compute_seconds=args.compute_seconds,
                           comm_seconds=args.comm_seconds),
        )
    print(result)
    print(f"simulated execution time: {result.makespan:.2f} s "
          f"(nominal compute {args.compute_seconds:.0f} s; "
          f"{result.oversubscribed_hosts} oversubscribed hosts)")
    return 0


def _grid(args, which: str) -> int:
    from repro.analysis import render_table2, render_table3
    from repro.api import run_grid
    from repro.baselines.registry import PAPER_MAPPERS
    from repro.simulator import ExperimentSpec
    from repro.workload import paper_clusters, paper_scenarios

    rows = paper_scenarios()
    if args.rows == "subset":
        rows = [rows[i] for i in (0, 1, 3, 12, 15)]
    records = run_grid(
        paper_clusters,
        rows,
        list(PAPER_MAPPERS),
        reps=args.reps,
        base_seed=args.seed,
        spec=ExperimentSpec(compute_seconds=100.0, comm_seconds=5.0),
        mapper_kwargs={"random": {"max_tries": 6}, "hosting+search": {"max_tries": 6}},
        workers=args.workers,
    )
    renderer = render_table2 if which == "table2" else render_table3
    print(renderer(records))
    return 0


def _figure1(args) -> int:
    from repro.analysis import figure1_series, render_figure1
    from repro.api import run_grid
    from repro.workload import paper_clusters, paper_scenarios

    rows = [paper_scenarios()[i] for i in (0, 1, 3, 12, 15)]
    records = run_grid(
        paper_clusters, rows, ["hmn"], reps=args.reps, base_seed=args.seed,
        simulate=False, workers=args.workers,
    )
    print(render_figure1(figure1_series(records)))
    return 0


def _chaos(args) -> int:
    import json

    from repro.analysis import describe_chaos
    from repro.api import HMNConfig, RepairPolicy, run_chaos
    from repro.resilience import FailureModel
    from repro.workload import paper_clusters

    if args.cluster:
        cluster = _load(args.cluster, PhysicalCluster)
    elif args.topology in ("torus", "switched"):
        cluster = paper_clusters(seed=args.seed)[args.topology]
    elif args.topology == "switched-multi":
        from repro.topology import switched_cluster

        cluster = switched_cluster(40, ports=16, seed=args.seed)
    else:
        from repro.topology import fat_tree_cluster

        cluster = fat_tree_cluster(4, seed=args.seed)

    model = FailureModel(
        cluster,
        host_crash_rate=args.host_crash_rate,
        switch_fail_rate=args.switch_fail_rate,
        link_degrade_rate=args.link_degrade_rate,
        max_dead_fraction=args.max_dead_fraction,
    )
    result = run_chaos(
        cluster,
        n_events=args.events,
        seed=args.seed,
        model=model,
        config=HMNConfig(
            redundancy=args.redundancy,
            backup_paths=args.backup_paths,
        ),
        policy=RepairPolicy(max_attempts=args.max_attempts, shed=not args.no_shed),
        selfcheck=args.selfcheck,
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1, sort_keys=True)
    print(f"cluster: {cluster}")
    print(describe_chaos(result))
    if args.selfcheck:
        print(f"\nselfcheck: {result.validations} validations, 0 invalid mappings")
    if args.json_out:
        print(f"\nwrote chaos result -> {args.json_out}")
    return 0


def _serve(args) -> int:
    import json
    import time

    from repro.api import AdmissionConfig, HMNConfig, open_service
    from repro.service import ServiceCore
    from repro.service.replay import replay_through
    from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters

    if args.check_store and not args.store:
        print("error: --check-store requires --store", file=sys.stderr)
        return 2
    if args.store and os.path.exists(args.store) and os.path.getsize(args.store):
        print(f"error: {args.store} already holds a store; pick a fresh path "
              f"(resume it programmatically with ServiceCore.resume)",
              file=sys.stderr)
        return 2
    if args.guests_max <= args.guests_min:
        print("error: --guests-max must exceed --guests-min", file=sys.stderr)
        return 2

    if args.cluster:
        cluster = _load(args.cluster, PhysicalCluster)
    else:
        cluster = paper_clusters(seed=args.seed, n_hosts=args.hosts)[args.topology]

    def make_venv(i, rng):
        n = int(rng.integers(args.guests_min, args.guests_max))
        return generate_virtual_environment(
            n, workload=LOW_LEVEL, density=0.05,
            seed=int(rng.integers(2**31 - 1)), id_offset=i * 100_000,
        )

    cfg = AdmissionConfig(
        n_tenants=args.tenants, mean_lifetime=args.mean_lifetime,
        seed=args.seed, hmn=HMNConfig(),
    )
    started = time.perf_counter()
    with open_service(cluster, config=cfg.hmn, n_workers=args.workers,
                      store=args.store) as svc:
        report = replay_through(svc, make_venv=make_venv, config=cfg)
        snapshot = svc.core.slo_snapshot()
    elapsed = time.perf_counter() - started

    print(f"cluster: {cluster}")
    print(f"workers: {args.workers}  arrivals: {args.tenants}  seed: {args.seed}")
    print(f"accepted: {report.accepted}  rejected: {report.rejected}  "
          f"acceptance ratio: {report.acceptance_ratio:.3f}")
    print(f"peak concurrent tenants: {report.peak_concurrent_tenants}  "
          f"mean memory utilization: {report.mean_memory_utilization:.3f}")
    print(f"admit latency p50: {snapshot['p50_s'] * 1e3:.2f} ms  "
          f"p99: {snapshot['p99_s'] * 1e3:.2f} ms")
    print(f"throughput: {args.tenants / elapsed:.1f} tenants/s "
          f"({elapsed:.2f} s wall)")

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(
                {
                    "decisions": [d.to_dict() for d in report.decisions],
                    "slo": snapshot,
                    "throughput_tps": args.tenants / elapsed,
                },
                fh, indent=1, sort_keys=True,
            )
        print(f"\nwrote service report -> {args.json_out}")
    if args.store:
        print(f"wrote experiment store -> {args.store}")
    if args.check_store:
        # Resuming replays every logged request through the same admit
        # path and raises StoreError on any byte-level divergence — the
        # resume itself is the verification.
        core = ServiceCore.resume(cluster, args.store)
        ok = (core.accepted == report.accepted
              and core.rejected == report.rejected
              and len(core.live_tenants) == snapshot["live"])
        core.close()
        if not ok:
            print("store round-trip FAILED: resumed counters diverge",
                  file=sys.stderr)
            return 1
        print(f"store round-trip ok: {core.accepted + core.rejected} decisions "
              f"replayed bit-exactly, {int(snapshot['live'])} tenants live")
    return 0


def _conformance(args) -> int:
    from repro import conformance

    if args.conformance_command == "verify":
        cases = conformance.corpus_cases(args.tier)
        if args.case:
            cases = tuple(conformance.case_by_name(n) for n in args.case)
        if args.list:
            for case in cases:
                print(f"{case.name:<28} [{case.kind}/{case.tier}] {case.note}")
            return 0
        golden = conformance.load_golden()

        def progress(case, actual):
            if args.quiet:
                return
            status = "ok" if golden.get(case.name) == actual else "MISMATCH"
            print(f"{status:<9} {case.name:<28} {actual[:16]}")

        mismatches = conformance.verify(cases, golden=golden, progress=progress)
        if mismatches:
            print(f"\n{len(mismatches)} corpus case(s) diverged from GOLDEN.json:",
                  file=sys.stderr)
            for m in mismatches:
                print(f"  {m}", file=sys.stderr)
            print("if the behavior change is intentional, run "
                  "`repro conformance regen` and commit the diff", file=sys.stderr)
            return 1
        print(f"{len(cases)} case(s) conformant")
        return 0

    if args.conformance_command == "fuzz":
        report = conformance.run_fuzz(args.seeds, base_seed=args.base_seed)
        if args.out:
            report.write(args.out)
            print(f"wrote fuzz report -> {args.out}")
        print(f"seeds: {report.seeds_run}  mapped: {report.n_mapped}  "
              f"unmappable: {report.n_unmappable}  exact-checked: "
              f"{report.n_exact_checked}  runner grids: {report.n_runner_grids}  "
              f"sharded: {report.n_sharded} ({report.n_shard_gap} mono-gaps)  "
              f"redundant: {report.n_redundant}")
        if not report.ok:
            print(f"{len(report.divergences)} divergence(s):", file=sys.stderr)
            for d in report.divergences:
                print(f"  {d}", file=sys.stderr)
            return 1
        print("no divergences")
        return 0

    if args.conformance_command == "regen":
        path = conformance.write_golden(args.output, tier=args.tier)
        n = len(conformance.corpus_cases(args.tier))
        print(f"recomputed {n} {args.tier}-tier digest(s) -> {path}")
        return 0
    raise AssertionError(f"unhandled conformance command {args.conformance_command!r}")


def _metrics_dump(args) -> int:
    import json

    from repro import obs

    try:
        text = open(args.file).read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # A metrics snapshot is one JSON object with the versioned envelope;
    # anything else is treated as a JSONL span trace.
    doc = None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        pass
    if isinstance(doc, dict) and doc.get("format") == "repro/metrics@1":
        snapshot = obs.load_metrics(args.file)
        if args.as_json:
            print(json.dumps(snapshot, indent=1, sort_keys=True))
        else:
            print(obs.MetricsRegistry.from_json(snapshot).to_prometheus(), end="")
        return 0

    try:
        spans = obs.load_trace(args.file)
    except ValueError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    by_name: dict[str, int] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0) + 1
    roots = [s for s in spans if s["parent"] is None]
    pids = {s.get("pid") for s in spans}
    print(f"valid trace: {len(spans)} spans, {len(roots)} roots, "
          f"{len(pids)} process(es)")
    for name in sorted(by_name):
        print(f"  {by_name[name]:>8}  {name}")
    for s in roots:
        print(f"root {s['name']} (id {s['id']}): {s['dur']:.3f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _observability(args):
            if args.command == "gen-cluster":
                return _gen_cluster(args)
            if args.command == "gen-venv":
                return _gen_venv(args)
            if args.command == "map":
                return _map(args)
            if args.command == "race":
                return _race(args)
            if args.command == "validate":
                return _validate(args)
            if args.command == "simulate":
                return _simulate(args)
            if args.command in ("table2", "table3"):
                return _grid(args, args.command)
            if args.command == "figure1":
                return _figure1(args)
            if args.command == "chaos":
                return _chaos(args)
            if args.command == "serve":
                return _serve(args)
            if args.command == "conformance":
                return _conformance(args)
            if args.command == "metrics-dump":
                return _metrics_dump(args)
            if args.command == "mappers":
                for name in available_mappers():
                    print(name)
                return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. ``repro metrics-dump ... | head``):
        # exit quietly like a well-behaved filter.  Redirect stdout to
        # devnull first so the interpreter's shutdown flush cannot
        # raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
